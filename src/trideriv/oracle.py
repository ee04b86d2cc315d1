"""Brute-force ground truth over the boolean semiring at tiny dimensions.

The boolean semiring embeds in every unital additively idempotent
semiring (its 0 and 1 satisfy 1 + 1 = 1 there too), so a boolean Leibniz
counterexample kills a mask map over every carrier, while the local
characterization covers the sufficiency side.  The full sweep classifies
all 2^(n(n+1)/2) zero patterns by testing the Leibniz rule on all matrix
pairs.

Internally matrices are indexed by their entry bitmask (bit t of the
index is the t-th row-major entry), so masking is ``index & keep`` and
matrix addition is bitwise-or of indices; the product table is computed
once per dimension and process with the real matrix multiplication.
:func:`_table` holds each row a of the table as one int, with one
field of N bits per entry t (N matrices), so a scan tests every B of the
row with a few int operations.  Bit b of a field stands for the B of
index b, and masking B becomes a shift: b & keep differs from b only in
zeroed bits, so shifting the bits of the b ⊆ keep up by 2**u, once for
each zeroed bit u, copies A·(B & keep) onto every b.  One engine,
:func:`_first_failure`, scans the packed rows for both the witness search
and the classification, and compares each verdict with the local
characterization in both directions; a disagreement raises.  The witness
search also re-checks a found pair with :func:`leibniz_check` on real
matrices.  The encoding lemmas and the packing are re-checked
exhaustively in the test suite.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .derivations import (
    Witness,
    ZeroPattern,
    _check_mask_map,
    format_pattern,
    leibniz_check,
)
from .matrices import UTMatrix, ensure_positive_dimension, iter_positions, triangle_size
from .semirings import BOOLEAN, _Frozen

EXHAUSTIVE_LIMIT = 3


class CapacityError(ValueError):
    """Requested dimension exceeds the exhaustive-search budget."""


def enumerate_matrices(n: int) -> Iterator[UTMatrix]:
    """Every boolean upper-triangular matrix exactly once, in bitmask order."""
    ensure_positive_dimension(n)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"n={n} too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})"
        )
    size = triangle_size(n)
    for bits in range(1 << size):
        yield UTMatrix._trusted(n, BOOLEAN, tuple(bits >> t & 1 for t in range(size)))


def matrix_bits(matrix: UTMatrix) -> int:
    """The bitmask index of a boolean matrix in the enumeration order."""
    return sum(1 << t for t, v in enumerate(matrix.entries) if v)


@functools.lru_cache(maxsize=EXHAUSTIVE_LIMIT)
def _table(n: int) -> tuple[tuple[UTMatrix, ...], tuple[int, ...]]:
    """All boolean matrices at dimension n (refused outside 1..EXHAUSTIVE_LIMIT
    by :func:`enumerate_matrices`), and the product table with one int per
    row a: bit t·N + b is bit t of the index of AB, N the number of matrices."""
    mats = tuple(enumerate_matrices(n))
    width = len(mats)
    # spread[x] puts bit t of the index x at bit t·N.
    spread = [sum((x >> t & 1) << t * width for t in range(triangle_size(n))) for x in range(width)]
    return mats, tuple(
        sum(spread[matrix_bits(a * m)] << b for b, m in enumerate(mats)) for a in mats
    )


def _first_failure(
    rows: tuple[int, ...], zeroed: int, pattern: ZeroPattern
) -> tuple[int, int] | None:
    """First (a, b) in bitmask order where ``pattern``, which zeroes the
    entries in the bitmask ``zeroed``, breaks Leibniz.  A verdict that
    disagrees with :meth:`ZeroPattern.is_derivation` raises RuntimeError.

    ``rows`` is the packed :func:`_table`: row a holds AB for every b at once, one
    N-bit field per entry t.  With keep the kept entries, f(A)B is the
    packed row of a & keep, and f(AB) is the row with only the fields
    t ∈ keep.  Af(B) needs, at each b, row a's bit at b & keep: take the
    bits of the b ⊆ keep and, for each zeroed bit u, ``x |= x << 2**u``,
    which copies each b onto b | 2**u with the same kept bits.  Such a b
    lacks bit u, so b + 2**u stays inside its field.  The failing b's of
    row a are the set bits of (f(A)B | Af(B)) ^ f(AB), OR-ed over the
    fields; the lowest one is next in bitmask order.  (The lowest set bit
    of the whole int is the lowest (t, b), which is not that order.)
    """
    width = len(rows)
    size = width.bit_length() - 1
    keep = ~zeroed & (width - 1)
    field = (1 << width) - 1
    kept_t = 0  # the fields t ∈ keep
    kept_b = sum(1 << t * width for t in range(size))  # b = 0 in every field,
    shifts = []
    for u in range(size):
        if keep >> u & 1:
            kept_t |= field << u * width
            kept_b |= kept_b << (1 << u)  # then every b ⊆ keep
        else:
            shifts.append(1 << u)
    found = None
    for a, row in enumerate(rows):
        af_b = row & kept_b
        for shift in shifts:
            af_b |= af_b << shift
        bad = (rows[a & keep] | af_b) ^ (row & kept_t)
        if bad:
            any_t = 0
            while bad:
                any_t |= bad & field
                bad >>= width
            found = a, (any_t & -any_t).bit_length() - 1
            break
    if (found is None) != pattern.is_derivation():
        raise RuntimeError(
            f"product table {'finds no' if found is None else 'finds a'} boolean witness "
            f"for pattern {format_pattern(pattern)!r}, but the local characterization disagrees"
        )
    return found


def exhaustive_leibniz_witness(f: ZeroPattern) -> tuple[UTMatrix, UTMatrix, Witness] | None:
    """First (A, B, witness) violating the Leibniz rule over all boolean
    pairs at the map's dimension.

    Only mask maps are accepted.  The verdict is compared with
    :meth:`ZeroPattern.is_derivation`, and a failing pair found in the
    product table is re-checked with :func:`leibniz_check`; a
    disagreement raises RuntimeError.
    """
    _check_mask_map(f, "exhaustive search")  # before f.n, and before any cell or offset
    mats, rows = _table(f.n)  # the cap, before f's cells or offsets
    zeroed = sum(1 << t for t in f._zeroed)  # distinct offsets
    found = _first_failure(rows, zeroed, f)
    if found is None:
        return None
    a, b = mats[found[0]], mats[found[1]]
    witness = leibniz_check(f, a, b)
    if witness is None:
        raise RuntimeError(
            f"product table flags pair {found} for pattern "
            f"{format_pattern(f)!r}, but the matrices satisfy Leibniz"
        )
    return a, b, witness


class OracleReport(_Frozen):
    """Classification of every zero pattern at dimension n."""

    _fields = ("n", "total_patterns", "derivation_patterns", "interval_form_count")

    @property
    def derivation_count(self) -> int:
        return len(self.derivation_patterns)

    @property
    def other_count(self) -> int:
        return self.derivation_count - self.interval_form_count

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.derivation_count, self.interval_form_count, self.other_count)


def brute_force_classify(n: int) -> OracleReport:
    """Sweep every zero pattern against every boolean matrix pair.

    A pattern is recorded as a derivation iff no pair witnesses a Leibniz
    failure; each verdict is also compared with the local characterization,
    and a disagreement (there should be none) raises RuntimeError.
    """
    rows = _table(n)[1]
    positions = list(iter_positions(n))
    count = len(rows)

    derivations = []
    for pattern_bits in range(count):
        pattern = ZeroPattern(
            n,
            frozenset(p for t, p in enumerate(positions) if pattern_bits >> t & 1),
        )
        if _first_failure(rows, pattern_bits, pattern) is None:
            derivations.append(pattern)
    interval = sum(1 for p in derivations if p.interval_form() is not None)
    return OracleReport(n, count, tuple(derivations), interval)


def format_report(report: OracleReport) -> str:
    """Line-oriented rendering: one derivation pattern per line, then counts."""
    lines = [f"derivation={format_pattern(p)}" for p in report.derivation_patterns]
    lines.append(f"total={report.derivation_count}")
    lines.append(f"interval_form={report.interval_form_count}")
    lines.append(f"other={report.other_count}")
    return "\n".join(lines) + "\n"
