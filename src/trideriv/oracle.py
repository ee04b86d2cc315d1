"""Brute-force ground truth over the boolean semiring at tiny dimensions.

The boolean semiring embeds in every unital additively idempotent
semiring (its 0 and 1 satisfy 1 + 1 = 1 there too), so a boolean Leibniz
counterexample kills a mask map over every carrier, while the local
characterization covers the sufficiency side.  The full sweep classifies
all 2^(n(n+1)/2) zero patterns by testing the Leibniz rule on all matrix
pairs.

Matrices are indexed by their entry bitmask (bit t of the index is the
t-th row-major entry), and so are patterns (bit t set: entry t zeroed).
The sweep over all pairs splits by cell.  Cell (i, l) of AB reads only
row i of A over columns i..l and column l of B over rows i..l, and a mask
map f acts entrywise, so f(AB), f(A)B and Af(B) read there only those two
local vectors, and f only which of their entries it zeroes: the row key R
(bit k: (i, i+k) zeroed) and the column key C (bit k: (i+k, l) zeroed),
whose top and bottom bits are the cell itself.  So f breaks Leibniz on
some pair iff, at some cell, one of the 4^L pairs of local vectors
(L = l - i + 1) breaks it; :func:`_sweep` tries them all by brute force,
with (AB)_il the OR of av & bv, once per (L, R, C) for every n.  No closed
form in R and C replaces the sweep: it would be the rule of
:meth:`ZeroPattern.is_derivation`, and the two routes would be one.

The first failing pair in bitmask order (A outer) follows from the
sweeps.  A failing A still fails once every bit outside one failing row
vector is cleared, which only lowers its index, so the least failing A is
a cell's least failing row vector, placed in row i; the least B failing
with it is, over the cells where its row vector fails, the least column
vector failing with that row vector, placed in column l.

Each fact has two routes.  Every verdict is compared with the local
characterization in both directions, and a disagreement raises; the
witness search re-checks a found pair with :func:`leibniz_check` on real
matrices, whose product is ``UTMatrix.__mul__``.  The test suite
re-checks the encoding lemmas, and the sweeps against real products: the
first failing pair of every pattern at n <= 3, and seeded (pattern, A, B)
triples at n = 4 and 5.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .derivations import Witness, ZeroPattern, _check_mask_map, format_pattern, leibniz_check
from .matrices import UTMatrix, _mul_plan, ensure_positive_dimension, iter_positions, triangle_size
from .semirings import BOOLEAN, _Frozen

EXHAUSTIVE_LIMIT = 5


class CapacityError(ValueError):
    """Requested dimension exceeds the exhaustive-search budget."""


def _check_exhaustive(n: int) -> None:
    """The dimension rule and the cap of every exhaustive path."""
    ensure_positive_dimension(n)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(f"n={n} too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})")


def _boolean(n: int, bits: int) -> UTMatrix:
    """The boolean matrix of bitmask index ``bits``."""
    return UTMatrix._trusted(n, BOOLEAN, tuple(bits >> t & 1 for t in range(triangle_size(n))))


def enumerate_matrices(n: int) -> Iterator[UTMatrix]:
    """Every boolean upper-triangular matrix exactly once, in bitmask order."""
    _check_exhaustive(n)
    for bits in range(1 << triangle_size(n)):
        yield _boolean(n, bits)


def matrix_bits(matrix: UTMatrix) -> int:
    """The bitmask index of a boolean matrix in the enumeration order."""
    return sum(1 << t for t, v in enumerate(matrix.entries) if v)


@functools.lru_cache(maxsize=EXHAUSTIVE_LIMIT)
def _cells(n: int) -> tuple[tuple[tuple, int, dict[int, dict]], ...]:
    """The engine's first step, after the cap: per cell, narrowest first
    (most patterns fail at a narrow cell, and a new sweep costs 4^L pairs),
    its ``_mul_plan(n)`` pairs (k = i..l: the offsets of (i, k) and (k, l)),
    the bitmask of their entries, and a dict from masked patterns to sweeps."""
    return tuple(
        (pairs, sum(1 << t for t in {t for pair in pairs for t in pair}), {})
        for pairs in sorted(_mul_plan(n), key=len)
    )


@functools.cache
def _sweep(length: int, row_key: int, col_key: int) -> dict[int, tuple[int, ...]]:
    """All 4^L pairs (av, bv) of local vectors at a cell of width L =
    ``length``: av is row i of A (bit k for (i, i+k)), bv column l of B
    (bit k for (i+k, l)), and the map zeroes the row bits in ``row_key`` and
    the column bits in ``col_key``.  Maps each row vector that fails with
    some bv to those bv, ascending; empty iff the cell obeys Leibniz."""
    own = row_key >> length - 1  # the cell (i, l): top row bit, bottom column bit
    fails = {}
    for av in range(1 << length):
        bad = tuple(
            bv for bv in range(1 << length)
            # f(AB)_il against (f(A)B)_il ⊕ (Af(B))_il
            if (0 if own else av & bv != 0) != (av & ~row_key & bv != 0 or av & bv & ~col_key != 0)
        )
        if bad:
            fails[av] = bad
    return fails


def _failing_cells(n: int, zeroed: int) -> Iterator[tuple[tuple, dict]]:
    """Each cell, narrowest first, where the pattern zeroing the bitmask
    ``zeroed`` breaks Leibniz: its ``_mul_plan`` pairs and its sweep."""
    for pairs, mask, known in _cells(n):
        fails = known.get(zeroed & mask)
        if fails is None:
            row_key = col_key = 0
            for k, (p, q) in enumerate(pairs):
                row_key |= (zeroed >> p & 1) << k
                col_key |= (zeroed >> q & 1) << k
            fails = known[zeroed & mask] = _sweep(len(pairs), row_key, col_key)
        if fails:
            yield pairs, fails


def _confirm(found: bool, pattern: ZeroPattern) -> None:
    """Raise RuntimeError unless the local characterization agrees with the sweeps."""
    if found == pattern.is_derivation():
        raise RuntimeError(
            f"cell sweeps {'find a' if found else 'find no'} boolean witness "
            f"for pattern {format_pattern(pattern)!r}, but the local characterization disagrees"
        )


def exhaustive_leibniz_witness(f: ZeroPattern) -> tuple[UTMatrix, UTMatrix, Witness] | None:
    """First (A, B, witness) in bitmask order violating the Leibniz rule over
    all boolean pairs at the map's dimension; only mask maps are accepted.
    The verdict is compared with :meth:`ZeroPattern.is_derivation` and the
    pair is re-checked with :func:`leibniz_check`; a disagreement raises
    RuntimeError."""
    _check_mask_map(f, "exhaustive search")  # before f.n
    _check_exhaustive(f.n)  # before f's cells or offsets
    zeroed = sum(1 << t for t in f._zeroed)  # distinct offsets
    cells = list(_failing_cells(f.n, zeroed))
    _confirm(bool(cells), f)
    if not cells:
        return None
    a_bits = min(min(fails) << pairs[0][0] for pairs, fails in cells)  # row i starts at (i, i)
    b_bits = min(
        sum(1 << q for k, (_, q) in enumerate(pairs) if fails[row][0] >> k & 1)
        for pairs, fails in cells
        if (row := a_bits >> pairs[0][0] & (1 << len(pairs)) - 1) in fails
    )
    a, b = _boolean(f.n, a_bits), _boolean(f.n, b_bits)
    witness = leibniz_check(f, a, b)
    if witness is None:
        raise RuntimeError(
            f"cell sweeps flag pair {(a_bits, b_bits)} for pattern "
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

    A pattern is recorded as a derivation iff no cell's sweep finds a
    failing pair; each verdict is also compared with the local
    characterization, and a disagreement (there should be none) raises
    RuntimeError.
    """
    _check_exhaustive(n)
    positions = list(iter_positions(n))
    count = 1 << len(positions)

    derivations = []
    for zeroed in range(count):
        pattern = ZeroPattern._trusted(
            n=n, positions=frozenset(p for t, p in enumerate(positions) if zeroed >> t & 1)
        )
        found = next(_failing_cells(n, zeroed), None) is not None
        _confirm(found, pattern)
        if not found:
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
