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
once per dimension and process with the real matrix multiplication.  One
engine, :func:`_first_failure`, scans that table for both the witness
search and the classification, and compares each verdict with the local
characterization in both directions; a disagreement raises.  The witness
search also re-checks a found pair with :func:`leibniz_check` on real
matrices.  The encoding lemmas are re-checked exhaustively in the test
suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .derivations import (
    MaskDerivation,
    Witness,
    ZeroPattern,
    _as_pattern,
    _check_mask_map,
    format_pattern,
    leibniz_check,
)
from .matrices import UTMatrix, ensure_positive_dimension, iter_positions, triangle_size
from .semirings import BOOLEAN

EXHAUSTIVE_LIMIT = 3


class CapacityError(ValueError):
    """Requested dimension exceeds the exhaustive-search budget."""


def _check_dimension(n: int) -> None:
    ensure_positive_dimension(n)
    if n > EXHAUSTIVE_LIMIT:
        raise CapacityError(
            f"n={n} too large for exhaustive search (limit {EXHAUSTIVE_LIMIT})"
        )


def enumerate_matrices(n: int) -> Iterator[UTMatrix]:
    """Every boolean upper-triangular matrix exactly once, in bitmask order."""
    _check_dimension(n)
    size = triangle_size(n)
    for bits in range(1 << size):
        yield UTMatrix._trusted(n, BOOLEAN, tuple(bits >> t & 1 for t in range(size)))


def matrix_bits(matrix: UTMatrix) -> int:
    """The bitmask index of a boolean matrix in the enumeration order."""
    return sum(1 << t for t, v in enumerate(matrix.entries) if v)


@functools.lru_cache(maxsize=EXHAUSTIVE_LIMIT)
def _table(n: int) -> tuple[tuple[UTMatrix, ...], tuple[tuple[int, ...], ...]]:
    """All boolean matrices at dimension n and their product table by index."""
    mats = tuple(enumerate_matrices(n))
    return mats, tuple(tuple(matrix_bits(a * b) for b in mats) for a in mats)


def _first_failure(
    product: tuple[tuple[int, ...], ...], zeroed: int, pattern: ZeroPattern
) -> tuple[int, int] | None:
    """First (a, b) in bitmask order where ``pattern``, which zeroes the
    entries in the bitmask ``zeroed``, breaks Leibniz.  A verdict that
    disagrees with :meth:`ZeroPattern.is_derivation` raises RuntimeError.
    """
    keep = ~zeroed & (len(product) - 1)
    found = None
    for a, row in enumerate(product):
        kept_row = product[a & keep]
        for b, ab in enumerate(row):
            if kept_row[b] | row[b & keep] != ab & keep:
                found = a, b
                break
        if found:
            break
    if (found is None) != pattern.is_derivation():
        raise RuntimeError(
            f"product table {'finds no' if found is None else 'finds a'} boolean witness "
            f"for pattern {format_pattern(pattern)!r}, but the local characterization disagrees"
        )
    return found


def exhaustive_leibniz_witness(
    f: MaskDerivation | ZeroPattern,
) -> tuple[UTMatrix, UTMatrix, Witness] | None:
    """First (A, B, witness) violating the Leibniz rule over all boolean
    pairs at the map's dimension.

    Only mask maps are accepted.  The verdict is compared with
    :meth:`ZeroPattern.is_derivation`, and a failing pair found in the
    product table is re-checked with :func:`leibniz_check`; a
    disagreement raises RuntimeError.
    """
    _check_mask_map(f, "exhaustive search")  # before f.n, and before any pattern or offset
    n = f.n
    _check_dimension(n)
    pattern = _as_pattern(f)
    zeroed = sum(1 << t for t in pattern._zeroed)  # distinct offsets
    mats, product = _table(n)
    found = _first_failure(product, zeroed, pattern)
    if found is None:
        return None
    a, b = mats[found[0]], mats[found[1]]
    witness = leibniz_check(f, a, b)
    if witness is None:
        raise RuntimeError(
            f"product table flags pair {found} for pattern "
            f"{format_pattern(pattern)!r}, but the matrices satisfy Leibniz"
        )
    return a, b, witness


@dataclass(frozen=True)
class OracleReport:
    """Classification of every zero pattern at dimension n."""

    n: int
    total_patterns: int
    derivation_patterns: tuple[ZeroPattern, ...]
    interval_form_count: int

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
    _check_dimension(n)
    positions = list(iter_positions(n))
    _, product = _table(n)
    count = len(product)

    derivations = []
    for pattern_bits in range(count):
        pattern = ZeroPattern(
            n,
            frozenset(p for t, p in enumerate(positions) if pattern_bits >> t & 1),
        )
        if _first_failure(product, pattern_bits, pattern) is None:
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
