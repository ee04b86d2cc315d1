"""Additively idempotent semirings with exact element arithmetic.

A semiring here is a small bag of callables over exact scalar values:
ints and :class:`~fractions.Fraction` for the finite part, plus the IEEE
infinities as the bottom elements of the max-plus and min-plus carriers.
Exactness matters because every law in this package is checked with
plain ``==``; nothing is ever compared approximately.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Iterator

MINUS_INF = float("-inf")
PLUS_INF = float("inf")


class CarrierError(ValueError):
    """Raised when a value does not belong to a semiring's carrier."""


@dataclass(frozen=True, repr=False)
class Semiring:
    """A named additively idempotent semiring.

    ``add`` must be associative, commutative, idempotent, with neutral
    element ``zero``; ``mul`` associative with neutral element ``one``
    and absorbed by ``zero``; ``mul`` distributes over ``add`` on both
    sides.  None of this is assumed blindly: :func:`check_axioms` replays
    the laws on sampled triples, and the shipped instances are tested
    that way.
    """

    name: str
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    zero: Any
    one: Any
    contains: Callable[[Any], bool]
    parse_element: Callable[[str], Any]
    format_element: Callable[[Any], str]
    sample: Callable[[random.Random], Any]

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"

    def check(self, value: Any) -> Any:
        if not self.contains(value):
            raise CarrierError(f"{value!r} is not an element of {self.name}")
        return value


def natural_leq(semiring: Semiring, a: Any, b: Any) -> bool:
    """The order induced by idempotent addition: a <= b iff a ⊕ b = b."""
    return semiring.add(a, b) == b


# --- element parsing / formatting -------------------------------------------

def _parse_rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {token!r}") from exc


def _parse_boolean(token: str) -> int:
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise ValueError(f"bad boolean literal {token!r} (expected 0 or 1)")


def _parse_fuzzy(token: str) -> Fraction:
    value = _parse_rational(token)
    if not 0 <= value <= 1:
        raise ValueError(f"fuzzy literal {token!r} outside [0, 1]")
    return value


def _format_element(value: Any) -> str:
    """The text of any element of the four shipped carriers."""
    # Only floats can be infinite; a Fraction-to-float == is far slower than this test.
    if isinstance(value, float):
        if value == MINUS_INF:
            return "-inf"
        if value == PLUS_INF:
            return "+inf"
    return str(Fraction(value))


# --- carriers ----------------------------------------------------------------

# ``bool`` is an ``int`` subclass, but True/False are not carrier elements.

def _is_rational(value: Any) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _in_boolean(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)


def _in_fuzzy(value: Any) -> bool:
    return _is_rational(value) and 0 <= value <= 1


# --- random elements ---------------------------------------------------------
# Small ranges on purpose: collisions and idempotency effects should be common.

def _sample_boolean(rng: random.Random) -> int:
    return rng.randrange(2)


def _sample_fuzzy(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 16), 16)


BOOLEAN = Semiring(
    name="boolean",
    add=max,
    mul=min,
    zero=0,
    one=1,
    contains=_in_boolean,
    parse_element=_parse_boolean,
    format_element=_format_element,
    sample=_sample_boolean,
)


def _tropical(name: str, add: Callable[[Any, Any], Any], bottom: float) -> Semiring:
    """Max-plus or min-plus: the rationals under ``add`` and +, with ``bottom`` as zero."""
    literal = _format_element(bottom)
    return Semiring(
        name=name,
        add=add,
        mul=operator.add,
        zero=bottom,
        one=Fraction(0),
        contains=lambda value: _is_rational(value) or value == bottom,
        parse_element=lambda token: bottom if token == literal else _parse_rational(token),
        format_element=_format_element,
        sample=lambda rng: bottom if rng.random() < 0.05 else rng.randint(-20, 20),
    )


MAXPLUS = _tropical("maxplus", max, MINUS_INF)
MINPLUS = _tropical("minplus", min, PLUS_INF)

FUZZY = Semiring(
    name="fuzzy",
    add=max,
    mul=min,
    zero=Fraction(0),
    one=Fraction(1),
    contains=_in_fuzzy,
    parse_element=_parse_fuzzy,
    format_element=_format_element,
    sample=_sample_fuzzy,
)

SEMIRINGS = {s.name: s for s in (BOOLEAN, MAXPLUS, MINPLUS, FUZZY)}


def get_semiring(name: str) -> Semiring:
    try:
        return SEMIRINGS[name]
    except KeyError:
        known = "|".join(sorted(SEMIRINGS))
        raise ValueError(f"unknown semiring {name!r} (known: {known})") from None


# --- seeded trials and the executable axiom check -------------------------------

def seeded_trials(trials: int, seed: int) -> Iterator[tuple[int, random.Random]]:
    """``(t, rng)`` for t = 0 .. trials-1 with ``rng`` seeded by seed + t: every
    seeded check draws from it, so a reported trial index replays on its own."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return ((t, random.Random(seed + t)) for t in range(trials))


def _ranked(semiring: Semiring, values: tuple) -> tuple[Semiring, tuple, list | None]:
    """The carrier a check computes on, ``values`` in it, and rank -> value.

    A max/min carrier's ``values``, ``zero`` and ``one`` become int ranks:
    ``max`` and ``min`` commute with every order embedding, so a check
    whose every value is built from these by ``add`` and ``mul`` gives the
    same verdicts on the ranks, and its witnesses map back through the
    rank -> value list.  ``zero`` and ``one`` are ranked like any other
    value, so no semiring law is assumed.  Condition: the values are
    totally ordered by ``<``, and equal values share a type (true of ``int``
    and ``Fraction``), so a mapped-back value has the type the check would
    have produced.  Any other carrier, and one whose every value is
    already an ``int`` (ranks would not make it cheaper), gives
    ``(semiring, values, None)``.
    """
    zero, one = semiring.zero, semiring.one
    if semiring.add is not max or semiring.mul is not min:
        return semiring, values, None
    if all(isinstance(v, int) for v in (zero, one, *values)):
        return semiring, values, None
    ordered = sorted({*values, zero, one})
    rank = {value: r for r, value in enumerate(ordered)}
    carrier = replace(semiring, zero=rank[zero], one=rank[one])
    return carrier, tuple(map(rank.__getitem__, values)), ordered


@dataclass(frozen=True)
class AxiomViolation:
    """First law broken during sampling, with the witnessing triple."""

    law: str
    trial: int
    elements: tuple


def check_axioms(semiring: Semiring, trials: int, seed: int) -> AxiomViolation | None:
    """Replay the semiring laws on ``trials`` sampled triples: the first
    violation, or None when every law held.

    Trial ``t`` draws its triple from :func:`seeded_trials`, so a
    reported witness can be reproduced from its trial index alone.
    Violations are data, not exceptions.
    """
    add, mul, sample = semiring.add, semiring.mul, semiring.sample
    for trial, rng in seeded_trials(trials, seed):
        drawn = sample(rng), sample(rng), sample(rng)
        # Over a max/min carrier the laws run on ranks; the violation keeps ``drawn``.
        carrier, (a, b, c), _ = _ranked(semiring, drawn)
        zero, one = carrier.zero, carrier.one

        ab = add(a, b)
        if add(ab, c) != add(a, add(b, c)):
            return AxiomViolation("add-associative", trial, drawn)
        if ab != add(b, a):
            return AxiomViolation("add-commutative", trial, drawn)
        if add(a, a) != a:
            return AxiomViolation("add-idempotent", trial, drawn)
        if add(a, zero) != a:
            return AxiomViolation("add-zero-neutral", trial, drawn)
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return AxiomViolation("mul-associative", trial, drawn)
        if mul(a, one) != a or mul(one, a) != a:
            return AxiomViolation("mul-one-neutral", trial, drawn)
        if mul(a, zero) != zero or mul(zero, a) != zero:
            return AxiomViolation("mul-zero-absorbing", trial, drawn)
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            return AxiomViolation("mul-distributes-left", trial, drawn)
        if mul(add(b, c), a) != add(mul(b, a), mul(c, a)):
            return AxiomViolation("mul-distributes-right", trial, drawn)
    return None
