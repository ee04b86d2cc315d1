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
from dataclasses import dataclass
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


def _parse_maxplus(token: str) -> Any:
    return MINUS_INF if token == "-inf" else _parse_rational(token)


def _parse_minplus(token: str) -> Any:
    return PLUS_INF if token == "+inf" else _parse_rational(token)


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


def _in_maxplus(value: Any) -> bool:
    return _is_rational(value) or value == MINUS_INF


def _in_minplus(value: Any) -> bool:
    return _is_rational(value) or value == PLUS_INF


def _in_fuzzy(value: Any) -> bool:
    return _is_rational(value) and 0 <= value <= 1


# --- random elements ---------------------------------------------------------
# Small ranges on purpose: collisions and idempotency effects should be common.

def _sample_boolean(rng: random.Random) -> int:
    return rng.randrange(2)


def _sample_maxplus(rng: random.Random) -> Any:
    return MINUS_INF if rng.random() < 0.05 else rng.randint(-20, 20)


def _sample_minplus(rng: random.Random) -> Any:
    return PLUS_INF if rng.random() < 0.05 else rng.randint(-20, 20)


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

MAXPLUS = Semiring(
    name="maxplus",
    add=max,
    mul=operator.add,
    zero=MINUS_INF,
    one=Fraction(0),
    contains=_in_maxplus,
    parse_element=_parse_maxplus,
    format_element=_format_element,
    sample=_sample_maxplus,
)

MINPLUS = Semiring(
    name="minplus",
    add=min,
    mul=operator.add,
    zero=PLUS_INF,
    one=Fraction(0),
    contains=_in_minplus,
    parse_element=_parse_minplus,
    format_element=_format_element,
    sample=_sample_minplus,
)

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


@dataclass(frozen=True)
class AxiomViolation:
    """First law broken during sampling, with the witnessing triple."""

    law: str
    trial: int
    elements: tuple


@dataclass(frozen=True)
class AxiomReport:
    semiring: str
    trials: int
    violation: AxiomViolation | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_axioms(semiring: Semiring, trials: int, seed: int) -> AxiomReport:
    """Replay the semiring laws on ``trials`` sampled triples.

    Trial ``t`` draws its triple from :func:`seeded_trials`, so a
    reported witness can be reproduced from its trial index alone.
    Violations are data, not exceptions.
    """
    add, mul = semiring.add, semiring.mul
    zero, one = semiring.zero, semiring.one
    sample = semiring.sample
    for trial, rng in seeded_trials(trials, seed):
        a, b, c = sample(rng), sample(rng), sample(rng)

        def fail(law: str) -> AxiomReport:
            return AxiomReport(
                semiring.name, trials, AxiomViolation(law, trial, (a, b, c))
            )

        ab = add(a, b)
        if add(ab, c) != add(a, add(b, c)):
            return fail("add-associative")
        if ab != add(b, a):
            return fail("add-commutative")
        if add(a, a) != a:
            return fail("add-idempotent")
        if add(a, zero) != a:
            return fail("add-zero-neutral")
        if mul(mul(a, b), c) != mul(a, mul(b, c)):
            return fail("mul-associative")
        if mul(a, one) != a or mul(one, a) != a:
            return fail("mul-one-neutral")
        if mul(a, zero) != zero or mul(zero, a) != zero:
            return fail("mul-zero-absorbing")
        if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
            return fail("mul-distributes-left")
        if mul(add(b, c), a) != add(mul(b, a), mul(c, a)):
            return fail("mul-distributes-right")
    return AxiomReport(semiring.name, trials)
