"""Additively idempotent semirings with exact element arithmetic.

A semiring here is a small bag of callables over exact scalar values:
ints and :class:`~fractions.Fraction` for the finite part, plus the IEEE
infinities as the bottom elements of the max-plus and min-plus carriers.
Exactness matters because every law in this package is checked with
plain ``==``; nothing is ever compared approximately.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Callable, Iterator
from fractions import Fraction

MINUS_INF = float("-inf")
PLUS_INF = float("inf")


class CarrierError(ValueError):
    """Raised when a value does not belong to a semiring's carrier."""


def _is_index(value: object) -> bool:
    """The package's one integer rule, for every dimension, position, index
    and count: an ``int`` that is not a ``bool`` (a subclass of ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``_fields``, in positional order.  The
    base ``__init__`` takes them as positional or keyword arguments and
    stores each with ``object.__setattr__``; on CPython 3.11+ this leaves
    the values inline in the object, where attribute reads are fastest.  A
    class that checks or normalises its input writes its own ``__init__``
    and stores its fields the same way.  Objects also keep a ``__dict__``,
    which ``functools.cached_property`` and the private no-check
    constructors write directly.  Equality holds only between objects of
    the same class, over the fields, so a cached value plays no part; the
    hash is the hash of the field tuple, and ``repr`` shows ``name=value``
    per field.  Assigning or deleting an attribute raises AttributeError.
    A plain base, not a class decorator from the standard library, keeps
    ``inspect`` and code generation out of start-up, which every CLI
    process pays: about 20 ms of it.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = operator.attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        cls.__match_args__ = cls._fields

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        # Binding by name only when needed keeps the common all-positional
        # call near the cost of a generated __init__.
        if kwargs or len(args) != len(fields):
            name = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
            values = dict(zip(fields, args))
            for key, value in kwargs.items():
                if key not in fields:
                    raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
                if key in values:
                    raise TypeError(f"{name}() got multiple values for argument {key!r}")
                values[key] = value
            missing = [f for f in fields if f not in values]
            if missing:
                raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
            args = [values[f] for f in fields]
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: object) -> object:
        """A copy with ``changes`` to some fields, made (and checked) by ``__init__``."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))


class Semiring(_Frozen):
    """A named additively idempotent semiring.

    ``add`` must be associative, commutative, idempotent, with neutral
    element ``zero``; ``mul`` associative with neutral element ``one``
    and absorbed by ``zero``; ``mul`` distributes over ``add`` on both
    sides.  None of this is assumed blindly: :func:`check_axioms` replays
    the laws on sampled triples, and the shipped instances are tested
    that way.
    """

    _fields = ("name", "add", "mul", "zero", "one", "contains", "parse_element", "sample")

    def __repr__(self) -> str:
        return f"Semiring({self.name!r})"

    def check(self, value: object) -> object:
        if not self.contains(value):
            raise CarrierError(f"{value!r} is not an element of {self.name}")
        return value


def natural_leq(semiring: Semiring, a: object, b: object) -> bool:
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


def format_element(value: object) -> str:
    """The text of any element of the four shipped carriers."""
    # Only floats can be infinite; an int or a Fraction is its own exact text.
    if isinstance(value, float):
        if value == MINUS_INF:
            return "-inf"
        if value == PLUS_INF:
            return "+inf"
        return str(Fraction(value))
    return str(value)


# --- carriers ----------------------------------------------------------------

# True and False are not carrier elements.

def _is_rational(value: object) -> bool:
    return _is_index(value) or isinstance(value, Fraction)


def _in_boolean(value: object) -> bool:
    return _is_index(value) and value in (0, 1)


def _in_fuzzy(value: object) -> bool:
    return _is_rational(value) and 0 <= value <= 1


# --- random elements ---------------------------------------------------------
# Small ranges on purpose: collisions and idempotency effects should be common.

def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``, drawn the same way: ``getrandbits(n.bit_length())``
    until the draw is below n, so seeded streams stay as they were."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample_boolean(rng: random.Random) -> int:
    return _below(rng, 2)


_SIXTEENTHS = tuple(Fraction(i, 16) for i in range(17))


def _sample_fuzzy(rng: random.Random) -> Fraction:
    return _SIXTEENTHS[_below(rng, 17)]


BOOLEAN = Semiring(
    name="boolean",
    add=max,
    mul=min,
    zero=0,
    one=1,
    contains=_in_boolean,
    parse_element=_parse_boolean,
    sample=_sample_boolean,
)


def _tropical(name: str, add: Callable[[object, object], object], bottom: float) -> Semiring:
    """Max-plus or min-plus: the rationals under ``add`` and +, with ``bottom`` as zero."""
    literal = format_element(bottom)
    return Semiring(
        name=name,
        add=add,
        mul=operator.add,
        zero=bottom,
        one=Fraction(0),
        contains=lambda value: _is_rational(value) or value == bottom,
        parse_element=lambda token: bottom if token == literal else _parse_rational(token),
        sample=lambda rng: bottom if rng.random() < 0.05 else _below(rng, 41) - 20,
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
    if not (_is_index(trials) and trials >= 1):
        raise ValueError("trials must be >= 1")
    return ((t, random.Random(seed + t)) for t in range(trials))


def _ranked(semiring: Semiring, values: tuple) -> tuple[Semiring, tuple, dict | None]:
    """The carrier a check computes on, ``values`` in it, and key -> value.

    A max/min carrier's ``values``, ``zero`` and ``one`` become int keys:
    each p/q is scaled to p·(L/q), with L the lcm of the denominators.
    This is an order embedding, and ``max`` and ``min`` commute with every
    order embedding, so a check whose every value is built from these by
    ``add`` and ``mul`` gives the same verdicts on the keys, and its
    witnesses map back through the key -> value dict.  ``zero`` and ``one``
    are scaled like any other value, so no semiring law is assumed.
    Condition: every value, ``zero`` and ``one`` included, is an ``int``
    or a ``Fraction``, not all of them ``int`` (keys would not make an
    all-``int`` check cheaper), and equal values share a type, so a
    mapped-back value has the type the check would have produced.  Any
    other carrier or values give ``(semiring, values, None)``.
    """
    if semiring.add is not max or semiring.mul is not min:
        return semiring, values, None
    every = (semiring.zero, semiring.one, *values)
    types = set(map(type, every))
    if Fraction not in types or not types <= {int, Fraction}:
        return semiring, values, None
    ratios = [v.as_integer_ratio() for v in every]
    scale = math.lcm(*{q for _, q in ratios})
    keys = [p * (scale // q) for p, q in ratios]
    # As UTMatrix._trusted: a __dict__ copy, about a third of what _replace,
    # which goes through __init__, costs.
    carrier = object.__new__(Semiring)
    carrier.__dict__.update(semiring.__dict__, zero=keys[0], one=keys[1])
    return carrier, tuple(keys[2:]), dict(zip(keys, every))


class AxiomViolation(_Frozen):
    """First law broken during sampling, with the witnessing triple."""

    _fields = ("law", "trial", "elements")


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
        # Over a max/min carrier the laws run on int keys; the violation keeps ``drawn``.
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
