"""Additively idempotent semirings with exact element arithmetic.

A semiring here is a small bag of callables over exact scalar values:
ints and :class:`~fractions.Fraction` for the finite part, plus the IEEE
infinities as the bottom elements of the max-plus and min-plus carriers,
whose one is the int 0, so ``a + one`` keeps the type of ``a``.
Exactness matters because every law in this package is checked with
plain ``==``; nothing is ever compared approximately.

Every carrier's join is ``_max`` (``_min`` on min-plus), and boolean and
fuzzy multiply by ``_min``.  Before Python 3.13, ``_max(a, b)`` is
``b if b > a else a``, because the builtin ``max`` packs its arguments
into a tuple and costs about three times as much per call; from 3.13 on,
``_max`` and ``_min`` are the builtins, which are cheaper there.  Either
way ``_max(a, b)`` is the very object ``max(a, b)`` is.  A check ranks
its values to int keys (:func:`_ranked`) only over a carrier whose
``add is _max and mul is _min``, so before 3.13 a hand-built
``Semiring(add=max, mul=min)`` runs without keys: the same verdicts and
witnesses, only slower.
"""

from __future__ import annotations

import math
import operator
import random
import sys
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


def _read_index(text: str, what: str, shown: str) -> int:
    """``text`` as an index, else ValueError ``bad {what} {shown!r}``: the package's
    one index text rule, ASCII digits with whitespace allowed around them
    (``int()`` alone also reads ``+1``, ``1_0`` and other scripts' digits)."""
    digits = text.strip()
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(digits)  # int() also refuses past sys.get_int_max_str_digits()
    except ValueError:
        raise ValueError(f"bad {what} {shown!r}") from None


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``_fields``, in positional order.  The
    base ``__init__`` takes them as positional or keyword arguments and
    stores each with ``object.__setattr__``; on CPython 3.11+ this leaves
    the values inline in the object, where attribute reads are fastest.  A
    class that checks or normalises its input writes its own ``__init__``
    and stores its fields the same way.  Objects also keep a ``__dict__``,
    which ``functools.cached_property`` and :meth:`_trusted`, the one
    private no-check constructor, write directly.  The library builds with
    it only from parts it made or checked itself: the enumerated masks,
    ``delta_k``/``d_m``, sums, compositions and interval forms of mask maps,
    the oracle's patterns, and a sampled shift and its lift.
    ``UTMatrix._trusted`` writes its two steps out, for its per-trial cost.
    Equality holds only between objects of the same class, over the
    fields, so a cached value plays no part; the hash is the hash of the
    field tuple, and ``repr`` shows ``name=value`` per field.  Assigning
    or deleting an attribute raises AttributeError.  A plain base, not a
    class decorator from the standard library, keeps ``inspect`` and code
    generation out of start-up, which every CLI process pays: about 20 ms
    of it.
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

    @classmethod
    def _trusted(cls, **fields: object) -> object:
        """Every field by name, each value as ``__init__`` would store it; no check."""
        value = object.__new__(cls)
        value.__dict__.update(fields)
        return value


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
    """``Fraction(token)`` for ASCII text without ``_``, else an error:
    ``Fraction`` reads ``1_0`` on Python 3.11+ only, and Unicode digits too.
    ``format_element``'s own forms ``-?d+`` and ``-?d+/d+`` skip its regex and
    go through ``int``, in about half the time."""
    num, slash, den = token.partition("/")
    try:
        if not token.isascii() or "_" in token:
            raise ValueError
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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

# The carriers' join and meet (see the module docstring): max(a, b) takes 133 ns
# on 3.11.7 against 40 ns for _max.  As in the builtins, a tie keeps a, and a
# NaN or incomparable operands give what the builtin gives.
if sys.version_info >= (3, 13):
    _max, _min = max, min
else:
    def _max(a: object, b: object) -> object:
        return b if b > a else a

    def _min(a: object, b: object) -> object:
        return b if b < a else a


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
    add=_max,
    mul=_min,
    zero=0,
    one=1,
    contains=_in_boolean,
    parse_element=_parse_boolean,
    sample=_sample_boolean,
)


def _tropical(name: str, add: Callable[[object, object], object], bottom: float) -> Semiring:
    """Max-plus or min-plus: the rationals under ``add`` and +, zero ``bottom`` and one
    the int 0; ``sample`` is ``bottom`` 1 time in 20, else ``_below(rng, 41) - 20``."""
    literal = format_element(bottom)

    def sample(rng: random.Random) -> object:
        if rng.random() < 0.05:
            return bottom
        while (r := rng.getrandbits(6)) >= 41:
            pass
        return r - 20

    return Semiring(
        name=name,
        add=add,
        mul=operator.add,
        zero=bottom,
        one=0,
        contains=lambda value: _is_rational(value) or value == bottom,
        parse_element=lambda token: bottom if token == literal else _parse_rational(token),
        sample=sample,
    )


MAXPLUS = _tropical("maxplus", _max, MINUS_INF)
MINPLUS = _tropical("minplus", _min, PLUS_INF)

FUZZY = Semiring(
    name="fuzzy",
    add=_max,
    mul=_min,
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
    """``(t, rng)`` for t < trials, ``rng`` seeded by seed + t: every seeded check draws
    from it, so a trial index replays alone.  seed >= 0, as ``random.Random`` seeds by |seed|."""
    if not (_is_index(trials) and trials >= 1):
        raise ValueError("trials must be >= 1")
    if not (_is_index(seed) and seed >= 0):
        raise ValueError("seed must be >= 0")
    return ((t, random.Random(seed + t)) for t in range(trials))


def _ranked(semiring: Semiring, values: tuple) -> tuple[int, ...] | None:
    """Order-keeping int keys of ``(zero, one, *values)``, or None.

    Each p/q becomes p·(L/q), with L the lcm of the denominators, read
    through ``as_integer_ratio``.  The rank rule is ``add is _max and mul
    is _min``, so before 3.13 a hand-built ``Semiring(add=max, mul=min)``
    gets no keys and runs as it is: the same verdicts and witnesses, only
    slower.  Scaling is an order embedding, and ``max`` and ``min`` commute
    with every order embedding, so a check whose every value is built from
    these by ``add`` and ``mul`` gives the same verdicts on the keys, and a
    witness maps back through ``dict(zip(keys, (zero, one, *values)))``.
    ``zero`` and ``one`` are scaled like any other value, so no semiring law
    is assumed.  Condition: every value, ``zero`` and ``one`` included, is
    an ``int`` or a ``Fraction``, not all of them ``int`` (keys would not
    make an all-``int`` check cheaper), and no ``int`` equals a ``Fraction``
    among them, so equal keys come from values of one type and a
    mapped-back value has the type the check would have produced.  Any
    other carrier or values give None.
    """
    if semiring.add is not _max or semiring.mul is not _min:
        return None
    every = (semiring.zero, semiring.one, *values)
    types = set(map(type, every))
    if types != {Fraction}:
        if types != {int, Fraction}:
            return None
        ints = {v for v in every if type(v) is int}
        if any(v in ints for v in every if type(v) is Fraction):
            return None
    ratios = [v.as_integer_ratio() for v in every]
    scale = math.lcm(*{q for _, q in ratios})
    return tuple([p * (scale // q) for p, q in ratios])


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
    units = semiring.zero, semiring.one
    for trial, rng in seeded_trials(trials, seed):
        drawn = sample(rng), sample(rng), sample(rng)
        # Over a max/min carrier the laws run on int keys; the violation keeps ``drawn``.
        zero, one, a, b, c = _ranked(semiring, drawn) or units + drawn

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
