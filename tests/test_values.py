"""Value semantics of the package's eleven immutable classes: equality over
the fields and only within one class, the hash of the field tuple, frozen
fields, the exact ``repr`` text, and cached properties that stay out of
equality and hash; then the argument binding of the constructors, the
private ``_replace`` copy and the private no-check ``_trusted``."""

import types
from fractions import Fraction

import pytest

import trideriv
from trideriv import (
    BOOLEAN,
    MAXPLUS,
    DecompositionExpr,
    DecompositionTerm,
    HereditaryShift,
    MaskDerivation,
    Semiring,
    ShiftDerivation,
    UTMatrix,
    ZeroPattern,
    d_m,
    delta_k,
)
from trideriv.derivations import Witness
from trideriv.oracle import OracleReport
from trideriv.semirings import AxiomViolation

SEMIRING_FIELDS = ("name", "add", "mul", "zero", "one", "contains", "parse_element", "sample")

# (class, field names, positional arguments, the exact repr)
CASES = [
    (
        UTMatrix, ("n", "semiring", "entries"), (2, BOOLEAN, (1, 0, 1)),
        "UTMatrix(n=2, semiring=Semiring('boolean'), entries=(1, 0, 1))",
    ),
    (
        Semiring, SEMIRING_FIELDS, tuple(getattr(MAXPLUS, f) for f in SEMIRING_FIELDS),
        "Semiring('maxplus')",
    ),
    (
        AxiomViolation, ("law", "trial", "elements"), ("add-associative", 3, (1, 2, 3)),
        "AxiomViolation(law='add-associative', trial=3, elements=(1, 2, 3))",
    ),
    (
        MaskDerivation, ("n", "zero_set"), (3, frozenset({1})),
        "MaskDerivation(n=3, zero_set=frozenset({1}))",
    ),
    (
        ZeroPattern, ("n", "positions"), (2, frozenset({(1, 2)})),
        "ZeroPattern(n=2, positions=frozenset({(1, 2)}))",
    ),
    (
        Witness, ("position", "lhs", "rhs"), ((1, 2), 0, Fraction(1, 2)),
        "Witness(position=(1, 2), lhs=0, rhs=Fraction(1, 2))",
    ),
    (
        DecompositionTerm, ("k", "m"), (1, 0),
        "DecompositionTerm(k=1, m=0)",
    ),
    (
        DecompositionExpr, ("n", "terms"), (2, (DecompositionTerm(k=1),)),
        "DecompositionExpr(n=2, terms=(DecompositionTerm(k=1, m=None),))",
    ),
    (
        OracleReport,
        ("n", "total_patterns", "derivation_patterns", "interval_form_count"),
        (1, 2, (ZeroPattern(1, frozenset()),), 1),
        "OracleReport(n=1, total_patterns=2, "
        "derivation_patterns=(ZeroPattern(n=1, positions=frozenset()),), interval_form_count=1)",
    ),
    (
        ShiftDerivation, ("x",), (Fraction(5, 2),),
        "ShiftDerivation(x=Fraction(5, 2))",
    ),
    (
        HereditaryShift, ("shift",), (ShiftDerivation(-1),),
        "HereditaryShift(shift=ShiftDerivation(x=-1))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_with_the_hash_of_the_fields(cls, fields, args, text):
    positional, by_name = cls(*args), cls(**dict(zip(fields, args)))
    assert positional == by_name and not positional != by_name
    assert positional is not by_name
    assert hash(positional) == hash(by_name) == hash(args)
    assert tuple(getattr(positional, f) for f in fields) == args
    assert len({positional, by_name}) == 1
    assert cls.__match_args__ == fields


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_an_object_is_not_its_field_tuple(cls, fields, args, text):
    value = cls(*args)
    assert value != args and args != value
    assert value != list(args) and value != None  # noqa: E711


@pytest.mark.parametrize(
    "left, right",
    [
        (MaskDerivation(2, frozenset()), ZeroPattern(2, frozenset())),
        (DecompositionExpr._trusted(n=2, terms=frozenset()), MaskDerivation(2, frozenset())),
        (UTMatrix(1, BOOLEAN, (0,)), Witness(1, BOOLEAN, (0,))),
        (Witness((1, 1), 0, 0), AxiomViolation((1, 1), 0, 0)),
        (ShiftDerivation(1), HereditaryShift._trusted(shift=1)),
        (DecompositionTerm(1, 2), DecompositionExpr._trusted(n=1, terms=2)),
    ],
    ids=lambda v: type(v).__name__,
)
def test_two_classes_with_the_same_field_values_are_unequal(left, right):
    assert left != right and right != left
    assert not left == right
    assert len({left, right}) == 2


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, fields, args, text):
    value = cls(*args)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_repr_text(cls, fields, args, text):
    assert repr(cls(*args)) == text


def test_a_filled_cached_property_changes_neither_equality_nor_hash():
    mask, twin = MaskDerivation(4, frozenset({1, 2, 4})), MaskDerivation(4, frozenset({1, 2, 4}))
    before = hash(mask)
    assert mask.blocks == ((1, 2), (4, 4))
    assert mask.positions == {(1, 1), (1, 2), (2, 2), (4, 4)}
    assert mask._zeroed == (0, 1, 4, 9)
    assert {"blocks", "positions", "_zeroed"} <= set(vars(mask))
    assert not {"blocks", "positions", "_zeroed"} & set(vars(twin))
    assert mask == twin and twin == mask and hash(mask) == hash(twin) == before
    pattern = ZeroPattern(mask.n, mask.positions)
    fresh = ZeroPattern(pattern.n, pattern.positions)
    before = hash(pattern)
    assert pattern._zeroed == (0, 1, 4, 9)
    assert "_zeroed" in vars(pattern) and "_zeroed" not in vars(fresh)
    assert pattern == fresh and hash(pattern) == hash(fresh) == before
    assert repr(mask) == repr(twin) and repr(pattern) == repr(fresh)


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_replace_copies_through_the_constructor(cls, fields, args, text):
    value = cls(*args)
    copy = value._replace()
    assert copy == value and copy is not value
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)


def test_replace_checks_the_new_fields_and_drops_cached_values():
    mask = MaskDerivation(3, frozenset({1}))
    assert mask.positions == {(1, 1)}
    moved = mask._replace(zero_set={2, 3})
    assert moved == MaskDerivation(3, frozenset({2, 3}))
    assert "positions" not in vars(moved)
    assert moved.positions == {(2, 2), (2, 3), (3, 3)}
    with pytest.raises(ValueError, match="outside 1..3"):
        mask._replace(zero_set={4})
    with pytest.raises(ValueError, match="at least one factor"):
        DecompositionTerm(k=1)._replace(k=None)
    for bad in (True, 1.5, -1):  # the index rule of MaskDerivation's zero set
        with pytest.raises(ValueError, match="not an int >= 0"):
            DecompositionTerm(k=bad)
        with pytest.raises(ValueError, match="not an int >= 0"):
            DecompositionTerm(k=1)._replace(m=bad)
        with pytest.raises(ValueError, match="outside 0..3"):
            delta_k(3, bad)
        with pytest.raises(ValueError, match="outside 0..3"):
            d_m(3, bad)
    assert DecompositionTerm(k=1)._replace(m=2) == DecompositionTerm(1, 2)


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_trusted_builds_what_the_constructor_builds(cls, fields, args, text):
    """``_trusted`` takes every field by name and skips every check."""
    value = cls._trusted(**dict(zip(fields, args)))
    assert type(value) is cls and vars(value) == vars(cls(*args))
    assert value == cls(*args) and hash(value) == hash(args) and repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], args[0])


def test_trusted_is_private_and_the_public_api_keeps_49_names():
    public = {
        name for name, value in vars(trideriv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(public) == 49 and not {"trusted", "_trusted"} & set(vars(trideriv))


@pytest.mark.parametrize("cls, fields, args, text", CASES, ids=IDS)
def test_the_constructor_binds_arguments_as_the_signature_says(cls, fields, args, text):
    last = fields[-1]
    assert cls(*args[:-1], **{last: args[-1]}) == cls(*args)
    if cls is DecompositionTerm:  # both fields default to None
        assert cls(*args[:-1]) == cls(args[0], None)
    else:
        with pytest.raises(TypeError):
            cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})
