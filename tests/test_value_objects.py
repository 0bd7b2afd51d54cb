"""The value objects: immutable, validated once at construction by every
route in, each context's zero and one shared, context equality unchanged."""

from dataclasses import FrozenInstanceError, replace

import pytest

import helpers
from padicqm import ExtensionContext, PadicContext, PadicNumber, QuadExtElement, padic, quadext
from padicqm.errors import ContextMismatch, ValidationError
from padicqm.jsonio import context_from_dict, context_to_dict

E = helpers.ext_ctx(3, 5, 8)
C = E.base


# -- shared constants ------------------------------------------------------------


def test_each_context_shares_one_zero_and_one_one():
    assert C.zero() is C.zero() and C.one() is C.one()
    assert E.zero() is E.zero() and E.one() is E.one()
    assert E.zero().sc is C.zero() and E.zero().ac is C.zero()
    assert E.one().sc is C.one() and E.one().ac is C.zero()


def test_the_shared_constants_are_the_values_the_constructors_build():
    for x, (valuation, unit) in ((C.zero(), (None, 0)), (C.one(), (0, 1))):
        assert (x.context, x.valuation, x.unit, x.prec) == (C, valuation, unit, C.precision)
    assert C.from_int(0) is C.zero() and C.from_int(1) == C.one()
    assert E.zero() == E.from_ints(0, 0) and E.one() == E.from_ints(1, 0)
    assert E.zero().is_zero and E.one() * E.sqrt_mu() == E.sqrt_mu()


# -- immutability ------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, field",
    [(C.from_int(7), "unit"), (C.zero(), "valuation"), (E.one(), "sc"), (E.from_ints(2, 1), "context")],
)
def test_assigning_a_field_raises_frozen_instance_error(value, field):
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, getattr(value, field))


def test_the_shared_constants_cannot_be_changed_through_a_caller():
    with pytest.raises(FrozenInstanceError):
        C.zero().unit = 1
    with pytest.raises(FrozenInstanceError):
        E.one().ac = C.one()
    assert C.zero().unit == 0 and E.one().ac is C.zero()


# -- one validator on every route in --------------------------------------------------

BAD_SCALARS = [
    {"unit": 7.5},  # a float unit
    {"unit": True},  # a bool unit
    {"prec": 2.0},
    {"prec": True},
    {"valuation": 1.0},
    {"valuation": False},
    {"unit": 3},  # not coprime to p
    {"unit": 3**8},  # not reduced
    {"prec": 9},  # past the context's precision
    {"prec": 0},
]


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_replace_runs_the_validator(bad):
    with pytest.raises(ValidationError):
        replace(C.from_int(7), **bad)


def test_a_float_or_bool_scalar_is_refused_by_the_constructor():
    with pytest.raises(ValidationError):
        PadicNumber(C, 0, 7.5, 2)
    with pytest.raises(ValidationError):
        PadicNumber(C, None, 0, 8.0)
    with pytest.raises(ValidationError):
        PadicNumber(C, True, 1, 8)
    assert PadicNumber(C, 0, 7, 2).unit == 7


@pytest.mark.parametrize("digits", [[1.5, 2], [1, 2.0], [True, 2], [1, "2"]])
def test_from_digits_refuses_a_digit_that_is_not_an_int(digits):
    with pytest.raises(ValidationError, match="is not an integer in"):
        C.from_digits(0, digits)


@pytest.mark.parametrize("triple", [(0, 7.5, 2), (0, 3, 2), (0, 7, 9), (None, 7, 8), (0.0, 7, 2)])
def test_the_kernel_constructors_run_the_validator(triple):
    with pytest.raises(ValidationError):
        padic._number(C, triple)
    with pytest.raises(ValidationError):
        quadext._element(E, ((0, 1, 8), triple))
    with pytest.raises(ValidationError):
        quadext._element(E, (triple, None))


def test_the_kernel_constructors_build_what_the_public_ones_do():
    assert padic._number(C, None) is C.zero()
    x = padic._number(C, (2, 7, 5))
    assert (x.valuation, x.unit, x.prec) == (2, 7, 5) and x == PadicNumber(C, 2, 7, 5)
    z = quadext._element(E, ((0, 1, 8), None))
    assert z == E.one() and z.ac is C.zero()


def test_an_element_refuses_coordinates_from_another_context():
    other = PadicContext(3, 9)
    with pytest.raises(ContextMismatch):
        QuadExtElement(E, other.one(), C.zero())
    with pytest.raises(ContextMismatch):
        replace(E.one(), ac=other.zero())


# -- context equality ------------------------------------------------------------------


def test_equal_but_distinct_contexts_compare_equal():
    # each JSON parse builds a new context
    e1, e2 = context_from_dict(context_to_dict(E)), context_from_dict(context_to_dict(E))
    assert e1 is not e2 and e1.base is not e2.base
    assert e1 == e2 and not e1 != e2 and e1 == E and not e1 != E
    assert e1.base == e2.base and not e1.base != e2.base and hash(e1.base) == hash(e2.base)
    # values of the two contexts meet in arithmetic, comparison and sums
    assert e1.one() + e2.one() == E.from_ints(2, 0)
    assert e1.base.from_int(7) == e2.base.from_int(7) and e1.zero() == e2.zero()
    assert padic.padic_sum(e1.base, [e2.base.one(), e1.base.one()]) == C.from_int(2)
    assert quadext.quad_sum(e1, [e2.one(), e1.sqrt_mu()]) == E.from_ints(1, 1)


@pytest.mark.parametrize(
    "other",
    [
        PadicContext(3, 9),
        PadicContext(5, 8),
        ExtensionContext(C, C.from_int(2)),
        ExtensionContext(PadicContext(3, 9), PadicContext(3, 9).from_int(5)),
        helpers.ext_ctx(7, 3, 8),
    ],
)
def test_different_contexts_compare_unequal(other):
    mine = C if isinstance(other, PadicContext) else E
    assert mine != other and not mine == other
    assert other != mine and not other == mine
    with pytest.raises(ContextMismatch):
        mine.one() + other.one()


@pytest.mark.parametrize("context", [C, E])
def test_a_context_is_unequal_to_what_is_not_a_context(context):
    for other in (3, None, "context", E if context is C else C):
        assert context != other and not context == other
