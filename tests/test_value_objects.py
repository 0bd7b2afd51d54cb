"""The value objects: immutable, validated once at construction by every
route in, each context's zero and one shared, one object per context."""

import copy
import gc
import pickle
import sys
import threading
import time
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest

import helpers
from padicqm import (
    ExtensionContext,
    PadicContext,
    PadicNumber,
    PVector,
    QuadExtElement,
    identity,
    padic,
    quadext,
)
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
    {"absolute": 3},  # only a zero carries an absolute precision
]


@pytest.mark.parametrize("bad", BAD_SCALARS)
def test_replace_runs_the_validator(bad):
    with pytest.raises(ValidationError):
        replace(C.from_int(7), **bad)


def test_an_inexact_zero_refuses_an_absolute_precision_that_is_not_an_int():
    for absolute in (2.0, True, "2"):
        with pytest.raises(ValidationError, match="absolute precision must be an integer"):
            PadicNumber(C, None, 0, 0, absolute)
    assert PadicNumber(C, None, 0, 0, -2).absolute == -2


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
    # each JSON parse returns the live context
    e1, e2 = context_from_dict(context_to_dict(E)), context_from_dict(context_to_dict(E))
    assert e1 is e2 is E and e1.base is e2.base is C
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


# -- one object per context ----------------------------------------------------------


def test_building_a_context_returns_the_live_one():
    assert PadicContext(3, 8) is PadicContext(3, 8) is C
    assert ExtensionContext(C, C.from_int(5)) is ExtensionContext(PadicContext(3, 8), C.from_int(5)) is E
    assert context_from_dict(context_to_dict(E)) is E
    assert replace(C, precision=8) is C and replace(C, precision=9) is PadicContext(3, 9)


@pytest.mark.parametrize("cls", [PadicContext, ExtensionContext])
def test_context_equality_and_hashing_are_identity(cls):
    assert "__eq__" not in cls.__dict__ and "__ne__" not in cls.__dict__
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


def test_contexts_are_hashable():
    assert {C, E, PadicContext(3, 8), context_from_dict(context_to_dict(E))} == {C, E}
    assert hash(C) == hash(PadicContext(3, 8)) and hash(E) == hash(ExtensionContext(C, C.from_int(5)))
    assert {C: 1, E: 2}[context_from_dict(context_to_dict(E))] == 2


def test_repeated_parses_leave_both_tables_the_same_size():
    wire = context_to_dict(E)
    gc.collect()
    sizes = len(padic._CONTEXTS), len(quadext._EXTENSIONS)
    parsed = [context_from_dict(wire) for _ in range(50)]
    assert all(e is E for e in parsed)
    assert (len(padic._CONTEXTS), len(quadext._EXTENSIONS)) == sizes


def test_a_context_with_no_outside_reference_leaves_its_table():
    def build():
        base = PadicContext(10007, 11)
        ext = ExtensionContext(base, padic.find_eta(base))
        assert (10007, 11) in padic._CONTEXTS and ext in quadext._EXTENSIONS.values()
        return weakref.ref(base), weakref.ref(ext)

    refs = build()
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert (10007, 11) not in padic._CONTEXTS
    assert all(ext.p != 10007 for ext in quadext._EXTENSIONS.values())


def test_two_threads_building_one_new_context_get_one_object(monkeypatch):
    # slow set-ups, so that every thread reaches the table before any entry
    for name in ("is_prime", "square_class"):
        real = getattr(padic, name)
        monkeypatch.setattr(padic, name, lambda x, real=real: time.sleep(0.05) or real(x))
    start, built = threading.Barrier(4, timeout=10), []

    def build():
        start.wait()
        base = PadicContext(10009, 9)
        built.append((base, ExtensionContext(base, padic.find_eta(base))))

    threads = [threading.Thread(target=build) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == 4
    assert all(b is built[0][0] and e is built[0][1] for b, e in built)


def test_a_mu_known_to_fewer_digits_makes_another_extension():
    short = C.from_digits(0, [2, 1])  # 5 to two digits
    e2 = ExtensionContext(C, short)
    assert e2 is not E and e2 is ExtensionContext(C, C.from_digits(0, [2, 1]))
    assert e2.mu == E.mu and e2.base is C
    for x, y in ((E.one(), e2.one()), (e2.sqrt_mu(), E.sqrt_mu())):
        with pytest.raises(ContextMismatch):
            x * y
        with pytest.raises(ContextMismatch):
            x + y
    with pytest.raises(ContextMismatch):
        quadext.quad_sum(E, [e2.one()])


# -- typed context fields ----------------------------------------------------------------


@pytest.mark.parametrize(
    "p, precision", [(3.0, 5), (3, 5.0), (3.0, 8), (3, 8.0), (True, 5), (3, True), ("3", 8), (None, 8)]
)
def test_a_context_refuses_fields_that_are_not_ints(p, precision):
    # (3, 8) is live: the check runs before the table lookup
    with pytest.raises(ValidationError, match="must be integers"):
        PadicContext(p, precision)


@pytest.mark.parametrize(
    "base, mu",
    [
        (C, 5),
        (C, 5.0),
        (C, None),
        (C, E.from_ints(5, 0)),
        (PadicContext(3, 9), C.from_int(5)),
        (PadicContext(5, 8), C.from_int(5)),
        (3, C.from_int(5)),
        (None, C.from_int(5)),
    ],
)
def test_an_extension_refuses_a_mu_that_is_not_a_padic_number_of_its_base(base, mu):
    with pytest.raises(ValidationError, match="mu must be a PadicNumber of the base context"):
        ExtensionContext(base, mu)


# -- copies keep the one object ----------------------------------------------------------

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
}


@pytest.mark.parametrize("how", COPIES)
def test_a_copied_context_is_the_live_one(how):
    assert COPIES[how](C) is C and COPIES[how](E) is E
    assert COPIES[how](E).zero() is E.zero() and COPIES[how]((C, E)) == (C, E)


@pytest.mark.parametrize("how", COPIES)
def test_a_copied_value_keeps_the_live_context(how):
    x, z = C.from_int(7), E.from_ints(2, 1)
    block = identity(E, 2).scale(z)
    vector = PVector(E, {1: z, 3: E.one()})
    for value in (x, z, block, vector, E.zero()):
        copied = COPIES[how](value)
        assert copied.context is value.context and copied == value
    assert COPIES[how](z).sc.context is C
    assert COPIES[how](block).rows[0][0].context is E
