"""Quadratic extension arithmetic: conjugation, inverse, extended norm."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

import helpers
from padicqm import (
    BlockOperator,
    ExtensionContext,
    Magnitude,
    PadicContext,
    QuadExtElement,
    is_unitary,
    operator_norm,
    sqrt,
)
from padicqm.errors import DivisionByZero, MuIsSquare, PrecisionExhausted, ValidationError
from padicqm.quadext import max_abs, quad_sum

E35 = helpers.ext_ctx(3, 5)
E32 = helpers.ext_ctx(3, 2)
E33 = helpers.ext_ctx(3, 3)
E53 = helpers.ext_ctx(5, 3)
E77 = helpers.ext_ctx(7, 7)
E25 = helpers.ext_ctx(2, 5, 8)
E214 = helpers.ext_ctx(2, 14, 8)


def test_square_mu_rejected():
    base = PadicContext(3, 5)
    with pytest.raises(MuIsSquare):
        ExtensionContext(base, base.from_int(7))
    with pytest.raises(ValidationError):
        ExtensionContext(base, base.zero())


def test_two_adic_mu_reduces_to_canonical_class():
    base = PadicContext(2, 8)
    ctx = ExtensionContext(base, base.from_int(56))  # 56 = 4 * 14
    assert ctx.mu_class == 14
    assert ctx.sqrt_scale * ctx.sqrt_scale * ctx.reduced_mu == ctx.mu


def test_conjugation():
    root = E35.sqrt_mu()
    assert root.conj() == -root
    fixed = E35.from_ints(3, 0)
    assert fixed.conj() == fixed


def test_root_seven_minus_root_five_has_norm_two():
    # z = sqrt(7) - sqrt(5) over Q_3(sqrt5)
    z = QuadExtElement(E35, sqrt(E35.base.from_int(7)), E35.base.from_int(-1))
    assert z * z.conj() == E35.from_ints(2, 0)
    assert z.ext_abs().is_one
    # its inverse is conj(z) / 2
    half = E35.base.from_fraction(Fraction(1, 2))
    assert z.inv() == z.conj().scale_base(half)


def test_difference_of_squares():
    one = E53.one()
    root = E53.sqrt_mu()
    assert (one + root) * (one - root) == E53.one() - E53.from_base(E53.mu)


def test_two_adic_product():
    ctx = helpers.ext_ctx(2, 2, 8)
    z = ctx.from_ints(1, 1)
    assert z * z == ctx.from_ints(3, 2)


def test_inverse_examples():
    assert E35.one().inv() == E35.one()
    root = E35.sqrt_mu()
    assert root.inv() == root.scale_base(E35.mu.inv())
    rng = random.Random(4)
    for _ in range(100):
        z = helpers.rand_quad(rng, E35, zero_p=0.2)
        if z.is_zero:
            continue
        assert z * z.inv() == E35.one()
    with pytest.raises(DivisionByZero):
        E35.zero().inv()


def test_ext_abs_examples():
    z = QuadExtElement(E35, sqrt(E35.base.from_int(7)), E35.base.from_int(-1))
    assert z.ext_abs() == Magnitude.one(3)
    assert E35.zero().ext_abs() == Magnitude.zero(3)
    assert E33.sqrt_mu().ext_abs() == Magnitude(3, -1)  # 3^(-1/2)
    assert str(E33.sqrt_mu().ext_abs()) == "3^(-1/2)"


def test_is_ramified():
    assert not E25.is_ramified()
    assert E33.is_ramified()
    assert not E35.is_ramified()
    assert helpers.ext_ctx(2, 2, 8).is_ramified()
    assert helpers.ext_ctx(2, 3, 8).is_ramified()
    assert E214.is_ramified()


@given(z=helpers.quad_elements(E35), w=helpers.quad_elements(E35))
def test_conj_is_ring_automorphism(z, w):
    assert (z + w).conj() == z.conj() + w.conj()
    assert (z * w).conj() == z.conj() * w.conj()
    assert z.conj().conj() == z


@given(z=helpers.quad_elements(E53))
def test_norm_form_lands_in_base_field(z):
    assert (z * z.conj()).ac.is_zero
    assert z.norm_form() == (z * z.conj()).sc


@given(z=helpers.quad_elements(E32), w=helpers.quad_elements(E32))
def test_ext_abs_is_ultrametric_and_multiplicative(z, w):
    assert (z * w).ext_abs() == z.ext_abs() * w.ext_abs()
    s = z + w
    assert s.ext_abs() <= max(z.ext_abs(), w.ext_abs())


def test_three_isomorphism_classes_for_odd_p():
    rng = random.Random(7)
    base = PadicContext(5, 6)
    contexts = []
    while len(contexts) < 50:
        n = rng.randrange(2, 5000)
        x = base.from_int(n * 5 ** rng.randrange(0, 3))
        try:
            contexts.append(ExtensionContext(base, x))
        except MuIsSquare:
            continue
    classes = {c.mu_class for c in contexts}
    assert len(classes) == 3
    for a in contexts:
        for b in contexts:
            assert a.is_isomorphic_to(b) == (a.mu_class == b.mu_class)


def test_quad_sum_empty_is_zero():
    assert quad_sum(E35, []).is_zero


# -- |z| from the coordinate valuations ----------------------------------------

def _every_class(precision):
    """All 16 extension classes for p in {2, 3, 5, 7}, each with mu and mu*p**2."""
    for p, labels in helpers.EXTENSION_CLASSES.items():
        base = PadicContext(p, precision)
        for label in labels:
            for mu in (label, label * p * p):
                yield ExtensionContext(base, base.from_int(mu))


def _norm_form_abs(z):
    """|z| read from the norm form's valuation; None where that vanishes
    at its known digits."""
    if z.is_zero:
        return Magnitude.zero(z.context.p)
    v = z.norm_form().valuation
    return None if v is None else Magnitude(z.context.p, -v)


def test_ext_abs_matches_the_norm_form_wherever_that_answers():
    rng = random.Random(81)
    corner = 0  # answered with equal sides in a 2-adic class of even v(mu)
    for precision in (5, 8, 12):
        for ctx in _every_class(precision):
            for _ in range(80):
                sc, ac = (helpers.rand_coordinate(rng, ctx.base) for _ in range(2))
                z = QuadExtElement(ctx, sc, ac)
                expected = _norm_form_abs(z)
                if expected is None:
                    continue
                assert z.ext_abs() == expected, z
                if ctx.p == 2 and ctx.mu_class in (3, 5, 7) and not (sc.is_zero or ac.is_zero):
                    corner += 2 * sc.valuation == 2 * ac.valuation + ctx.mu.valuation
    assert corner > 50


def _vp(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def test_ext_abs_is_the_valuation_of_the_exact_norm():
    rng = random.Random(82)
    for ctx in _every_class(40):
        p, mu = ctx.p, Fraction(ctx.mu.unit * ctx.p**ctx.mu.valuation)
        for _ in range(30):
            sc, ac = (
                Fraction(rng.randrange(-(p**4), p**4), p ** rng.randrange(0, 3)) for _ in range(2)
            )
            z = QuadExtElement(ctx, ctx.base.from_fraction(sc), ctx.base.from_fraction(ac))
            norm = sc * sc - mu * ac * ac
            assert z.ext_abs() == (Magnitude.zero(p) if norm == 0 else Magnitude(p, -_vp(norm, p)))


def test_ext_abs_of_a_norm_form_that_cancels_to_zero():
    # sc = 1/2 and ac = 3/2 known to 2 digits in Q_2(sqrt 5): the norm form
    # cancels to O(2^0), while z conj(z) = -11 is a unit.
    base = PadicContext(2, 5)
    ctx = ExtensionContext(base, base.from_int(5))
    z = QuadExtElement(ctx, base.from_digits(-1, [1, 0]), base.from_digits(-1, [1, 1]))
    assert z.norm_form().is_zero
    assert z.ext_abs() == Magnitude.one(2)


def test_an_inexact_coordinate_decides_no_magnitude_it_could_change():
    # O(3^2) beside 1 or 3 leaves |z| to them; beside 9 or 27 it could decide
    # |z|; two zeros are 0, as is_zero reads them
    o = E35.base.from_digits(0, [1, 1]) - E35.base.from_digits(0, [1, 1])
    assert (o.absolute, QuadExtElement(E35, E35.base.one(), o).ext_abs()) == (2, Magnitude.one(3))
    assert QuadExtElement(E35, o, E35.base.from_int(3)).ext_abs() == Magnitude(3, -2)
    for n in (9, 27):
        with pytest.raises(PrecisionExhausted):
            QuadExtElement(E35, E35.base.from_int(n), o).ext_abs()
    assert QuadExtElement(E35, o, E35.base.zero()).ext_abs() == Magnitude.zero(3)


def test_inverting_an_inexact_zero_is_precision_exhausted():
    o = E35.base.from_digits(0, [1, 1]) - E35.base.from_digits(0, [1, 1])
    with pytest.raises(PrecisionExhausted):
        QuadExtElement(E35, o, o).inv()
    with pytest.raises(DivisionByZero):
        E35.zero().inv()
    # 1 + O(3^2) sqrt(5) has the norm 1 + O(3^4)
    inv = QuadExtElement(E35, E35.base.one(), o).inv()
    assert (inv.sc.valuation, inv.sc.prec, inv.ac.absolute) == (0, 4, 2)


def test_the_largest_magnitude_raises_where_an_inexact_zero_could_exceed_it():
    # o = O(3^-1) may have |o| = 3: beside 1 it leaves operator_norm and
    # is_unitary undecided, where they read 1 and True; O(3^4) beside 1
    # cannot exceed it
    ctx = helpers.ext_ctx(3, 5, 5)
    base, one = ctx.base, ctx.one()
    o = ctx.from_base(base.from_digits(-2, [1]) - base.from_digits(-2, [1]))
    assert (o.sc.absolute, o.ac.absolute) == (-1, None)
    block = BlockOperator(ctx, [[one, o], [o, one]])
    for check in (operator_norm, is_unitary):
        with pytest.raises(PrecisionExhausted):
            check(block)
    with pytest.raises(PrecisionExhausted):
        max_abs(ctx, [o])
    small = ctx.from_base(base.from_digits(3, [1]) - base.from_digits(3, [1]))
    assert small.sc.absolute == 4
    assert operator_norm(BlockOperator(ctx, [[one, small], [small, one]])) == Magnitude.one(3)
    # the ac side counts with v(mu): O(3^1)·sqrt(3) is below 3^(-3/2), so it
    # cannot exceed |3| = 3^-1 but can exceed |9|
    e33 = helpers.ext_ctx(3, 3, 5)
    z = QuadExtElement(e33, e33.base.zero(), e33.base.from_digits(0, [1]) - e33.base.from_digits(0, [1]))
    assert max_abs(e33, [z, e33.from_base(e33.base.from_int(3))]) == Magnitude(3, -2)
    with pytest.raises(PrecisionExhausted):
        max_abs(e33, [z, e33.from_base(e33.base.from_int(9))])
    assert max_abs(e33, [e33.zero()]) == Magnitude.zero(3)


def test_a_norm_known_off_one_decides_unitarity_beside_inexact_zeros():
    # every entry of [[O(3^4)]] has |z| <= 3^-4, so its norm is not 1:
    # is_unitary reads False where operator_norm raises; a norm range that
    # holds 1 and other values still raises
    ctx = helpers.ext_ctx(3, 5, 5)
    base, one = ctx.base, ctx.one()
    small = ctx.from_base(base.from_digits(3, [1]) - base.from_digits(3, [1]))
    with pytest.raises(PrecisionExhausted):
        operator_norm(BlockOperator(ctx, [[small]]))
    assert not is_unitary(BlockOperator(ctx, [[small]]))
    # a known |z| = 3 beside O(3^-1) is above 1 whatever the zero is
    three, o = ctx.from_base(base.from_int(3).inv()), ctx.from_base(base.from_digits(-2, [1]) - base.from_digits(-2, [1]))
    assert o.sc.absolute == -1
    assert not is_unitary(BlockOperator(ctx, [[three, o], [o, one]]))
    for entries in ([[small, o], [o, small]], [[one, o], [o, one]]):
        with pytest.raises(PrecisionExhausted):
            is_unitary(BlockOperator(ctx, entries))
