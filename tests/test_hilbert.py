"""Coordinate vectors: inner product, norm-orthogonality, rotations,
isotropic vectors and the isotropy index."""

import random

import pytest

import helpers
from padicqm import (
    BasisRotation,
    Magnitude,
    PVector,
    QuadExtElement,
    basis_vector,
    find_isotropic,
    find_norm_two_element,
    inner_product,
    is_norm_orthogonal,
    is_orthonormal_system,
    isotropy_index,
    rotation_on_pairs,
    sqrt,
    sqrt_minus_one,
    sup_norm,
)
from padicqm.errors import (
    EmptyFamily,
    PrecisionExhausted,
    RequiresOddP,
    SearchExhausted,
    ValidationError,
)
from padicqm.hilbert import _digit, residue_field

E35 = helpers.ext_ctx(3, 5)
E33 = helpers.ext_ctx(3, 3)
E22 = helpers.ext_ctx(2, 2, 8)
E25 = helpers.ext_ctx(2, 5, 8)


def test_standard_basis_is_orthonormal():
    es = [basis_vector(E35, i) for i in (1, 2, 3)]
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            ip = inner_product(a, b)
            assert ip == (E35.one() if i == j else E35.zero())
    assert is_orthonormal_system(es)


def test_known_isotropic_vectors():
    x = PVector(E22, {1: E22.from_ints(1, 1), 2: E22.one()})
    assert inner_product(x, x).is_zero
    y = PVector(E25, {1: E25.from_ints(1, 1), 2: E25.from_ints(2, 0)})
    assert inner_product(y, y).is_zero


def test_sup_norm_examples():
    v = basis_vector(E35, 1) + basis_vector(E35, 2).scale(E35.from_base(E35.base.from_int(3)))
    assert sup_norm(v).is_one
    assert sup_norm(PVector(E35, {})) == Magnitude.zero(3)
    assert sup_norm(basis_vector(E33, 1).scale(E33.sqrt_mu())) == Magnitude(3, -1)


def test_norm_orthogonality_basics():
    e1, e2, e3 = (basis_vector(E35, i) for i in (1, 2, 3))
    assert is_norm_orthogonal([e1, e2, e3])
    assert not is_norm_orthogonal([e1, e1])
    assert not is_norm_orthogonal([e1, PVector(E35, {})])
    with pytest.raises(EmptyFamily):
        is_norm_orthogonal([])


def test_rotated_pair_is_norm_orthogonal():
    z = QuadExtElement(E35, sqrt(E35.base.from_int(7)), E35.base.from_int(-1))
    zi = z.inv()
    e1, e2 = basis_vector(E35, 1), basis_vector(E35, 2)
    psi1 = (e1 + e2).scale(zi)
    psi2 = (e1 - e2).scale(zi)
    assert is_norm_orthogonal([psi1, psi2])
    assert is_orthonormal_system([psi1, psi2])
    assert helpers.brute_force_norm_orthogonal([psi1, psi2])


@pytest.mark.parametrize("ctx", [E35, E33, E22, E25, helpers.ext_ctx(2, 3, 8)])
def test_norm_orthogonality_matches_brute_force(ctx):
    rng = random.Random(ctx.p * 100 + ctx.mu_class)
    for _ in range(15):
        k = rng.choice([2, 3]) if ctx.p != 2 else 2
        vs = [helpers.rand_vector(rng, ctx, 3, min_val=-1, max_val=1) for _ in range(k)]
        if any(v.is_zero for v in vs):
            continue
        try:
            verdict = is_norm_orthogonal(vs)
        except PrecisionExhausted:
            continue
        assert verdict == helpers.brute_force_norm_orthogonal(vs)


def test_norm_orthogonal_not_orthonormal():
    # norm-orthogonal but one vector of norm 1/3
    e1, e2 = basis_vector(E35, 1), basis_vector(E35, 2)
    small = e2.scale(E35.from_base(E35.base.from_int(3)))
    assert is_norm_orthogonal([e1, small])
    assert not is_orthonormal_system([e1, small])


def test_two_adic_doubled_basis_vector_fails_normality():
    doubled = basis_vector(E22, 1).scale(E22.from_ints(2, 0))
    assert not is_orthonormal_system([doubled])


def test_rotation_requires_odd_p():
    with pytest.raises(RequiresOddP):
        rotation_on_pairs(E22, [(1, 2)])


def test_rotation_validation():
    with pytest.raises(ValidationError):
        BasisRotation(E35, ((1, 2, E35.one()),))  # z zbar = 1, not 2
    z = find_norm_two_element(E35)
    with pytest.raises(ValidationError):
        BasisRotation(E35, ((1, 2, z), (2, 3, z)))  # overlapping pairs


def test_identity_plan_is_identity():
    rot = BasisRotation(E35, ())
    v = helpers.rand_vector(random.Random(0), E35, 4)
    assert rot.apply(v) == v


def test_rotation_images():
    rot = rotation_on_pairs(E35, [(1, 2)])
    z = rot.pairs[0][2]
    image = rot.apply(basis_vector(E35, 1))
    expected = (basis_vector(E35, 1) + basis_vector(E35, 2)).scale(z.inv())
    assert image == expected
    images = [rot.apply(basis_vector(E35, i)) for i in (1, 2, 3)]
    assert is_orthonormal_system(images)


def test_rotation_round_trip_and_ip_preservation():
    rot = rotation_on_pairs(E35, [(1, 2), (3, 4)])
    rng = random.Random(42)
    for _ in range(100):
        v = helpers.rand_vector(rng, E35, 5)
        w = helpers.rand_vector(rng, E35, 5)
        try:
            assert rot.apply_inverse(rot.apply(v)) == v
            assert inner_product(rot.apply(v), rot.apply(w)) == inner_product(v, w)
        except PrecisionExhausted:
            continue


def test_parseval_on_rotated_basis():
    rot = rotation_on_pairs(E35, [(1, 2), (3, 4)])
    basis = [rot.apply(basis_vector(E35, i)) for i in range(1, 5)]
    rng = random.Random(9)
    for _ in range(40):
        coeffs = [helpers.rand_quad(rng, E35, zero_p=0.2) for _ in range(4)]
        v = PVector(E35, {})
        for b, c in zip(basis, coeffs):
            v = v + b.scale(c)
        expected = sup_norm(v)
        got = max(inner_product(b, v).ext_abs() for b in basis)
        assert got == expected


def test_max_identity_for_odd_p():
    rng = random.Random(3)
    for _ in range(200):
        x1 = helpers.rand_quad(rng, E35, zero_p=0.1)
        x2 = helpers.rand_quad(rng, E35, zero_p=0.1)
        lhs = max(x1.ext_abs(), x2.ext_abs())
        rhs = max((x1 + x2).ext_abs(), (x1 - x2).ext_abs())
        assert lhs == rhs


def test_cauchy_schwarz():
    rng = random.Random(17)
    for _ in range(1000):
        u = helpers.rand_vector(rng, E35, 4)
        v = helpers.rand_vector(rng, E35, 4)
        try:
            assert inner_product(u, v).ext_abs() <= sup_norm(u) * sup_norm(v)
        except PrecisionExhausted:
            continue


def test_sqrt_minus_one():
    ctx = helpers.ext_ctx(5, 3)
    i = sqrt_minus_one(ctx)
    assert i * i == ctx.base.from_int(-1)


def test_find_isotropic_examples():
    # explicit 2-adic vector for mu = 3 has support 3
    ctx23 = helpers.ext_ctx(2, 3, 8)
    v = find_isotropic(ctx23, 3)
    assert v.support() == [1, 2, 3]
    assert inner_product(v, v).is_zero
    # p = 1 mod 4 gives support 2 for any radicand
    ctx52 = helpers.ext_ctx(5, 2)
    w = find_isotropic(ctx52, 2)
    assert len(w.support()) == 2
    assert inner_product(w, w).is_zero
    # p = 3 mod 4 with a unit-class radicand still admits support 2:
    # the norm form x^2 - 5 y^2 represents -1 over Q_3 (e.g. 2^2 - 5)
    v35 = find_isotropic(E35, 2)
    assert v35 is not None and len(v35.support()) == 2
    assert inner_product(v35, v35).is_zero
    # ramified class needs three
    assert find_isotropic(E33, 2) is None
    v33 = find_isotropic(E33, 3)
    assert len(v33.support()) == 3
    assert find_isotropic(E33, 1) is None


def test_ramified_three_mod_four_witness_digits():
    # Q_3(sqrt(3)) needs support 3: a**2 + b**2 = -1 lifted in a, b = 1
    v = find_isotropic(E33, 3)
    assert [(i, z.sc.valuation, z.sc.digits(), z.ac.is_zero) for i, z in v.items()] == [
        (1, 0, [1, 1, 2, 0, 0, 2], True),
        (2, 0, [1, 0, 0, 0, 0, 0], True),
        (3, 0, [1, 0, 0, 0, 0, 0], True),
    ]


@pytest.mark.parametrize(
    "p,mu",
    [
        (2, 2), (2, 3), (2, 5), (2, 6), (2, 7), (2, 10), (2, 14),
        (3, 2), (3, 3), (3, 5), (3, 6), (5, 2), (5, 3), (7, 3), (7, 7), (13, 2),
    ],
)
def test_isotropy_index_matches_norm_form_oracle(p, mu):
    ctx = helpers.ext_ctx(p, mu, 6 if p != 2 else 8)
    nu = isotropy_index(ctx)
    assert nu in (2, 3)
    assert nu == helpers.isotropy_oracle(p, mu)
    witness = find_isotropic(ctx, 3)
    assert len(witness.support()) == nu
    assert not witness.is_zero
    assert inner_product(witness, witness).is_zero


def test_exhaustive_small_search_agrees_for_3_2():
    # brute force over coordinates with valuation in [-2, 2]: the norm-form
    # witness found constructively must be minimal
    ctx = helpers.ext_ctx(3, 2)
    assert isotropy_index(ctx) == 2
    v = find_isotropic(ctx, 2)
    assert inner_product(v, v).is_zero


def test_norm_two_search_exhausts_honestly():
    with pytest.raises(SearchExhausted):
        find_norm_two_element(E33)  # 2 is not a norm of Q_3(sqrt3)


def _reference_field_ops(ctx):
    """mul and inv by the three per-kind formulas: F_4 with s**2 = s + 1,
    F_{p^2} with s**2 = r, and F_p."""
    p = ctx.p
    if p == 2 and ctx.mu_class == 5:
        table = {(1, 0): (1, 0), (0, 1): (1, 1), (1, 1): (0, 1)}

        def mul(a, b):
            top = a[1] * b[1]
            return ((a[0] * b[0] + top) % 2, (a[0] * b[1] + a[1] * b[0] + top) % 2)

        return mul, table.__getitem__, [(x, y) for x in range(2) for y in range(2)]
    if p != 2 and ctx.reduced_mu.valuation == 0:
        r = ctx.reduced_mu.unit % p

        def mul(a, b):
            return ((a[0] * b[0] + r * a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p)

        def inv(a):
            di = pow((a[0] * a[0] - r * a[1] * a[1]) % p, -1, p)
            return (a[0] * di % p, (-a[1]) * di % p)

        return mul, inv, [(x, y) for x in range(p) for y in range(p)]
    return (
        lambda a, b: (a[0] * b[0] % p, 0),
        lambda a: (pow(a[0], -1, p), 0),
        [(x, 0) for x in range(p)],
    )


@pytest.mark.parametrize(
    "p, mu",
    [(2, m) for m in (2, 3, 5, 6, 7, 10, 14)]
    + [(p, m) for p, eta in ((3, 2), (5, 2), (7, 3)) for m in (eta, p, eta * p)],
)
def test_residue_field_matches_per_kind_formulas(p, mu):
    ctx = helpers.ext_ctx(p, mu, 8)
    fld = residue_field(ctx)
    mul, inv, elements = _reference_field_ops(ctx)
    for a in elements:
        for b in elements:
            assert fld.mul(a, b) == mul(a, b)
        if a != (0, 0):
            assert fld.inv(a) == inv(a)
            assert fld.mul(a, fld.inv(a)) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        fld.inv((0, 0))


def test_the_residue_digit_of_an_inexact_zero_is_known_only_past_the_units():
    # O(3^1) has residue digit 0; O(3^0) may have any, so it is not decided
    one = E35.base.from_digits(0, [1, 1])
    assert _digit(one - one) == 0 and _digit(E35.base.zero()) == 0
    with pytest.raises(PrecisionExhausted):
        _digit(E35.base.from_digits(-2, [1, 1]) - E35.base.from_digits(-2, [1, 1]))
