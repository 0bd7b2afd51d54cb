"""Distributions, convexity, statistical and density operators, SOVMs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from padicqm import (
    BlockOperator,
    GeneratorOperator,
    PVector,
    affine_certificate,
    affine_combine,
    basis_vector,
    canonical_decomposition,
    diagonal,
    find_isotropic,
    from_rotation,
    identity,
    inner_product,
    is_affine_combination,
    is_convex_combination,
    is_density,
    make_sovm,
    make_statistical,
    make_zero_trace,
    operator_norm,
    pair,
    product_distribution,
    rank_one,
    rotation_on_pairs,
    simple_statistical,
    sovm_from_symmetric_decomposition,
    split_zero_trace,
    trace,
    validate_distribution,
    zero_operator,
    zero_trace_perturb,
)
from padicqm.errors import (
    ContextMismatch,
    DegenerateNormalizer,
    DimensionMismatch,
    NotSelfAdjoint,
    PadicError,
    PrecisionExhausted,
    SumNotIdentity,
    SumNotOne,
    TraceNotOne,
    TraceNotZero,
    ValidationError,
    ZeroInput,
)
from padicqm.quadext import Magnitude
from padicqm.states import Sovm, StatisticalOperator, ZeroTraceOperator

E35 = helpers.ext_ctx(3, 5, 8)
B3 = E35.base
B5 = helpers.base_ctx(5, 8)


def _max_weight_is_one(s: StatisticalOperator) -> bool:
    return canonical_decomposition(s.op).max_weight().is_one


def test_distribution_examples():
    d = validate_distribution(B3, [B3.from_int(w) for w in (1, 2, -1, -1)])
    assert d.is_in_simplex()
    assert max(w.abs_p() for w in d.weights) >= 1
    d2 = validate_distribution(
        B3, [B3.from_fraction(Fraction(1, 3)), B3.from_fraction(Fraction(2, 3))]
    )
    assert not d2.is_in_simplex()
    assert d2.sup_norm() == 3
    with pytest.raises(SumNotOne):
        validate_distribution(B3, [B3.one(), B3.one()])


def test_truncated_geometric_weights_live_in_simplex():
    ws = helpers.simplex_weights(B5, 5)
    d = validate_distribution(B5, ws)
    assert d.is_in_simplex()


def test_product_distribution():
    a = validate_distribution(B3, [B3.from_int(w) for w in (1, 2, -1, -1)])
    b = validate_distribution(B3, [B3.from_int(w) for w in (3, -2)])
    assert len(product_distribution(a, b).weights) == 8


def test_convexity_predicates():
    one, zero = B3.one(), B3.zero()
    assert is_convex_combination([one, zero])
    lam = [B5.from_fraction(Fraction(1, 5)), B5.from_fraction(Fraction(4, 5))]
    assert is_affine_combination(lam)
    assert not is_convex_combination(lam)
    lam2 = [B3.from_int(2), B3.from_int(-1)]
    assert is_convex_combination(lam2)
    with pytest.raises(ContextMismatch):
        is_convex_combination([one, B5.zero()])


def test_affine_combine_selects_first_point():
    v1 = basis_vector(E35, 1)
    v2 = basis_vector(E35, 2)
    assert affine_combine([v1, v2], [B3.one(), B3.zero()]) == v1
    with pytest.raises(SumNotOne):
        affine_combine([v1, v2], [B3.one(), B3.one()])


def test_make_statistical_validation():
    op = diagonal(E35, [E35.one(), E35.zero()])
    s = make_statistical(op)
    assert s.norm() >= Magnitude.one(3)
    with pytest.raises(TraceNotOne):
        make_statistical(diagonal(E35, [E35.one(), E35.one()]))
    with pytest.raises(NotSelfAdjoint):
        make_statistical(rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 2))


def test_a_trace_not_known_at_p0_is_neither_one_nor_zero():
    # each entry is known to one digit at valuation -1, so the trace
    # 3^-1 * (1 + 2) is O(3^0): its p^0 digit, which both checks decide, is unknown
    ctx = helpers.ext_ctx(3, 5, 5)
    c = ctx.base
    x, y = (ctx.from_base(c.from_digits(-1, [d])) for d in (1, 2))
    op = diagonal(ctx, [x, y])
    assert (trace(op).sc.absolute, trace(op).ac.is_zero) == (0, True)
    for check in (make_statistical, make_zero_trace):
        with pytest.raises(PrecisionExhausted):
            check(op)
    # O(3^1) is known at p^0: it is not 1, and it is 0 at its precision
    z = ctx.from_base(c.from_digits(0, [1]))
    known = diagonal(ctx, [z, -z])
    assert trace(known).sc.absolute == 1
    with pytest.raises(TraceNotOne):
        make_statistical(known)
    assert make_zero_trace(known).op is known


def test_weights_whose_sum_is_not_known_at_p0_are_refused():
    # 3^-1 * 1 + 3^-1 * 2 is O(3^0): whether it is 1 is unknown
    c = helpers.base_ctx(3, 5)
    with pytest.raises(PrecisionExhausted):
        validate_distribution(c, [c.from_digits(-1, [1]), c.from_digits(-1, [2])])
    # O(3^1) is known at p^0, and it is not 1
    with pytest.raises(SumNotOne):
        validate_distribution(c, [c.from_digits(0, [1]), c.from_digits(0, [2])])


def test_effects_whose_sum_is_not_known_at_p0_are_refused():
    # the 1 x 1 effects 3^-1 * 1 and 3^-1 * 2 sum to O(3^0), not to a known Id
    ctx = helpers.ext_ctx(3, 5, 5)
    effects = [BlockOperator(ctx, [[ctx.from_base(ctx.base.from_digits(-1, [d]))]]) for d in (1, 2)]
    with pytest.raises(PrecisionExhausted):
        make_sovm(effects)
    # the same sum known at p^0 is refused as not the identity
    known = [BlockOperator(ctx, [[ctx.from_base(ctx.base.from_digits(0, [d]))]]) for d in (1, 2)]
    with pytest.raises(SumNotIdentity):
        make_sovm(known)


def test_an_effect_of_inexact_zeros_is_decided_contractive_from_its_bound():
    # every entry of [[O(3^0)]] has |z| <= 1, so it is contractive though its
    # norm is unknown; beside an effect of norm 3 the family is not, and an
    # O(3^-1) effect with no norm known above 1 leaves it open
    ctx = helpers.ext_ctx(3, 5, 5)
    base = ctx.base

    def block(*digits):
        return BlockOperator(ctx, [[ctx.from_base(base.from_digits(*digits) - base.from_digits(*digits))]])

    z0, z1, wide = block(-1, [1]), block(0, [1]), block(-2, [1])
    assert [b.rows[0][0].sc.absolute for b in (z0, z1, wide)] == [0, 1, -1]
    with pytest.raises(PrecisionExhausted):
        operator_norm(z0)
    assert Sovm((identity(ctx, 1), z0), 1).is_contractive()
    assert make_sovm([identity(ctx, 1), z1]).is_contractive()
    big = BlockOperator(ctx, [[ctx.from_base(base.from_int(3).inv())]])
    assert not Sovm((wide, big), 1).is_contractive()
    with pytest.raises(PrecisionExhausted):
        Sovm((identity(ctx, 1), wide), 1).is_contractive()


def test_density_examples():
    # normalized rank-one projection on a vector with |<psi,psi>| = ||psi||^2
    psi = basis_vector(E35, 1) + basis_vector(E35, 2)
    s = simple_statistical(psi, psi, E35.one())
    assert isinstance(s, StatisticalOperator)
    assert is_density(s)
    assert _max_weight_is_one(s)
    # diagonal simplex mixture
    ws = helpers.simplex_weights(B3, 5)
    diag = make_statistical(diagonal(E35, [E35.from_base(w) for w in ws]))
    assert is_density(diag)
    assert _max_weight_is_one(diag)
    # zero-trace bump of magnitude p makes it statistical but not density
    t = rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 5).scale(
        E35.from_base(B3.from_fraction(Fraction(1, 3)))
    )
    t = t + t.adjoint()
    bumped = zero_trace_perturb(diag, t)
    assert not is_density(bumped)
    assert not _max_weight_is_one(bumped)
    assert bumped.norm() == Magnitude(3, 2)


EXTENSION_CLASSES = [(p, mu) for p, mus in helpers.EXTENSION_CLASSES.items() for mu in mus]


def _outcome(fn):
    try:
        return fn()
    except PadicError as exc:
        return ("raised", type(exc), str(exc))


@settings(max_examples=300)
@given(st.sampled_from(EXTENSION_CLASSES), st.integers(0, 2**32))
def test_largest_canonical_weight_is_the_operator_norm(cls, seed):
    """Each canonical weight is the scalar of its row's largest magnitude,
    so the largest weight is the norm: the invariant ``is_density`` rests on."""
    ctx = helpers.ext_ctx(*cls, 5)
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    coordinate = helpers.rand_coordinate
    a = BlockOperator(
        ctx,
        [[ctx.element(coordinate(rng, ctx.base), coordinate(rng, ctx.base)) for _ in range(d)] for _ in range(d)],
    )
    norm = _outcome(lambda: operator_norm(a))
    weight = _outcome(lambda: canonical_decomposition(a).max_weight())
    if weight != norm:
        # the mixed uniformizer's pivot scaling may exhaust a row's digits
        assert (ctx.p, ctx.mu_class) in ((2, 3), (2, 7))
        assert weight[:2] == ("raised", PrecisionExhausted)


def test_simple_statistical_projection():
    psi = PVector(E35, {1: E35.from_ints(1, 1), 3: E35.from_ints(1, 0)})
    assert not inner_product(psi, psi).is_zero
    s = simple_statistical(psi, psi, E35.from_ints(5, 2))
    assert isinstance(s, StatisticalOperator)
    assert s.op * s.op == s.op
    # scale invariance in sigma over the base field
    for alpha in (B3.from_int(7), B3.from_int(-2)):
        again = simple_statistical(psi, psi, E35.from_ints(5, 2).scale_base(alpha))
        assert again.op == s.op


def test_simple_statistical_isotropic_vector_gives_zero_trace():
    iso = find_isotropic(E35, 3)
    zt = simple_statistical(iso, iso, E35.one())
    assert isinstance(zt, ZeroTraceOperator)
    assert trace(zt.op).is_zero


def test_simple_statistical_degenerate_normalizer():
    e1, e2 = basis_vector(E35, 1), basis_vector(E35, 2)
    with pytest.raises(DegenerateNormalizer):
        simple_statistical(e1, e2, E35.sqrt_mu())  # sigma + conj(sigma) = 0


def test_sovm_examples():
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 4) for i in range(1, 5)])
    assert pvm.is_contractive()
    single = make_sovm([identity(E35, 3)])
    assert single.is_contractive()
    with pytest.raises(SumNotIdentity):
        make_sovm([identity(E35, 3), identity(E35, 3)])
    with pytest.raises(DimensionMismatch):
        make_sovm([identity(E35, 3), -identity(E35, 2)])


def test_pvm_pairing_recovers_diagonal_weights():
    ws = helpers.simplex_weights(B3, 4)
    s = make_statistical(diagonal(E35, [E35.from_base(w) for w in ws]))
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 4) for i in range(1, 5)])
    d = pair(pvm, s)
    assert list(d.weights) == list(ws)
    assert d.is_in_simplex()


def test_identity_sovm_pairs_to_one():
    rng = random.Random(51)
    s = helpers.rand_statistical(rng, E35, 3)
    d = pair(make_sovm([identity(E35, 3)]), s)
    assert list(d.weights) == [B3.one()]


def test_sovm_from_symmetric_decomposition():
    rng = random.Random(52)
    s = helpers.rand_statistical(rng, E35, 4)
    sv = sovm_from_symmetric_decomposition(s)
    assert sum(1 for _ in sv.effects) >= 2
    # per-term traces reproduce the associated distribution: pi_j = tr(A_j)
    from padicqm.operators import symmetric_decomposition

    dec = symmetric_decomposition(s.op)
    for effect, (sig, e, f) in zip(sv.effects[1:], dec.terms):
        expected = sig * inner_product(f, e) + (sig * inner_product(f, e)).conj()
        assert trace(effect) == expected
    d = pair(sv, s)  # the actual trace pairing is a distribution too
    assert len(d.weights) == len(sv.effects)


def test_pairing_sums_to_one_and_density_lands_in_simplex():
    rng = random.Random(53)
    rot = rotation_on_pairs(E35, [(1, 2), (3, 4)])
    u = from_rotation(rot, 4)
    ustar = u.adjoint()
    checked = 0
    while checked < 100:
        try:
            dim = 4
            effects = [helpers.rand_self_adjoint(rng, E35, dim, min_val=0, max_val=2) for _ in range(2)]
            last = identity(E35, dim) - effects[0] - effects[1]
            sovm = make_sovm(effects + [last])
            s = helpers.rand_statistical(rng, E35, dim)
            d = pair(sovm, s)  # validates the exact sum internally
        except PrecisionExhausted:
            continue
        checked += 1
        if checked % 10 == 0:
            # contractive SOVM paired with a density gives simplex values
            ws = helpers.simplex_weights(B3, dim)
            density = make_statistical(u * diagonal(E35, [E35.from_base(w) for w in ws]) * ustar)
            assert is_density(density)
            assert _max_weight_is_one(density)
            pvm = make_sovm(
                [rank_one(basis_vector(E35, i), basis_vector(E35, i), dim) for i in range(1, dim + 1)]
            )
            assert pvm.is_contractive()
            assert pair(pvm, density).is_in_simplex()


def test_pairing_is_affine_in_the_state():
    rng = random.Random(54)
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 3) for i in range(1, 4)])
    for _ in range(25):
        s1 = helpers.rand_statistical(rng, E35, 3)
        s2 = helpers.rand_statistical(rng, E35, 3)
        alpha = helpers.rand_padic(rng, B3, -1, 1)
        coeffs = [alpha, B3.one() - alpha]
        try:
            mixed = affine_combine([s1, s2], coeffs)
            d = pair(pvm, mixed)
            d1, d2 = pair(pvm, s1), pair(pvm, s2)
            for w, w1, w2 in zip(d.weights, d1.weights, d2.weights):
                assert w == coeffs[0] * w1 + coeffs[1] * w2
        except PrecisionExhausted:
            continue


def test_density_stability_under_simplex_mixing():
    rng = random.Random(55)
    ws = helpers.simplex_weights(B3, 3)
    densities = []
    rot = rotation_on_pairs(E35, [(1, 2)])
    u = from_rotation(rot, 3)
    for _ in range(3):
        densities.append(make_statistical(u * diagonal(E35, [E35.from_base(w) for w in ws]) * u.adjoint()))
    mix = affine_combine(densities, [B3.from_int(1), B3.from_int(3), B3.from_int(-3)])
    assert is_density(mix)
    assert _max_weight_is_one(mix)


def test_zero_trace_perturbation():
    rng = random.Random(56)
    s = helpers.rand_statistical(rng, E35, 3)
    assert zero_trace_perturb(s, zero_operator(E35, 3)).op == s.op
    with pytest.raises(TraceNotZero):
        zero_trace_perturb(s, identity(E35, 3))
    # norm rule: if ||S|| < ||T|| then ||S + T|| = ||T||
    big = rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 3).scale(
        E35.from_base(B3.from_fraction(Fraction(1, 27)))
    )
    big = big + big.adjoint()
    bumped = zero_trace_perturb(s, big)
    if s.norm() < operator_norm(big):
        assert bumped.norm() == operator_norm(big)


def test_zero_trace_perturbation_checks_as_make_zero_trace():
    # self-adjointness first, then the trace, with make_zero_trace's errors
    s = helpers.rand_statistical(random.Random(58), E35, 3)
    not_self_adjoint = rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 3) + identity(E35, 3)
    for t, error in ((not_self_adjoint, NotSelfAdjoint), (identity(E35, 3), TraceNotZero)):
        with pytest.raises(error) as raised:
            zero_trace_perturb(s, t)
        with pytest.raises(error) as expected:
            make_zero_trace(t)
        assert str(raised.value) == str(expected.value)


def test_split_zero_trace():
    rng = random.Random(57)
    for _ in range(15):
        try:
            s = helpers.rand_statistical(rng, E35, 4)
            s0, s1 = split_zero_trace(s)
            assert trace(s0.op).is_zero
            assert trace(s1.op) == E35.one()
            assert (s0.op + s1.op) == s.op
        except PrecisionExhausted:
            continue


def test_make_zero_trace_validation():
    with pytest.raises(TraceNotZero):
        make_zero_trace(identity(E35, 2))


def test_pair_dimension_mismatch():
    s = make_statistical(diagonal(E35, [E35.one()]))
    pvm = make_sovm([rank_one(basis_vector(E35, i), basis_vector(E35, i), 2) for i in (1, 2)])
    with pytest.raises(DimensionMismatch):
        pair(pvm, s)


def test_per_effect_bound():
    rng = random.Random(58)
    for _ in range(30):
        try:
            s = helpers.rand_statistical(rng, E35, 3)
            effects = [helpers.rand_self_adjoint(rng, E35, 3, min_val=0, max_val=2)]
            effects.append(identity(E35, 3) - effects[0])
            sv = make_sovm(effects)
            d = pair(sv, s)
            for a, w in zip(sv.effects, d.weights):
                lhs = Magnitude(3, -2 * w.valuation) if not w.is_zero else Magnitude.zero(3)
                assert lhs <= operator_norm(a) * s.norm()
        except PrecisionExhausted:
            continue


def test_affine_combine_blocks_matches_stepwise_sum():
    rng = random.Random(17)
    blocks = [helpers.rand_block(rng, E35, 3) for _ in range(3)]
    a, b = rng.randint(-9, 9), rng.randint(-9, 9)
    coeffs = [B3.from_int(a), B3.from_int(b), B3.from_int(1 - a - b)]
    acc = blocks[0].scale(E35.from_base(coeffs[0]))
    for op, c in zip(blocks[1:], coeffs[1:]):
        acc = acc + op.scale(E35.from_base(c))
    mix = affine_combine(blocks, coeffs)

    def coords(op):
        return [(x.valuation, x.unit, x.prec) for row in op.rows for z in row for x in (z.sc, z.ac)]

    assert coords(mix) == coords(acc)


def test_affine_combine_rejects_unsupported_points():
    with pytest.raises(ValidationError):
        affine_combine([1, 2], [B3.from_int(2), B3.from_int(-1)])


@pytest.mark.parametrize(
    "points",
    [
        pytest.param(lambda: [make_statistical(identity(E35, 1)), identity(E35, 1)], id="state_then_block"),
        pytest.param(lambda: [identity(E35, 1), basis_vector(E35, 1)], id="block_then_vector"),
    ],
)
def test_affine_combine_rejects_mixed_point_kinds(points):
    with pytest.raises(ValidationError, match="points of different kinds") as info:
        affine_combine(points(), [B3.from_int(2), B3.from_int(-1)])
    assert info.type is ValidationError


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: is_affine_combination([]), id="is_affine_combination"),
        pytest.param(lambda: is_convex_combination([]), id="is_convex_combination"),
        pytest.param(lambda: affine_combine([], []), id="affine_combine"),
    ],
)
def test_empty_coefficients_raise_zero_input(call):
    with pytest.raises(ZeroInput):
        call()


@pytest.mark.parametrize(
    "effects",
    [
        pytest.param(lambda g: [g], id="generator_only"),
        pytest.param(lambda g: [identity(E35, 2), g], id="block_then_generator"),
    ],
)
def test_make_sovm_rejects_a_generator_effect(effects):
    g = GeneratorOperator(identity(E35, 2), affine_certificate(0, 0, 0))
    with pytest.raises(NotSelfAdjoint):
        make_sovm(effects(g))
