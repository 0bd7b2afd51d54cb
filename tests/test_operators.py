"""Matrix operators: norms, classification, unitarity, trace calculus and
decompositions."""

import random
from fractions import Fraction

import pytest

import helpers
from padicqm import (
    BlockOperator,
    DecayCertificate,
    GeneratorOperator,
    Magnitude,
    PVector,
    QuadExtElement,
    Verdict,
    affine_certificate,
    apply,
    basis_vector,
    build_norm_inflating_ip_preserver,
    canonical_decomposition,
    classify,
    diagonal,
    factor_trace_class,
    from_rotation,
    hs_inner,
    identity,
    inner_product,
    is_ip_preserving,
    is_unitary,
    operator_norm,
    rank_one,
    rotation_on_pairs,
    sqrt,
    sup_norm,
    symmetric_decomposition,
    trace,
    trace_tail_bound,
    verify_cyclic,
    zero_operator,
)
from padicqm.errors import (
    NotAdjointable,
    NotBlockFinite,
    NotSelfAdjoint,
    OutsideWindow,
    PrecisionExhausted,
    RequiresOddP,
    TailDominates,
    ValidationError,
)
from padicqm.operators import adjoint, four_squares_unit_solution
from padicqm.quadext import quad_sum

E35 = helpers.ext_ctx(3, 5, 8)
E53 = helpers.ext_ctx(5, 3, 8)
E214 = helpers.ext_ctx(2, 14, 8)


def p_power(ctx, k):
    return ctx.from_base(ctx.base.from_fraction(Fraction(ctx.base.p) ** k))


# -- apply ---------------------------------------------------------------------


def test_apply_identity_and_rank_one():
    e2, e3 = basis_vector(E35, 2), basis_vector(E35, 3)
    assert apply(identity(E35, 4), e3) == e3
    assert apply(rank_one(basis_vector(E35, 1), e2, 3), e2) == basis_vector(E35, 1)


def test_apply_matches_inner_product_oracle():
    rng = random.Random(21)
    for _ in range(30):
        a = helpers.rand_block(rng, E35, 4)
        v = helpers.rand_vector(rng, E35, 4)
        try:
            image = apply(a, v)
            for m in range(1, 5):
                row = PVector(E35, {n: a.entry(m, n).conj() for n in range(1, 5)})
                assert image.entry(m) == inner_product(row, v)
        except PrecisionExhausted:
            continue


def test_apply_is_norm_contractive():
    rng = random.Random(22)
    for _ in range(50):
        a = helpers.rand_block(rng, E35, 4)
        v = helpers.rand_vector(rng, E35, 4)
        try:
            assert sup_norm(apply(a, v)) <= operator_norm(a) * sup_norm(v)
        except PrecisionExhausted:
            continue


# -- adjoint and algebra laws ----------------------------------------------------


def test_adjoint_examples():
    e1, e2 = basis_vector(E35, 1), basis_vector(E35, 2)
    assert rank_one(e1, e2, 2).adjoint() == rank_one(e2, e1, 2)
    d1 = E35.from_ints(2, 3)
    d2 = E35.from_ints(1, 4)
    assert diagonal(E35, [d1, d2]).adjoint() == diagonal(E35, [d1.conj(), d2.conj()])


def test_star_algebra_laws():
    rng = random.Random(23)
    for _ in range(100):
        a = helpers.rand_block(rng, E35, 3)
        b = helpers.rand_block(rng, E35, 3)
        alpha = helpers.rand_quad(rng, E35, zero_p=0.0)
        try:
            assert (a * b).adjoint() == b.adjoint() * a.adjoint()
            assert a.scale(alpha).adjoint() == a.adjoint().scale(alpha.conj())
            assert a.adjoint().adjoint() == a
            assert (a + b).adjoint() == a.adjoint() + b.adjoint()
            assert operator_norm(a.adjoint()) == operator_norm(a)
        except PrecisionExhausted:
            continue


# -- operator norm ----------------------------------------------------------------


def test_norm_examples():
    assert operator_norm(identity(E35, 3)).is_one
    single = zero_operator(E35, 2) + rank_one(
        basis_vector(E35, 1), basis_vector(E35, 2), 2
    ).scale(p_power(E35, 1))
    assert operator_norm(single) == Magnitude(3, -2)


def test_norm_triple_equality():
    rng = random.Random(24)
    for _ in range(100):
        dim = rng.randrange(2, 7)
        a = helpers.rand_block(rng, E35, dim)
        by_entries = operator_norm(a)
        by_columns = max(
            sup_norm(apply(a, basis_vector(E35, n))) for n in range(1, dim + 1)
        )
        astar = a.adjoint()
        by_rows = max(
            sup_norm(apply(astar, basis_vector(E35, m))) for m in range(1, dim + 1)
        )
        assert by_entries == by_columns == by_rows


# -- classification -----------------------------------------------------------------


def test_block_classification_flags():
    rng = random.Random(25)
    t = helpers.rand_self_adjoint(rng, E35, 4)
    cls = classify(t)
    for name in (
        "bounded",
        "adjointable",
        "self_adjoint",
        "compact",
        "trace_class",
        "traceable_wrt_standard_basis",
    ):
        flag = getattr(cls, name)
        assert flag.holds and flag.verdict == Verdict.PROVEN
    asym = helpers.rand_block(rng, E35, 4)
    cls2 = classify(asym)
    assert not cls2.self_adjoint.holds
    assert cls2.self_adjoint.verdict == Verdict.REFUTED
    assert cls2.trace_class.holds
    # the same window as a generator refutes self-adjointness at the same entry
    window = GeneratorOperator(asym, affine_certificate(-10, 0, 0))
    assert classify(window).self_adjoint.witness == cls2.self_adjoint.witness


def _row_decay_generator(ctx):
    # entries p^m, constant along each row index m
    def entry(m, n):
        return p_power(ctx, m)

    return GeneratorOperator(helpers.window(ctx, 4, entry), affine_certificate(0, 1, 0))


def test_generator_row_decay_only():
    g = _row_decay_generator(E35)
    cls = classify(g)
    assert cls.bounded.holds and cls.bounded.verdict == Verdict.CERTIFIED_BY_DECAY
    assert not cls.adjointable.holds
    assert cls.adjointable.verdict == Verdict.REFUTED
    assert cls.compact.holds  # sup_n |A_mn| = p^-m -> 0
    assert not cls.trace_class.holds
    with pytest.raises(NotAdjointable):
        adjoint(g)


def test_generator_diagonal_decay_is_trace_class():
    def entry(m, n):
        return p_power(E35, m) if m == n else E35.zero()

    g = GeneratorOperator(
        helpers.window(E35, 5, entry), affine_certificate(0, 1, 0, diagonal_only=True)
    )
    cls = classify(g)
    assert cls.trace_class.holds
    assert cls.trace_class.verdict == Verdict.CERTIFIED_BY_DECAY
    assert cls.adjointable.holds
    # window trace = p + p^2 + ... + p^5; tail bounded by p^-6
    expected = E35.base.from_int(sum(3**m for m in range(1, 6)))
    assert trace(g) == E35.from_base(expected)
    assert trace_tail_bound(g) == Magnitude(3, -12)
    with pytest.raises(ValidationError):
        trace_tail_bound(g.block)


def test_generator_total_decay():
    def entry(m, n):
        return p_power(E35, m + n)

    g = GeneratorOperator(helpers.window(E35, 4, entry), affine_certificate(0, 1, 1))
    cls = classify(g)
    assert cls.trace_class.holds
    assert cls.compact.holds and cls.adjointable.holds
    gs = adjoint(g)
    assert isinstance(gs, GeneratorOperator)
    assert gs.entry(2, 3) == g.entry(3, 2).conj()


def test_generator_window_validation():
    def entry(m, n):
        return E35.one()

    with pytest.raises(ValidationError):
        GeneratorOperator(helpers.window(E35, 3, entry), affine_certificate(1, 0, 0))  # bound demands p^-1


def test_generator_rejects_decreasing_bound():
    # a negative coefficient would let the bound shrink beyond the window
    with pytest.raises(ValidationError):
        DecayCertificate(Fraction(0), Fraction(-1), Fraction(0))
    with pytest.raises(ValidationError):
        affine_certificate(0, 0, -1)


def test_generator_outside_window():
    g = _row_decay_generator(E35)
    with pytest.raises(OutsideWindow):
        g.entry(5, 1)
    with pytest.raises(OutsideWindow):
        apply(g, basis_vector(E35, 9))


def test_generator_tail_dominates():
    def entry(m, n):
        return p_power(E35, 5) if m == n else E35.zero()

    g = GeneratorOperator(helpers.window(E35, 3, entry), affine_certificate(0, 0, 0))
    with pytest.raises(TailDominates):
        operator_norm(g)


def test_classification_lattice_on_generated_operators():
    rng = random.Random(26)
    ops = []
    for _ in range(40):
        ops.append(helpers.rand_block(rng, E35, rng.randrange(1, 6)))
    for a, b in [(0, 1), (1, 0), (1, 1), (2, 0), (0, 0)]:
        def entry(m, n, a=a, b=b):
            return p_power(E35, a * m + b * n)

        ops.append(GeneratorOperator(helpers.window(E35, 3, entry), affine_certificate(0, a, b)))
    for op in ops:
        cls = classify(op)
        if cls.trace_class.holds:
            assert cls.compact.holds and cls.adjointable.holds
        if cls.self_adjoint.holds:
            assert cls.adjointable.holds


# -- unitarity ------------------------------------------------------------------------


def test_identity_is_unitary():
    assert is_unitary(identity(E35, 3))


def test_two_adic_unitary_example():
    base = E214.base
    a = sqrt(base.from_int(-7))
    b = QuadExtElement(E214, base.zero(), base.from_int(2) / a)
    u = BlockOperator(E214, [[E214.from_base(a), b], [b, E214.from_base(a)]])
    assert is_unitary(u)
    assert is_ip_preserving(u)
    # the rotated pair is another orthonormal basis
    images = [apply(u, basis_vector(E214, i)) for i in (1, 2)]
    assert inner_product(images[0], images[0]) == E214.one()
    assert inner_product(images[0], images[1]).is_zero


def test_norm_inflating_ip_preserver():
    x = build_norm_inflating_ip_preserver(E35, 1)
    assert is_ip_preserving(x)
    assert not is_unitary(x)
    assert operator_norm(x) == Magnitude(3, 2)  # norm 3
    rng = random.Random(27)
    for _ in range(20):
        v = helpers.rand_vector(rng, E35, 4)
        w = helpers.rand_vector(rng, E35, 4)
        try:
            lhs = inner_product(apply(x, v), apply(x, w))
            assert lhs == inner_product(v, w)
        except PrecisionExhausted:
            continue
    with pytest.raises(RequiresOddP):
        build_norm_inflating_ip_preserver(E214, 1)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (7, 1)])
def test_four_squares_solution(p, k):
    xs = four_squares_unit_solution(p, k)
    assert sum(x * x for x in xs) == p ** (2 * k)
    assert any(x % p for x in xs)


def test_rotation_operator_is_unitary():
    rot = rotation_on_pairs(E35, [(1, 2), (3, 4)])
    u = from_rotation(rot, 5)
    assert is_unitary(u)
    v = helpers.rand_vector(random.Random(1), E35, 5)
    assert apply(u, v) == rot.apply(v)


# -- trace ---------------------------------------------------------------------------


def test_trace_of_rank_one_projection_is_one():
    phi = PVector(E35, {1: E35.from_ints(1, 0), 2: E35.from_ints(1, 1)})
    assert inner_product(phi, phi) == E35.one() + E35.from_ints(1, 0) - E35.from_base(E35.mu)
    psi = basis_vector(E35, 2)
    op = rank_one(psi, psi, 3)
    assert trace(op) == E35.one()
    assert trace(op).ext_abs() == operator_norm(op)


def test_trace_of_zero():
    assert trace(zero_operator(E35, 4)).is_zero


def test_trace_linearity_and_conjugation():
    rng = random.Random(28)
    for _ in range(50):
        s = helpers.rand_block(rng, E35, 4)
        t = helpers.rand_block(rng, E35, 4)
        alpha = helpers.rand_quad(rng, E35, zero_p=0.0)
        try:
            assert trace(s + t) == trace(s) + trace(t)
            assert trace(s.scale(alpha)) == alpha * trace(s)
            assert trace(s.adjoint()) == trace(s).conj()
        except PrecisionExhausted:
            continue


def test_trace_basis_independence():
    rot = rotation_on_pairs(E35, [(1, 2), (3, 4)])
    u = from_rotation(rot, 5)
    ustar = u.adjoint()
    rng = random.Random(29)
    for _ in range(60):
        t = helpers.rand_block(rng, E35, 5)
        try:
            assert trace(u * t * ustar) == trace(t)
            # independent route: sum of <psi_m, T psi_m> over the rotated basis
            rotated = [
                inner_product(rot.apply(basis_vector(E35, m)), apply(t, rot.apply(basis_vector(E35, m))))
                for m in range(1, 6)
            ]
            assert quad_sum(E35, rotated) == trace(t)
        except PrecisionExhausted:
            continue


def test_cyclic_property():
    assert verify_cyclic(identity(E35, 3), diagonal(E35, [E35.from_ints(4, 1)] * 3))[0] == trace(
        diagonal(E35, [E35.from_ints(4, 1)] * 3)
    )
    rng = random.Random(30)
    # rank-one symbolic identity: tr(|a><b| |c><d|) = <b,c><d,a>
    for _ in range(20):
        a, b, c, d = (helpers.rand_vector(rng, E35, 3) for _ in range(4))
        try:
            lhs = trace(rank_one(a, b, 3) * rank_one(c, d, 3))
            assert lhs == inner_product(b, c) * inner_product(d, a)
        except PrecisionExhausted:
            continue
    for _ in range(100):
        bb = helpers.rand_block(rng, E35, 5)
        tt = helpers.rand_block(rng, E35, 5)
        try:
            x, y = verify_cyclic(bb, tt)
            assert x == y
            assert x.ext_abs() <= operator_norm(bb) * operator_norm(tt)
        except PrecisionExhausted:
            continue


def test_trace_bound():
    rng = random.Random(31)
    for _ in range(100):
        t = helpers.rand_block(rng, E35, 4)
        try:
            assert trace(t).ext_abs() <= operator_norm(t)
        except PrecisionExhausted:
            continue


def test_ideal_property_block_finite():
    rng = random.Random(32)
    for _ in range(30):
        b = helpers.rand_block(rng, E35, 4)
        t = helpers.rand_block(rng, E35, 4)
        assert classify(b * t).trace_class.holds
        assert classify(t * b).trace_class.holds


# -- Hilbert-Schmidt ------------------------------------------------------------------


def test_hs_rank_one_units():
    e = lambda j, k: rank_one(basis_vector(E35, j), basis_vector(E35, k), 3)
    assert hs_inner(e(1, 2), e(1, 2)) == E35.one()
    assert hs_inner(e(1, 2), e(2, 1)).is_zero
    rng = random.Random(33)
    for _ in range(30):
        t = helpers.rand_block(rng, E35, 3)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                assert hs_inner(e(j, k), t) == t.entry(j, k)


def test_hs_hermitian_and_cauchy_schwarz():
    rng = random.Random(34)
    for _ in range(60):
        s = helpers.rand_block(rng, E35, 4)
        t = helpers.rand_block(rng, E35, 4)
        try:
            assert hs_inner(s, t) == hs_inner(t, s).conj()
            assert hs_inner(s, t).ext_abs() <= operator_norm(s) * operator_norm(t)
        except PrecisionExhausted:
            continue


# -- decompositions ----------------------------------------------------------------------


def test_canonical_decomposition_diagonal():
    d = E35.from_ints(7, 2)
    dec = canonical_decomposition(diagonal(E35, [d]))
    assert len(dec.terms) == 1
    lam, e, f = dec.terms[0]
    assert lam.ext_abs() == d.ext_abs()
    assert e == basis_vector(E35, 1)
    assert sup_norm(f).is_one
    assert dec.reconstruct() == diagonal(E35, [d])


def test_canonical_decomposition_zero():
    assert canonical_decomposition(zero_operator(E35, 3)).terms == ()


@pytest.mark.parametrize("ctx", [E35, E53, E214, helpers.ext_ctx(3, 3, 8), helpers.ext_ctx(2, 5, 8)])
def test_canonical_decomposition_round_trip(ctx):
    rng = random.Random(ctx.p * 10 + ctx.mu_class)
    from padicqm import is_norm_orthogonal

    for _ in range(40):
        t = helpers.rand_block(rng, ctx, 4)
        dec = canonical_decomposition(t)
        assert dec.reconstruct() == t
        assert dec.max_weight() == operator_norm(t)
        for lam, e, f in dec.terms:
            assert not lam.is_zero
            assert sup_norm(e).is_one and sup_norm(f).is_one
        if dec.terms:
            assert is_norm_orthogonal([e for _, e, _ in dec.terms])


def test_symmetric_decomposition_examples():
    phi = basis_vector(E35, 1)
    t = rank_one(phi, phi, 2)
    dec = symmetric_decomposition(t)
    assert len(dec.terms) == 1
    sig, e, f = dec.terms[0]
    assert e == basis_vector(E35, 1)
    # the halved diagonal sits in sigma |e><f|: sigma <f, e> = 1/2
    assert sig * inner_product(f, e) * E35.from_ints(2, 0) == E35.one()
    assert dec.reconstruct() == t
    assert dec.trace_by_formula() == E35.base.one()
    assert symmetric_decomposition(zero_operator(E35, 2)).terms == ()
    with pytest.raises(NotSelfAdjoint):
        symmetric_decomposition(rank_one(basis_vector(E35, 1), basis_vector(E35, 2), 2))


def test_symmetric_decomposition_round_trip_and_trace_formula():
    rng = random.Random(36)
    for _ in range(60):
        t = helpers.rand_self_adjoint(rng, E35, 4)
        dec = symmetric_decomposition(t)
        assert dec.reconstruct() == t
        assert dec.trace_by_formula() == trace(t).sc
        assert trace(t).ac.is_zero


def test_factorization():
    e1 = basis_vector(E35, 1)
    r = rank_one(e1, e1, 2)
    s, t = factor_trace_class(r)
    assert s * t == r
    zs, zt = factor_trace_class(zero_operator(E35, 2))
    assert (zs * zt) == zero_operator(E35, 2)
    rng = random.Random(37)
    for _ in range(50):
        r = helpers.rand_block(rng, E35, 4)
        s, t = factor_trace_class(r)
        assert s * t == r
        assert classify(s).trace_class.holds and classify(t).trace_class.holds


def test_decompositions_require_blocks():
    g = _row_decay_generator(E35)
    with pytest.raises(NotBlockFinite):
        canonical_decomposition(g)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda b, g: hs_inner(g, g), id="hs_inner"),
        pytest.param(lambda b, g: verify_cyclic(g, g), id="verify_cyclic"),
        pytest.param(lambda b, g: is_ip_preserving(g), id="is_ip_preserving"),
        pytest.param(lambda b, g: is_unitary(g), id="is_unitary"),
        pytest.param(lambda b, g: canonical_decomposition(g), id="canonical_decomposition"),
        pytest.param(lambda b, g: symmetric_decomposition(g), id="symmetric_decomposition"),
        pytest.param(lambda b, g: factor_trace_class(g), id="factor_trace_class"),
        pytest.param(lambda b, g: b * g, id="block_mul_generator"),
        pytest.param(lambda b, g: b + g, id="block_add_generator"),
        pytest.param(lambda b, g: b - g, id="block_sub_generator"),
        pytest.param(lambda b, g: verify_cyclic(b, g), id="verify_cyclic_mixed"),
        pytest.param(lambda b, g: hs_inner(b, g), id="hs_inner_mixed"),
        pytest.param(lambda b, g: g * b, id="generator_mul_block"),
        pytest.param(lambda b, g: g + g, id="generator_add_generator"),
        pytest.param(lambda b, g: g - b, id="generator_sub_block"),
        pytest.param(lambda b, g: -g, id="generator_neg"),
        pytest.param(lambda b, g: g.scale(b.context.one()), id="generator_scale"),
        pytest.param(lambda b, g: GeneratorOperator(g, g.certificate), id="generator_window"),
    ],
)
def test_block_only_entry_points_reject_generators(call):
    with pytest.raises(NotBlockFinite):
        call(identity(E35, 4), _row_decay_generator(E35))


def test_block_arithmetic_pads_the_smaller_block_with_zeros():
    # rank_one sizes itself by the support, so ordinary use mixes sizes
    e1, e2 = basis_vector(E35, 1), basis_vector(E35, 2)
    p1, p2 = rank_one(e1, e1), rank_one(e2, e2)
    i2 = identity(E35, 2)
    assert (p1.dim, p2.dim) == (1, 2)
    assert p1 + p2 == i2
    assert i2 - p1 == p2
    assert i2 * p1 == rank_one(e1, e1, 2)
    assert (p1 * identity(E35, 3)).dim == 3
    assert diagonal(E35, [E35.one(), E35.zero()]) == identity(E35, 1)
    assert i2 != identity(E35, 1)
    assert hs_inner(p1, i2) == E35.one()


@pytest.mark.parametrize("m,n", [(0, 0), (-1, 1), (1, 0)])
def test_entry_indices_below_one_raise(m, n):
    block = identity(E35, 2)
    g = GeneratorOperator(block, affine_certificate(0, 0, 0))
    for op in (block, g):
        with pytest.raises(ValidationError, match="indices are 1-based") as info:
            op.entry(m, n)
        assert info.type is ValidationError


def test_block_entry_beyond_the_block_is_zero():
    block = identity(E35, 2)
    assert block.entry(3, 1).is_zero and block.entry(1, 3).is_zero
