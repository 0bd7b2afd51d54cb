"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction

import helpers
from padicqm import (
    BlockOperator,
    GeneratorOperator,
    Magnitude,
    PadicContext,
    PVector,
    QuadExtElement,
    affine_certificate,
    apply,
    basis_vector,
    build_norm_inflating_ip_preserver,
    canonical_decomposition,
    classify,
    diagonal,
    factor_trace_class,
    find_isotropic,
    from_rotation,
    hs_inner,
    identity,
    inner_product,
    is_density,
    is_ip_preserving,
    is_unitary,
    isotropy_index,
    make_sovm,
    make_statistical,
    operator_norm,
    pair,
    rank_one,
    rotation_on_pairs,
    sqrt,
    sup_norm,
    symmetric_decomposition,
    trace,
    validate_distribution,
    verify_cyclic,
)
from padicqm.quadext import quad_sum


def _report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def test_criterion_01_square_root_digit_expansions():
    started = time.monotonic()
    cases = [
        (3, 7, [1, 1, 1, 0, 2], [2, 1, 1, 2, 0]),
        (5, 29, [2, 0, 4, 3, 4], [3, 4, 0, 1, 0]),
        (7, 2, [3, 1, 2, 6, 1], [4, 5, 4, 0, 5]),
    ]
    for p, n, first, second in cases:
        ctx = PadicContext(p, 5)
        root = sqrt(ctx.from_int(n))
        companion = sqrt(ctx.from_int(n), companion=True)
        assert {tuple(root.digits()), tuple(companion.digits())} == {
            tuple(first),
            tuple(second),
        }
    assert time.monotonic() - started < 1.0
    _report(1, "square-root digit expansions")


def test_criterion_02_norm_two_elements():
    cases = []
    e35 = helpers.ext_ctx(3, 5)
    cases.append((e35, QuadExtElement(e35, sqrt(e35.base.from_int(7)), e35.base.from_int(-1))))
    e32 = helpers.ext_ctx(3, 2)
    cases.append((e32, e32.from_ints(2, 1)))
    e53 = helpers.ext_ctx(5, 3)
    cases.append((e53, QuadExtElement(e53, sqrt(e53.base.from_int(29)), e53.base.from_int(3))))
    e77 = helpers.ext_ctx(7, 7)
    cases.append((e77, QuadExtElement(e77, sqrt(e77.base.from_int(2)), e77.base.zero())))
    for ctx, z in cases:
        assert z * z.conj() == ctx.from_ints(2, 0)
        assert z.ext_abs().is_one
    _report(2, "z conj(z) = 2 constructions")


def test_criterion_03_isotropy():
    started = time.monotonic()
    ctx22 = helpers.ext_ctx(2, 2, 8)
    ctx23 = helpers.ext_ctx(2, 3, 8)
    ctx25 = helpers.ext_ctx(2, 5, 8)
    vectors = [
        PVector(ctx22, {1: ctx22.from_ints(1, 1), 2: ctx22.one()}),
        PVector(ctx23, {1: ctx23.from_ints(1, 1), 2: ctx23.one(), 3: ctx23.one()}),
        PVector(ctx25, {1: ctx25.from_ints(1, 1), 2: ctx25.from_ints(2, 0)}),
    ]
    for v in vectors:
        assert inner_product(v, v).is_zero
    contexts = [
        (2, 2), (2, 3), (2, 5), (2, 6), (2, 7), (2, 10), (2, 14),
        (3, 3), (3, 5), (5, 2), (7, 3), (7, 7),
    ]
    assert len(contexts) == 12
    for p, mu in contexts:
        ctx = helpers.ext_ctx(p, mu, 8)
        nu = isotropy_index(ctx)
        assert nu in (2, 3)
        witness = find_isotropic(ctx, 3)
        assert not witness.is_zero
        assert len(witness.support()) == nu
        assert inner_product(witness, witness).is_zero
    assert time.monotonic() - started < 10.0
    _report(3, "isotropic vectors and isotropy index")


def test_criterion_04_norm_triple_equality():
    ctx = helpers.ext_ctx(3, 5, 10)
    rng = random.Random(104)
    for _ in range(500):
        dim = rng.randrange(1, 9)
        a = helpers.rand_block(rng, ctx, dim)
        by_entries = operator_norm(a)
        by_columns = max(
            (sup_norm(apply(a, basis_vector(ctx, n))) for n in range(1, dim + 1)),
        )
        astar = a.adjoint()
        by_rows = max(
            (sup_norm(apply(astar, basis_vector(ctx, m))) for m in range(1, dim + 1)),
        )
        assert by_entries == by_columns == by_rows
    _report(4, "operator-norm triple equality")


def test_criterion_05_trace_basis_independence():
    ctx = helpers.ext_ctx(3, 5, 12)
    rot = rotation_on_pairs(ctx, [(1, 2), (3, 4), (5, 6)])
    u = from_rotation(rot, 6)
    ustar = u.adjoint()
    rng = random.Random(105)
    for _ in range(100):
        t = helpers.rand_block(rng, ctx, 6)
        direct = trace(t)
        assert trace(u * t * ustar) == direct
        rotated_basis = [rot.apply(basis_vector(ctx, m)) for m in range(1, 7)]
        by_rotated_basis = quad_sum(
            ctx, [inner_product(b, apply(t, b)) for b in rotated_basis]
        )
        assert by_rotated_basis == direct
    _report(5, "trace basis-independence and unitary invariance")


def test_criterion_06_cyclic_property_and_bound():
    ctx = helpers.ext_ctx(3, 5, 12)
    rng = random.Random(106)
    for _ in range(500):
        dim = rng.randrange(2, 6)
        b = helpers.rand_block(rng, ctx, dim)
        t = helpers.rand_block(rng, ctx, dim)
        bt, tb = verify_cyclic(b, t)
        assert bt == tb
        assert bt.ext_abs() <= operator_norm(b) * operator_norm(t)
    _report(6, "cyclic property and trace bound")


def test_criterion_07_decomposition_round_trips():
    contexts = [helpers.ext_ctx(3, 5, 12), helpers.ext_ctx(5, 3, 12), helpers.ext_ctx(2, 14, 12)]
    rng = random.Random(107)
    for k in range(200):
        ctx = contexts[k % len(contexts)]
        c = helpers.rand_block(rng, ctx, rng.randrange(2, 5))
        dec = canonical_decomposition(c)
        assert dec.reconstruct() == c
        assert dec.max_weight() == operator_norm(c)
        s, t = factor_trace_class(c)
        assert s * t == c
        sa = c + c.adjoint()
        sym = symmetric_decomposition(sa)
        assert sym.reconstruct() == sa
    _report(7, "canonical and symmetric decomposition round trips")


def test_criterion_08_hilbert_schmidt_axioms():
    ctx = helpers.ext_ctx(3, 5, 12)
    rng = random.Random(108)
    unit = lambda j, k: rank_one(basis_vector(ctx, j), basis_vector(ctx, k), 4)
    for j in range(1, 5):
        for k in range(1, 5):
            for r in range(1, 5):
                for s in range(1, 5):
                    expected = ctx.one() if (j, k) == (r, s) else ctx.zero()
                    assert hs_inner(unit(j, k), unit(r, s)) == expected
    for _ in range(100):
        s = helpers.rand_block(rng, ctx, 4)
        t = helpers.rand_block(rng, ctx, 4)
        assert hs_inner(s, t) == hs_inner(t, s).conj()
        assert hs_inner(s, t).ext_abs() <= operator_norm(s) * operator_norm(t)
        for j in range(1, 5):
            for k in range(1, 5):
                assert hs_inner(unit(j, k), t) == t.entry(j, k)
    _report(8, "Hilbert-Schmidt axioms")


def test_criterion_09_unitary_characterization():
    started = time.monotonic()
    ctx14 = helpers.ext_ctx(2, 14, 8)
    base = ctx14.base
    a = sqrt(base.from_int(-7))
    b = QuadExtElement(ctx14, base.zero(), base.from_int(2) / a)
    u = BlockOperator(ctx14, [[ctx14.from_base(a), b], [b, ctx14.from_base(a)]])
    assert is_unitary(u)
    ctx35 = helpers.ext_ctx(3, 5, 8)
    x = build_norm_inflating_ip_preserver(ctx35, 1)
    assert is_ip_preserving(x)
    assert operator_norm(x) == Magnitude(3, 2)
    assert not is_unitary(x)
    assert time.monotonic() - started < 5.0
    _report(9, "unitary characterization and counterexample")


def test_criterion_10_state_layer():
    ctx = helpers.ext_ctx(3, 5, 12)
    b3 = ctx.base
    rng = random.Random(110)
    checked = 0
    while checked < 100:
        dim = rng.randrange(2, 7)
        try:
            effects = [helpers.rand_self_adjoint(rng, ctx, dim, min_val=0, max_val=2)]
            effects.append(identity(ctx, dim) - effects[0])
            sovm = make_sovm(effects)
            state = helpers.rand_statistical(rng, ctx, dim)
            pair(sovm, state)  # constructor verifies the exact unit sum
        except Exception as exc:  # noqa: BLE001 - only precision events expected
            from padicqm.errors import PrecisionExhausted

            if isinstance(exc, PrecisionExhausted):
                continue
            raise
        checked += 1
    # density + contractive lands in the probability simplex
    rot = rotation_on_pairs(ctx, [(1, 2), (3, 4)])
    u = from_rotation(rot, 4)
    ws = helpers.simplex_weights(b3, 4)
    density = make_statistical(u * diagonal(ctx, [ctx.from_base(w) for w in ws]) * u.adjoint())
    assert is_density(density)
    pvm = make_sovm([rank_one(basis_vector(ctx, i), basis_vector(ctx, i), 4) for i in range(1, 5)])
    assert pvm.is_contractive()
    assert pair(pvm, density).is_in_simplex()
    d1 = validate_distribution(b3, [b3.from_int(w) for w in (1, 2, -1, -1)])
    assert d1.is_in_simplex()
    d2 = validate_distribution(
        b3, [b3.from_fraction(Fraction(1, 3)), b3.from_fraction(Fraction(2, 3))]
    )
    assert d2.sup_norm() == 3
    _report(10, "state layer pairing and distributions")


def test_criterion_11_classification_lattice():
    ctx = helpers.ext_ctx(3, 5, 8)
    rng = random.Random(111)
    operators = []
    for _ in range(800):
        operators.append(helpers.rand_block(rng, ctx, rng.randrange(1, 5)))
    for _ in range(200):
        a, b = rng.randrange(0, 3), rng.randrange(0, 3)
        diag_only = rng.random() < 0.3

        def entry(m, n, a=a, b=b, diag_only=diag_only):
            if diag_only and m != n:
                return ctx.zero()
            return ctx.from_base(ctx.base.from_fraction(Fraction(3) ** (a * m + b * n)))

        operators.append(
            GeneratorOperator(
                helpers.window(ctx, 3, entry), affine_certificate(0, a, b, diagonal_only=diag_only)
            )
        )
    assert len(operators) == 1000
    for op in operators:
        cls = classify(op)
        if cls.trace_class.holds:
            assert cls.compact.holds and cls.adjointable.holds
        if cls.self_adjoint.holds:
            assert cls.adjointable.holds
    _report(11, "classification implication lattice")
