"""The fused trace of a product: tr(AB) as one sum, AB never formed.

``operators._trace_of_product`` is the route of ``hs_inner``,
``verify_cyclic`` and ``states.pair``.  It agrees with ``trace(a * b)`` in
digits and precision everywhere, cancellation corners included: each
diagonal entry of AB is known below the least absolute precision of its
products, and an entry or a trace that vanishes there is O(p**N) on both
routes.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from padicqm import (
    BlockOperator,
    hs_inner,
    identity,
    make_sovm,
    make_statistical,
    pair,
    sovm_from_symmetric_decomposition,
    trace,
    verify_cyclic,
)
from padicqm.errors import ContextMismatch
from padicqm.operators import _trace_of_product
from padicqm.padic import PadicContext
from padicqm.quadext import ExtensionContext, QuadExtElement

# one non-square mu per prime, at a low cap so that cancellations are common
CONTEXTS = [helpers.ext_ctx(p, mu, 5) for p, mu in ((2, 3), (3, 5), (5, 2), (7, 3))]


def _coordinates(ctx: PadicContext):
    """Zero, or a number with 1 to ``precision`` known digits."""
    nonzero = st.builds(
        lambda v, lead, rest, k: ctx.from_digits(v, [lead, *rest][:k]),
        st.integers(-1, 1),
        st.integers(1, ctx.p - 1),
        st.lists(st.integers(0, ctx.p - 1), min_size=ctx.precision - 1, max_size=ctx.precision - 1),
        st.integers(1, ctx.precision),
    )
    return st.one_of(st.just(ctx.zero()), nonzero)


@st.composite
def _block_pairs(draw):
    """Two blocks over one context, each of its own size 1..4."""
    ctx = draw(st.sampled_from(CONTEXTS))
    coord = _coordinates(ctx.base)
    entry = st.builds(lambda x, y: QuadExtElement(ctx, x, y), coord, coord)

    def block():
        d = draw(st.integers(1, 4))
        return BlockOperator(ctx, [[draw(entry) for _ in range(d)] for _ in range(d)])

    return block(), block()


def _digits(z: QuadExtElement) -> tuple:
    return tuple((x.valuation, x.unit, x.prec, x.absolute) for x in (z.sc, z.ac))


@given(_block_pairs())
def test_fused_trace_matches_the_product_route(blocks):
    a, b = blocks
    assert _digits(_trace_of_product(a, b)) == _digits(trace(a * b))


@given(_block_pairs())
def test_cyclic_traces_are_identical(blocks):
    ab, ba = verify_cyclic(*blocks)
    assert _digits(ab) == _digits(ba)


# -- cancelling diagonal entries ---------------------------------------------

C38 = PadicContext(3, 8)
E38 = ExtensionContext(C38, C38.from_int(5))
T3 = E38.from_base(C38.from_digits(0, [2, 0, 2]))  # known to 3 digits


def _corner_a() -> BlockOperator:
    o, z = E38.one(), E38.zero()
    return BlockOperator(E38, [[o, o], [z, o]])


def test_a_cancelling_diagonal_entry_keeps_its_precision():
    # (AB)_11 = t - t is O(3^3), so tr(AB) = 1 is known to 3 digits on both routes
    a, z = _corner_a(), E38.zero()
    b = BlockOperator(E38, [[T3, z], [-T3, E38.one()]])
    assert (a * b).entry(1, 1).sc.absolute == 3
    ab, ba = verify_cyclic(a, b)
    assert ab == E38.one() and ab.sc.prec == 3
    assert _digits(ab) == _digits(ba) == _digits(trace(a * b)) == _digits(trace(b * a))


def test_diagonal_entry_past_its_digits_does_not_exhaust_the_trace():
    # (AB)_11 = t - 47 vanishes to every known digit of t, O(3^3), while the
    # whole trace t - 47 + 1 is 1 to 3 digits
    a, z = _corner_a(), E38.zero()
    b = BlockOperator(E38, [[T3, z], [-E38.from_base(C38.from_int(47)), E38.one()]])
    assert (a * b).entry(1, 1).sc.absolute == 3
    ab, ba = verify_cyclic(a, b)
    assert ab == E38.one() and ab.sc.prec == 3
    assert _digits(ab) == _digits(ba) == _digits(trace(a * b)) == _digits(trace(b * a))


def test_fused_trace_does_not_fabricate_an_exact_zero():
    # tr(AB) = 126 is known only modulo 3, and the lifts of its three terms
    # sum to exactly 0: both routes give O(3), an inexact zero
    c = PadicContext(3, 5)
    e = ExtensionContext(c, c.from_int(5))

    def f(v, ds):
        return e.from_base(c.from_digits(v, ds))

    z = e.zero()
    a = BlockOperator(e, [[f(0, [2, 0]), z], [f(1, [2]), f(0, [1, 2, 1, 1, 0])]])
    b = BlockOperator(e, [[f(0, [1, 2, 1]), f(-1, [1, 1])], [z, f(0, [2, 0, 0])]])
    inexact = (None, 0, 0, 1)
    assert _digits(trace(a * b))[0] == _digits(_trace_of_product(a, b))[0] == inexact
    assert [_digits(t)[0] for t in verify_cyclic(a, b)] == [inexact, inexact]


# -- no product is formed, and the operands are checked ----------------------


def _no_products(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(BlockOperator, "__mul__", refuse)


def test_fused_callers_form_no_product(monkeypatch):
    ctx = helpers.ext_ctx(3, 5, 8)
    rng = random.Random(5)
    s, t = helpers.rand_block(rng, ctx, 3), helpers.rand_block(rng, ctx, 3)
    state = helpers.rand_statistical(rng, ctx, 3)
    sovm = sovm_from_symmetric_decomposition(state)
    expected_hs = trace(s.adjoint() * t)
    expected_cyclic = trace(s * t)
    expected_pair = tuple(trace(a * state.op).sc for a in sovm.effects)
    _no_products(monkeypatch)
    assert hs_inner(s, t) == expected_hs
    x, y = verify_cyclic(s, t)
    assert x == expected_cyclic and _digits(x) == _digits(y)
    assert pair(sovm, state).weights == expected_pair


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a, b: hs_inner(a, b), id="hs_inner"),
        pytest.param(lambda a, b: verify_cyclic(a, b), id="verify_cyclic"),
        pytest.param(lambda a, b: pair(make_sovm([a]), make_statistical(b)), id="pair"),
    ],
)
def test_fused_callers_reject_mixed_extensions(call):
    e35, e53 = helpers.ext_ctx(3, 5, 8), helpers.ext_ctx(5, 3, 8)
    with pytest.raises(ContextMismatch):
        call(identity(e35, 1), identity(e53, 1))
