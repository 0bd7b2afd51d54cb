"""One cancellation rule: a sum that vanishes at its precision is O(p**N).

Two properties hold the rule to what the operands' known digits decide.

* Perturbation: redrawing an operand's digits beyond the precision that
  every output it enters can carry never changes an outcome, neither a
  value, nor an O(p**N), nor a typed raise.  The level of each operand
  digit follows from the operands alone: an output is known below the
  least absolute precision A of its live products, so a digit of x at
  valuation A - v(partners of x) or beyond moves that product only beyond A.
* Exact lifts: each unknown digit of every operand is completed in two
  random ways, and each result is held to both exact results, computed by
  ``perfbench/oracle.py``'s Fraction arithmetic: every digit a result
  claims must agree with both, an O(p**N) needs both to vanish modulo
  p**N, and an exact zero needs both to be 0.
"""

import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from padicqm import BlockOperator, PadicNumber, QuadExtElement, hs_inner, verify_cyclic
from padicqm.errors import PadicError
from padicqm.operators import _trace_of_product, diagonal, identity
from padicqm.padic import PadicContext, padic_sum
from padicqm.quadext import ExtensionContext, quad_sum

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle as ox  # noqa: E402  (the benchmark's exact reference, read only)

# one non-square mu per prime, at a low cap so that cancellations are common
CONTEXTS = [helpers.ext_ctx(p, mu, 5) for p, mu in ((2, 3), (3, 5), (5, 2), (7, 3))]


# -- operands -------------------------------------------------------------------


def _numbers(ctx: PadicContext):
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
def _terms(draw, ctx: PadicContext, size: int) -> list:
    """size numbers, each fresh or the negative of an earlier one cut to fewer
    digits, so that their sums often cancel."""
    out = []
    for _ in range(size):
        x = draw(_numbers(ctx))
        if out and draw(st.booleans()):
            y = -draw(st.sampled_from(out))
            if not y.is_zero:
                k = draw(st.integers(1, y.prec))
                x = PadicNumber(ctx, y.valuation, y.unit % ctx.p**k, k)
        out.append(x)
    return out


@st.composite
def _cases(draw):
    """A context, two scalars, scalar terms, element terms and two blocks."""
    ctx = draw(st.sampled_from(CONTEXTS))
    base, size = ctx.base, draw(st.integers(2, 4))
    x, y = draw(_terms(base, 2))
    scs, acs = draw(_terms(base, size)), draw(_terms(base, size))
    d, number = draw(st.integers(1, 3)), _numbers(base)
    a, b = (
        BlockOperator(ctx, [[QuadExtElement(ctx, draw(number), draw(number)) for _ in range(d)] for _ in range(d)])
        for _ in range(2)
    )
    elements = [QuadExtElement(ctx, s, t) for s, t in zip(scs, acs)]
    return ctx, x, y, draw(_terms(base, size)), elements, a, b


def _reproducer():
    """tr(AB) = 126 known only modulo 3, whose lifted terms sum to exactly 0;
    a rule that read the lifts returned it as an exact zero."""
    c = PadicContext(3, 5)
    e = ExtensionContext(c, c.from_int(5))

    def f(v, ds):
        return e.from_base(c.from_digits(v, ds))

    z = e.zero()
    a = BlockOperator(e, [[f(0, [2, 0]), z], [f(1, [2]), f(0, [1, 2, 1, 1, 0])]])
    b = BlockOperator(e, [[f(0, [1, 2, 1]), f(-1, [1, 1])], [z, f(0, [2, 0, 0])]])
    one = c.one()
    return e, one, -one, [one, one], [e.one(), e.one()], a, b


# -- the operations, on one coordinate dictionary ---------------------------------
#
# Each operation is described by its products: (output, the keys of the
# coordinates multiplied, whether mu joins them).  A sum's term is a product
# of one coordinate.


def _block_products(d: int) -> list:
    out = []
    for m in range(d):
        for n in range(d):
            for k in range(d):
                a, b = ("a", m, k), ("b", k, n)
                out += [
                    (("sc", m, n), [(*a, "sc"), (*b, "sc")], False),
                    (("sc", m, n), [(*a, "ac"), (*b, "ac")], True),
                    (("ac", m, n), [(*a, "sc"), (*b, "ac")], False),
                    (("ac", m, n), [(*a, "ac"), (*b, "sc")], False),
                ]
    return out


def _trace_products(d: int) -> list:
    return [((out[0],), keys, mu) for out, keys, mu in _block_products(d) if out[1] == out[2]]


def _sum_products(keys) -> list:
    return [(("sum",), [key], False) for key in keys]


def _coords(a: BlockOperator, b: BlockOperator) -> dict:
    return {
        (name, m, n, c): getattr(z, c)
        for name, x in (("a", a), ("b", b))
        for m, row in enumerate(x.rows)
        for n, z in enumerate(row)
        for c in ("sc", "ac")
    }


def _blocks(ctx: ExtensionContext, coords: dict, d: int):
    return [
        BlockOperator(ctx, [[QuadExtElement(ctx, coords[name, m, n, "sc"], coords[name, m, n, "ac"]) for n in range(d)] for m in range(d)])
        for name in ("a", "b")
    ]


def _levels(coords: dict, products: list, mu: PadicNumber) -> dict:
    """For each coordinate, the valuation from which its digits change no
    output: the largest A - v(partners) over the live products it enters."""
    live = []
    for out, keys, with_mu in products:
        xs = [coords[k] for k in keys] + ([mu] if with_mu else [])
        if not any(x.is_zero for x in xs):
            live.append((out, keys, xs, sum(x.valuation for x in xs)))
    bound = {}
    for out, _, xs, v in live:
        bound[out] = min(bound.get(out, v + min(x.prec for x in xs)), v + min(x.prec for x in xs))
    level = {}
    for out, keys, xs, v in live:
        for key, x in zip(keys, xs):
            here = bound[out] - v + x.valuation
            level[key] = max(level.get(key, here), here)
    return level


def _perturbed(coords: dict, products: list, mu: PadicNumber, rng: random.Random) -> dict:
    """coords with every digit at or past its level redrawn; the leading digit stays."""
    out = dict(coords)
    for key, level in _levels(coords, products, mu).items():
        x = coords[key]
        j, p = max(1, level - x.valuation), x.context.p
        if j < x.prec:
            out[key] = PadicNumber(x.context, x.valuation, x.unit % p**j + p**j * rng.randrange(p ** (x.prec - j)), x.prec)
    return out


def _view(r):
    if isinstance(r, PadicNumber):
        return r.valuation, r.unit, r.prec, r.absolute
    if isinstance(r, QuadExtElement):
        return _view(r.sc), _view(r.ac)
    return [[_view(z) for z in row] for row in r.rows]


def _outcome(fn):
    try:
        return _view(fn())
    except PadicError as exc:
        return "raised", type(exc).__name__


# -- perturbation ---------------------------------------------------------------------


@given(_cases(), st.integers(0, 2**32))
def test_an_outcome_depends_only_on_the_operands_at_their_precision(case, seed):
    ctx, x, y, terms, elements, a, b = case
    rng, mu = random.Random(seed), ctx.mu
    # + and padic_sum: one output, the sum
    pair = _perturbed({0: x, 1: y}, _sum_products([0, 1]), mu, rng)
    assert _outcome(lambda: x + y) == _outcome(lambda: pair[0] + pair[1])
    scalars = dict(enumerate(terms))
    other = _perturbed(scalars, _sum_products(scalars), mu, rng)
    assert _outcome(lambda: padic_sum(ctx.base, terms)) == _outcome(lambda: padic_sum(ctx.base, list(other.values())))
    # quad_sum: one sum per coordinate
    coords = {(i, c): getattr(z, c) for i, z in enumerate(elements) for c in ("sc", "ac")}
    products = [((key[1],), [key], False) for key in coords]
    other = _perturbed(coords, products, mu, rng)
    moved = [QuadExtElement(ctx, other[i, "sc"], other[i, "ac"]) for i in range(len(elements))]
    assert _outcome(lambda: quad_sum(ctx, elements)) == _outcome(lambda: quad_sum(ctx, moved))
    # the block product and the fused trace of the product
    d, coords = a.dim, _coords(a, b)
    for call, products in ((lambda s, t: s * t, _block_products(d)), (_trace_of_product, _trace_products(d))):
        moved = _blocks(ctx, _perturbed(coords, products, mu, rng), d)
        assert _outcome(lambda: call(a, b)) == _outcome(lambda: call(*moved))


# -- exact lifts ---------------------------------------------------------------------


def _exact(x: PadicNumber, rng: random.Random) -> Fraction:
    """A rational that x's known digits allow: the unit completed beyond them."""
    if x.is_zero:
        return Fraction(0)
    p = x.context.p
    return Fraction(p) ** x.valuation * (x.unit + p**x.prec * rng.randrange(p ** (x.context.precision + 2)))


def _holds(x: PadicNumber, q: Fraction) -> bool:
    """Every digit x claims matches q; O(p**N) needs q = 0 mod p**N, an exact zero q = 0."""
    p = x.context.p
    if x.valuation is not None:
        return ox.vp(q - ox.value(x), p) >= x.valuation + x.prec
    return q == 0 if x.absolute is None else ox.vp(q, p) >= x.absolute


def _holds_quad(z: QuadExtElement, q) -> bool:
    return _holds(z.sc, q[0]) and _holds(z.ac, q[1])


def _total(pairs):
    acc = (Fraction(0), Fraction(0))
    for q in pairs:
        acc = ox.add(acc, q)
    return acc


@given(_cases(), st.integers(0, 2**32))
@example(_reproducer(), 0)
def test_every_claimed_digit_holds_for_every_completion(case, seed):
    ctx, x, y, terms, elements, a, b = case
    rng, mu, d = random.Random(seed), ox.value(ctx.mu), a.dim
    got = [x + y, x * y, quad_sum(ctx, elements), a * b, _trace_of_product(a, b), hs_inner(a, b), *verify_cyclic(a, b)]
    for _ in range(2):
        ex, ey = _exact(x, rng), _exact(y, rng)
        quad = lambda z: (_exact(z.sc, rng), _exact(z.ac, rng))
        ea, eb = ([[quad(z) for z in row] for row in w.rows] for w in (a, b))
        es = [quad(z) for z in elements]
        product = [[_total(ox.mul(ea[m][k], eb[k][n], mu) for k in range(d)) for n in range(d)] for m in range(d)]
        tr_ab = _total(product[m][m] for m in range(d))
        tr_ba = _total(ox.mul(eb[m][k], ea[k][m], mu) for m in range(d) for k in range(d))
        hs = _total(ox.mul(ox.conj(ea[m][n]), eb[m][n], mu) for m in range(d) for n in range(d))
        assert _holds(got[0], ex + ey) and _holds(got[1], ex * ey)
        assert _holds_quad(got[2], _total(es))
        assert all(_holds_quad(got[3].rows[m][n], product[m][n]) for m in range(d) for n in range(d))
        assert _holds_quad(got[4], tr_ab) and _holds_quad(got[5], hs)
        assert _holds_quad(got[6], tr_ab) and _holds_quad(got[7], tr_ba)


def test_the_reproducer_trace_is_an_inexact_zero():
    *_, a, b = _reproducer()
    assert [_view(t)[0] for t in verify_cyclic(a, b)] == [(None, 0, 0, 1)] * 2


# -- a far term costs nothing -----------------------------------------------------------


def test_a_term_beyond_the_sums_precision_costs_nothing():
    # the term at valuation 10**7 lies beyond the absolute precision 2 of the
    # sum, so it changes no digit and is left out before any scaling
    ctx = helpers.ext_ctx(3, 5, 20)
    c = ctx.base
    x, far = c.from_digits(0, [1, 2]), c.from_digits(10**7, [1])
    start = time.perf_counter()
    sums = [x + far, far + x, padic_sum(c, [far, x, far])]
    sums += [verify_cyclic(diagonal(ctx, [ctx.from_base(far), ctx.from_base(x)]), identity(ctx, 2))[0].sc]
    assert time.perf_counter() - start < 1
    assert [(s.valuation, s.digits()) for s in sums] == [(0, [1, 2])] * 4


def test_a_far_product_in_a_block_entry_costs_no_division_per_digit_of_its_gap():
    # entry (1, 2) of a * a is x*far + far*x = 2x * 3**g: its integer sum is a
    # multiple of p**g, divided out at once, not one p at a time
    ctx = helpers.ext_ctx(3, 5, 20)
    x, far = ctx.from_ints(1, 2), ctx.from_base(ctx.base.from_digits(10**5, [1]))
    a = BlockOperator(ctx, [[x, far], [x, x]])
    start = time.perf_counter()
    product = a * a
    assert time.perf_counter() - start < 1
    scalar = [[quad_sum(ctx, [a.rows[m][k] * a.rows[k][n] for k in (0, 1)]) for n in (0, 1)] for m in (0, 1)]
    assert _view(product) == [[_view(z) for z in row] for row in scalar]
    assert _view(product.rows[0][1])[0] == (10**5, 2, 1, None)


def test_a_far_entry_in_a_large_product_costs_its_gap_once_per_line():
    # the far entry's scaled unit has about g * log2(3) bits; packed slots
    # wide enough for it would make each of the 2d packed ints d times wider
    # (packing alone took 1.1 s and 77 MB here), so such a product keeps the
    # per-entry sums and its cost grows with g, not with d * d * g
    ctx, d, g = helpers.ext_ctx(3, 5, 20), 16, 2 * 10**5
    rng = random.Random(7)
    rows = [[ctx.from_ints(rng.randrange(1, 100), rng.randrange(100)) for _ in range(d)] for _ in range(d)]
    rows[0][1] = ctx.from_base(ctx.base.from_digits(g, [1]))
    a = BlockOperator(ctx, rows)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        product = a * a
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 16 * 2**20
    scalar = [[quad_sum(ctx, [rows[m][k] * rows[k][n] for k in range(d)]) for n in range(d)] for m in range(d)]
    assert _view(product) == [[_view(z) for z in row] for row in scalar]
