"""The integer kernel of block products against the scalar route.

``BlockOperator.__mul__`` sums each entry exactly over integers
(``quadext._product``), an entry that vanishes at its precision as the
inexact zero O(p**N), and calls ``quadext._dot`` for none unless a line
spans the power table.
``operators._trace_of_product``, ``BlockOperator.apply`` and the rank-one
sums (``operators._rank_one_sum``: decomposition reconstructions,
``factor_trace_class``, ``rank_one``) sum their products on integer
coordinates through the kernel's element-line entry points
(``quadext._dots``, ``quadext._rank_one_entries``), each sum one
``quadext._dot``; ``canonical_decomposition``, ``hs_inner`` and
``inner_product`` scale and conjugate on those coordinates too
(``quadext._conj_scaled``, ``quadext._conj_dot``).  Each must give
the digits of the scalar route written out below, ``quad_sum`` over the
``QuadExtElement`` products, in every case: the same (valuation, unit,
prec, absolute) on both coordinates of every entry, or the same error type
and message.  Nothing is skipped.  The unitarity checks
(``is_ip_preserving``, ``is_unitary``) sum the entries of adjoint(U) U one
by one and stop at one that differs from Id: they must give the product
route's verdict.  ``is_orthonormal_system`` runs the same scan on the Gram
matrix of its vectors and is held to the double loop of ``inner_product``
calls it replaced in the same way.
"""

import math
import random
import time
from operator import mul
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from padicqm import (
    BlockOperator,
    PadicNumber,
    PVector,
    QuadExtElement,
    build_norm_inflating_ip_preserver,
    canonical_decomposition,
    factor_trace_class,
    from_rotation,
    hs_inner,
    identity,
    is_ip_preserving,
    is_orthonormal_system,
    is_unitary,
    make_sovm,
    make_statistical,
    operator_norm,
    pair,
    rank_one,
    rotation_on_pairs,
    sovm_from_symmetric_decomposition,
    symmetric_decomposition,
    verify_cyclic,
)
from padicqm import operators, states
from padicqm.errors import (
    ContextMismatch,
    PadicError,
    RequiresOddP,
    SearchExhausted,
)
from padicqm.hilbert import (
    _scalar_of_magnitude,
    basis_vector,
    inner_product,
    is_norm_orthogonal,
    sup_norm,
)
from padicqm.operators import _hermitian, _trace_of_product
from padicqm.padic import PadicContext
from padicqm import quadext
from padicqm.quadext import ExtensionContext, _dot, _lhs_coords, _residue, _rhs_coords, max_abs, quad_sum

PRECISION = 5  # a low cap makes cancellations and exhausted sums common


def _contexts() -> list[ExtensionContext]:
    """All 16 extension classes for p in {2, 3, 5, 7}.  Every other mu
    carries a factor p**2 and one digit fewer than the cap, so that mu*ac
    shifts valuations and cuts precision."""
    out = []
    for p, labels in helpers.EXTENSION_CLASSES.items():
        base = PadicContext(p, PRECISION)
        for i, label in enumerate(labels):
            mu = base.from_int(label)
            if i % 2:
                k = PRECISION - 1
                mu = PadicNumber(base, mu.valuation + 2, mu.unit % p**k, k)
            out.append(ExtensionContext(base, mu))
    return out


CONTEXTS = _contexts()


def test_the_contexts_cover_every_class():
    assert len({(e.p, e.mu_class) for e in CONTEXTS}) == 16


# -- the scalar route -----------------------------------------------------------


def _scalar_dot(ctx, xs, ys):
    return quad_sum(ctx, [x * y for x, y in zip(xs, ys) if not (x.is_zero or y.is_zero)])


def _scalar_product(a, b):
    d = max(a.dim, b.dim)
    return [
        [
            _scalar_dot(
                a.context,
                [a.entry(i, k) for k in range(1, d + 1)],
                [b.entry(k, j) for k in range(1, d + 1)],
            )
            for j in range(1, d + 1)
        ]
        for i in range(1, d + 1)
    ]


def _scalar_trace_of_product(a, b):
    d = range(1, max(a.dim, b.dim) + 1)
    return _scalar_dot(
        a.context, [a.entry(m, k) for m in d for k in d], [b.entry(k, m) for m in d for k in d]
    )


def _scalar_apply(a, v):
    out = {}
    for m in range(1, a.dim + 1):
        row = [a.entry(m, n) for n, _ in v.items()]
        acc = _scalar_dot(a.context, row, [z for _, z in v.items()])
        if not acc.is_zero:
            out[m] = acc
    return out


def _scalar_rank_one_sum(ctx, dim, terms):
    """sum_j w_j |e_j><f_j|: each entry quad_sum over w * (e[m] conj(f[n]))."""
    cells = {}
    for w, e, f in terms:
        for m, em in e.items():
            for n, fn in f.items():
                cells.setdefault((m, n), []).append(w * (em * fn.conj()))
    d = range(1, dim + 1)
    return [[quad_sum(ctx, cells.get((m, n), [])) for n in d] for m in d]


def _scalar_canonical_terms(c):
    """``canonical_decomposition``'s terms with f[n] = (lam.inv() * z).conj()."""
    ctx, terms = c.context, []
    for m, row in enumerate(c.rows, 1):
        nonzero = [(n, z) for n, z in enumerate(row, 1) if not z.is_zero]
        if nonzero:
            lam = _scalar_of_magnitude(ctx, max_abs(ctx, (z for _, z in nonzero)))
            lam_inv = lam.inv()
            f = PVector(ctx, {n: (lam_inv * z).conj() for n, z in nonzero})
            terms.append((lam, basis_vector(ctx, m), f))
    return terms


def _scalar_factor(r):
    terms = _scalar_canonical_terms(r)
    one = r.context.one()
    return [
        _scalar_rank_one_sum(r.context, r.dim, [(lam, e, e) for lam, e, _ in terms]),
        _scalar_rank_one_sum(r.context, r.dim, [(one, e, f) for _, e, f in terms]),
    ]


# -- outcomes -----------------------------------------------------------------------


def _digits(z: QuadExtElement) -> tuple:
    return tuple((x.valuation, x.unit, x.prec, x.absolute) for x in (z.sc, z.ac))


def _inexact_zeros(view) -> int:
    """How many O(p**N) coordinates an outcome's view holds."""
    if isinstance(view, dict):
        view = list(view.values())
    if isinstance(view, tuple) and len(view) == 4 and view[0] is None:
        return view[3] is not None
    return sum(map(_inexact_zeros, view)) if isinstance(view, (list, tuple)) else 0


def _outcome(fn, view):
    try:
        return view(fn())
    except PadicError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _rows(entries):
    return [[_digits(z) for z in row] for row in entries]


def _vector(entries: dict):
    return {m: _digits(z) for m, z in entries.items()}


def _compare_all(a, b, v):
    """The three kernel callers against the scalar route; the outcomes."""
    cases = [
        (lambda: (a * b).rows, lambda: _scalar_product(a, b), _rows),
        (lambda: _trace_of_product(a, b), lambda: _scalar_trace_of_product(a, b), _digits),
        (lambda: dict(a.apply(v).items()), lambda: _scalar_apply(a, v), _vector),
    ]
    outcomes = []
    for kernel, scalar, view in cases:
        got, expected = _outcome(kernel, view), _outcome(scalar, view)
        assert got == expected
        outcomes.append(expected)
    return outcomes


def _compare_rank_one_sums(a, h, v, w):
    """The rank-one callers against the scalar route; the outcomes."""
    ctx = a.context

    def canonical():
        return _scalar_rank_one_sum(ctx, a.dim, _scalar_canonical_terms(a))

    def symmetric():
        c = symmetric_decomposition(h)
        return _scalar_rank_one_sum(ctx, c.dim, _hermitian(c.terms))

    d = max(v.support() + w.support(), default=1)
    cases = [
        (lambda: canonical_decomposition(a).reconstruct().rows, canonical, _rows),
        (lambda: symmetric_decomposition(h).reconstruct().rows, symmetric, _rows),
        (lambda: [x.rows for x in factor_trace_class(a)], lambda: _scalar_factor(a), _pair_of_rows),
        (lambda: rank_one(v, w).rows, lambda: _scalar_rank_one_sum(ctx, d, [(ctx.one(), v, w)]), _rows),
    ]
    # Both routes decompose alike, raises included.
    outcomes = []
    for kernel, scalar, view in cases:
        got, expected = _outcome(kernel, view), _outcome(scalar, view)
        assert got == expected
        outcomes.append(expected)
    return outcomes


def _pair_of_rows(pair_):
    return [_rows(rows) for rows in pair_]


# -- random operands --------------------------------------------------------------


def _coordinate(rng: random.Random, ctx: PadicContext) -> PadicNumber:
    """Zero, or a number with 1 to ``precision`` known digits."""
    if rng.random() < 0.25:
        return ctx.zero()
    k = rng.randint(1, ctx.precision)
    digits = [rng.randrange(1, ctx.p)] + [rng.randrange(ctx.p) for _ in range(k - 1)]
    return ctx.from_digits(rng.randint(-1, 1), digits)


def _element(rng, ctx: ExtensionContext) -> QuadExtElement:
    return QuadExtElement(ctx, _coordinate(rng, ctx.base), _coordinate(rng, ctx.base))


def _operands(rng: random.Random, ctx: ExtensionContext):
    """Two blocks of sizes 1..4 each and a vector over indices 1..5."""

    def block():
        d = rng.randint(1, 4)
        return BlockOperator(ctx, [[_element(rng, ctx) for _ in range(d)] for _ in range(d)])

    support = rng.sample(range(1, 6), rng.randint(0, 5))
    return block(), block(), PVector(ctx, {n: _element(rng, ctx) for n in support})


def _hermitian_block(rng: random.Random, ctx: ExtensionContext) -> BlockOperator:
    """A self-adjoint block of size 1..4, built entry by entry."""
    d = rng.randint(1, 4)
    rows = [[None] * d for _ in range(d)]
    for m in range(d):
        rows[m][m] = QuadExtElement(ctx, _coordinate(rng, ctx.base), ctx.base.zero())
        for n in range(m + 1, d):
            rows[m][n] = _element(rng, ctx)
            rows[n][m] = rows[m][n].conj()
    return BlockOperator(ctx, rows)


def _cancellations(a, b) -> int:
    """Entries of AB with a coordinate that is exact zero while some of its
    terms are not."""
    d, ab = range(1, max(a.dim, b.dim) + 1), a * b
    count = 0
    for i in d:
        for j in d:
            total, terms = ab.entry(i, j), [a.entry(i, k) * b.entry(k, j) for k in d]
            count += any(
                getattr(total, c).is_zero and any(not getattr(t, c).is_zero for t in terms)
                for c in ("sc", "ac")
            )
    return count


def test_kernel_matches_the_scalar_route_on_a_seeded_sweep():
    rng = random.Random(20)
    inexact = cancelled = 0
    for ctx in CONTEXTS:
        for _ in range(30):
            a, b, v = _operands(rng, ctx)
            inexact += _inexact_zeros(_compare_all(a, b, v))
            cancelled += _cancellations(a, b)
    # the sweep reaches the corners, not only the easy middle
    assert inexact > 300 and cancelled > 100


def test_rank_one_sums_match_the_scalar_route_on_a_seeded_sweep():
    rng = random.Random(22)
    inexact = valued = 0
    for ctx in CONTEXTS:
        for _ in range(30):
            a, _, v = _operands(rng, ctx)
            w = PVector(ctx, {n: _element(rng, ctx) for n in rng.sample(range(1, 6), rng.randint(0, 5))})
            for o in _compare_rank_one_sums(a, _hermitian_block(rng, ctx), v, w):
                inexact += _inexact_zeros(o)
                valued += not (isinstance(o, tuple) and o[0] == "raised")
    # both sides of the cancellation rule are reached
    assert inexact > 100 and valued > 1000


def test_weighted_rank_one_sums_match_the_scalar_route_on_a_seeded_sweep():
    """General terms w |e><f|: a cell e[m] conj(f[n]) that cancels in part
    meets a weight with fewer digits, so a cell left unclosed by the
    two-product rule would carry the wrong precision into its entry."""
    rng = random.Random(23)
    inexact = valued = 0
    for ctx in CONTEXTS:
        for _ in range(30):
            terms = [
                (
                    _element(rng, ctx),
                    PVector(ctx, {n: _element(rng, ctx) for n in rng.sample(range(1, 4), rng.randint(0, 3))}),
                    PVector(ctx, {n: _element(rng, ctx) for n in rng.sample(range(1, 4), rng.randint(0, 3))}),
                )
                for _ in range(rng.randint(1, 3))
            ]
            got = _outcome(lambda: operators._rank_one_sum(ctx, 3, terms).rows, _rows)
            expected = _outcome(lambda: _scalar_rank_one_sum(ctx, 3, terms), _rows)
            assert got == expected
            inexact += _inexact_zeros(expected)
            valued += not (isinstance(expected, tuple) and expected[0] == "raised")
    assert inexact > 100 and valued > 200


@st.composite
def _hypothesis_operands(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    return _operands(random.Random(draw(st.integers(0, 2**32))), ctx)


@settings(max_examples=150, deadline=None)
@given(_hypothesis_operands())
def test_kernel_matches_the_scalar_route(operands):
    _compare_all(*operands)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda e: f"p{e.p}-mu{e.mu_class}")
def test_valuation_gaps_beyond_the_power_table(ctx):
    # gaps of 13 and more, past p**(2 * precision), inside a term
    # (sc*sc' against mu*ac*ac') and between the terms of one entry,
    # with the lower valuation first and last
    base = ctx.base
    x1 = QuadExtElement(ctx, base.from_digits(0, [1, 1]), base.from_digits(6, [1, 0, 1]))
    x2 = QuadExtElement(ctx, base.from_digits(-8, [1]), base.zero())
    y1 = QuadExtElement(ctx, base.from_digits(0, [1]), base.from_digits(7, [1, 1]))
    y2 = QuadExtElement(ctx, base.from_digits(-5, [1, 1, 1]), base.from_digits(-9, [1]))
    a = BlockOperator(ctx, [[x1, x2], [x2, x1]])
    b = BlockOperator(ctx, [[y1, y2], [y2, y1]])
    v = PVector(ctx, {1: y2, 2: y1})
    assert 2 * PRECISION < 13
    _compare_all(a, b, v)
    _compare_all(b, a, v)


def test_kernel_matches_the_scalar_route_past_the_power_table():
    # at precision 80 the digit moduli themselves lie past the cached powers
    rng = random.Random(21)
    for p, mu in ((2, 3), (3, 5), (7, 3)):
        ctx = helpers.ext_ctx(p, mu, 80)
        for _ in range(4):
            _compare_all(*_operands(rng, ctx))


# -- block products on exact integer sums -------------------------------------


def _full(rng: random.Random, ctx: PadicContext) -> PadicNumber:
    """A number known to every digit of the cap."""
    digits = [rng.randrange(1, ctx.p)] + [rng.randrange(ctx.p) for _ in range(ctx.precision - 1)]
    return ctx.from_digits(rng.randint(-1, 1), digits)


def _counting_dots(monkeypatch) -> list:
    """Patch ``quadext._dot`` to count its calls; the one-item count."""
    count, dot = [0], quadext._dot

    def counted(*args):
        count[0] += 1
        return dot(*args)

    monkeypatch.setattr(quadext, "_dot", counted)
    return count


def _compare_products(a, b):
    """``a * b`` against the scalar route; the outcome."""
    got, expected = _outcome(lambda: (a * b).rows, _rows), _outcome(lambda: _scalar_product(a, b), _rows)
    assert got == expected
    return expected


def test_products_up_to_size_8_match_the_scalar_route(monkeypatch):
    # sizes 5..8 engage the row and column bounds; the operands mix short
    # and full digits, zeros and sparse blocks
    rng = random.Random(24)
    dots = _counting_dots(monkeypatch)
    inexact = 0
    for ctx in CONTEXTS:
        for _ in range(6):
            zero, full = rng.choice([0.0, 0.2, 0.7]), rng.random()

            def element():
                coord = lambda: ctx.base.zero() if rng.random() < zero else (
                    _full(rng, ctx.base) if rng.random() < full else _coordinate(rng, ctx.base)
                )
                return QuadExtElement(ctx, coord(), coord())

            a, b = (
                BlockOperator(ctx, [[element() for _ in range(d)] for _ in range(d)])
                for d in (rng.randint(5, 8), rng.randint(1, 8))
            )
            inexact += _inexact_zeros(_compare_products(a, b))
    # entries that vanish at their precision are reached, and every entry is
    # decided on the integer sums: the scalar route calls no _dot either
    assert inexact > 100 and dots[0] == 0


# -- packed entry sums -------------------------------------------------------------

_LINE_KINDS = ("random", "zero", "one", "full", "top")


def _packing_line(rng: random.Random, base: PadicContext, kind: str, n: int) -> list:
    """n coordinate triples (None for zero) of one kind: ``random`` mixes
    zeros and units of 1 to ``precision`` digits at valuations -2..3;
    ``zero`` has no live place and ``one`` a single one; ``full`` holds the
    largest residue p**precision - 1 at every place, and ``top`` holds it at
    valuation 0 and at the power table's last exponent, the largest scaled
    units that are packed; ``wide`` adds a unit whose valuation gap lies past
    the table, a line ``_scaled`` refuses."""
    cap, last, full = base.precision, len(base._powers) - 1, base.modulus - 1

    def unit(k):
        return rng.randrange(1, base.p) + base.p * rng.randrange(base.p ** (k - 1))

    if kind == "zero":
        return [None] * n
    if kind == "full":
        return [(0, full, cap)] * n
    if kind == "top":
        return [(0, full, cap)] + [(last, full, cap)] * (n - 1)
    line = [None] * n
    if kind == "one":
        k = rng.randint(1, cap)
        line[rng.randrange(n)] = (rng.randint(-2, 3), unit(k), k)
        return line
    for i in range(n):
        if rng.random() < 0.75:
            k = rng.randint(1, cap)
            line[i] = (rng.randint(-2, 3), unit(k), k)
    if kind == "wide":
        line[0], line[-1] = (0, unit(cap), cap), (cap + last + 2, full, cap)
    return line


@pytest.mark.parametrize("precision", [5, 40])
def test_packed_entry_sums_equal_the_direct_sums(precision):
    # every left line against every right line, for p in {2, 3, 5, 7} and
    # d = 1..9 (lines of 2d places, as ``_product`` forms them); the all-full
    # lines fill each slot to n * max(us) * max(ws), the largest sum a slot holds
    rng = random.Random(25)
    for p in (2, 3, 5, 7):
        base = PadicContext(p, precision)
        for d in range(1, 10):
            fixed = [["full"] * 2, ["top"] * 2, ["zero", "random"], ["random", "zero"], ["zero"] * 2]
            for kinds in fixed + [["one", "random"]] * 2 + [rng.choices(_LINE_KINDS, k=2) for _ in range(4)]:
                left, right = (
                    [quadext._scaled(base, _packing_line(rng, base, kind, 2 * d)) for _ in range(d)]
                    for kind in kinds
                )
                direct = [[sum(map(mul, x[1], y[1])) for y in right] for x in left]
                assert quadext._sums(left, right) == direct, (p, d, kinds)


@pytest.mark.parametrize("precision", [5, 40])
def test_a_line_spanning_the_power_table_takes_the_per_entry_sums(monkeypatch, precision):
    # a line whose valuations span the table is refused before any unit is
    # scaled, one that spans one less is packed; a product with a refused
    # line makes every entry one _dot, digit for digit the scalar route
    rng = random.Random(26)
    dots = _counting_dots(monkeypatch)
    for p, mu in ((2, 3), (3, 5), (5, 2), (7, 3)):
        ctx = helpers.ext_ctx(p, mu, precision)
        base, last = ctx.base, len(ctx.base._powers) - 1
        assert quadext._scaled(base, [None, (0, 1, 1), (last, 1, 1)]) is not None
        assert quadext._scaled(base, [None, (0, 1, 1), (last + 1, 1, 1)]) is None
        for d in range(1, 5):
            assert quadext._scaled(base, _packing_line(rng, base, "wide", 2 * d)) is None
            rows = [[_element(rng, ctx) for _ in range(d)] for _ in range(d)]
            m, n = rng.randrange(d), rng.randrange(d)
            far = base.from_digits(last + 1 + rng.randrange(3), [1, 1])
            rows[m][n] = QuadExtElement(ctx, far, base.one())
            a, b = BlockOperator(ctx, rows), _operands(rng, ctx)[0]
            calls = dots[0]
            _compare_products(a, b)
            _compare_products(b, a)
            assert dots[0] > calls
    assert quadext._scaled(base, [None] * 4) is not None


def _zero_residue_terms(a, b):
    """The terms of a * b with four live factors whose ``_residue`` vanishes
    at its digits, as (m, n, coordinate, the term's absolute precision)."""
    base, d = a.context.base, range(max(a.dim, b.dim))
    found = []
    for m in d:
        for n in d:
            for k in d:
                x, y = _lhs_coords(a.entry(m + 1, k + 1)), _rhs_coords(b.entry(k + 1, n + 1))
                if x is None or y is None:
                    continue
                (xsc, xmac, xac), (ysc, yac) = x, y
                for coord, terms in (("sc", (xsc, ysc, xmac, yac)), ("ac", (xsc, yac, xac, ysc))):
                    t = _residue(base, *terms)
                    if all(terms) and t[1] == 0:
                        found.append((m, n, coord, t[0] + t[2]))
    return found


def _dense_with(ctx: ExtensionContext, seed: int, corner: QuadExtElement) -> BlockOperator:
    """A dense d = 6 block of full-precision entries with ``corner`` at (1, 1)."""
    rng = random.Random(seed)
    rows = [[QuadExtElement(ctx, _full(rng, ctx.base), _full(rng, ctx.base)) for _ in range(6)] for _ in range(6)]
    rows[0][0] = corner
    return BlockOperator(ctx, rows)


def _cancelling_corners(ctx: ExtensionContext, k: int, coord: str, lifts_cancel: bool):
    """x, y whose term of ``coord`` is zero mod p**k, from one factor 1
    known to k digits: for sc, 1 * -mu (k digits) + mu * 1; for ac, with
    unequal valuations, 1 * p + p * -1.  The lifts cancel exactly, or the
    full-precision factor is shifted by p**k."""
    base, p = ctx.base, ctx.p
    short = lambda z: PadicNumber(base, z.valuation, z.unit % p**k, k)
    shift = base.one() if lifts_cancel else base.from_int(1 + p**k)
    if coord == "sc":
        return QuadExtElement(ctx, short(base.one()), base.one()), QuadExtElement(ctx, short(-ctx.mu), shift)
    pp = base.from_int(p)
    return QuadExtElement(ctx, short(base.one()), pp), QuadExtElement(ctx, -shift, pp)


# p = 3 with mu = 2, and p = 2 with mu = 3: k digits hold the lifts of -mu.
# At a cap of 10 digits a random dense d = 6 product seldom meets the zero
# branch (at 5 digits, p = 2 meets it about 9 times), so the seeds below pin
# blocks whose only such term is the corner's.
_P3, _P2 = helpers.ext_ctx(3, 2, 10), helpers.ext_ctx(2, 3, 10)
_CANCELLING = [
    pytest.param(_P3, 2, "sc", 4, id="p3-sc"),
    pytest.param(_P3, 2, "ac", 0, id="p3-ac"),
    pytest.param(_P2, 3, "sc", 12, id="p2-sc"),
    pytest.param(_P2, 3, "ac", 3, id="p2-ac"),
]


@pytest.mark.parametrize("ctx, k, coord, seed", _CANCELLING)
def test_a_term_cancelling_at_its_digits_bounds_its_entry_whatever_its_lifts(monkeypatch, ctx, k, coord, seed):
    # case (b): the corner's term is 0 mod p**k, and its lifts cancel exactly
    # or differ by p**k; either way it is a term known to vanish at its
    # digits, whose bound counts in entry (1, 1), with no term-by-term sum
    dots, entries = _counting_dots(monkeypatch), []
    for lifts_cancel in (True, False):
        x, y = _cancelling_corners(ctx, k, coord, lifts_cancel)
        a, b = _dense_with(ctx, seed, x), _dense_with(ctx, seed + 1, y)
        assert [t[:3] for t in _zero_residue_terms(a, b)] == [(0, 0, coord)]
        entries.append(_compare_products(a, b)[0][0])
        corner = getattr((a * b).entry(1, 1), coord)
        bound = _zero_residue_terms(a, b)[0][3]
        assert (corner.absolute if corner.is_zero else corner.valuation + corner.prec) <= bound
    # the shifted factor differs beyond the digits entry (1, 1) keeps
    assert entries[0] == entries[1] and dots[0] == 0


def _vanishing_entry_blocks(ctx: ExtensionContext, exact: bool):
    """Dense d = 3 blocks whose entry (1, 1) is 1 * (1 or 1 + p**3) + 1 * (-1
    known to 3 digits), 0 mod p**3 as an integer; its lifted sum is 0 if
    ``exact``, else p**3."""
    base, p = ctx.base, ctx.p
    one, minus_one = ctx.one(), ctx.from_base(base.from_digits(0, [p - 1] * 3))
    rng = random.Random(45)
    a, b = (
        [[QuadExtElement(ctx, _full(rng, base), _full(rng, base)) for _ in range(3)] for _ in range(3)]
        for _ in range(2)
    )
    a[0][:2] = [one, one]
    b[0][0] = one if exact else ctx.from_base(base.from_int(1 + p**3))
    b[1][0], b[2][0] = minus_one, ctx.zero()
    return BlockOperator(ctx, a), BlockOperator(ctx, b)


@pytest.mark.parametrize("ctx", [_P3, _P2], ids=["p3", "p2"])
@pytest.mark.parametrize("exact", [True, False], ids=["lifts-cancel", "lifts-differ"])
def test_an_entry_vanishing_at_its_absolute_precision_is_an_inexact_zero(monkeypatch, ctx, exact):
    # case (a): either way entry (1, 1) is O(p**3), decided on the integer sum
    base = ctx.base
    a, b = _vanishing_entry_blocks(ctx, exact)
    assert _zero_residue_terms(a, b) == []
    dots = _counting_dots(monkeypatch)
    outcome = _compare_products(a, b)
    assert dots[0] == 0
    assert outcome[0][0] == ((None, 0, 0, 3), (None, 0, base.precision, None))


def _gen_block(rng: random.Random, ctx: ExtensionContext, d: int) -> BlockOperator:
    """A block of ``perfbench`` ``Gen.block``'s shape: entries p**v (u + p**(1 or 2)
    w sqrt(mu)) with v in 0..2 and full-precision units, norm 1."""
    base = ctx.base

    def number(v):
        u = rng.randrange(1, base.modulus)
        return PadicNumber(base, v, u + (u % base.p == 0), base.precision)

    def entry(v):
        return QuadExtElement(ctx, number(v), number(v + 1 + rng.randrange(2)))

    rows = [[entry(rng.randrange(3)) for _ in range(d)] for _ in range(d)]
    rows[0][0], rows[0][1], rows[1][0] = entry(0), entry(0), entry(1)
    return BlockOperator(ctx, rows)


@pytest.mark.parametrize("p, mu, precision", [(3, 5, 20), (2, 3, 20), (7, 3, 8), (5, 5, 40)])
def test_a_dense_full_precision_product_makes_no_term_by_term_sum(monkeypatch, p, mu, precision):
    # the benchmark's shape: no entry may fall back to _dot
    ctx = helpers.ext_ctx(p, mu, precision)
    rng = random.Random(16)
    a, b = _gen_block(rng, ctx, 16), _gen_block(rng, ctx, 16)
    dots = _counting_dots(monkeypatch)
    product = a * b
    assert dots[0] == 0
    assert product.rows[3][5] == _scalar_dot(ctx, [a.entry(4, k) for k in range(1, 17)], [b.entry(k, 6) for k in range(1, 17)])


# -- no scalar product is formed, and operands are checked ---------------------


def _refuse(*_):
    raise AssertionError("a scalar product was formed")


def _refusing_products(fn):
    """fn, with every scalar product refused while it runs."""

    def wrapped(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QuadExtElement, "__mul__", _refuse)
            patch.setattr(PadicNumber, "__mul__", _refuse)
            return fn(*args)

    return wrapped


def test_kernel_callers_form_no_scalar_product(monkeypatch):
    ctx = helpers.ext_ctx(3, 5, 8)
    rng = random.Random(9)
    s, t = helpers.rand_block(rng, ctx, 3), helpers.rand_block(rng, ctx, 3)
    v, w = helpers.rand_vector(rng, ctx, 3), helpers.rand_vector(rng, ctx, 3)
    state = helpers.rand_statistical(rng, ctx, 3)
    sovm = sovm_from_symmetric_decomposition(state)
    canonical, symmetric = canonical_decomposition(s), symmetric_decomposition(state.op)
    u = _butterfly(ctx, 4)
    calls = [
        lambda: _rows((s * t).rows),
        lambda: _digits(hs_inner(s, t)),
        lambda: [_digits(z) for z in verify_cyclic(s, t)],
        lambda: _vector(dict(s.apply(v).items())),
        lambda: [(w.valuation, w.unit, w.prec) for w in pair(sovm, state).weights],
        lambda: _rows(canonical.reconstruct().rows),
        lambda: _rows(symmetric.reconstruct().rows),
        lambda: _rows(rank_one(v, w).rows),
        lambda: (is_ip_preserving(u), is_ip_preserving(s)),
        lambda: (is_unitary(u), is_unitary(s)),
    ]
    # these decompose first, inverting each pivot with base-field products;
    # their rank-one sums form none
    composed = [
        lambda: [_rows(x.rows) for x in factor_trace_class(s)],
        lambda: [_rows(e.rows) for e in sovm_from_symmetric_decomposition(state).effects],
    ]
    expected = [call() for call in calls + composed]
    with monkeypatch.context() as patch:
        patch.setattr(QuadExtElement, "__mul__", _refuse)
        patch.setattr(PadicNumber, "__mul__", _refuse)
        got = [call() for call in calls]
    monkeypatch.setattr(operators, "_rank_one_sum", _refusing_products(operators._rank_one_sum))
    monkeypatch.setattr(states, "_rank_one_sum", _refusing_products(states._rank_one_sum))
    assert got + [call() for call in composed] == expected


# -- the zero-residue corner: a term that cancels at its known digits ---------


def test_conjugate_products_of_a_rotation_butterfly_cancel_exactly():
    # every term conj(U_ki) * U_kj of adjoint(U) U has an exact-zero ac
    # coordinate, on and off the diagonal
    ctx = helpers.ext_ctx(3, 5, PRECISION)
    u = from_rotation(rotation_on_pairs(ctx, [(1, 2), (3, 4)]), 4) * from_rotation(
        rotation_on_pairs(ctx, [(1, 3), (2, 4)]), 4
    )
    ua = u.adjoint()
    d = range(1, 5)
    assert all((ua.entry(i, k) * u.entry(k, j)).ac.is_zero for i in d for j in d for k in d)
    # Id at the tracked precision: every coordinate but the diagonal sc is O(p**5)
    rows = _compare_all(ua, u, PVector(ctx, {1: u.entry(1, 1)}))[0]
    assert ua * u == identity(ctx, 4) and _inexact_zeros(rows) == 28


def test_a_term_cancelling_below_its_digits_is_an_inexact_zero():
    # 1 known mod 3, plus mu * 1 * 1 = 2: the sc term is 0 mod 3 and nonzero
    ctx = helpers.ext_ctx(3, 2, PRECISION)
    base = ctx.base
    x = QuadExtElement(ctx, base.one(), base.one())
    y = QuadExtElement(ctx, base.from_digits(0, [1]), base.one())
    a, b = BlockOperator(ctx, [[x]]), BlockOperator(ctx, [[y]])
    entry = ((None, 0, 0, 1), (0, 2, 1, None))
    assert _compare_all(a, b, PVector(ctx, {1: y})) == [[[entry]], entry, {1: entry}]


def test_a_zero_residue_is_an_inexact_zero_for_p2_whatever_its_lifts():
    # p = 2, equal valuations, one digit each: 1 + 1 and 1 - 1 are 0 mod 2,
    # whose lifted sums 2 and 0 give the same O(2)
    ctx = helpers.ext_ctx(2, 3, PRECISION)
    one_digit = ctx.base.from_digits(0, [1])
    x = QuadExtElement(ctx, one_digit, one_digit)
    a = BlockOperator(ctx, [[x]])
    entry = ((None, 0, 0, 1),) * 2
    for b in (a, BlockOperator(ctx, [[x.conj()]])):
        assert _compare_all(a, b, PVector(ctx, {1: b.entry(1, 1)})) == [[[entry]], entry, {}]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda a, b: a * b, id="mul"),
        pytest.param(lambda a, b: hs_inner(a, b), id="hs_inner"),
        pytest.param(lambda a, b: verify_cyclic(a, b), id="verify_cyclic"),
        pytest.param(lambda a, b: a.apply(PVector(b.context, {1: b.context.one()})), id="apply"),
        pytest.param(lambda a, b: pair(make_sovm([a]), make_statistical(b)), id="pair"),
    ],
)
def test_kernel_callers_reject_mixed_extensions(monkeypatch, call):
    e35, e53 = helpers.ext_ctx(3, 5, 8), helpers.ext_ctx(5, 3, 8)
    a, b = identity(e35, 1), identity(e53, 1)
    monkeypatch.setattr(QuadExtElement, "__mul__", _refuse)
    monkeypatch.setattr(PadicNumber, "__mul__", _refuse)
    with pytest.raises(ContextMismatch):
        call(a, b)


# -- unitarity from half a Gram matrix -----------------------------------------


def _gram_entry(ctx, a, b):
    """Entry (m, n) of adjoint(X) X for columns a = X[:, m] and b = X[:, n]."""
    return _dot(ctx, [_lhs_coords(z.conj()) for z in a], [_rhs_coords(z) for z in b])


def _scalar_gram(x):
    """adjoint(X) X by the scalar route, entry by entry."""
    xa, d = x.adjoint(), range(1, x.dim + 1)
    return [[_scalar_dot(x.context, [xa.entry(m, k) for k in d], [x.entry(k, n) for k in d]) for n in d] for m in d]


def _compare_unitarity(u):
    """``is_ip_preserving`` and ``is_unitary`` against the product route,
    which forms each Gram matrix whole and compares it with Id; the
    outcomes."""
    one, zero = u.context.one(), u.context.zero()

    def route(grams):
        return all(z == (one if m == n else zero) for gram in grams for m, row in enumerate(gram) for n, z in enumerate(row))

    cases = [
        (is_ip_preserving, lambda: route([_scalar_gram(u)])),
        (is_unitary, lambda: operator_norm(u).is_one and route([_scalar_gram(u), _scalar_gram(u.adjoint())])),
    ]
    out = []
    for check, expected in cases:
        got = _outcome(lambda: check(u), bool)
        assert got == _outcome(expected, bool)
        out.append(got)
    return out


def _pell(label: int) -> tuple[int, int]:
    """The least a, y >= 1 with a**2 - label * y**2 = 1."""
    a = 2
    while (a * a - 1) % label or math.isqrt((a * a - 1) // label) ** 2 != (a * a - 1) // label:
        a += 1
    return a, math.isqrt((a * a - 1) // label)


def _stage(ctx: ExtensionContext, d: int, dist: int) -> BlockOperator:
    """A two-index unitary on the pairs (i, i + dist) of each 2*dist window:
    a rotation where 2 is a norm, else [[a, y sqrt(mu)], [y sqrt(mu), a]]
    with a**2 - mu * y**2 = 1."""
    pairs = [
        (i, i + dist)
        for start in range(1, d + 1, 2 * dist)
        for i in range(start, start + dist)
        if i + dist <= d
    ]
    try:
        return from_rotation(rotation_on_pairs(ctx, pairs), d)
    except (RequiresOddP, SearchExhausted):
        pass
    base, p = ctx.base, ctx.p
    label, t = p**ctx.mu.valuation * ctx.mu.unit, 1  # mu = t**2 * label
    while label % (p * p) == 0:
        label, t = label // (p * p), t * p
    a, y = _pell(label)
    diag = ctx.from_base(base.from_int(a))
    off = QuadExtElement(ctx, base.zero(), base.from_fraction(Fraction(y, t)))
    rows = [list(row) for row in identity(ctx, d).rows]
    for i, j in pairs:
        rows[i - 1][i - 1] = rows[j - 1][j - 1] = diag
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = off
    return BlockOperator(ctx, rows)


def _butterfly(ctx: ExtensionContext, d: int) -> BlockOperator:
    u, dist = identity(ctx, d), 1
    while dist < d:
        u, dist = u * _stage(ctx, d, dist), 2 * dist
    return u


def _cut(rng: random.Random, u: BlockOperator) -> BlockOperator:
    """u with one nonzero coordinate of one entry cut to fewer known digits."""
    rows = [list(row) for row in u.rows]
    cells = [(m, n) for m, row in enumerate(rows) for n, z in enumerate(row) if not z.is_zero]
    m, n = rng.choice(cells)
    c = rng.choice([c for c in ("sc", "ac") if not getattr(rows[m][n], c).is_zero])
    x = getattr(rows[m][n], c)
    k = rng.randint(1, max(1, x.prec - 1))
    cut = PadicNumber(x.context, x.valuation, x.unit % x.context.p**k, k)
    rows[m][n] = replace(rows[m][n], **{c: cut})
    return BlockOperator(u.context, rows)


def _unitarity_inputs(rng: random.Random, ctx: ExtensionContext):
    for d in range(1, 5):
        yield helpers.rand_block(rng, ctx, d)
        yield BlockOperator(ctx, [[_element(rng, ctx) for _ in range(d)] for _ in range(d)])
        u = _butterfly(ctx, d)
        yield u
        yield u.scale(ctx.from_base(PadicNumber(ctx.base, -1, 1, ctx.base.precision)))
        for _ in range(6):
            yield _cut(rng, u)
    if ctx.p != 2:
        yield build_norm_inflating_ip_preserver(ctx, 1)


def test_unitarity_checks_match_the_product_route_on_a_seeded_sweep():
    rng = random.Random(30)
    seen = {}
    for ctx in CONTEXTS:
        for u in _unitarity_inputs(rng, ctx):
            inexact = _inexact_zeros(_rows(_scalar_gram(u))) > 0
            for got in _compare_unitarity(u):
                key = (ctx.p == 2, got if isinstance(got, bool) else got[0], inexact)
                seen[key] = seen.get(key, 0) + 1
    for p2 in (False, True):
        # both verdicts, each beside Gram entries that are O(p**N)
        assert seen[p2, True, True] > 100 and seen[p2, False, True] > 100


def test_a_gram_entry_known_to_differ_refutes_beside_inexact_zeros():
    # p**-1 times the d = 3 butterfly over Q_3(sqrt(2)): entry (1, 3) of
    # adjoint(X) X vanishes at its digits, O(p**3), while entry (1, 1) is
    # p**-2, known to differ from 1
    ctx = helpers.ext_ctx(3, 2, PRECISION)
    x = _butterfly(ctx, 3).scale(ctx.from_base(PadicNumber(ctx.base, -1, 1, PRECISION)))
    gram = _rows((x.adjoint() * x).rows)
    assert gram == _rows(_scalar_gram(x))
    assert gram[0][2] == ((None, 0, 0, 3),) * 2 and gram[0][0] == ((-2, 1, 5, None), (None, 0, 0, 3))
    assert is_ip_preserving(x) is False and is_unitary(x) is False


def _rows_gram_conjugated_right(u):
    """U adjoint(U) == Id as ``operators._rows_gram`` decided it, over the
    whole square: entry (m, n) is one ``_dot`` of row m with the conjugated
    row n."""
    ctx, base = u.context, u.context.base
    left = [[_lhs_coords(z) for z in row] for row in u.rows]
    right = [[quadext._conj(base, _rhs_coords(z)) for z in row] for row in u.rows]
    one, zero, d = ctx.one(), ctx.zero(), range(len(right))
    return all(_dot(ctx, left[m], right[n]) == (one if m == n else zero) for m in d for n in d)


def test_the_rows_gram_conjugated_left_gives_the_verdicts_of_the_right_form():
    # is_unitary scans conj((U U*)_mn) = sum_k conj(U_mk) U_nk over m <= n:
    # entry (m, n) is the right form's entry (n, m), its conjugate, so the
    # verdicts are those of the right form's whole square
    rng = random.Random(36)
    seen = set()
    for ctx in CONTEXTS:
        inputs = list(_unitarity_inputs(rng, ctx))
        for d in range(5, 9):
            u = _butterfly(ctx, d)
            inputs += [u, _cut(rng, u), _cut(rng, u), _cut(rng, u)]
        for u in inputs:
            reference = lambda: operator_norm(u).is_one and is_ip_preserving(u) and _rows_gram_conjugated_right(u)
            expected = _outcome(reference, bool)
            assert _outcome(lambda: is_unitary(u), bool) == expected
            seen.add((ctx.p == 2, expected))
    assert seen == {(p2, o) for p2 in (False, True) for o in (True, False)}


def test_operators_and_hilbert_hold_no_coordinate_helper():
    # the kernel's entry points take element lines; the operand forms stay in quadext
    from padicqm import hilbert

    for module in (operators, hilbert):
        for name in ("_lhs_coords", "_rhs_coords", "_conj", "_times", "_element", "_dot"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(operators, "_columns_gram") and not hasattr(operators, "_rows_gram")


def test_quadext_holds_no_cancellation_fallback(monkeypatch):
    # padic._truncate alone decides a sum that vanishes at its precision: no
    # join of cancelling terms, no marker for an entry left to its terms, and
    # the pinned case-(a) and case-(b) products make no term-by-term sum
    assert not hasattr(quadext, "_cancelling") and not hasattr(quadext, "_TERMS")
    dots = _counting_dots(monkeypatch)
    for ctx, k, coord, seed in (param.values for param in _CANCELLING):
        for lifts_cancel in (True, False):
            x, y = _cancelling_corners(ctx, k, coord, lifts_cancel)
            _dense_with(ctx, seed, x) * _dense_with(ctx, seed + 1, y)
    for ctx in (_P3, _P2):
        for exact in (True, False):
            a, b = _vanishing_entry_blocks(ctx, exact)
            a * b
    assert dots[0] == 0


def _double_loop_orthonormal(vectors):
    """``is_orthonormal_system`` as it was: vector by vector, False at a norm
    other than 1 or an inner product that differs from delta_ab, then
    ``is_norm_orthogonal``."""
    one, zero = vectors[0].context.one(), vectors[0].context.zero()
    for a, va in enumerate(vectors):
        if not sup_norm(va).is_one:
            return False
        for b, vb in enumerate(vectors):
            if inner_product(va, vb) != (one if a == b else zero):
                return False
    return is_norm_orthogonal(vectors)


def test_orthonormal_systems_match_the_double_loop_on_a_seeded_sweep():
    # the columns and the rows of the unitarity sweep's blocks, and the
    # columns with a last vector of norm 1/p, which refutes only after the
    # others' inner products
    rng = random.Random(31)
    seen = {}
    for ctx in CONTEXTS:
        shrink = ctx.from_base(ctx.base.from_int(ctx.p))
        for u in _unitarity_inputs(rng, ctx):
            cols = [PVector(ctx, dict(enumerate(col, 1))) for col in zip(*u.rows)]
            rows = [PVector(ctx, dict(enumerate(row, 1))) for row in u.rows]
            for family in (cols, rows, cols + [cols[0].scale(shrink)]):
                got = _outcome(lambda: is_orthonormal_system(family), bool)
                assert got == _outcome(lambda: _double_loop_orthonormal(family), bool)
                seen[ctx.p == 2, got] = seen.get((ctx.p == 2, got), 0) + 1
    for p2 in (False, True):
        assert seen[p2, True] > 100 and seen[p2, False] > 100


def test_an_orthonormal_check_refutes_on_a_norm_that_vanishes_at_its_digits():
    # <v1, v1> = 1 + 1 - 2 * 36 vanishes at its one known digit: O(5) differs
    # from 1, so both the double loop and the scan refute at that entry
    ctx = helpers.ext_ctx(5, 2, PRECISION)
    f = ctx.base.from_digits
    x = QuadExtElement(ctx, f(0, [1, 0]), f(0, [1, 1]))
    v1 = PVector(ctx, {1: ctx.from_base(f(0, [1])), 2: x})
    family = [v1, basis_vector(ctx, 1)]
    assert _digits(inner_product(v1, v1)) == ((None, 0, 0, 1), (None, 0, 0, 2))
    assert _double_loop_orthonormal(family) is False and is_orthonormal_system(family) is False


def test_gram_entries_mirror_by_conjugation():
    # the triangle rule, for every p: entry (n, m) is the conjugate of entry
    # (m, n) in valuation, unit, prec and absolute on both coordinates
    rng = random.Random(32)
    inexact = {False: 0, True: 0}
    for ctx in CONTEXTS:
        for _ in range(300):
            k = rng.randint(1, 4)
            a, b = ([_element(rng, ctx) for _ in range(k)] for _ in range(2))
            got = _digits(_gram_entry(ctx, a, b))
            assert got == _digits(_gram_entry(ctx, b, a).conj())
            inexact[ctx.p == 2] += _inexact_zeros(got)
    assert min(inexact.values()) > 100


def test_a_gram_entry_for_p2_and_its_mirror_agree():
    # 2**(k-1) is its own negative, where a rule that read the lifts gave the
    # two orientations different outcomes: over Q_2(sqrt(2)) both are 2 + O(4)
    ctx = helpers.ext_ctx(2, 2, PRECISION)
    f = ctx.base.from_digits
    a = QuadExtElement(ctx, f(0, [1, 0]), f(0, [1]))
    b = QuadExtElement(ctx, f(1, [1]), f(1, [1, 0]))
    expected = ((1, 1, 1, None), (None, 0, 0, 2))
    assert _digits(_gram_entry(ctx, [a], [b])) == _digits(_gram_entry(ctx, [b], [a])) == expected


# -- conjugation and pivot scaling on coordinate triples ------------------------
#
# canonical_decomposition scales by the pivot and conjugates on triples
# (quadext._conj_scaled); the rank-one sums, hs_inner,
# inner_product and both Gram checks of is_unitary conjugate on triples and
# form no adjoint.  Each is pinned to the scalar route written out here.


def _terms_view(terms):
    return [(_digits(lam), e.support(), _vector(dict(f.items()))) for lam, e, f in terms]


def _scalar_hs_inner(s, t):
    d = range(1, max(s.dim, t.dim) + 1)
    return _scalar_dot(s.context, [s.entry(m, n).conj() for m in d for n in d], [t.entry(m, n) for m in d for n in d])


def _scalar_inner_product(u, v):
    return _scalar_dot(u.context, [z.conj() for _, z in u.items()], [v.entry(i) for i, _ in u.items()])


def _scalar_scan(ctx, left, right):
    """The Gram checks' rule on the scalar route, over the whole square:
    entry (m, n) is ``quad_sum`` over left[m][k] * right[n][k]."""
    d = range(len(right))
    return all(_scalar_dot(ctx, left[m], right[n]) == (ctx.one() if m == n else ctx.zero()) for m in d for n in d)


def _scalar_unitarity(u):
    """(is_ip_preserving, is_unitary) on the scalar route: adjoint(U) U from
    conj(column m) and column n, U adjoint(U) from row m and conj(row n)."""
    ctx, cols = u.context, list(zip(*u.rows))
    ip = lambda: _scalar_scan(ctx, [[z.conj() for z in c] for c in cols], cols)
    rows = lambda: _scalar_scan(ctx, u.rows, [[z.conj() for z in r] for r in u.rows])
    return ip, lambda: operator_norm(u).is_one and ip() and rows()


def _short_block(rng: random.Random, ctx: ExtensionContext, d: int) -> BlockOperator:
    """Entries with 1 to ``precision`` digits, exact-zero coordinates and
    entries, and some zero rows.  In half the blocks both coordinates of an
    entry share one valuation: half magnitudes where mu is ramified, which
    Q_2(sqrt(3)) and Q_2(sqrt(7)) scale by the mixed uniformizer."""
    even, zero_row = rng.random() < 0.5, rng.random() < 0.3

    def entry():
        z = _element(rng, ctx)
        if even and not (z.sc.is_zero or z.ac.is_zero):
            z = replace(z, ac=replace(z.ac, valuation=z.sc.valuation))
        return z

    return BlockOperator(ctx, [[ctx.zero() if zero_row and m == d - 1 else entry() for _ in range(d)] for m in range(d)])


def _compare_triple_routes(rng: random.Random, ctx: ExtensionContext, d: int):
    """Every route of this section on one d-by-d operand against the scalar
    route; the expected outcomes."""
    a, b = _short_block(rng, ctx, d), _short_block(rng, ctx, rng.randint(1, 8))
    u, v = (PVector(ctx, {n: _element(rng, ctx) for n in rng.sample(range(1, 9), rng.randint(0, 8))}) for _ in range(2))
    ip, unitary = _scalar_unitarity(a)
    cases = [
        (lambda: canonical_decomposition(a).terms, lambda: _scalar_canonical_terms(a), _terms_view),
        (lambda: canonical_decomposition(a).reconstruct().rows, lambda: _scalar_rank_one_sum(ctx, d, _scalar_canonical_terms(a)), _rows),
        (lambda: [x.rows for x in factor_trace_class(a)], lambda: _scalar_factor(a), _pair_of_rows),
        (lambda: hs_inner(a, b), lambda: _scalar_hs_inner(a, b), _digits),
        (lambda: hs_inner(b, a), lambda: _scalar_hs_inner(b, a), _digits),
        (lambda: inner_product(u, v), lambda: _scalar_inner_product(u, v), _digits),
        (lambda: is_ip_preserving(a), ip, bool),
        (lambda: is_unitary(a), unitary, bool),
    ]
    outcomes = []
    for kernel, scalar, view in cases:
        got, expected = _outcome(kernel, view), _outcome(scalar, view)
        assert got == expected
        outcomes.append(expected)
    return outcomes


def test_triple_routes_match_the_scalar_route_on_a_seeded_sweep():
    rng = random.Random(33)
    inexact = valued = 0
    for ctx in CONTEXTS:
        # the mixed-uniformizer pivot costs trailing digits, so its contexts run four times
        mixed = ctx.p == 2 and ctx.mu_class in (3, 7)
        for d in [*range(1, 9)] * (4 if mixed else 1):
            for o in _compare_triple_routes(rng, ctx, d):
                inexact += _inexact_zeros(o)
                valued += not (isinstance(o, tuple) and o[0] == "raised")
    assert inexact > 100 and valued > 1000


def test_unitarity_checks_match_the_scalar_scan_up_to_size_8():
    # butterflies and their cuts reach both verdicts and the raises deep in
    # the scan, which random blocks refute at the first entry
    rng = random.Random(34)
    seen = set()
    for ctx in CONTEXTS:
        for d in range(1, 9):
            u = _butterfly(ctx, d)
            for x in (u, u.scale(ctx.from_base(PadicNumber(ctx.base, -1, 1, ctx.base.precision))), _cut(rng, u), _cut(rng, u)):
                for check, scalar in zip((is_ip_preserving, is_unitary), _scalar_unitarity(x)):
                    got, expected = _outcome(lambda: check(x), bool), _outcome(scalar, bool)
                    assert got == expected
                    seen.add((ctx.p == 2, expected if isinstance(expected, bool) else expected[1]))
    assert seen == {(p2, o) for p2 in (False, True) for o in (True, False)}


@pytest.mark.parametrize("p, mu", [(3, 5), (2, 3)], ids=["p3-mu5", "p2-mu3"])
def test_triple_routes_form_no_scalar_product_conjugate_or_adjoint(monkeypatch, p, mu):
    ctx = helpers.ext_ctx(p, mu, 20)
    rng = random.Random(35)

    def even(v):
        # sc and ac of one valuation: half magnitudes in Q_2(sqrt(3)), whose
        # pivot is the mixed uniformizer
        return QuadExtElement(ctx, replace(_full(rng, ctx.base), valuation=v), replace(_full(rng, ctx.base), valuation=v))

    # a block of the benchmark's shape, and one of half magnitudes
    s = _gen_block(rng, ctx, 8)
    t = BlockOperator(ctx, [[even(rng.randint(-1, 1)) for _ in range(8)] for _ in range(8)])
    assert all(lam.ac.is_zero == (p == 3) for lam, _, _ in canonical_decomposition(t).terms)
    u, v = (PVector(ctx, dict(enumerate(row, 1))) for row in t.rows[:2])
    w = _butterfly(ctx, 8)
    calls = [
        lambda: [_terms_view(canonical_decomposition(x).terms) for x in (s, t)],
        lambda: [_rows(canonical_decomposition(x).reconstruct().rows) for x in (s, t)],
        lambda: [_pair_of_rows([y.rows for y in factor_trace_class(x)]) for x in (s, t)],
        lambda: [_digits(hs_inner(s, t)), _digits(hs_inner(t, s))],
        lambda: [is_ip_preserving(x) for x in (w, s)],
        lambda: [is_unitary(x) for x in (w, s)],
        lambda: _digits(inner_product(u, v)),
    ]
    expected = [_outcome(call, lambda x: x) for call in calls]
    assert expected[4] == expected[5] == [True, False]
    for owner, name in ((QuadExtElement, "__mul__"), (QuadExtElement, "conj"), (BlockOperator, "adjoint")):
        monkeypatch.setattr(owner, name, _refuse)
    assert [_outcome(call, lambda x: x) for call in calls] == expected


# -- a far entry at every entry point ----------------------------------------------
#
# One operand entry at valuation 10**7 over Q_3(sqrt(5)) at precision 20.  The
# product is [[x, far], [x, x]] * [[x, x], [0, 0]]: the far entry meets only a
# zero row, and its row spans the power table, so every entry is one _dot,
# which drops the far term before scaling it.  u = [[1, far], [0, 1]] is
# refuted by the Gram entry that holds far.

def _far_operands():
    ctx = helpers.ext_ctx(3, 5, 20)
    x, far, zero, one = ctx.from_ints(1, 2), ctx.from_base(ctx.base.from_digits(10**7, [1])), ctx.zero(), ctx.one()
    a, b = BlockOperator(ctx, [[x, far], [x, x]]), BlockOperator(ctx, [[x, x], [zero, zero]])
    u, v = BlockOperator(ctx, [[one, far], [zero, one]]), PVector(ctx, {1: x, 2: far})
    return a, b, u, v


def _far_columns(u):
    return [PVector(u.context, dict(enumerate(col, 1))) for col in zip(*u.rows)]


@pytest.mark.parametrize(
    "kernel, scalar, view",
    [
        pytest.param(lambda a, b, u, v: (a * b).rows, lambda a, b, u, v: _scalar_product(a, b), _rows, id="product"),
        pytest.param(
            lambda a, b, u, v: [_digits(t) for t in verify_cyclic(a, b)],
            lambda a, b, u, v: [_digits(_scalar_trace_of_product(a, b)), _digits(_scalar_trace_of_product(b, a))],
            list,
            id="verify_cyclic",
        ),
        pytest.param(lambda a, b, u, v: hs_inner(a, b), lambda a, b, u, v: _scalar_hs_inner(a, b), _digits, id="hs_inner"),
        pytest.param(lambda a, b, u, v: dict(a.apply(v).items()), lambda a, b, u, v: _scalar_apply(a, v), _vector, id="apply"),
        pytest.param(
            lambda a, b, u, v: inner_product(v, v), lambda a, b, u, v: _scalar_inner_product(v, v), _digits, id="inner_product"
        ),
        pytest.param(
            lambda a, b, u, v: rank_one(v, v).rows,
            lambda a, b, u, v: _scalar_rank_one_sum(a.context, 2, [(a.context.one(), v, v)]),
            _rows,
            id="rank_one",
        ),
        pytest.param(
            lambda a, b, u, v: canonical_decomposition(a).reconstruct().rows,
            lambda a, b, u, v: _scalar_rank_one_sum(a.context, 2, _scalar_canonical_terms(a)),
            _rows,
            id="canonical_round_trip",
        ),
        pytest.param(
            lambda a, b, u, v: [x.rows for x in factor_trace_class(a)],
            lambda a, b, u, v: _scalar_factor(a),
            _pair_of_rows,
            id="factor_trace_class",
        ),
        pytest.param(lambda a, b, u, v: is_unitary(u), lambda a, b, u, v: _scalar_unitarity(u)[1](), bool, id="is_unitary"),
        pytest.param(
            lambda a, b, u, v: is_ip_preserving(u), lambda a, b, u, v: _scalar_unitarity(u)[0](), bool, id="is_ip_preserving"
        ),
        pytest.param(
            lambda a, b, u, v: is_orthonormal_system(_far_columns(u)),
            lambda a, b, u, v: _double_loop_orthonormal(_far_columns(u)),
            bool,
            id="is_orthonormal_system",
        ),
    ],
)
def test_a_far_entry_costs_nothing_at_any_entry_point(kernel, scalar, view):
    operands = _far_operands()
    start = time.perf_counter()
    got = _outcome(lambda: kernel(*operands), view)
    assert time.perf_counter() - start < 1
    assert got == _outcome(lambda: scalar(*operands), view)
