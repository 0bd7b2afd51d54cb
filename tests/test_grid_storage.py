"""Blocks store coordinate grids and build elements where a caller reads them.

A ``BlockOperator`` keeps, per entry, the kernel's (valuation, unit, prec)
triples of its two coordinates (``quadext._grid``).  ``rows`` and ``entry``
build the elements on first read and keep them, and every block operation
reads and returns grids, so a request of the ``block-algebra`` benchmark
builds elements only for its scalar results and decomposition weights.
Each grid reader is held here to the element route it replaced, O(p**N)
entries included: the same digits, verdict or error.
"""

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
import padicqm
import padicqm.cli  # noqa: F401  (perfbench reads padicqm.cli, .jsonio, .states)
import padicqm.jsonio  # noqa: F401
import padicqm.states  # noqa: F401
from padicqm import BlockOperator, GeneratorOperator, PadicNumber, QuadExtElement, affine_certificate, classify
from padicqm.errors import PadicError, PrecisionExhausted
from padicqm.jsonio import operator_from_dict, operator_to_dict, quadext_to_dict
from padicqm.quadext import max_abs, quad_sum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# -- no element per entry ---------------------------------------------------------


def _block_requests_at_d8(monkeypatch):
    """The ``block-algebra`` requests of size 8 at seed 5, at full size and halved."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return [r for shrink in (1, 2) for r in workloads.block_algebra(padicqm, 5, shrink) if r.size == 8]


# elements a request may build: its scalar results, and two per row of a
# decomposition (the weight and its inverse)
_ALLOWED = {"product": 0, "unitary": 0, "non_unitary": 0, "hs_inner": 1, "verify_cyclic": 2, "canonical": 16, "factor": 16}


def test_a_block_request_builds_no_element_per_entry(monkeypatch):
    requests = _block_requests_at_d8(monkeypatch)
    assert {r.kind for r in requests} == set(_ALLOWED)
    count, init = [0], QuadExtElement.__init__

    def counted(self, *args):
        count[0] += 1
        init(self, *args)

    for r in requests:
        monkeypatch.setattr(QuadExtElement, "__init__", counted)
        count[0] = 0
        result = r.call()
        monkeypatch.setattr(QuadExtElement, "__init__", init)
        assert count[0] <= _ALLOWED[r.kind], r.label
        assert r.check(result), r.label


def test_rows_are_built_on_first_read_and_kept():
    ctx = helpers.ext_ctx(3, 5, 8)
    rng = random.Random(3)
    a = helpers.rand_block(rng, ctx, 4)
    z = a.rows[1][2]
    assert BlockOperator(ctx, [list(row) for row in a.rows]).rows[1][2] is z
    product = a * a
    assert product._rows is None
    rows = product.rows
    assert product.rows is rows and product.entry(2, 3) is rows[1][2]
    assert all(isinstance(x, QuadExtElement) and x.context is ctx for row in rows for x in row)
    assert BlockOperator(ctx, [list(row) for row in rows]) == product


# -- each grid reader against the element route ------------------------------------

_CONTEXTS = [helpers.ext_ctx(p, mu, 5) for p, mu in ((2, 3), (2, 5), (3, 5), (3, 3), (5, 2), (7, 3))]


def _coordinate(rng: random.Random, base) -> PadicNumber:
    """An exact zero, O(p**N), or a number with 1 to ``precision`` digits."""
    roll = rng.random()
    if roll < 0.2:
        return base.zero()
    if roll < 0.35:
        return PadicNumber(base, None, 0, 0, rng.randint(-1, 3))
    k = rng.randint(1, base.precision)
    return base.from_digits(rng.randint(-1, 2), [rng.randrange(1, base.p)] + [rng.randrange(base.p) for _ in range(k - 1)])


def _element(rng, ctx) -> QuadExtElement:
    return QuadExtElement(ctx, _coordinate(rng, ctx.base), _coordinate(rng, ctx.base))


def _block(rng, ctx, d: int) -> BlockOperator:
    return BlockOperator(ctx, [[_element(rng, ctx) for _ in range(d)] for _ in range(d)])


def _near(rng, a: BlockOperator) -> BlockOperator:
    """a with one coordinate of one entry cut to fewer digits or replaced by
    O(p**N): equal or not under the zero-tolerant rule."""
    rows = [list(row) for row in a.rows]
    m, n = rng.randrange(a.dim), rng.randrange(a.dim)
    c = rng.choice(["sc", "ac"])
    x = getattr(rows[m][n], c)
    if x.valuation is not None and rng.random() < 0.5 and x.prec > 1:
        k = rng.randint(1, x.prec - 1)
        y = PadicNumber(x.context, x.valuation, x.unit % x.context.p**k, k)
    else:
        y = PadicNumber(x.context, None, 0, 0, rng.randint(-1, 3))
    rows[m][n] = replace(rows[m][n], **{c: y})
    return BlockOperator(a.context, rows)


def _view(z: QuadExtElement) -> tuple:
    return tuple((x.valuation, x.unit, x.prec, x.absolute) for x in (z.sc, z.ac))


def _outcome(fn, view=lambda x: x):
    try:
        return view(fn())
    except PadicError as exc:
        return ("raised", type(exc).__name__, str(exc))


def _rows(b: BlockOperator) -> list:
    return [[_view(z) for z in row] for row in b.rows]


def _padded(b: BlockOperator, d: int) -> list:
    z = b.context.zero()
    return [list(row) + [z] * (d - b.dim) for row in b.rows] + [[z] * d] * (d - b.dim)


def _element_equal(a: BlockOperator, b: BlockOperator) -> bool:
    d = max(a.dim, b.dim)
    return all(x == y for r, s in zip(_padded(a, d), _padded(b, d)) for x, y in zip(r, s))


def _element_witness(a: BlockOperator):
    rows = a.rows
    for m in range(a.dim):
        for n in range(m, a.dim):
            if rows[m][n] != rows[n][m].conj():
                return f"entry ({m + 1},{n + 1})"
    return None


def _element_within(z: QuadExtElement, bound) -> bool:
    """The window check on elements, a None bound standing for one only zero meets."""
    if z.is_zero:
        floors = [x.absolute for x in (z.sc, z.ac) if x.absolute is not None]
        if floors and (bound is None or min(floors) < bound):
            raise PrecisionExhausted("O(p^N) with N below the decay bound; raise the precision")
        return True
    return bound is not None and Fraction(-z.ext_abs().exp2, 2) >= bound


def test_grid_readers_match_the_element_route_on_a_seeded_sweep():
    rng = random.Random(71)
    seen = {"equal": 0, "unequal": 0, "inexact": 0, "symmetric": 0}
    for ctx in _CONTEXTS:
        for _ in range(40):
            d = rng.randint(1, 4)
            a, b = _block(rng, ctx, d), _block(rng, ctx, rng.randint(1, 4))
            alpha = _element(rng, ctx)
            near = _near(rng, a)
            for x, y in ((a, b), (a, near), (near, a), (a, a)):
                assert (x == y) == _element_equal(x, y)
                seen["equal" if x == y else "unequal"] += 1
            e = max(a.dim, b.dim)
            total = [[x + y for x, y in zip(r, s)] for r, s in zip(_padded(a, e), _padded(b, e))]
            assert _rows(a + b) == [[_view(z) for z in row] for row in total]
            assert _rows(-a) == [[_view(-z) for z in row] for row in a.rows]
            assert _rows(a - b) == [[_view(x + -y) for x, y in zip(r, s)] for r, s in zip(_padded(a, e), _padded(b, e))]
            assert _rows(a.scale(alpha)) == [[_view(alpha * z) for z in row] for row in a.rows]
            assert _rows(a.adjoint()) == [[_view(z.conj()) for z in col] for col in zip(*a.rows)]
            assert _view(a.trace()) == _view(quad_sum(ctx, [a.rows[m][m] for m in range(d)]))
            norm = _outcome(a.norm)
            assert norm == _outcome(lambda: max_abs(ctx, [z for row in a.rows for z in row]))
            h = a + a.adjoint()
            for x in (a, h, _near(rng, h)):
                assert _outcome(lambda: classify(x).self_adjoint.witness) == _outcome(lambda: _element_witness(x))
                seen["symmetric"] += _element_witness(x) is None
            seen["inexact"] += any(x.absolute is not None for row in a.rows for z in row for x in (z.sc, z.ac))
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("diagonal", [False, True], ids=["all", "diagonal"])
def test_the_window_check_reads_the_grid_as_the_element_rule(diagonal):
    rng = random.Random(72)
    ctx = helpers.ext_ctx(3, 5, 5)
    outcomes = set()
    for _ in range(300):
        cert = affine_certificate(rng.randint(-2, 1), Fraction(rng.randint(0, 2), 2), Fraction(rng.randint(0, 2), 2), diagonal)
        d = rng.randint(1, 3)
        block = _block(rng, ctx, d)

        def reference():
            for m, row in enumerate(block.rows, 1):
                for n, z in enumerate(row, 1):
                    if not _element_within(z, cert.bound(m, n)):
                        return "refused"
            return "accepted"

        def grid():
            try:
                GeneratorOperator(block, cert)
            except padicqm.ValidationError as exc:
                assert "violates the decay bound" in str(exc)
                return "refused"
            return "accepted"

        expected = _outcome(reference)
        assert _outcome(grid) == expected
        outcomes.add(expected if isinstance(expected, str) else expected[1])
    assert outcomes == {"accepted", "refused", "PrecisionExhausted"}


def test_the_wire_writes_a_grid_as_it_wrote_the_elements():
    rng = random.Random(73)
    for ctx in _CONTEXTS:
        for _ in range(10):
            a = _block(rng, ctx, rng.randint(1, 4))
            product = a * _block(rng, ctx, a.dim)
            for x in (a, product):
                data = operator_to_dict(x)
                assert data["entries"] == [[quadext_to_dict(z) for z in row] for row in x.rows]
                back = operator_from_dict(data)
                assert back._grid == x._grid and _rows(back) == _rows(x)
