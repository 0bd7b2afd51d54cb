"""Decay certificates as affine data: every generator verdict is derived
from (base, row_coeff, col_coeff, support).

The differential test's reference is the former declared-flag model,
written out here: the five flags an affine certificate used to declare,
the verdicts read from them, the bound's minimum over the first shell
beyond the window, and the window sums.
"""

import itertools
import math
from fractions import Fraction

import pytest

import helpers
from padicqm import (
    BlockOperator,
    DecayCertificate,
    GeneratorOperator,
    Magnitude,
    Verdict,
    adjoint,
    affine_certificate,
    classify,
    make_statistical,
    operator_norm,
    trace,
    trace_tail_bound,
)
from padicqm.errors import (
    NotAdjointable,
    NotSelfAdjoint,
    NotTraceClass,
    PrecisionExhausted,
    TailDominates,
    ValidationError,
)
from padicqm.quadext import max_abs, quad_sum

E35 = helpers.ext_ctx(3, 5, 8)
LIMIT_FLAGS = ("bounded", "adjointable", "compact", "trace_class", "traceable_wrt_standard_basis")


def p_power(k):
    return E35.from_base(E35.base.from_fraction(Fraction(3) ** k))


def ones(m, n):
    return E35.one()


# -- the reproducers -------------------------------------------------------------


def test_symmetric_window_is_not_certified_self_adjoint():
    g = GeneratorOperator(helpers.window(E35, 3, lambda m, n: p_power(m + n)), affine_certificate(0, 1, 1))
    flag = classify(g).self_adjoint
    assert not flag.holds
    assert flag.verdict == Verdict.REFUTED
    assert flag.witness == "certificate declares no symmetry"


def test_an_inexact_zero_window_entry_below_its_bound_is_refused():
    # O(3^-1) is only known to lie below 3^1: the bound 7 at (1, 1) asks for
    # |z| <= 3^-7, and a diagonal-only certificate asks for 0 off the diagonal
    ctx = helpers.ext_ctx(3, 5, 5)
    c = ctx.base

    def inexact_zero(v):
        return ctx.from_base(c.from_digits(v, [1]) - c.from_digits(v, [1, 0]))

    o = inexact_zero(-2)
    assert o.is_zero and o.sc.absolute == -1
    with pytest.raises(PrecisionExhausted):
        GeneratorOperator(BlockOperator(ctx, [[o]]), affine_certificate(5, 1, 1))
    off_diagonal = [[ctx.one(), o], [ctx.zero(), ctx.one()]]
    with pytest.raises(PrecisionExhausted):
        GeneratorOperator(BlockOperator(ctx, off_diagonal), affine_certificate(-2, 0, 0, diagonal_only=True))
    # O(3^7) meets the bound 7, and an exact zero meets every bound
    assert inexact_zero(6).sc.absolute == 7
    GeneratorOperator(BlockOperator(ctx, [[inexact_zero(6)]]), affine_certificate(5, 1, 1))
    GeneratorOperator(BlockOperator(ctx, [[ctx.one(), ctx.zero()], [ctx.zero(), ctx.one()]]), affine_certificate(-2, 0, 0, diagonal_only=True))


def test_constant_bound_is_not_trace_class():
    g = GeneratorOperator(helpers.window(E35, 3, ones), affine_certificate(0, 0, 0))
    flag = classify(g).trace_class
    assert not flag.holds and flag.verdict == Verdict.REFUTED
    with pytest.raises(NotTraceClass):
        trace(g)


def test_states_reject_a_symmetric_generator():
    # window [1], diagonal support, bound -2 + m: traceable, symmetric window
    g = GeneratorOperator(helpers.window(E35, 1, ones), affine_certificate(-2, 1, 0, diagonal_only=True))
    assert trace(g) == E35.one()
    with pytest.raises(NotSelfAdjoint):
        make_statistical(g)


@pytest.mark.parametrize(
    "fields",
    [(0, -1, 0), (0, 0, Fraction(-1, 2)), (0, 1, 1, "rows"), (0, 1, 1, "")],
)
def test_certificate_rejects_negative_coefficients_and_unknown_support(fields):
    with pytest.raises(ValidationError):
        DecayCertificate(*(Fraction(x) for x in fields[:3]), *fields[3:])


def test_certificate_adjoint_swaps_the_coefficients():
    cert = affine_certificate(Fraction(1, 2), 1, 2, diagonal_only=True)
    assert cert.adjoint() == DecayCertificate(Fraction(1, 2), Fraction(2), Fraction(1), "diagonal")
    assert cert.adjoint().adjoint() == cert


# -- the differential grid -------------------------------------------------------


def declared_flags(r, c, diagonal):
    """(row, col, pringsheim, joint, diag) as affine_certificate declared them."""
    if diagonal:
        grow = r + c > 0
        row, col, pring, joint, diag = True, True, grow, grow, grow
    else:
        row, col, pring, joint, diag = r > 0, c > 0, r > 0 or c > 0, r > 0 and c > 0, r + c > 0
    if joint:
        row = col = pring = diag = True
    return row, col, pring, joint, diag


def declared_verdicts(flags):
    row, col, pring, joint, diag = flags
    reasons = {
        "bounded": (row, "row decay"),
        "adjointable": (row and col, "row and column decay"),
        "compact": (row and pring, "row and joint-index decay"),
        "trace_class": (joint, "total decay"),
        "traceable_wrt_standard_basis": (row and diag, "row and diagonal decay"),
    }
    return {
        name: (True, Verdict.CERTIFIED_BY_DECAY, reason)
        if holds
        else (False, Verdict.REFUTED, f"certificate declares no {reason}")
        for name, (holds, reason) in reasons.items()
    }


def verdicts(cls):
    flags = {name: getattr(cls, name) for name in LIMIT_FLAGS}
    return {name: (f.holds, f.verdict, f.witness) for name, f in flags.items()}


def declared_bound(base, r, c, diagonal):
    def bound(m, n):
        return math.inf if diagonal and m != n else base + r * m + c * n

    return bound


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the reference names the error type
        return type(exc)


def windows(bound, size):
    """Tight and loose symmetric windows and a tight asymmetric one."""
    def sym(slack):
        def entry(m, n):
            b = max(bound(m, n), bound(n, m))
            return E35.zero() if b == math.inf else p_power(math.ceil(b) + slack)

        return helpers.window(E35, size, entry)

    tight = sym(0)
    rows = [list(row) for row in tight.rows]
    rows[0][0] = rows[0][0] * (E35.one() + E35.sqrt_mu())  # A_11 != conj(A_11)
    return [tight, sym(5), BlockOperator(E35, rows)]


@pytest.mark.parametrize("support", ["all", "diagonal"])
def test_verdicts_match_the_declared_flag_model(support):
    diagonal = support == "diagonal"
    size, p = 3, E35.p
    coeffs = [Fraction(0), Fraction(1, 2), Fraction(1)]
    for base, r, c in itertools.product([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(2)], coeffs, coeffs):
        cert = DecayCertificate(base, r, c, support)
        bound = declared_bound(base, r, c, diagonal)
        flags = declared_flags(r, c, diagonal)
        row, col, pring, joint, diag = flags
        t = size + 1
        frontier = min(min(bound(t, n), bound(n, t)) for n in range(1, t + 1))
        for block in windows(bound, size):
            g = GeneratorOperator(block, cert)
            case = (base, r, c, support)
            assert verdicts(classify(g)) == declared_verdicts(flags), case

            window_trace = quad_sum(E35, [block.entry(m, m) for m in range(1, size + 1)])
            assert outcome(lambda: trace(g)) == (
                window_trace if joint or (row and diag) else NotTraceClass
            ), case
            assert trace_tail_bound(g) == Magnitude(p, -math.ceil(2 * bound(t, t))), case
            peak = max_abs(E35, (z for row_ in block.rows for z in row_))
            tail = Magnitude(p, -math.ceil(2 * frontier))
            assert outcome(lambda: operator_norm(g)) == (TailDominates if tail > peak else peak), case

            adj = outcome(lambda: adjoint(g))
            if not col:
                assert adj is NotAdjointable, case
                continue
            assert all(
                adj.entry(m, n) == g.entry(n, m).conj()
                for m in range(1, size + 1)
                for n in range(1, size + 1)
            ), case
            swapped = (col, row, pring, joint, diag)
            assert verdicts(classify(adj)) == declared_verdicts(swapped), case


@pytest.mark.parametrize("field", ["base", "row_coeff", "col_coeff"])
def test_certificate_rejects_non_rational_fields(field):
    fields = {"base": Fraction(0), "row_coeff": Fraction(1), "col_coeff": Fraction(1), field: None}
    with pytest.raises(ValidationError, match="rational"):
        DecayCertificate(**fields)
