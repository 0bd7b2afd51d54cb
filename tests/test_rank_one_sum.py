"""Every rank-one sum against the stepwise reference, digit for digit.

The library builds sum_j w_j |e_j><f_j| with one truncation per entry.
The reference below is the stepwise loop zero + sum_j w_j |e_j><f_j|,
each block entry computed as w * (e_m * conj(f_n)) and added with one
truncation per step.  Swapping it in for the accumulator must leave
every coordinate's (valuation, unit, prec) and every raised error as it
was.  The round-trip tests compare with ``BlockOperator.__eq__``, which
ignores ``prec``; this test does not.
"""

import random

import pytest

import helpers
from padicqm import (
    BlockOperator,
    PadicNumber,
    QuadExtElement,
    Sovm,
    canonical_decomposition,
    factor_trace_class,
    simple_statistical,
    sovm_from_symmetric_decomposition,
    split_zero_trace,
    symmetric_decomposition,
    zero_operator,
)
from padicqm import operators, states
from padicqm.errors import PadicError

CONTEXTS = [(2, mu, 8) for mu in (2, 3, 5, 6, 7, 10, 14)] + [
    (p, mu, 6) for p, eta in ((3, 2), (5, 2), (7, 3)) for mu in (eta, p, eta * p)
]


def stepwise(context, dim, terms):
    acc = zero_operator(context, dim)
    for w, e, f in terms:
        acc = acc + BlockOperator(
            context,
            [
                [w * (e.entry(m) * f.entry(n).conj()) for n in range(1, dim + 1)]
                for m in range(1, dim + 1)
            ],
        )
    return acc


def digits(x):
    """(valuation, unit, prec) of every coordinate of a result."""
    if isinstance(x, BlockOperator):
        return [x.dim] + [
            (c.valuation, c.unit, c.prec) for row in x.rows for z in row for c in (z.sc, z.ac)
        ]
    if isinstance(x, Sovm):
        return [digits(a) for a in x.effects]
    if isinstance(x, tuple):
        return [digits(a) for a in x]
    return digits(x.op)


def outcome(call):
    try:
        return digits(call())
    except PadicError as exc:
        return type(exc).__name__


def truncated(rng, z):
    """z with each coordinate cut to a random number of known digits."""

    def cut(x):
        if x.is_zero:
            return x
        k = rng.randrange(1, x.prec + 1)
        return PadicNumber(x.context, x.valuation, x.unit % x.context.p**k, k)

    return QuadExtElement(z.context, cut(z.sc), cut(z.ac))


def lossy_block(rng, ctx, dim):
    b = helpers.rand_block(rng, ctx, dim)
    return BlockOperator(ctx, [[truncated(rng, z) for z in row] for row in b.rows])


def cases(rng, ctx):
    dim = 3
    r = lossy_block(rng, ctx, dim)
    yield "canonical", lambda: canonical_decomposition(r).reconstruct()
    yield "factor", lambda: factor_trace_class(r)
    phi = helpers.rand_vector(rng, ctx, dim)
    psi = helpers.rand_vector(rng, ctx, dim)
    sigma = truncated(rng, helpers.rand_quad(rng, ctx, zero_p=0))
    yield "simple", lambda: simple_statistical(phi, psi, sigma)
    try:
        h = helpers.rand_self_adjoint(rng, ctx, dim)
        s = helpers.rand_statistical(rng, ctx, dim)
    except PadicError:  # a diagonal entry cancelled below its known digits
        return
    yield "symmetric", lambda: symmetric_decomposition(h).reconstruct()
    yield "split", lambda: split_zero_trace(s)
    yield "sovm", lambda: sovm_from_symmetric_decomposition(s)


@pytest.mark.parametrize("p,mu,precision", CONTEXTS)
def test_rank_one_sums_match_stepwise_reference(monkeypatch, p, mu, precision):
    ctx = helpers.ext_ctx(p, mu, precision)
    rng = random.Random(1000 * p + mu)
    valued = set()
    for _ in range(8):
        for name, call in cases(rng, ctx):
            got = outcome(call)
            with monkeypatch.context() as patch:
                patch.setattr(operators, "_rank_one_sum", stepwise)
                patch.setattr(states, "_rank_one_sum", stepwise)
                expected = outcome(call)
            assert got == expected, name
            if not isinstance(got, str):
                valued.add(name)
    assert valued == {"canonical", "symmetric", "factor", "simple", "split", "sovm"}
