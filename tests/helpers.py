"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from padicqm import (
    BlockOperator,
    ExtensionContext,
    PadicContext,
    PadicNumber,
    PVector,
    QuadExtElement,
    make_statistical,
    trace,
)
from padicqm.errors import PrecisionExhausted


def base_ctx(p: int, precision: int = 6) -> PadicContext:
    return PadicContext(p, precision)


def ext_ctx(p: int, mu: int, precision: int = 6) -> ExtensionContext:
    base = PadicContext(p, precision)
    return ExtensionContext(base, base.from_int(mu))


# -- hypothesis strategies ----------------------------------------------------


def padic_numbers(ctx: PadicContext, min_val: int = -4, max_val: int = 4, zero: bool = True):
    digits = st.tuples(
        st.integers(1, ctx.p - 1),
        *[st.integers(0, ctx.p - 1) for _ in range(ctx.precision - 1)],
    )
    nonzero = st.builds(
        lambda v, ds: ctx.from_digits(v, list(ds)),
        st.integers(min_val, max_val),
        digits,
    )
    if not zero:
        return nonzero
    return st.one_of(st.just(ctx.zero()), nonzero)


def quad_elements(ctx: ExtensionContext, min_val: int = -3, max_val: int = 3, zero: bool = True):
    coords = padic_numbers(ctx.base, min_val, max_val, zero=True)
    elems = st.builds(lambda x, y: QuadExtElement(ctx, x, y), coords, coords)
    if zero:
        return elems
    return elems.filter(lambda z: not z.is_zero)


# -- seeded random builders ---------------------------------------------------


# mus of every extension class of Q_p, p in {2, 3, 5, 7}: all 16 classes
EXTENSION_CLASSES = {2: (2, 3, 5, 6, 7, 10, 14), 3: (2, 3, 6), 5: (2, 5, 10), 7: (3, 7, 21)}


def rand_coordinate(rng: random.Random, ctx: PadicContext, zero_p: float = 0.25) -> PadicNumber:
    """Zero, or a number with 1 to ``precision`` known digits."""
    if rng.random() < zero_p:
        return ctx.zero()
    k = rng.randint(1, ctx.precision)
    digits = [rng.randrange(1, ctx.p)] + [rng.randrange(ctx.p) for _ in range(k - 1)]
    return ctx.from_digits(rng.randint(-2, 2), digits)


def rand_padic(rng: random.Random, ctx: PadicContext, min_val=-2, max_val=2, zero_p=0.0) -> PadicNumber:
    if zero_p and rng.random() < zero_p:
        return ctx.zero()
    v = rng.randrange(min_val, max_val + 1)
    u = rng.randrange(1, ctx.modulus)
    while u % ctx.p == 0:
        u = rng.randrange(1, ctx.modulus)
    return PadicNumber(ctx, v, u, ctx.precision)


def rand_quad(rng: random.Random, ctx: ExtensionContext, min_val=-2, max_val=2, zero_p=0.15) -> QuadExtElement:
    return QuadExtElement(
        ctx,
        rand_padic(rng, ctx.base, min_val, max_val, zero_p),
        rand_padic(rng, ctx.base, min_val, max_val, zero_p),
    )


def rand_vector(rng: random.Random, ctx: ExtensionContext, dim: int, **kw) -> PVector:
    return PVector(ctx, {i: rand_quad(rng, ctx, **kw) for i in range(1, dim + 1)})


def window(ctx: ExtensionContext, size: int, entry) -> BlockOperator:
    """The size-by-size block of entry(m, n), indices from 1."""
    return BlockOperator(
        ctx, [[entry(m, n) for n in range(1, size + 1)] for m in range(1, size + 1)]
    )


def rand_block(rng: random.Random, ctx: ExtensionContext, dim: int, **kw) -> BlockOperator:
    return BlockOperator(
        ctx, [[rand_quad(rng, ctx, **kw) for _ in range(dim)] for _ in range(dim)]
    )


def rand_self_adjoint(rng: random.Random, ctx: ExtensionContext, dim: int, **kw) -> BlockOperator:
    a = rand_block(rng, ctx, dim, **kw)
    return a + a.adjoint()


def rand_statistical(rng: random.Random, ctx: ExtensionContext, dim: int, **kw):
    """Random self-adjoint block adjusted on the corner to have trace 1."""
    t = rand_self_adjoint(rng, ctx, dim, **kw)
    delta = ctx.one() - ctx.from_base(trace(t).sc)
    rows = [list(r) for r in t.rows]
    rows[0][0] = rows[0][0] + delta
    return make_statistical(BlockOperator(ctx, rows))


def simplex_weights(ctx: PadicContext, count: int) -> list[PadicNumber]:
    """The truncated geometric weights p**(m-1)(1-p) with an exact tail fix."""
    ws = [ctx.from_int(ctx.p ** (m - 1) * (1 - ctx.p)) for m in range(1, count)]
    ws.append(ctx.from_int(ctx.p ** (count - 1)))
    return ws


# -- number-theoretic oracles -------------------------------------------------


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p by the classical valuation/unit formulas."""

    def split(n: int) -> tuple[int, int]:
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v, n

    alpha, u = split(a)
    beta, w = split(b)
    if p != 2:
        sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
        return sign * legendre(u, p) ** beta * legendre(w, p) ** alpha

    def eps(n: int) -> int:
        return ((n - 1) // 2) % 2

    def omega(n: int) -> int:
        return ((n * n - 1) // 8) % 2

    e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
    return -1 if e % 2 else 1


def isotropy_oracle(p: int, mu: int) -> int:
    """Minimal isotropic support from the norm-form criterion."""
    return 2 if hilbert_symbol(-1, mu, p) == 1 else 3


def brute_force_norm_orthogonal(vectors: list[PVector]) -> bool:
    """Direct check of the defining equality over residue-lift scalars.

    Enumerates coefficients over lifts of the residue field, which is
    where any failure of norm-orthogonality must already show up for
    norm-1 vectors.
    """
    from itertools import product

    from padicqm import sup_norm
    from padicqm.hilbert import _scale_to_unit_norm

    ctx = vectors[0].context
    scaled = [_scale_to_unit_norm(v) for v in vectors]
    p = ctx.p
    if p == 2 and ctx.mu_class == 5:
        # lifts of F_4 over the integral basis {1, (1 + sqrt(5))/2}
        half = ctx.base.from_fraction(Fraction(1, 2))
        theta = ctx.element(half, half)
        lifts = [
            ctx.from_ints(a, 0) + theta.scale_base(ctx.base.from_int(b))
            for a in range(2)
            for b in range(2)
        ]
    elif ctx.is_ramified() or p == 2:
        lifts = [ctx.from_ints(a, 0) for a in range(p)]
    else:
        lifts = [ctx.from_ints(a, b) for a in range(p) for b in range(p)]
    for coeffs in product(lifts, repeat=len(scaled)):
        if all(c.is_zero for c in coeffs):
            continue
        try:
            combo = scaled[0].scale(coeffs[0])
            for v, c in zip(scaled[1:], coeffs[1:]):
                combo = combo + v.scale(c)
            norm = sup_norm(combo)
        except PrecisionExhausted:
            continue  # undecidable combination at this precision
        expected = max(c.ext_abs() for c in coeffs if not c.is_zero)
        if norm != expected:
            return False
    return True
