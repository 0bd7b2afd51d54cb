#!/usr/bin/env python3
"""Best-of-N timings of the arithmetic layers, printed as one JSON object.

    python scripts/layer_timings.py [--repeat 5] [--max-dim 32]

Inputs are random values from the fixed seed SEED over p = 3, mu = 5,
precision 20, with valuations 0 to 2.  Scalar operations are timed over a
batch and reported in microseconds per operation, and so is construction:
``padic.new_us`` is the public ``PadicNumber`` constructor on a
(valuation, unit, prec) triple, ``quadext.element_us`` the kernel's
``quadext._element`` on a pair of them; block products (d = 4, 8, 16,
24, 32, up to ``--max-dim``; 24 is the benchmark's largest) in
milliseconds per call, alone and with every entry of the product then
read through ``rows`` (``block_mul_read``: a block stores coordinate
triples and builds its elements on that first read), and so are
``block_mul_gap_ms``, the square of
the 2 x 2 block [[x, far], [x, x]] with x = 1 + 2 sqrt(mu) and
far = p**GAP (one entry of it a multiple of p**GAP),
``block_mul_far_row_ms``, [[x, far], [x, x]] times [[x, x], [0, 0]] with
far = p**FAR_ROW_GAP (the far entry meets only the zero row), a diagonal block
times a dense one (the S T shape of ``factor_trace_class``),
``hs_inner``, ``canonical_decomposition`` alone and its round trip
(``reconstruct`` of ``canonical_decomposition``), ``factor_trace_class``
alone and with the product S T of its factors (``factor_product``, as the
benchmark's ``factor`` request makes it)
and ``operator_norm`` (d = 16, or ``--max-dim`` when smaller), ``apply`` of that block to a dense vector and
``inner_product`` of two dense vectors of that length, and so are the
unitarity check (``is_unitary`` plus ``is_ip_preserving``) of a unitary
butterfly of ``rotation_on_pairs`` stages at that size and at d = 8
(``unitarity.d8_ms``, whatever ``--max-dim``), and
``is_orthonormal_system`` on the butterfly's columns, and
``is_norm_orthogonal`` on the columns of the butterfly of each size 8, 16
and 32 up to ``--max-dim`` (``norm_orthogonal``).  The JSON wire
is timed on the same block: ``operator_from_dict`` of its dict in
microseconds per entry, ``jsonio.dumps`` of that dict in microseconds
per KB (1000 bytes) of text, and ``context_from_dict`` of the extension's
dict, whose context is live, in microseconds per call (``jsonio.context_us``).
Each figure is the fastest of ``--repeat`` runs.
"""

import argparse
import json
import pathlib
import platform
import random
import sys
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from padicqm import (  # noqa: E402
    BlockOperator,
    ExtensionContext,
    PadicContext,
    PadicNumber,
    PVector,
    QuadExtElement,
    canonical_decomposition,
    diagonal,
    factor_trace_class,
    from_rotation,
    hs_inner,
    identity,
    inner_product,
    is_ip_preserving,
    is_norm_orthogonal,
    is_orthonormal_system,
    is_unitary,
    operator_norm,
    rotation_on_pairs,
)
from padicqm.jsonio import (  # noqa: E402
    context_from_dict,
    context_to_dict,
    dumps,
    operator_from_dict,
    operator_to_dict,
)
from padicqm import quadext  # noqa: E402
from padicqm.padic import padic_sum  # noqa: E402

P, MU, PRECISION = 3, 5, 20
SEED = 0
BATCH = 2000  # scalar operations per timed run
SUM_TERMS = 16
BLOCK_DIMS = (4, 8, 16, 24, 32)
# the valuation of the far entry of the gap product
GAP = 10**4
# the valuation of the far entry of the far-row product
FAR_ROW_GAP = 10**6
# diagonal times dense, hs_inner, the decomposition and its round trip, the
# factorization, the norm
SINGLE_DIM = 16
# the unitarity check also at this size, the largest block of the CLI
# benchmark, where each line's fixed cost shows
UNITARITY_DIM = 8
# the norm-orthogonality rank of a butterfly's columns, at these sizes
NORM_ORTHOGONAL_DIMS = (8, 16, 32)


def _number(rng: random.Random, ctx: PadicContext) -> PadicNumber:
    u = rng.randrange(1, ctx.modulus)
    while u % ctx.p == 0:
        u = rng.randrange(1, ctx.modulus)
    return PadicNumber(ctx, rng.randrange(0, 3), u, ctx.precision)


def _element(rng: random.Random, ext: ExtensionContext) -> QuadExtElement:
    return QuadExtElement(ext, _number(rng, ext.base), _number(rng, ext.base))


def _block(rng: random.Random, ext: ExtensionContext, d: int) -> BlockOperator:
    return BlockOperator(ext, [[_element(rng, ext) for _ in range(d)] for _ in range(d)])


def _butterfly(ext: ExtensionContext, d: int) -> BlockOperator:
    """The product of rotation stages on the disjoint pairs (i, i + dist),
    dist = 1, 2, 4, ...: a unitary with no zero entry when d is a power of 2."""
    u, dist = identity(ext, d), 1
    while dist < d:
        pairs = [(i, i + dist) for i in range(1, d - dist + 1) if (i - 1) & dist == 0]
        u, dist = u * from_rotation(rotation_on_pairs(ext, pairs), d), 2 * dist
    return u


def _best(fn, repeat: int) -> float:
    """The fastest of ``repeat`` timed calls of fn, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _pairwise(op, xs, ys):
    def run():
        for x, y in zip(xs, ys):
            op(x, y)

    return run


def timings(repeat: int, max_dim: int) -> dict[str, float]:
    rng = random.Random(SEED)
    ctx = PadicContext(P, PRECISION)
    ext = ExtensionContext(ctx, ctx.from_int(MU))
    xs = [_number(rng, ctx) for _ in range(BATCH)]
    ys = [_number(rng, ctx) for _ in range(BATCH)]
    zs = [_element(rng, ext) for _ in range(BATCH)]
    ws = [_element(rng, ext) for _ in range(BATCH)]
    sums = [xs[i : i + SUM_TERMS] for i in range(0, BATCH, SUM_TERMS)]

    def run_sums():
        for terms in sums:
            padic_sum(ctx, terms)

    triples = [(x.valuation, x.unit, x.prec) for x in xs]
    pairs = list(zip(triples, [(y.valuation, y.unit, y.prec) for y in ys]))

    def run_new():
        for t in triples:
            PadicNumber(ctx, *t)

    def run_elements():
        for pair in pairs:
            quadext._element(ext, pair)

    us_per = 1e6 / BATCH
    out = {
        "padic.new_us": _best(run_new, repeat) * us_per,
        "padic.add_us": _best(_pairwise(PadicNumber.__add__, xs, ys), repeat) * us_per,
        "padic.mul_us": _best(_pairwise(PadicNumber.__mul__, xs, ys), repeat) * us_per,
        f"padic.sum{SUM_TERMS}_us": _best(run_sums, repeat) * 1e6 / len(sums),
        "quadext.mul_us": _best(_pairwise(QuadExtElement.__mul__, zs, ws), repeat) * us_per,
        "quadext.element_us": _best(run_elements, repeat) * us_per,
    }
    for d in (d for d in BLOCK_DIMS if d <= max_dim):
        a, b = _block(rng, ext, d), _block(rng, ext, d)
        out[f"block_mul.d{d}_ms"] = _best(lambda: a * b, repeat) * 1e3
        out[f"block_mul_read.d{d}_ms"] = _best(lambda: (a * b).rows, repeat) * 1e3
    x = ext.from_ints(1, 2)
    gap = BlockOperator(ext, [[x, ext.from_base(ctx.from_digits(GAP, [1]))], [x, x]])
    out["block_mul_gap_ms"] = _best(lambda: gap * gap, repeat) * 1e3
    far_row = BlockOperator(ext, [[x, ext.from_base(ctx.from_digits(FAR_ROW_GAP, [1]))], [x, x]])
    zero_row = BlockOperator(ext, [[x, x], [ext.zero(), ext.zero()]])
    out["block_mul_far_row_ms"] = _best(lambda: far_row * zero_row, repeat) * 1e3
    d = min(SINGLE_DIM, max_dim)
    s, t = _block(rng, ext, d), _block(rng, ext, d)
    diag = diagonal(ext, [_element(rng, ext) for _ in range(d)])
    out[f"block_mul_diag.d{d}_ms"] = _best(lambda: diag * s, repeat) * 1e3
    out[f"hs_inner.d{d}_ms"] = _best(lambda: hs_inner(s, t), repeat) * 1e3
    out[f"decompose.d{d}_ms"] = _best(lambda: canonical_decomposition(s), repeat) * 1e3
    out[f"reconstruct.d{d}_ms"] = (
        _best(lambda: canonical_decomposition(s).reconstruct(), repeat) * 1e3
    )
    out[f"factor.d{d}_ms"] = _best(lambda: factor_trace_class(s), repeat) * 1e3

    def factor_product():
        f, g = factor_trace_class(s)
        return f * g

    out[f"factor_product.d{d}_ms"] = _best(factor_product, repeat) * 1e3
    out[f"operator_norm.d{d}_ms"] = _best(lambda: operator_norm(s), repeat) * 1e3
    v, w = (PVector(ext, dict(enumerate(x.rows[0], 1))) for x in (s, t))
    out[f"apply.d{d}_ms"] = _best(lambda: s.apply(w), repeat) * 1e3
    out[f"inner_product.d{d}_ms"] = _best(lambda: inner_product(v, w), repeat) * 1e3
    for size in (UNITARITY_DIM, d):
        u = _butterfly(ext, size)
        out[f"unitarity.d{size}_ms"] = _best(lambda: (is_unitary(u), is_ip_preserving(u)), repeat) * 1e3
    cols = [PVector(ext, dict(enumerate(col, 1))) for col in zip(*u.rows)]
    out[f"orthonormal.d{d}_ms"] = _best(lambda: is_orthonormal_system(cols), repeat) * 1e3
    for size in (size for size in NORM_ORTHOGONAL_DIMS if size <= max_dim):
        family = [PVector(ext, dict(enumerate(col, 1))) for col in zip(*_butterfly(ext, size).rows)]
        out[f"norm_orthogonal.d{size}_ms"] = _best(lambda: is_norm_orthogonal(family), repeat) * 1e3
    wire = operator_to_dict(s)
    out["jsonio.parse_us_per_element"] = (
        _best(lambda: operator_from_dict(wire), repeat) * 1e6 / (d * d)
    )
    out["jsonio.emit_us_per_kb"] = _best(lambda: dumps(wire), repeat) * 1e9 / len(dumps(wire))
    context_wire = [context_to_dict(ext)] * BATCH

    def run_contexts():
        for data in context_wire:
            context_from_dict(data)

    out["jsonio.context_us"] = _best(run_contexts, repeat) * us_per
    return {k: round(v, 3) for k, v in out.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per figure")
    parser.add_argument("--max-dim", type=int, default=32, help="largest block dimension timed")
    args = parser.parse_args()
    if args.repeat < 1 or args.max_dim < 1:
        parser.error("--repeat and --max-dim must be positive")
    report = {
        "python": platform.python_version(),
        "context": {"p": P, "mu": MU, "precision": PRECISION},
        "repeat": args.repeat,
        "timings": timings(args.repeat, args.max_dim),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
