#!/usr/bin/env python3
"""Classify a batch of random operators and tally the verdict profile.

    python scripts/classification_sweep.py [--count 500] [--seed 0]
"""

import argparse
import collections
import json
import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from padicqm import (  # noqa: E402
    BlockOperator,
    GeneratorOperator,
    PadicContext,
    PadicNumber,
    QuadExtElement,
    affine_certificate,
    classify,
)
from padicqm.quadext import ExtensionContext  # noqa: E402


def random_block(rng, ctx, dim):
    def coord():
        if rng.random() < 0.2:
            return ctx.base.zero()
        u = rng.randrange(1, ctx.base.modulus)
        while u % ctx.base.p == 0:
            u = rng.randrange(1, ctx.base.modulus)
        return PadicNumber(ctx.base, rng.randrange(-2, 3), u, ctx.base.precision)

    rows = [
        [QuadExtElement(ctx, coord(), coord()) for _ in range(dim)]
        for _ in range(dim)
    ]
    return BlockOperator(ctx, rows)


def random_generator(rng, ctx):
    a, b = rng.randrange(0, 3), rng.randrange(0, 3)
    diagonal = rng.random() < 0.3

    def entry(m, n):
        if diagonal and m != n:
            return ctx.zero()
        return ctx.from_base(ctx.base.from_fraction(Fraction(ctx.base.p) ** (a * m + b * n)))

    window = BlockOperator(ctx, [[entry(m, n) for n in range(1, 4)] for m in range(1, 4)])
    return GeneratorOperator(window, affine_certificate(0, a, b, diagonal_only=diagonal))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    base = PadicContext(3, 8)
    ctx = ExtensionContext(base, base.from_int(5))
    rng = random.Random(args.seed)

    profile = collections.Counter()
    for k in range(args.count):
        op = random_generator(rng, ctx) if k % 5 == 0 else random_block(rng, ctx, rng.randrange(1, 6))
        cls = classify(op)
        key = tuple(
            getattr(cls, flag).holds
            for flag in ("bounded", "adjointable", "self_adjoint", "compact", "trace_class")
        )
        profile[key] += 1
        if cls.trace_class.holds:
            assert cls.compact.holds and cls.adjointable.holds
        if cls.self_adjoint.holds:
            assert cls.adjointable.holds

    table = {
        "bounded/adjointable/self_adjoint/compact/trace_class "
        + "-".join("T" if f else "F" for f in key): count
        for key, count in sorted(profile.items())
    }
    print(json.dumps({"count": args.count, "profile": table}, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
