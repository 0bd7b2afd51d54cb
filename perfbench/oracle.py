"""Exact rational reference for checking library results.

A p-adic number p**v * u known to ``prec`` digits is right about a
rational q when q = p**v * u modulo p**(v + prec).  The reference
arithmetic below runs on Fractions pairs (sc, ac) standing for
sc + ac*sqrt(mu), sharing no code with the library's arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

Exact = tuple[Fraction, Fraction]


def vp(q: Fraction, p: int) -> float:
    """p-adic valuation of a rational; infinity for 0."""
    if q == 0:
        return float("inf")
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def value(x) -> Fraction:
    """The rational p**v * unit a library p-adic number stores."""
    if x.valuation is None:
        return Fraction(0)
    return Fraction(x.context.p) ** x.valuation * x.unit


def qvalue(z) -> Exact:
    return value(z.sc), value(z.ac)


def mul(a: Exact, b: Exact, mu: Fraction) -> Exact:
    return a[0] * b[0] + mu * a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def conj(a: Exact) -> Exact:
    return a[0], -a[1]


def add(a: Exact, b: Exact) -> Exact:
    return a[0] + b[0], a[1] + b[1]


def agrees(x, q: Fraction, floor: float) -> bool:
    """Every digit x claims matches q; an exact-zero x needs q to vanish
    below ``floor``, the absolute precision the inputs carried."""
    p = x.context.p
    if x.valuation is None:
        return vp(q, p) >= floor
    return vp(q - value(x), p) >= x.valuation + x.prec


def agrees_quad(z, q: Exact, floor: float) -> bool:
    return agrees(z.sc, q[0], floor) and agrees(z.ac, q[1], floor)


def digits_value(p: int, data: dict) -> Fraction:
    """The rational a CLI-emitted p-adic number stands for."""
    if data["valuation"] is None:
        return Fraction(0)
    unit = sum(d * p**i for i, d in enumerate(data["digits"]))
    return Fraction(p) ** data["valuation"] * unit


def digits_agree(p: int, data: dict, q: Fraction) -> bool:
    if data["valuation"] is None:
        return q == 0
    return vp(q - digits_value(p, data), p) >= data["valuation"] + len(data["digits"])
