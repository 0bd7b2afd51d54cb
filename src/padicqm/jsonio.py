"""JSON encoding and decoding of every wire format the CLI speaks.

Numbers serialize with little-endian digit lists; a zero carries a null
valuation, and the inexact zero O(p**N) its ``absolute`` N beside it.
Operators are either exact blocks or generator windows with their
affine decay certificate.

One failure rule: malformed input is a ``ParseError`` (CLI exit 3),
decided by ``_parse`` alone; the validation after parsing (``make_sovm``,
``make_statistical``) keeps its ``ValidationError`` (exit 2).
"""

from __future__ import annotations

import dataclasses
import functools
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .errors import ParseError
from .hilbert import PVector
from .operators import (
    BlockOperator,
    CanonicalDecomposition,
    DecayCertificate,
    GeneratorOperator,
    MatrixOperator,
    OperatorClassification,
    SymmetricDecomposition,
)
from .padic import PadicContext, PadicNumber
from .quadext import ExtensionContext, Magnitude, QuadExtElement
from .states import PadicDistribution, Sovm, StatisticalOperator, make_sovm, make_statistical


def _parse(what: str):
    """A ``ParseError`` passes; any other failure becomes ``ParseError(f"{what}: {exc}")``."""

    def decorate(fn):
        @functools.wraps(fn)
        def parse(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ParseError:
                raise
            except Exception as exc:
                raise ParseError(f"{what}: {exc}") from exc

        return parse

    return decorate


def padic_to_dict(x: PadicNumber) -> dict[str, Any]:
    out: dict[str, Any] = {
        "p": x.context.p,
        "precision": x.context.precision,
        "valuation": x.valuation,
    }
    if not x.is_zero:
        out["digits"] = x.digits()
    elif x.absolute is not None:
        out["absolute"] = x.absolute
    return out


def _integer(value: Any, field: str) -> int:
    """A JSON integer (not a bool); anything else is a ``ParseError`` naming ``field``."""
    if type(value) is not int:
        raise ParseError(f"{field} {value!r} is not an integer")
    return value


def _context(data: Any) -> PadicContext:
    return PadicContext(_integer(data["p"], "p"), _integer(data["precision"], "precision"))


@_parse("bad p-adic number")
def padic_from_dict(data: Any, context: PadicContext | None = None) -> PadicNumber:
    """A scalar; a declared ``p`` or ``precision`` must be the context's.
    ``from_digits`` refuses a digit that is not an int in [0, p)."""
    if context is None:
        ctx = _context(data)
    else:
        ctx = context
        declared = (
            _integer(data.get("p", ctx.p), "p"),
            _integer(data.get("precision", ctx.precision), "precision"),
        )
        if declared != (ctx.p, ctx.precision):
            raise ParseError(
                f"scalar declares (p, precision) = {declared} in a context of "
                f"({ctx.p}, {ctx.precision})"
            )
    valuation = data["valuation"]
    if valuation is None:
        absolute = data.get("absolute")
        if absolute is None:
            return ctx.zero()
        return PadicNumber(ctx, None, 0, 0, _integer(absolute, "absolute"))
    digits = data["digits"]
    if type(digits) is not list:
        raise ParseError(f"digits {digits!r} is not a list")
    return ctx.from_digits(_integer(valuation, "valuation"), digits)


def quadext_to_dict(z: QuadExtElement) -> dict[str, Any]:
    return {
        "mu": padic_to_dict(z.context.mu),
        "sc": padic_to_dict(z.sc),
        "ac": padic_to_dict(z.ac),
    }


@_parse("bad extension element")
def quadext_from_dict(data: Any, context: ExtensionContext) -> QuadExtElement:
    sc = padic_from_dict(data["sc"], context.base)
    ac = padic_from_dict(data["ac"], context.base)
    return QuadExtElement(context, sc, ac)


def context_to_dict(context: ExtensionContext) -> dict[str, Any]:
    return {
        "p": context.base.p,
        "precision": context.base.precision,
        "mu": padic_to_dict(context.mu),
    }


@_parse("bad extension context")
def context_from_dict(data: Any) -> ExtensionContext:
    base = _context(data)
    return ExtensionContext(base, padic_from_dict(data["mu"], base))


def magnitude_to_dict(m: Magnitude) -> dict[str, Any]:
    return {"p": m.p, "exp2": m.exp2, "display": str(m)}


def vector_to_dict(v: PVector) -> dict[str, Any]:
    return {"entries": {str(i): quadext_to_dict(z) for i, z in v.items()}}


def _entry(data: Any, context: ExtensionContext, mu_dict: Any, *where: int) -> QuadExtElement:
    """``quadext_from_dict`` with the entry's index in its parse errors.  A
    declared non-null ``mu`` must be the context's; one equal to
    ``mu_dict``, the context's ``mu`` as written, is not parsed again."""
    try:
        z = quadext_from_dict(data, context)
        mu = data.get("mu")
        if mu is not None and mu != mu_dict and padic_from_dict(mu, context.base) != context.mu:
            raise ParseError("element declares a mu other than the context's")
        return z
    except ParseError as exc:
        raise ParseError(f"entry ({','.join(map(str, where))}): {exc}") from exc


# A vector index key as ``vector_to_dict`` writes it: ASCII digits, no sign,
# no leading zero.  int() alone would also read " 1", "1_0", "+2" and "01".
_INDEX = re.compile(r"[1-9][0-9]*")


def _index(key: Any) -> int:
    if type(key) is not str or not _INDEX.fullmatch(key):
        raise ParseError(f"index {key!r} is not a canonical positive integer")
    return int(key)


@_parse("bad vector")
def vector_from_dict(data: Any, context: ExtensionContext) -> PVector:
    mu_dict = padic_to_dict(context.mu)
    entries = {(i := _index(k)): _entry(z, context, mu_dict, i) for k, z in data["entries"].items()}
    return PVector(context, entries)


# The affine part of a decay certificate; rationals are written as strings.
_AFFINE_FIELDS = ("base", "row_coeff", "col_coeff")

# An integer or a fraction a/b.  Fraction() alone would also read decimals
# and exponents, and "1e10000000" would build 10**10**7.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _rational(value: Any, field: str) -> Fraction:
    """A rational from outside: an int (not a bool) or a string matching
    ``_RATIONAL``.  Anything else is a ``ParseError`` naming ``field``."""
    try:
        if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, str) and _RATIONAL.fullmatch(value)
        ):
            raise ValueError("not an integer or a fraction a/b")
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{field} {value!r} is not a rational") from exc


def operator_to_dict(a: MatrixOperator) -> dict[str, Any]:
    if isinstance(a, BlockOperator):
        block, shape = a, {"kind": "block_finite", "dim": a.dim}
    elif isinstance(a, GeneratorOperator):
        cert = a.certificate
        decay = {k: str(getattr(cert, k)) for k in _AFFINE_FIELDS}
        block = a.block
        shape = {"kind": "generator", "window": a.window, "decay": {**decay, "support": cert.support}}
    else:
        raise ParseError("unknown operator kind")
    return {
        **shape,
        "context": context_to_dict(block.context),
        "entries": [[quadext_to_dict(z) for z in row] for row in block.rows],
    }


@_parse("bad operator")
def operator_from_dict(data: Any) -> MatrixOperator:
    context = context_from_dict(data["context"])
    kind = data["kind"]
    if kind not in ("block_finite", "generator"):
        raise ParseError(f"unknown operator kind {kind!r}")
    size = "dim" if kind == "block_finite" else "window"
    mu_dict = data["context"]["mu"]
    rows = [
        [_entry(z, context, mu_dict, m, n) for n, z in enumerate(row, 1)]
        for m, row in enumerate(data["entries"], 1)
    ]
    if len(rows) != _integer(data[size], size):
        raise ParseError(f"{size} does not match the entry grid")
    block = BlockOperator(context, rows)
    if kind == "block_finite":
        return block
    decay = data["decay"]
    cert = DecayCertificate(
        *(_rational(decay.get(k, 0), f"decay.{k}") for k in _AFFINE_FIELDS),
        decay.get("support", "all"),
    )
    return GeneratorOperator(block, cert)


def _block(data: Any, what: str) -> BlockOperator:
    op = operator_from_dict(data)
    if not isinstance(op, BlockOperator):
        raise ParseError(f"{what} must be block operators")
    return op


def classification_to_dict(c: OperatorClassification) -> dict[str, Any]:
    def flag(f):
        out = {"holds": f.holds, "verdict": f.verdict.value}
        if f.witness is not None:
            out["witness"] = f.witness
        return out

    return {k.name: flag(getattr(c, k.name)) for k in dataclasses.fields(c)}


def _terms_to_dict(weight: str, terms) -> list[dict[str, Any]]:
    """Decomposition terms (w, e, f), with w written under ``weight``."""
    return [
        {weight: quadext_to_dict(w), "left": vector_to_dict(e), "right": vector_to_dict(f)}
        for w, e, f in terms
    ]


def canonical_decomposition_to_dict(d: CanonicalDecomposition) -> list[dict[str, Any]]:
    return _terms_to_dict("weight", d.terms)


def symmetric_decomposition_to_dict(d: SymmetricDecomposition) -> list[dict[str, Any]]:
    return _terms_to_dict("sigma", d.terms)


def distribution_to_dict(d: PadicDistribution) -> dict[str, Any]:
    return {
        "weights": [padic_to_dict(w) for w in d.weights],
        "in_simplex": d.is_in_simplex(),
        "sup_norm": str(d.sup_norm()),
    }


def sovm_to_dict(s: Sovm) -> dict[str, Any]:
    return {"dim": s.dim, "effects": [operator_to_dict(a) for a in s.effects]}


@_parse("bad SOVM")
def _sovm_effects(data: Any) -> list[BlockOperator]:
    return [_block(e, "SOVM effects") for e in data["effects"]]


def sovm_from_dict(data: Any) -> Sovm:
    return make_sovm(_sovm_effects(data))


def statistical_from_dict(data: Any) -> StatisticalOperator:
    return make_statistical(_block(data, "statistical operators"))


def dumps(payload: Any) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, bool, int and None; any other
    type raises ``TypeError``.  ``json.dumps`` with an indent runs CPython's
    pure-Python encoder; this writes each list of ints in one join."""
    return _encode(payload, "\n")


def _encode(x: Any, pad: str) -> str:
    """x on a line that ``pad`` (a newline and the line's indent) starts.  A
    key that is not a str raises ``TypeError`` in ``sorted`` or the escaper."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        brackets = "{}"
        items = [encode_basestring_ascii(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        ints = all(type(i) is int for i in x)  # bools excluded: True is written true
        items = map(int.__repr__, x) if ints else [_encode(i, inner) for i in x]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not x:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]
