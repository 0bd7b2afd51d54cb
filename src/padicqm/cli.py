"""Command-line front end emitting deterministic, sorted-key JSON.

Subcommands: field, sqrt, classify, trace, decompose, unitary-check,
pair, counterexample.  Exit codes: 0 on success, 2 for validation
failures, 3 for parse failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import hilbert, jsonio, operators, padic, states
from .errors import PadicError, ParseError
from .padic import PadicContext
from .quadext import ExtensionContext


def _context(args: argparse.Namespace) -> ExtensionContext:
    base = PadicContext(args.p, args.precision)
    return ExtensionContext(base, base.from_int(args.mu))


def _emit(payload: Any, out: str | None) -> None:
    text = jsonio.dumps(payload)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _square_class_name(context: ExtensionContext) -> str:
    p = context.base.p
    label = context.mu_class
    if p == 2:
        return str(label)
    eta = padic._eta_int(p)
    return {1: "1", eta: "eta", p: "p", eta * p: "eta*p"}[label]


def cmd_field(args: argparse.Namespace) -> Any:
    context = _context(args)
    witness = hilbert.find_isotropic(context, 3)
    report = {
        "p": context.base.p,
        "precision": context.base.precision,
        "mu": jsonio.padic_to_dict(context.mu),
        "square_class": context.mu_class,
        "square_class_name": _square_class_name(context),
        "ramified": context.is_ramified(),
        "isotropy_index": len(witness.support()),
        "isotropic_witness": jsonio.vector_to_dict(witness),
        "extension_count": 7 if context.base.p == 2 else 3,
    }
    if context.base.p != 2:
        report["eta"] = jsonio.padic_to_dict(padic.find_eta(context.base))
    return report


def cmd_sqrt(args: argparse.Namespace) -> Any:
    base = PadicContext(args.p, args.precision)
    x = base.from_fraction(jsonio._rational(args.value, "value"))
    root = padic.sqrt(x)
    return {
        "input": jsonio.padic_to_dict(x),
        "root": jsonio.padic_to_dict(root),
        "companion": jsonio.padic_to_dict(padic.sqrt(x, companion=True)),
    }


def _classify_one(path: str) -> Any:
    op = jsonio.operator_from_dict(_load(path))
    report: dict[str, Any] = {
        "operator": path,
        "classification": jsonio.classification_to_dict(operators.classify(op)),
    }
    if isinstance(op, operators.BlockOperator):
        report["norm"] = jsonio.magnitude_to_dict(operators.operator_norm(op))
    return report


def cmd_classify(args: argparse.Namespace) -> Any:
    reports = [_classify_one(path) for path in args.operator]
    return reports[0] if len(reports) == 1 else reports


def cmd_trace(args: argparse.Namespace) -> Any:
    op = jsonio.operator_from_dict(_load(args.operator))
    value = operators.trace(op)
    report: dict[str, Any] = {"trace": jsonio.quadext_to_dict(value)}
    if isinstance(op, operators.GeneratorOperator):
        report["tail_bound"] = jsonio.magnitude_to_dict(operators.trace_tail_bound(op))
    return report


def cmd_decompose(args: argparse.Namespace) -> Any:
    op = jsonio.operator_from_dict(_load(args.operator))
    canon = operators.canonical_decomposition(op)
    report: dict[str, Any] = {
        "canonical": jsonio.canonical_decomposition_to_dict(canon),
        "max_weight": jsonio.magnitude_to_dict(canon.max_weight()),
    }
    if args.symmetric:
        sym = operators.symmetric_decomposition(op)
        report["symmetric"] = jsonio.symmetric_decomposition_to_dict(sym)
    return report


def _unitarity(op: operators.MatrixOperator) -> dict[str, Any]:
    """Unitarity, IP preservation (implied by unitarity) and norm."""
    unitary = operators.is_unitary(op)
    return {
        "unitary": unitary,
        "ip_preserving": unitary or operators.is_ip_preserving(op),
        "norm": jsonio.magnitude_to_dict(operators.operator_norm(op)),
    }


def cmd_unitary_check(args: argparse.Namespace) -> Any:
    return _unitarity(jsonio.operator_from_dict(_load(args.operator)))


def cmd_pair(args: argparse.Namespace) -> Any:
    sovm = jsonio.sovm_from_dict(_load(args.sovm))
    state = jsonio.statistical_from_dict(_load(args.state))
    dist = states.pair(sovm, state)
    return {
        "distribution": jsonio.distribution_to_dict(dist),
        "contractive": sovm.is_contractive(),
        "density": states.is_density(state),
    }


def cmd_counterexample(args: argparse.Namespace) -> Any:
    context = _context(args)
    op = operators.build_norm_inflating_ip_preserver(context, args.K)
    return {
        "operator": jsonio.operator_to_dict(op),
        **_unitarity(op),
        "solution": list(operators.four_squares_unit_solution(context.base.p, args.K)),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between
    calls, so every in-process ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="padicqm",
        description="Exact operator calculus over quadratic extensions of Q_p.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None, help="write JSON to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kw: Any) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[shared], **kw)

    def common(sp: argparse.ArgumentParser, mu: bool = True) -> None:
        sp.add_argument("--p", type=int, required=True, help="prime")
        if mu:
            sp.add_argument("--mu", type=int, required=True, help="non-square radicand")
        sp.add_argument("--precision", type=int, default=5, help="significant digits")

    sp = add_parser("field", help="classify the extension Q_p(sqrt(mu))")
    common(sp)

    sp = add_parser("sqrt", help="p-adic square root of a rational")
    common(sp, mu=False)
    sp.add_argument("value", help="integer or fraction a/b; a negative value follows --")

    sp = add_parser("classify", help="classification report for operator JSON")
    sp.add_argument("operator", nargs="+", help="operator JSON files")

    sp = add_parser("trace", help="trace of an operator JSON")
    sp.add_argument("operator")

    sp = add_parser("decompose", help="canonical (and symmetric) decomposition")
    sp.add_argument("operator")
    sp.add_argument("--symmetric", action="store_true")

    sp = add_parser("unitary-check", help="unitarity and IP preservation")
    sp.add_argument("operator")

    sp = add_parser("pair", help="pair a SOVM with a statistical operator")
    sp.add_argument("sovm")
    sp.add_argument("state")

    sp = add_parser("counterexample", help="IP-preserving non-unitary 4x4 block")
    common(sp)
    sp.add_argument("--K", type=int, default=1, help="norm exponent")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call, so a handler rebound on this module after
    # the parser was built (a tracer's wrapper, a test double) is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        payload = handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except PadicError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
