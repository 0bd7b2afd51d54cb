"""The three workloads: a fixed schedule of requests per cycle, each with
its expected outcome.

A request is one library call chain (or one in-process CLI invocation);
only the call is timed, the check runs after it.  Positions of a schedule
pin the kind, the block dimension and the context, so every cycle repeats
the same work and a position's latency can be compared across cycles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle as ox
from gen import CONTEXTS, FIELD_FACTS, Gen


def _shrunk(d: int, shrink: int) -> int:
    """Block dimension divided by ``shrink`` (the smoke test's tiny size)."""
    return max(2, d // shrink)


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    size: int


# -- block-algebra ----------------------------------------------------------------

# (kind, d, context index).  Dense blocks at d = 8, 16, 24; unitarity only at
# powers of two, where the rotation butterfly fills the block.  Costs fall in
# three groups: five cheap d = 8 requests, six d = 16 products and HS
# products of about one product each (the median lands inside them), and
# five requests of two to three d = 16 products or one d = 24 product (the
# p75 tail lands at their edge), so neither figure sits on a gap.
BLOCK_SCHEDULE = (
    ("product", 16, 0), ("verify_cyclic", 8, 0), ("product", 24, 2), ("hs_inner", 16, 1),
    ("factor", 8, 2), ("unitary", 16, 0), ("product", 16, 1), ("non_unitary", 8, 1),
    ("hs_inner", 24, 3), ("product", 16, 2), ("canonical", 8, 3), ("factor", 16, 1),
    ("hs_inner", 16, 3), ("unitary", 8, 3), ("canonical", 16, 2), ("product", 16, 3),
)


def _exact_block(op) -> list[list[ox.Exact]]:
    return [[ox.qvalue(z) for z in row] for row in op.rows]


def _mu(E) -> Fraction:
    return ox.value(E.mu)


def _dot(row: list[ox.Exact], col: list[ox.Exact], mu: Fraction) -> ox.Exact:
    acc = (Fraction(0), Fraction(0))
    for a, b in zip(row, col):
        acc = ox.add(acc, ox.mul(a, b, mu))
    return acc


def _product_ok(a, b, c) -> bool:
    """Diagonal and first row of C agree with the exact product A B."""
    E, d, floor = a.context, a.dim, a.context.base.precision
    ea, eb, mu = _exact_block(a), _exact_block(b), _mu(a.context)
    cols = [[eb[k][n] for k in range(d)] for n in range(d)]
    cells = {(m, m) for m in range(d)} | {(0, n) for n in range(d)}
    return c.dim == d and all(
        ox.agrees_quad(c.rows[m][n], _dot(ea[m], cols[n], mu), floor) for m, n in cells
    ) and c.context == E


def _exact_trace_of_product(a, b) -> ox.Exact:
    ea, eb, mu = _exact_block(a), _exact_block(b), _mu(a.context)
    acc = (Fraction(0), Fraction(0))
    for m in range(a.dim):
        acc = ox.add(acc, _dot(ea[m], [eb[k][m] for k in range(a.dim)], mu))
    return acc


def _exact_hs(s, t) -> ox.Exact:
    """sum over m, n of conj(S_mn) T_mn, the Hilbert-Schmidt product."""
    mu = _mu(s.context)
    acc = (Fraction(0), Fraction(0))
    for rs, rt in zip(_exact_block(s), _exact_block(t)):
        for a, b in zip(rs, rt):
            acc = ox.add(acc, ox.mul(ox.conj(a), b, mu))
    return acc


def _blocks_agree(x, reference) -> bool:
    """Every digit x claims matches the input block it should reproduce."""
    floor = reference.context.base.precision
    return x.dim == reference.dim and all(
        ox.agrees_quad(z, ox.qvalue(r), floor)
        for zr, rr in zip(x.rows, reference.rows)
        for z, r in zip(zr, rr)
    )


def block_algebra(pq, seed: int, shrink: int = 1) -> list[Request]:
    g = Gen(pq, seed)
    reqs = []
    for kind, d, ci in BLOCK_SCHEDULE:
        d = _shrunk(d, shrink)
        E = g.contexts[ci]
        floor = E.base.precision
        label = f"{kind}/d{d}/p{E.p}"
        if kind == "product":
            a, b = g.block(E, d), g.block(E, d)
            call = lambda a=a, b=b: a * b
            check = lambda c, a=a, b=b: _product_ok(a, b, c)
        elif kind == "hs_inner":
            s, t = g.block(E, d), g.block(E, d)
            call = lambda s=s, t=t: pq.operators.hs_inner(s, t)
            expect = _exact_hs(s, t)
            check = lambda z, q=expect, f=floor: ox.agrees_quad(z, q, f)
        elif kind == "verify_cyclic":
            b, t = g.block(E, d), g.block(E, d)
            call = lambda b=b, t=t: pq.operators.verify_cyclic(b, t)
            expect = _exact_trace_of_product(b, t)
            check = lambda r, q=expect, f=floor: all(ox.agrees_quad(z, q, f) for z in r)
        elif kind == "canonical":
            a = g.block(E, d)
            call = lambda a=a: pq.operators.canonical_decomposition(a).reconstruct()
            check = lambda r, a=a: _blocks_agree(r, a)
        elif kind == "factor":
            r = g.block(E, d)

            def call(r=r):
                s, t = pq.operators.factor_trace_class(r)
                return s * t

            check = lambda st, r=r: _blocks_agree(st, r)
        elif kind == "unitary":
            u = g.unitary(E, d)
            call = lambda u=u: (pq.operators.is_unitary(u), pq.operators.is_ip_preserving(u))
            check = lambda r: r == (True, True)
        else:  # non_unitary: p**-1 U, and for odd p the paper's counterexample
            bad = [g.inflated(E, g.unitary(E, d))]
            expected = [(False, False)]
            if E.p != 2 and d >= 4:
                bad.append(g.counterexample_padded(E, d, 1))
                expected.append((False, True))
            call = lambda bad=bad: [
                (pq.operators.is_unitary(x), pq.operators.is_ip_preserving(x)) for x in bad
            ]
            check = lambda r, e=expected: r == e
        reqs.append(Request(kind, label, call, check, d))
    return reqs


# -- states-pairing ---------------------------------------------------------------

# Every d in 4..10 twice per cycle, the contexts rotating under it; a short
# cycle gives each position more samples spread over a run.
STATES_SCHEDULE = tuple((4 + i % 7, i % 4) for i in range(14))


def _consistent(parts: list, signs: list[int], target: Fraction) -> bool:
    """sum(sign * part) = target within the digits every part carries."""
    p = parts[0].context.p
    floors = [x.valuation + x.prec for x in parts if x.valuation is not None]
    floor = min(floors) if floors else float("inf")
    total = sum(s * ox.value(x) for s, x in zip(signs, parts))
    return ox.vp(total - target, p) >= floor


def _split_ok(s, s0, s1) -> bool:
    return all(
        _consistent([a.sc, b.sc, c.sc], [1, 1, -1], Fraction(0))
        and _consistent([a.ac, b.ac, c.ac], [1, 1, -1], Fraction(0))
        for ra, rb, rc in zip(s0.op.rows, s1.op.rows, s.op.rows)
        for a, b, c in zip(ra, rb, rc)
    )


def states_pairing(pq, seed: int, shrink: int = 1) -> list[Request]:
    g = Gen(pq, seed)
    reqs = []
    for d, ci in STATES_SCHEDULE:
        d = _shrunk(d, shrink)
        E = g.contexts[ci]
        fam = g.triangular_family(E, d)
        dep = g.dependent_family(E, fam)
        den = g.density(E, d)
        onb = [
            pq.hilbert.PVector(E, {m + 1: den.unitary.rows[m][k] for m in range(d)})
            for k in range(d)
        ]
        phi, psi, sigma = g.statistical_pair(E, d)
        t, (ti, tj, tx) = g.zero_trace_offdiag(E, d)

        def call(fam=fam, dep=dep, onb=onb, phi=phi, psi=psi, sigma=sigma, t=t, den=den):
            h, st = pq.hilbert, pq.states
            s = st.simple_statistical(phi, psi, sigma)
            s0, s1 = st.split_zero_trace(s)
            sovm = st.sovm_from_symmetric_decomposition(s)
            dstate = st.make_statistical(den.state)
            pvm = st.make_sovm(den.effects)
            return (
                h.is_norm_orthogonal(fam),
                h.is_norm_orthogonal(dep),
                h.is_orthonormal_system(onb),
                s, st.is_density(s), s0, s1,
                st.zero_trace_perturb(s, t),
                st.pair(sovm, s),
                st.is_density(dstate), pvm.is_contractive(),
                st.pair(pvm, dstate),
            )

        def check(r, den=den, ti=ti, tj=tj, tx=tx):
            fam_ok, dep_ok, onb_ok, s, s_dense, s0, s1, s2, dist, d_dense, contractive, dist2 = r
            one = Fraction(1)
            entry, before = s2.op.rows[ti - 1][tj - 1], s.op.rows[ti - 1][tj - 1]
            return (
                (fam_ok, dep_ok, onb_ok, s_dense, d_dense, contractive) == (True, False, True, True, True, True)
                and isinstance(s, pq.states.StatisticalOperator)
                and _split_ok(s, s0, s1)
                and _consistent([entry.sc, before.sc, tx.sc], [1, -1, -1], Fraction(0))
                and _consistent([entry.ac, before.ac, tx.ac], [1, -1, -1], Fraction(0))
                and _consistent(list(dist.weights), [1] * len(dist.weights), one)
                and dist2.is_in_simplex()
                and all(ox.agrees(w, q, float("inf")) for w, q in zip(dist2.weights, den.weights))
            )

        reqs.append(Request("chain", f"chain/d{d}/p{E.p}", call, check, d))
    return reqs


# -- cli-batch -----------------------------------------------------------------------

CLI_DIMS = tuple(range(2, 9))
CLI_KINDS = (
    "classify-block", "classify-hermitian", "classify-generator", "trace-block",
    "trace-generator", "decompose", "decompose-symmetric", "unitary-check",
    "unitary-check-inflated", "pair", "field", "sqrt", "counterexample",
)


def _run_cli(pq, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pq.cli.main(argv)
    return code, out.getvalue()


def _dump(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def _generator(pq, g: Gen, E, w: int) -> tuple[dict, ox.Exact]:
    """A generator window within the affine bound |A_mn| <= p**(-(m+n)/2),
    not self-adjoint since |A_12| != |A_21|; returns it with its exact
    window trace."""
    rows = [
        [g.entry(E, (m + n + 1) // 2 + g.rng.randrange(2)) for n in range(1, w + 1)]
        for m in range(1, w + 1)
    ]
    rows[0][1], rows[1][0] = g.entry(E, 2), g.entry(E, 3)
    j = pq.jsonio
    payload = {
        "kind": "generator",
        "context": j.context_to_dict(E),
        "window": w,
        "entries": [[j.quadext_to_dict(z) for z in row] for row in rows],
        "decay": {"base": 0, "row_coeff": "1/2", "col_coeff": "1/2", "support": "all"},
    }
    diag = [ox.qvalue(rows[m][m]) for m in range(w)]
    return payload, (sum((z[0] for z in diag), Fraction(0)), sum((z[1] for z in diag), Fraction(0)))


def _flags(report: dict) -> dict:
    return {k: (v["holds"], v["verdict"]) for k, v in report.items()}


def _block_flags(self_adjoint: bool) -> dict:
    flags = {
        k: (True, "proven")
        for k in ("bounded", "adjointable", "compact", "trace_class", "traceable_wrt_standard_basis")
    }
    flags["self_adjoint"] = (True, "proven") if self_adjoint else (False, "refuted")
    return flags


_GENERATOR_FLAGS = {
    **{
        k: (True, "certified_by_decay")
        for k in ("bounded", "adjointable", "compact", "trace_class", "traceable_wrt_standard_basis")
    },
    "self_adjoint": (False, "refuted"),
}


def _trace_ok(p: int, report: dict, q: ox.Exact) -> bool:
    t = report["trace"]
    return ox.digits_agree(p, t["sc"], q[0]) and ox.digits_agree(p, t["ac"], q[1])


def cli_batch(pq, seed: int, workdir: str, shrink: int = 1) -> list[Request]:
    g = Gen(pq, seed)
    reqs: list[Request] = []
    for ci in range(len(CONTEXTS)):
        _cli_context(pq, g, ci, workdir, shrink, reqs)
    return reqs


def _cli_context(pq, g: Gen, ci: int, workdir: str, shrink: int, reqs: list[Request]) -> None:
    """Append one request of every CLI kind over context ``ci``."""
    j = pq.jsonio
    p, mu, prec = CONTEXTS[ci]
    E = g.contexts[ci]
    pos = len(reqs)
    ctx_args = ["--p", str(p), "--mu", str(mu), "--precision", str(prec)]
    for kind in CLI_KINDS:
        d = _shrunk(CLI_DIMS[pos % len(CLI_DIMS)], shrink)
        path = os.path.join(workdir, f"in{pos}.json")
        pos += 1
        size = d
        if kind in ("classify-block", "classify-hermitian", "trace-block", "decompose", "decompose-symmetric"):
            herm = kind in ("classify-hermitian", "decompose-symmetric")
            op = g.hermitian(E, d) if herm else g.block(E, d)
            _dump(path, j.operator_to_dict(op))
            if kind.startswith("classify"):
                argv = ["classify", path]

                def ok(r, herm=herm):
                    return _flags(r["classification"]) == _block_flags(herm) and r["norm"]["exp2"] == 0
            elif kind == "trace-block":
                argv = ["trace", path]
                q = (sum((ox.value(op.rows[m][m].sc) for m in range(d)), Fraction(0)),
                     sum((ox.value(op.rows[m][m].ac) for m in range(d)), Fraction(0)))
                ok = lambda r, q=q: _trace_ok(p, r, q) and "tail_bound" not in r
            else:
                argv = ["decompose", path] + (["--symmetric"] if herm else [])

                def ok(r, herm=herm, d=d):
                    return (
                        len(r["canonical"]) == d
                        and r["max_weight"]["exp2"] == 0
                        and (len(r["symmetric"]) == d if herm else "symmetric" not in r)
                    )
        elif kind in ("classify-generator", "trace-generator"):
            w = max(d, 3)
            size = w
            payload, q = _generator(pq, g, E, w)
            _dump(path, payload)
            if kind == "classify-generator":
                argv = ["classify", path]
                ok = lambda r: _flags(r["classification"]) == _GENERATOR_FLAGS and "norm" not in r
            else:
                argv = ["trace", path]
                ok = lambda r, q=q, w=w: _trace_ok(p, r, q) and r["tail_bound"]["exp2"] == -2 * (w + 1)
        elif kind.startswith("unitary-check"):
            u = g.unitary(E, d)
            inflated = kind.endswith("inflated")
            _dump(path, j.operator_to_dict(g.inflated(E, u) if inflated else u))
            argv = ["unitary-check", path]
            want = (False, False, 2) if inflated else (True, True, 0)
            ok = lambda r, want=want: (r["unitary"], r["ip_preserving"], r["norm"]["exp2"]) == want
        elif kind == "pair":
            den = g.density(E, d)
            sovm = pq.states.make_sovm(den.effects)
            state_path = os.path.join(workdir, f"in{pos - 1}-state.json")
            _dump(path, j.sovm_to_dict(sovm))
            _dump(state_path, j.operator_to_dict(den.state))
            argv = ["pair", path, state_path]

            def ok(r, ws=den.weights):
                dist = r["distribution"]
                return (
                    r["contractive"] and r["density"] and dist["in_simplex"]
                    and len(dist["weights"]) == len(ws)
                    and all(ox.digits_agree(p, x, q) for x, q in zip(dist["weights"], ws))
                )
        elif kind == "field":
            argv = ["field"] + ctx_args
            facts = FIELD_FACTS[(p, mu)]
            ok = lambda r, facts=facts: (
                (r["square_class"], r["ramified"], r["isotropy_index"]) == facts
                and r["extension_count"] == (7 if p == 2 else 3)
                and r["isotropic_witness"] is not None
            )
        elif kind == "sqrt":
            root = Fraction(g.coprime(p) * (1 + 2 * p * g.rng.randrange(500)), g.coprime(p))
            argv = ["sqrt", "--p", str(p), "--precision", str(prec), str(root * root)]

            def ok(r, root=root):
                got = (r["root"], r["companion"])
                return any(
                    ox.digits_agree(p, got[0], a) and ox.digits_agree(p, got[1], b)
                    for a, b in ((root, -root), (-root, root))
                )
        else:  # counterexample: odd p only; p = 2 is a validation failure
            k = 1 + pos % 2
            argv = ["counterexample"] + ctx_args + ["--K", str(k)]
            if p == 2:
                reqs.append(Request(kind, f"{kind}/p{p}", _cli_call(pq, argv), lambda r: r == (2, ""), 4))
                continue
            ok = lambda r, k=k: (
                r["ip_preserving"] and not r["unitary"] and r["norm"]["exp2"] == 2 * k
                and sum(x * x for x in r["solution"]) == p ** (2 * k)
            )
        reqs.append(Request(kind, f"{kind}/d{size}/p{p}", _cli_call(pq, argv), _cli_check(ok), size))


def _cli_call(pq, argv: list[str]) -> Callable[[], tuple[int, str]]:
    return lambda: _run_cli(pq, argv)


def _cli_check(ok: Callable[[dict], bool]) -> Callable[[tuple[int, str]], bool]:
    def check(result: tuple[int, str]) -> bool:
        code, text = result
        return code == 0 and ok(json.loads(text))

    return check
