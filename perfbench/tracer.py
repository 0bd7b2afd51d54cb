"""Per-layer tracing of padicqm from outside the package.

The tracer replaces library callables where callers look them up: on the
class for methods, and on every padicqm module (and the package itself)
whose namespace holds the function, since ``operators``, ``hilbert`` and
``states`` bind ``quad_sum``, ``trace``, ``inner_product`` and
``padic_sum`` with ``from ... import``.  Nothing under ``src/`` changes.

Every wrapped call pushes a frame so that each layer's self time is its
wall time minus the time of wrapped calls it made.  The scalar layers
(``padic``, ``quadext``, vector plumbing in ``hilbert`` and element codecs
in ``jsonio``) keep only counters and aggregate self time, because one
d = 24 product makes about 10**5 scalar calls.  The ``operators``,
``states``, ``hilbert``, ``jsonio`` and ``cli`` entry points also record
parent-linked spans, kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# Products whose only use is a trace: a fused trace-of-product would skip
# their off-diagonal work.
TRACE_ONLY_PARENTS = frozenset({"operators.hs_inner", "operators.verify_cyclic", "states.pair"})

CLI_COMMANDS = (
    "classify", "trace", "decompose", "unitary-check", "pair", "field", "sqrt", "counterexample",
)

# Scalar-level methods: counters and self time only, no spans.
_COUNTED_METHODS = {
    ("padic", "PadicNumber"): (
        "__add__", "__mul__", "__neg__", "__sub__", "__truediv__", "inv", "__eq__", "digits", "abs_p",
    ),
    ("padic", "PadicContext"): ("zero", "one", "from_int", "from_fraction", "from_digits"),
    ("quadext", "QuadExtElement"): (
        "__add__", "__mul__", "__neg__", "__sub__", "__truediv__", "inv", "conj", "__eq__",
        "norm_form", "ext_abs", "scale_base",
    ),
    ("quadext", "ExtensionContext"): ("element", "from_base", "from_ints", "zero", "one", "sqrt_mu"),
    ("hilbert", "PVector"): (
        "__init__", "entry", "items", "support", "__add__", "__neg__", "__sub__", "scale", "__eq__",
    ),
    ("operators", "BlockOperator"): ("__init__",),
    ("operators", "GeneratorOperator"): ("entry",),
}

# Operator- and state-level methods: spans.
_SPANNED_METHODS = {
    ("operators", "BlockOperator"): (
        "__mul__", "__add__", "__sub__", "__neg__", "scale", "adjoint", "__eq__",
    ),
    ("operators", "CanonicalDecomposition"): ("reconstruct", "max_weight"),
    ("operators", "SymmetricDecomposition"): ("reconstruct", "trace_by_formula"),
    ("hilbert", "BasisRotation"): ("apply", "apply_inverse"),
    ("states", "Sovm"): ("is_contractive", "norm_bound"),
    ("states", "PadicDistribution"): ("is_in_simplex", "sup_norm"),
}

# Module-level functions: counted in the scalar layers, spanned elsewhere.
_COUNTED_FUNCTIONS = {
    "padic": ("padic_sum", "sqrt", "is_square", "square_class", "find_eta"),
    "quadext": ("quad_sum",),
    "jsonio": (
        "padic_to_dict", "padic_from_dict", "quadext_to_dict", "quadext_from_dict",
        "magnitude_to_dict",
    ),
}
_SPANNED_PRIVATE = {"cli": ("_load", "_emit", "_classify_one")}
SPAN_LAYERS = ("hilbert", "operators", "states", "jsonio", "cli")

# Short keys the metrics refer to.
_KEY_ALIASES = {
    "padic.__add__": "padic.add",
    "padic.__mul__": "padic.mul",
    "padic.padic_sum": "padic.sum",
    "quadext.__add__": "quadext.add",
    "quadext.__mul__": "quadext.mul",
    "quadext.quad_sum": "quadext.sum",
    "operators.__mul__": "operators.block_mul",
}


def _key(layer: str, name: str) -> str:
    full = f"{layer}.{name}"
    return _KEY_ALIASES.get(full, full)


def _fingerprint(op) -> tuple:
    def num(x):
        return (x.valuation, x.unit, x.prec)

    return (op.dim,) + tuple((num(z.sc), num(z.ac)) for row in op.rows for z in row)


class Tracer:
    """Counters, self times and spans for one traced stretch of requests."""

    def __init__(self, pq) -> None:
        self.pq = pq
        self._patches: list[tuple[object, str, object, object]] = []
        # key -> [calls, self seconds, inclusive seconds], updated in place
        # by the wrappers and zeroed in place by reset().
        self._stats: dict[str, list] = {}
        self._layer_of: dict[str, str] = {}
        self.reset(keep_spans=False)
        self._build()

    # -- state ----------------------------------------------------------------

    def reset(self, keep_spans: bool) -> None:
        for stat in self._stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.extra: Counter = Counter()
        self.top_s: defaultdict = defaultdict(float)  # outermost jsonio parse/emit
        self.jsonio_depth = 0
        self.cli_main: defaultdict = defaultdict(list)
        self.stack: list[list] = []
        self.span_stack: list[tuple[int, str]] = []
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []
        self.requests: dict[int, str] = {}
        self.request_id = 0
        self.next_span = 1
        self._products: set = set()

    def begin_request(self, label: str) -> None:
        self.request_id += 1
        self.requests[self.request_id] = label
        self._products = set()

    # -- installation ---------------------------------------------------------

    def enable(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def disable(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _build(self) -> None:
        """Make a wrapper for every traced callable and note each place
        that refers to it."""
        pq = self.pq
        modules = {name: getattr(pq, name) for name in ("padic", "quadext", "hilbert", "operators", "states", "jsonio", "cli")}
        hooks = self._hooks()
        originals: dict[object, object] = {}

        def wrap(fn, layer: str, name: str, span: bool):
            key = _key(layer, name)
            return self._wrap(fn, key, layer, span, hooks.get(key))

        def add_function(layer: str, name: str, span: bool) -> None:
            fn = getattr(modules[layer], name)
            originals[fn] = wrap(fn, layer, name, span)

        for layer, names in _COUNTED_FUNCTIONS.items():
            for name in names:
                add_function(layer, name, span=False)
        for layer in SPAN_LAYERS:
            mod = modules[layer]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and fn not in originals
                ):
                    add_function(layer, name, span=True)
            for name in _SPANNED_PRIVATE.get(layer, ()):
                add_function(layer, name, span=True)
        # Rebind every name that refers to a wrapped function, wherever it is.
        for mod in [pq, *modules.values()]:
            for name, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    self._patches.append((mod, name, val, originals[val]))
        for table, span in ((_COUNTED_METHODS, False), (_SPANNED_METHODS, True)):
            for (layer, cls_name), names in table.items():
                cls = getattr(modules[layer], cls_name)
                for name in names:
                    fn = vars(cls)[name]
                    self._patches.append((cls, name, fn, wrap(fn, layer, name, span)))

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str, span: bool, hook):
        tracer = self
        padic_error = self.pq.errors.PadicError
        stat = self._stats.setdefault(key, [0, 0.0, 0.0])
        self._layer_of[key] = layer
        is_jsonio = layer == "jsonio"
        parse_or_emit = (
            "parse" if key.endswith("_from_dict") else "emit" if key.endswith("_to_dict") else None
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            stack = tracer.stack
            frame = [0.0]
            if span:
                sid = tracer.next_span
                tracer.next_span += 1
                parent = tracer.span_stack[-1][0] if tracer.span_stack else 0
                tracer.span_stack.append((sid, key))
            if is_jsonio:
                tracer.jsonio_depth += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except padic_error as exc:
                if layer == "padic" and not getattr(exc, "_traced", False):
                    exc._traced = True
                    tracer.extra["padic.errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if is_jsonio:
                    tracer.jsonio_depth -= 1
                    if parse_or_emit and tracer.jsonio_depth == 0:
                        tracer.top_s[parse_or_emit] += dur
                if span:
                    tracer.span_stack.pop()
                    if tracer.keep_spans:
                        tracer.spans.append((sid, parent, tracer.request_id, key, t0, t1))
                if key == "cli.main":
                    tracer.cli_main[args[0][0]].append(dur)

        return wrapper

    def _hooks(self) -> dict:
        def sum_terms(args):
            self.extra["padic.sum.terms"] += len(args[1])

        def block_mul(args):
            a, b = args
            d = max(a.dim, b.dim)
            mac = d**3
            self.extra["block_mul.mac"] += mac
            if any(k in TRACE_ONLY_PARENTS for _, k in self.span_stack):
                self.extra["block_mul.trace_only_mac"] += mac
            pair = (_fingerprint(a), _fingerprint(b))
            if pair in self._products:
                self.extra["block_mul.repeats"] += 1
            self._products.add(pair)

        return {"padic.sum": sum_terms, "operators.block_mul": block_mul}

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        x = self.extra
        c = Counter({k: st[0] for k, st in self._stats.items()})
        ks = defaultdict(float, {k: st[1] for k, st in self._stats.items()})
        inc = defaultdict(float, {k: st[2] for k, st in self._stats.items()})
        layer_self = defaultdict(float)
        for k, st in self._stats.items():
            layer_self[self._layer_of[k]] += st[1]
        ms = 1e3

        def count(v):
            return (v, "count")

        def msec(v):
            return (v * ms, "ms")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        products = c["operators.block_mul"]
        mac = x["block_mul.mac"]
        handlers = sum(inc[f"cli.cmd_{name.replace('-', '_')}"] for name in CLI_COMMANDS)
        load, parse, emit_dicts = inc["cli._load"], self.top_s["parse"], self.top_s["emit"]
        parse_elements = c["jsonio.quadext_from_dict"]
        out = {
            "padic.mul.calls": count(c["padic.mul"]),
            "padic.add.calls": count(c["padic.add"]),
            "padic.sum.calls": count(c["padic.sum"]),
            "padic.sum.terms": count(x["padic.sum.terms"]),
            "padic.inv.calls": count(c["padic.inv"]),
            "padic.sqrt.calls": count(c["padic.sqrt"]),
            "padic.errors": count(x["padic.errors"]),
            "padic.self_ms": msec(layer_self["padic"]),
            "quadext.mul.calls": count(c["quadext.mul"]),
            "quadext.add.calls": count(c["quadext.add"]),
            "quadext.sum.calls": count(c["quadext.sum"]),
            "quadext.inv.calls": count(c["quadext.inv"]),
            "quadext.self_ms": msec(layer_self["quadext"]),
            "hilbert.inner_product.calls": count(c["hilbert.inner_product"]),
            "hilbert.norm_orthogonal.calls": count(c["hilbert.is_norm_orthogonal"]),
            "hilbert.isotropic.calls": count(c["hilbert.find_isotropic"]),
            "hilbert.self_ms": msec(layer_self["hilbert"]),
            "operators.block_mul.calls": count(products),
            "operators.block_mul.mac": count(mac),
            "operators.block_mul.us_per_mac": (inc["operators.block_mul"] * 1e6 / mac if mac else 0.0, "us"),
            "operators.block_mul.self_ms": msec(ks["operators.block_mul"]),
            "operators.block_mul.trace_only_frac": ratio(x["block_mul.trace_only_mac"], mac),
            "operators.block_mul.repeat_frac": ratio(x["block_mul.repeats"], products),
            "operators.classify.calls": count(c["operators.classify"]),
            "operators.classify.self_ms": msec(ks["operators.classify"]),
            "operators.decompose.self_ms": msec(
                sum(
                    ks[k]
                    for k in (
                        "operators.canonical_decomposition",
                        "operators.symmetric_decomposition",
                        "operators.factor_trace_class",
                        "operators.reconstruct",
                    )
                )
            ),
            "operators.unitary.self_ms": msec(ks["operators.is_unitary"] + ks["operators.is_ip_preserving"]),
            "operators.trace.calls": count(c["operators.trace"]),
            "states.pair.calls": count(c["states.pair"]),
            "states.pair.self_ms": msec(ks["states.pair"]),
            "states.make_sovm.self_ms": msec(ks["states.make_sovm"]),
            "states.make_statistical.calls": count(c["states.make_statistical"]),
            "states.self_ms": msec(layer_self["states"]),
            "jsonio.parse.elements": count(parse_elements),
            "jsonio.parse.self_ms": msec(sum(v for k, v in ks.items() if k.startswith("jsonio.") and k.endswith("_from_dict"))),
            "jsonio.parse.us_per_element": (parse * 1e6 / parse_elements if parse_elements else 0.0, "us"),
            "jsonio.emit.elements": count(c["jsonio.quadext_to_dict"]),
            "jsonio.emit.self_ms": msec(sum(v for k, v in ks.items() if k.startswith("jsonio.") and k.endswith("_to_dict"))),
            "cli.load_ms": msec(load),
            "cli.parse_ms": msec(parse),
            "cli.compute_ms": msec(max(handlers - load - parse - emit_dicts, 0.0)),
            "cli.emit_ms": msec(emit_dicts + inc["cli._emit"]),
            "cli.argparse_ms": msec(max(inc["cli.main"] - handlers - inc["cli._emit"], 0.0)),
        }
        for name in CLI_COMMANDS:
            runs = self.cli_main.get(name)
            out[f"cli.{name}.p50_ms"] = msec(statistics.median(runs) if runs else 0.0)
        return out
