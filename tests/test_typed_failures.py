"""Every failure of the library API, its JSON parser and its CLI is typed.

A hypothesis property calls the public constructors and operations of
``hilbert``, ``operators`` and ``states`` with arguments drawn from the
kinds each parameter admits, including empty families, families that mix
kinds (block and generator operators, states, vectors) and values from
different contexts.  Whatever a call raises must be a ``PadicError``.

Two more properties feed the JSON wire outside input: JSON-shaped junk,
and valid payloads with one field replaced by junk.  Every public
``jsonio.*_from_dict`` must raise only ``PadicError``s, and a
``ParseError`` for any failure before ``make_sovm`` or
``make_statistical`` runs.  Every CLI subcommand, run on such files (and
``sqrt`` on values that are not rationals), must exit 0, 2 or 3 without
raising, and print nothing on stdout when it fails.  Declared
precisions reach past ``padic.MAX_PRECISION``, which a context refuses.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from padicqm import (
    BasisRotation,
    BlockOperator,
    GeneratorOperator,
    PVector,
    StatisticalOperator,
    adjoint,
    affine_certificate,
    affine_combine,
    apply,
    basis_vector,
    build_norm_inflating_ip_preserver,
    canonical_decomposition,
    classify,
    diagonal,
    factor_trace_class,
    find_isotropic,
    find_norm_two_element,
    from_rotation,
    hs_inner,
    identity,
    inner_product,
    is_affine_combination,
    is_convex_combination,
    is_density,
    is_ip_preserving,
    is_norm_orthogonal,
    is_orthonormal_system,
    is_unitary,
    isotropy_index,
    make_sovm,
    make_statistical,
    make_zero_trace,
    operator_norm,
    pair,
    product_distribution,
    rank_one,
    rotation_on_pairs,
    simple_statistical,
    sovm_from_symmetric_decomposition,
    split_zero_trace,
    sqrt_minus_one,
    sup_norm,
    symmetric_decomposition,
    trace,
    trace_tail_bound,
    validate_distribution,
    verify_cyclic,
    zero_operator,
    zero_trace_perturb,
)
from padicqm import cli, jsonio
from padicqm.errors import PadicError, ParseError
from padicqm.padic import MAX_PRECISION

E = helpers.ext_ctx(3, 5, 8)
F = helpers.ext_ctx(5, 2, 8)
G = helpers.ext_ctx(2, 3, 8)
C, D = E.base, F.base


def _non_hermitian(ctx):
    o, z = ctx.one(), ctx.zero()
    return BlockOperator(ctx, [[o, o], [z, o]])


def _generator(ctx, dim):
    return GeneratorOperator(identity(ctx, dim), affine_certificate(-4, 1, 1))


def _state(ctx, dim):
    return make_statistical(diagonal(ctx, [ctx.one()] + [ctx.zero()] * (dim - 1)))


def _sovm(ctx, dim):
    return sovm_from_symmetric_decomposition(_state(ctx, dim))


KINDS = {
    "ext": [E, F, G],
    "base": [C, D],
    "int": [-1, 0, 1, 2, 5],
    "number": [
        C.zero(), C.one(), C.from_int(3), C.from_fraction(Fraction(1, 3)), D.one(), D.zero()
    ],
    "element": [E.zero(), E.one(), E.sqrt_mu(), F.one(), F.zero(), G.one()],
    "vector": [
        PVector(E, {}),
        basis_vector(E, 1),
        basis_vector(E, 2),
        PVector(E, {1: E.one(), 2: E.sqrt_mu()}),
        basis_vector(F, 1),
        basis_vector(G, 2),
    ],
    "operator": [
        BlockOperator(E, []),
        identity(E, 1),
        identity(E, 2),
        _non_hermitian(E),
        zero_operator(E, 2),
        identity(F, 2),
        _generator(E, 2),
        GeneratorOperator(identity(E, 1), affine_certificate(0, 0, 0)),
        _generator(F, 1),
    ],
    "state": [_state(E, 1), _state(E, 2), _state(F, 1), StatisticalOperator(_non_hermitian(E))],
    "sovm": [_sovm(E, 1), _sovm(E, 2), _sovm(F, 1)],
    "distribution": [validate_distribution(C, [C.one()]), validate_distribution(D, [D.one()])],
    "certificate": [
        affine_certificate(0, 1, 1),
        affine_certificate(0, 0, 0),
        affine_certificate(1, 1, 0, diagonal_only=True),
    ],
}


def _kind(name):
    """Values of one kind; a plural name is a list of them, possibly empty,
    possibly of mixed contexts; "points" mixes states, blocks and vectors."""
    ints, elements = st.sampled_from(KINDS["int"]), st.sampled_from(KINDS["element"])
    if name == "points":
        return st.lists(
            st.sampled_from(KINDS["state"] + KINDS["operator"] + KINDS["vector"]), max_size=3
        )
    if name == "rows":
        return st.lists(st.lists(elements, max_size=3), max_size=3)
    if name == "entries":
        return st.dictionaries(ints, elements, max_size=3)
    if name == "index_pairs":
        return st.lists(st.tuples(ints, ints), max_size=3)
    if name == "rotation_pairs":
        return st.lists(st.tuples(ints, ints, elements), max_size=2)
    if name.endswith("s") and name[:-1] in KINDS:
        return st.lists(st.sampled_from(KINDS[name[:-1]]), max_size=3)
    return st.sampled_from(KINDS[name])


CALLS = {
    # hilbert
    "PVector": (PVector, "ext", "entries"),
    "basis_vector": (basis_vector, "ext", "int"),
    "inner_product": (inner_product, "vector", "vector"),
    "sup_norm": (sup_norm, "vector"),
    "vector_add": (lambda u, v: u + v, "vector", "vector"),
    "vector_sub": (lambda u, v: u - v, "vector", "vector"),
    "vector_scale": (lambda v, z: v.scale(z), "vector", "element"),
    "is_norm_orthogonal": (is_norm_orthogonal, "vectors"),
    "is_orthonormal_system": (is_orthonormal_system, "vectors"),
    "BasisRotation": (lambda ctx, pairs: BasisRotation(ctx, tuple(pairs)), "ext", "rotation_pairs"),
    "rotation_on_pairs": (rotation_on_pairs, "ext", "index_pairs"),
    "rotate": (lambda pairs, v: rotation_on_pairs(E, pairs).apply(v), "index_pairs", "vector"),
    "find_norm_two_element": (find_norm_two_element, "ext"),
    "find_isotropic": (find_isotropic, "ext", "int"),
    "isotropy_index": (isotropy_index, "ext"),
    "sqrt_minus_one": (sqrt_minus_one, "ext"),
    # operators
    "BlockOperator": (BlockOperator, "ext", "rows"),
    "GeneratorOperator": (GeneratorOperator, "operator", "certificate"),
    "identity": (identity, "ext", "int"),
    "diagonal": (diagonal, "ext", "elements"),
    "rank_one": (rank_one, "vector", "vector"),
    "rank_one_dim": (rank_one, "vector", "vector", "int"),
    "from_rotation": (
        lambda pairs, d: from_rotation(rotation_on_pairs(E, pairs), d), "index_pairs", "int"
    ),
    "build_norm_inflating_ip_preserver": (build_norm_inflating_ip_preserver, "ext", "int"),
    "entry": (lambda a, m, n: a.entry(m, n), "operator", "int", "int"),
    "mul": (lambda a, b: a * b, "operator", "operator"),
    "add": (lambda a, b: a + b, "operator", "operator"),
    "sub": (lambda a, b: a - b, "operator", "operator"),
    "neg": (lambda a: -a, "operator"),
    "scale": (lambda a, z: a.scale(z), "operator", "element"),
    "apply": (apply, "operator", "vector"),
    "adjoint": (adjoint, "operator"),
    "trace": (trace, "operator"),
    "trace_tail_bound": (trace_tail_bound, "operator"),
    "operator_norm": (operator_norm, "operator"),
    "classify": (classify, "operator"),
    "hs_inner": (hs_inner, "operator", "operator"),
    "verify_cyclic": (verify_cyclic, "operator", "operator"),
    "is_unitary": (is_unitary, "operator"),
    "is_ip_preserving": (is_ip_preserving, "operator"),
    "canonical_decomposition": (lambda a: canonical_decomposition(a).reconstruct(), "operator"),
    "symmetric_decomposition": (lambda a: symmetric_decomposition(a).reconstruct(), "operator"),
    "factor_trace_class": (factor_trace_class, "operator"),
    # states
    "validate_distribution": (validate_distribution, "base", "numbers"),
    "product_distribution": (product_distribution, "distribution", "distribution"),
    "is_affine_combination": (is_affine_combination, "numbers"),
    "is_convex_combination": (is_convex_combination, "numbers"),
    "affine_combine": (affine_combine, "points", "numbers"),
    "make_statistical": (make_statistical, "operator"),
    "make_zero_trace": (make_zero_trace, "operator"),
    "is_density": (is_density, "state"),
    "simple_statistical": (simple_statistical, "vector", "vector", "element"),
    "zero_trace_perturb": (zero_trace_perturb, "state", "operator"),
    "split_zero_trace": (split_zero_trace, "state"),
    "make_sovm": (make_sovm, "operators"),
    "sovm_from_symmetric_decomposition": (sovm_from_symmetric_decomposition, "state"),
    "pair": (pair, "sovm", "state"),
}


@st.composite
def _calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    fn, *kinds = CALLS[name]
    return name, fn, [draw(_kind(k)) for k in kinds]


@settings(max_examples=400, deadline=None)
@given(_calls())
def test_every_failure_is_a_padic_error(call):
    name, fn, args = call
    try:
        fn(*args)
    except PadicError:
        pass


# -- the JSON wire ------------------------------------------------------------

_WIRE_KEYS = (
    "p", "precision", "valuation", "digits", "mu", "sc", "ac", "context", "kind", "dim",
    "window", "entries", "decay", "base", "row_coeff", "col_coeff", "support", "effects",
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-40, 40)
    | st.floats(-100, 100)
    | st.text(max_size=3)
    | st.sampled_from(["block_finite", "generator", "all", "diagonal", "1/2", "-3", "1/0"])
)
JUNK = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WIRE_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


def _wire(x):
    return json.loads(json.dumps(x))


VALID = {
    "padic": [_wire(jsonio.padic_to_dict(x)) for x in KINDS["number"][:4]],
    "element": [_wire(jsonio.quadext_to_dict(z)) for z in (E.one(), E.sqrt_mu(), E.zero())],
    "context": [_wire(jsonio.context_to_dict(ctx)) for ctx in (E, G)],
    "vector": [_wire(jsonio.vector_to_dict(v)) for v in KINDS["vector"][:4]],
    "operator": [
        _wire(jsonio.operator_to_dict(a))
        for a in (identity(E, 2), _non_hermitian(E), _generator(E, 2), _state(E, 2).op)
    ],
    "sovm": [_wire(jsonio.sovm_to_dict(s)) for s in KINDS["sovm"][:2]],
}

# every public parser, with the payloads it reads when they are valid
PARSERS = {
    "padic_from_dict": (jsonio.padic_from_dict, "padic"),
    "padic_from_dict_in_context": (lambda d: jsonio.padic_from_dict(d, C), "padic"),
    "quadext_from_dict": (lambda d: jsonio.quadext_from_dict(d, E), "element"),
    "context_from_dict": (jsonio.context_from_dict, "context"),
    "vector_from_dict": (lambda d: jsonio.vector_from_dict(d, E), "vector"),
    "operator_from_dict": (jsonio.operator_from_dict, "operator"),
    "sovm_from_dict": (jsonio.sovm_from_dict, "sovm"),
    "statistical_from_dict": (jsonio.statistical_from_dict, "operator"),
}


def test_every_public_parser_is_fed_junk():
    public = {n for n in vars(jsonio) if n.endswith("_from_dict") and not n.startswith("_")}
    assert public == {n for n in PARSERS if not n.endswith("_in_context")}


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


@st.composite
def _payloads(draw, kind):
    """JSON-shaped junk, or a valid payload with one field replaced by junk."""
    junk = draw(JUNK)
    if draw(st.booleans()):
        return junk
    payload = copy.deepcopy(draw(st.sampled_from(VALID[kind])))
    path = draw(st.sampled_from(list(_paths(payload))))
    if not path:
        return junk
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = junk
    return payload


@st.composite
def _parse_calls(draw):
    name = draw(st.sampled_from(sorted(PARSERS)))
    parse, kind = PARSERS[name]
    return name, parse, draw(_payloads(kind))


@contextlib.contextmanager
def _validation_watched():
    """Patch jsonio's post-parse validators to note that they ran."""
    ran = []

    def watch(fn):
        def watched(*args):
            ran.append(fn.__name__)
            return fn(*args)

        return watched

    with mock.patch.object(jsonio, "make_sovm", watch(make_sovm)), mock.patch.object(
        jsonio, "make_statistical", watch(make_statistical)
    ):
        yield ran


@settings(max_examples=400, deadline=None)
@given(_parse_calls())
def test_every_parse_failure_is_typed(call):
    name, parse, payload = call
    with _validation_watched() as validated:
        try:
            parse(payload)
        except PadicError as exc:
            assert validated or isinstance(exc, ParseError), (name, exc)


_VALUES = st.sampled_from(["abc", "1/0", "0", "1/3", "-7", "2.5", "1e3", "nan", "", "1/"])
_SMALL = st.integers(-2, 12).map(str)
# a precision: small, or past the limit a context refuses
_PRECISION = (st.integers(-2, 12) | st.integers(MAX_PRECISION + 1, 10**9)).map(str)
_FILE_COMMANDS = {
    "classify": ["operator"],
    "trace": ["operator"],
    "decompose": ["operator"],
    "decompose --symmetric": ["operator"],
    "unitary-check": ["operator"],
    "pair": ["sovm", "operator"],
}


@st.composite
def _cli_calls(draw):
    """An argv and the files it reads, as (name, text) pairs."""
    command = draw(st.sampled_from([*_FILE_COMMANDS, "sqrt", "field", "counterexample"]))
    if command == "sqrt":
        value = draw(_VALUES | st.text(max_size=6))
        return ["sqrt", "--p", draw(_SMALL), "--precision", draw(_PRECISION), "--", value], []
    if command in ("field", "counterexample"):
        argv = [command, "--p", draw(_SMALL), "--mu", draw(_SMALL), "--precision", draw(_PRECISION)]
        return argv + (["--K", str(draw(st.integers(-1, 3)))] if command == "counterexample" else []), []
    files = [(f"in{i}.json", json.dumps(draw(_payloads(kind)))) for i, kind in enumerate(_FILE_COMMANDS[command])]
    return command.split() + [name for name, _ in files], files


@settings(max_examples=200, deadline=None)
@given(_cli_calls())
def test_every_cli_failure_exits_typed(call):
    argv, files = call
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name, _ in files}
        for name, text in files:
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = [paths.get(a, a) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    assert code in (0, 2, 3)
    assert code == 0 or out.getvalue() == ""
