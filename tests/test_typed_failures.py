"""Every failure of the library API is typed.

A hypothesis property calls the public constructors and operations of
``hilbert``, ``operators`` and ``states`` with arguments drawn from the
kinds each parameter admits, including empty families, families that mix
kinds (block and generator operators, states, vectors) and values from
different contexts.  Whatever a call raises must be a ``PadicError``.
The JSON parser is out of scope: ``tests/test_jsonio.py`` covers it.
"""

from fractions import Fraction

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
from padicqm.errors import PadicError

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
