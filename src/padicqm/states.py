"""p-adic probability distributions, statistical operators and SOVMs.

Weights of a distribution are exact p-adic numbers summing to 1; the
probability simplex is the subfamily with all weights of magnitude at
most 1.  States enter through self-adjoint trace-class operators of unit
trace, paired with selfadjoint-operator-valued measures via the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import (
    ContextMismatch,
    DegenerateNormalizer,
    DimensionMismatch,
    NotSelfAdjoint,
    PrecisionExhausted,
    SumNotIdentity,
    SumNotOne,
    TraceNotOne,
    TraceNotZero,
    ValidationError,
    ZeroInput,
)
from .hilbert import PVector, inner_product
from .operators import (
    BlockOperator,
    Magnitude,
    _hermitian,
    _rank_one_sum,
    _symmetry_witness,
    _trace_of_product,
    identity,
    operator_norm,
    symmetric_decomposition,
    trace,
)
from .padic import PadicContext, PadicNumber, padic_sum
from .quadext import QuadExtElement, _abs_range, _known_at_one


@dataclass(frozen=True)
class PadicDistribution:
    """Finite family of Q_p weights summing exactly to 1."""

    context: PadicContext
    weights: tuple[PadicNumber, ...]

    def __post_init__(self) -> None:
        for w in self.weights:
            if w.context != self.context:
                raise ContextMismatch("weight from a different context")
        total = padic_sum(self.context, list(self.weights))
        if total != self.context.one():
            raise SumNotOne("weights must sum to 1")
        _require_known([total], "the weight sum")

    def sup_norm(self) -> Fraction:
        return max((w.abs_p() for w in self.weights), default=Fraction(0))

    def is_in_simplex(self) -> bool:
        """All weights in Z_p, i.e. of magnitude at most 1."""
        return all(w.abs_p() <= 1 for w in self.weights)


def validate_distribution(context: PadicContext, weights: list[PadicNumber]) -> PadicDistribution:
    return PadicDistribution(context, tuple(weights))


def product_distribution(a: PadicDistribution, b: PadicDistribution) -> PadicDistribution:
    """The distribution {a_j * b_k} on the product index set."""
    return PadicDistribution(
        a.context, tuple(x * y for x in a.weights for y in b.weights)
    )


# -- convex and affine combinations -------------------------------------------


def _coefficient_sum(coefficients: list[PadicNumber]) -> PadicNumber:
    if not coefficients:
        raise ZeroInput("need at least one coefficient")
    return padic_sum(coefficients[0].context, coefficients)


def is_affine_combination(coefficients: list[PadicNumber]) -> bool:
    """Coefficients in Q_p summing to 1."""
    total = _coefficient_sum(coefficients)
    return total == total.context.one()


def is_convex_combination(coefficients: list[PadicNumber]) -> bool:
    """Affine with every coefficient in Z_p."""
    return is_affine_combination(coefficients) and all(
        c.abs_p() <= 1 for c in coefficients
    )


def affine_combine(points: list, coefficients: list[PadicNumber]):
    """Linear combination of vectors or operators with affine weights.

    Mixing statistical operators returns a statistical operator; the
    combination of block operators or vectors is returned as such.
    """
    if len(points) != len(coefficients):
        raise DimensionMismatch("points and coefficients must align")
    if not is_affine_combination(coefficients):
        raise SumNotOne("coefficients must sum to 1")
    kind = type(points[0])
    if kind not in (StatisticalOperator, BlockOperator, PVector):
        raise ValidationError("unsupported point type")
    if not all(type(x) is kind for x in points):
        raise ValidationError("points of different kinds")
    statistical = kind is StatisticalOperator
    xs = [s.op for s in points] if statistical else points
    ctx = xs[0].context
    acc = xs[0].scale(ctx.from_base(coefficients[0]))
    for x, c in zip(xs[1:], coefficients[1:]):
        acc = acc + x.scale(ctx.from_base(c))
    return make_statistical(acc) if statistical else acc


# -- statistical and density operators ----------------------------------------


@dataclass(frozen=True)
class StatisticalOperator:
    """Self-adjoint trace-class block with trace exactly 1."""

    op: BlockOperator

    def norm(self) -> Magnitude:
        return operator_norm(self.op)


@dataclass(frozen=True)
class ZeroTraceOperator:
    """Self-adjoint trace-class block with trace exactly 0."""

    op: BlockOperator

    def norm(self) -> Magnitude:
        return operator_norm(self.op)


def _require_self_adjoint(op: BlockOperator) -> None:
    # a generator is never self-adjoint: its certificate only bounds the tail
    if not isinstance(op, BlockOperator) or _symmetry_witness(op) is not None:
        raise NotSelfAdjoint("operator is not self-adjoint")


def make_statistical(op: BlockOperator) -> StatisticalOperator:
    _require_trace(op, op.context.one(), TraceNotOne("trace must be exactly 1"))
    return StatisticalOperator(op)


def make_zero_trace(op: BlockOperator) -> ZeroTraceOperator:
    _require_trace(op, op.context.zero(), TraceNotZero("trace must be exactly 0"))
    return ZeroTraceOperator(op)


def _require_trace(op: BlockOperator, value: QuadExtElement, error: Exception) -> None:
    """error unless op is self-adjoint with trace ``value``; PrecisionExhausted
    where a trace coordinate is O(p**N), N <= 0, whose p**0 digit is unknown."""
    _require_self_adjoint(op)
    tr = trace(op)
    if tr != value:
        raise error
    _require_known([tr.sc, tr.ac], "the trace")


def _require_known(numbers, what: str) -> None:
    """PrecisionExhausted where a number is O(p**N), N <= 0: its p**0 digit is unknown."""
    if any(x.absolute is not None and x.absolute <= 0 for x in numbers):
        raise PrecisionExhausted(f"{what} is not known at p^0; raise the precision")


def is_density(s: StatisticalOperator) -> bool:
    """Norm exactly 1, which is also the largest weight of
    ``canonical_decomposition``: each weight has its row's largest |z|."""
    return s.norm().is_one


def simple_statistical(
    phi: PVector, psi: PVector, sigma: QuadExtElement
) -> StatisticalOperator | ZeroTraceOperator:
    """Normalized sigma |phi><psi| + conj(sigma) |psi><phi|.

    With <phi, psi> != 0 the result has trace 1; orthogonal pairs give the
    zero-trace variant.  A vanishing normalizer is an error rather than a
    silent fallback.
    """
    if phi.is_zero or psi.is_zero:
        raise ZeroInput("vectors must be nonzero")
    if sigma.is_zero:
        raise ZeroInput("sigma must be nonzero")
    ctx = phi.context
    ip = inner_product(phi, psi)
    dim = max(phi.support() + psi.support())
    raw = _rank_one_sum(ctx, dim, _hermitian([(sigma, phi, psi)]))
    if ip.is_zero:
        normalizer = sigma + sigma.conj()
        if normalizer.is_zero:
            raise DegenerateNormalizer("sigma + conj(sigma) = 0 for an orthogonal pair")
        return make_zero_trace(raw.scale(normalizer.inv()))
    normalizer = sigma * inner_product(psi, phi) + sigma.conj() * ip
    if normalizer.is_zero:
        raise DegenerateNormalizer("trace normalizer vanishes")
    return make_statistical(raw.scale(normalizer.inv()))


def zero_trace_perturb(s: StatisticalOperator, t: BlockOperator) -> StatisticalOperator:
    """s + t for a self-adjoint zero-trace t; the result stays statistical."""
    return make_statistical(s.op + make_zero_trace(t).op)


def split_zero_trace(s: StatisticalOperator) -> tuple[ZeroTraceOperator, StatisticalOperator]:
    """Partition a symmetric decomposition by <e_j, f_j> = 0 versus != 0.

    Returns (S0, S1) with s = S0 + S1, trace(S0) = 0 and trace(S1) = 1.
    """
    ctx, dim = s.op.context, s.op.dim
    orthogonal, overlapping = [], []
    for term in symmetric_decomposition(s.op).terms:
        _, e, f = term
        (orthogonal if inner_product(e, f).is_zero else overlapping).append(term)
    s0, s1 = (_rank_one_sum(ctx, dim, _hermitian(part)) for part in (orthogonal, overlapping))
    return make_zero_trace(s0), make_statistical(s1)


# -- SOVMs and the trace pairing -----------------------------------------------


@dataclass(frozen=True)
class Sovm:
    """Finite family of self-adjoint blocks summing exactly to the identity."""

    effects: tuple[BlockOperator, ...]
    dim: int

    def norm_bound(self) -> Magnitude:
        return max(operator_norm(a) for a in self.effects)

    def is_contractive(self) -> bool:
        """Every effect of norm at most 1, decided from each norm's range
        (``quadext._abs_range``): an O(p**N) entry raises PrecisionExhausted
        only where no effect is known to exceed 1 and one may."""
        one = Magnitude.one(self.effects[0].context.p)
        ranges = [_abs_range(a.context, chain.from_iterable(a._grid)) for a in self.effects]
        if any(one < low for low, _ in ranges):
            return False
        if any(one < high for _, high in ranges):
            raise PrecisionExhausted("an O(p^N) entry leaves open whether an effect's norm exceeds 1; raise the precision")
        return True


def make_sovm(effects: list[BlockOperator]) -> Sovm:
    if not effects:
        raise ZeroInput("need at least one effect")
    acc = None
    for a in effects:
        # the kind check comes first: only a block has a dim
        _require_self_adjoint(a)
        if a.dim != effects[0].dim:
            raise DimensionMismatch("effects must share one block dimension")
        acc = a if acc is None else acc + a
    if acc != identity(acc.context, acc.dim):
        raise SumNotIdentity("effects must sum to the identity")
    if not _known_at_one(chain.from_iterable(acc._grid)):
        raise PrecisionExhausted("the sum of the effects is not known at p^0; raise the precision")
    return Sovm(tuple(effects), acc.dim)


def sovm_from_symmetric_decomposition(s: StatisticalOperator) -> Sovm:
    """Effects Id - S and one summand per symmetric-decomposition term."""
    ctx, dim = s.op.context, s.op.dim
    effects = [identity(ctx, dim) - s.op]
    for term in symmetric_decomposition(s.op).terms:
        effects.append(_rank_one_sum(ctx, dim, _hermitian([term])))
    return make_sovm(effects)


def pair(sovm: Sovm, s: StatisticalOperator) -> PadicDistribution:
    """The p-adic probability distribution {tr(A_i S)}.

    Each value is one sum over the d^2 products (A_i)_mk S_km, without
    forming A_i S.  Every value lies in Q_p; the total is exactly 1.  A
    density operator paired with a contractive SOVM lands in the
    probability simplex.
    """
    if sovm.dim != s.op.dim:
        raise DimensionMismatch("SOVM and state have different block dimensions")
    values = []
    for a in sovm.effects:
        t = _trace_of_product(a, s.op)
        if not t.ac.is_zero:
            raise ValidationError("internal error: pairing value left the base field")
        values.append(t.sc)
    return PadicDistribution(s.op.context.base, tuple(values))
