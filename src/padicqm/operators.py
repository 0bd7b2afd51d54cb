"""Matrix operators over Q_p(sqrt(mu)) and their classification calculus.

Two operator kinds are supported.  Block-finite operators store an exact
k-by-k block and every classification question is decidable.  Generator
backed operators carry a window block and an affine decay certificate
that lower-bounds the valuations of the entries beyond it; limit
conditions are derived from the certificate's coefficients and reported
as CertifiedByDecay.

On top of the classification sit the trace functional, the
Hilbert-Schmidt product, canonical and symmetric decompositions, the
trace-class factorization and the finite-dimensional unitarity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import chain
from numbers import Rational
from typing import Iterable, Iterator, NoReturn

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    NotAdjointable,
    NotBlockFinite,
    NotSelfAdjoint,
    NotTraceClass,
    OutsideWindow,
    RequiresOddP,
    SearchExhausted,
    TailDominates,
    ValidationError,
)
from .hilbert import BasisRotation, PVector, _scalar_of_magnitude, basis_vector, inner_product
from .quadext import (
    ExtensionContext, Magnitude, QuadExtElement, _abs_is_one, _added, _adjoint, _conj_row,
    _diagonal, _elements, _equal, _gram_is_identity, _grid, _hermitian_row_block, _live,
    _magnitude_within, _max_abs, _pad, _product, _rank_one_entries, _row_block, _scale, _scaled_row,
    _sum_of_products, _trace, max_abs, quad_sum,
)

class Verdict(str, Enum):
    PROVEN = "proven"
    REFUTED = "refuted"
    CERTIFIED_BY_DECAY = "certified_by_decay"


@dataclass(frozen=True)
class FlagReport:
    holds: bool
    verdict: Verdict
    witness: str | None = None


@dataclass(frozen=True)
class OperatorClassification:
    bounded: FlagReport
    adjointable: FlagReport
    self_adjoint: FlagReport
    compact: FlagReport
    trace_class: FlagReport
    traceable_wrt_standard_basis: FlagReport

    def __post_init__(self) -> None:
        if self.trace_class.holds and not (self.compact.holds and self.adjointable.holds):
            raise ValidationError("classification lattice violated: trace class")
        if self.self_adjoint.holds and not self.adjointable.holds:
            raise ValidationError("classification lattice violated: self-adjoint")


class MatrixOperator:
    """Common interface of BlockOperator and GeneratorOperator, with no
    behaviour of its own.  Each kind carries a ``context`` and supplies
    ``entry``, ``apply``, ``trace``, ``adjoint``, ``norm`` and ``classify``."""

    context: ExtensionContext


class BlockOperator(MatrixOperator):
    """Operator vanishing outside an exactly stored dim-by-dim block, kept as
    the kernel's coordinate grid (``quadext._grid``), which every operation
    reads and returns (``_of``).  ``rows`` and ``entry`` build the elements
    on first read and keep them; a block built from element rows keeps those."""

    __slots__ = ("context", "dim", "_grid", "_rows")

    def __init__(self, context: ExtensionContext, rows: list[list[QuadExtElement]]) -> None:
        """Element rows, read into the grid once; they stay as ``rows``."""
        self._set(context, _grid(context, rows), tuple(tuple(row) for row in rows))

    @classmethod
    def _of(cls, context: ExtensionContext, grid: tuple) -> BlockOperator:
        """The block of a grid: the one path of every block not built from element rows."""
        return object.__new__(cls)._set(context, grid, None)

    def _set(self, context: ExtensionContext, grid: tuple, rows) -> BlockOperator:
        if any(len(line) != len(grid) for line in grid):
            raise DimensionMismatch("block must be square")
        self.context, self.dim, self._grid, self._rows = context, len(grid), grid, rows
        return self

    @property
    def rows(self) -> tuple[tuple[QuadExtElement, ...], ...]:
        """The element rows, built from the grid on first read and kept."""
        if self._rows is None:
            self._rows = _elements(self.context, self._grid)
        return self._rows

    def entry(self, m: int, n: int) -> QuadExtElement:
        """Matrix entry with 1-based indices: zero beyond the block,
        ValidationError below 1."""
        if m < 1 or n < 1:
            raise ValidationError("indices are 1-based")
        if m <= self.dim and n <= self.dim:
            return self.rows[m - 1][n - 1]
        return self.context.zero()

    def __eq__(self, other: object) -> bool:
        """Entry by entry as elements compare (``quadext._equal``)."""
        if not isinstance(other, BlockOperator):
            return NotImplemented
        if self.context != other.context:
            return False
        d, base = max(self.dim, other.dim), self.context.base
        pairs = zip(_pad(self._grid, d), _pad(other._grid, d))
        return all(_equal(base, x, y) for r, s in pairs for x, y in zip(r, s))

    def __add__(self, other: BlockOperator) -> BlockOperator:
        self._check(other)
        d = max(self.dim, other.dim)
        return BlockOperator._of(self.context, _added(self.context, _pad(self._grid, d), _pad(other._grid, d)))

    def __neg__(self) -> BlockOperator:
        return self.scale(-self.context.one())

    def __sub__(self, other: BlockOperator) -> BlockOperator:
        self._check(other)
        return self + (-other)

    def scale(self, alpha: QuadExtElement) -> BlockOperator:
        return BlockOperator._of(self.context, _scale(self.context, alpha, self._grid))

    def __mul__(self, other: BlockOperator) -> BlockOperator:
        """Operator composition, digit for digit ``quad_sum`` over the scalar
        products A_ik * B_kj.  Each entry is an exact integer sum
        (``quadext._product``), O(p**N) where it vanishes at its precision."""
        self._check(other)
        ctx, d = self.context, max(self.dim, other.dim)
        return BlockOperator._of(ctx, _product(ctx, _pad(self._grid, d), list(zip(*_pad(other._grid, d)))))

    def apply(self, v: PVector) -> PVector:
        """Matrix-vector product, exact; coordinates beyond the block meet
        zero columns.  Each coordinate is one integer-coordinate sum
        (``quadext._sum_of_products``)."""
        if self.context != v.context:
            raise ContextMismatch("operator and vector over different extensions")
        inside = [(n - 1, vn) for n, vn in v.items() if n <= self.dim]
        (ys,) = _grid(self.context, [[vn for _, vn in inside]])
        sums = [_sum_of_products(self.context, [row[k] for k, _ in inside], ys) for row in self._grid]
        return PVector(self.context, dict(enumerate(sums, 1)))

    def trace(self) -> QuadExtElement:
        """Sum of the diagonal entries."""
        return _trace(self.context, self._grid)

    def adjoint(self) -> BlockOperator:
        return BlockOperator._of(self.context, _adjoint(self.context, self._grid))

    def norm(self) -> Magnitude:
        """sup |A_mn|, exact."""
        return _max_abs(self.context, chain.from_iterable(self._grid))

    def classify(self) -> OperatorClassification:
        """Every flag is decided exactly; only self-adjointness can fail."""
        ok = FlagReport(True, Verdict.PROVEN)
        witness = _symmetry_witness(self)
        sym = ok if witness is None else FlagReport(False, Verdict.REFUTED, witness)
        return OperatorClassification(
            bounded=ok,
            adjointable=ok,
            self_adjoint=sym,
            compact=ok,
            trace_class=ok,
            traceable_wrt_standard_basis=ok,
        )

    def _check(self, other: MatrixOperator) -> None:
        _require_block("block arithmetic", other)
        if self.context != other.context:
            raise ContextMismatch("operators over different extensions")

    def __repr__(self) -> str:
        return f"BlockOperator(dim={self.dim})"


def _require_block(what: str, *ops: MatrixOperator) -> None:
    if not all(isinstance(a, BlockOperator) for a in ops):
        raise NotBlockFinite(f"{what} needs exact blocks")


def _symmetry_witness(a: BlockOperator) -> str | None:
    """The first entry (m, n), m <= n <= dim, with A_mn != conj(A_nm)."""
    base, x, y, span = a.context.base, a._grid, _adjoint(a.context, a._grid), range(a.dim)
    pairs = ((m, n) for m in span for n in range(m, a.dim) if not _equal(base, x[m][n], y[m][n]))
    return next((f"entry ({m + 1},{n + 1})" for m, n in pairs), None)


# -- builders -----------------------------------------------------------------


def zero_operator(context: ExtensionContext, dim: int) -> BlockOperator:
    return diagonal(context, [context.zero()] * dim)


def identity(context: ExtensionContext, dim: int) -> BlockOperator:
    return diagonal(context, [context.one()] * dim)


def diagonal(context: ExtensionContext, values: list[QuadExtElement]) -> BlockOperator:
    return BlockOperator._of(context, _diagonal(context, values))


def rank_one(phi: PVector, psi: PVector, dim: int | None = None) -> BlockOperator:
    """|phi><psi| as a block operator covering both supports."""
    if phi.context != psi.context:
        raise ContextMismatch("vectors from different extensions")
    ctx = phi.context
    d = dim if dim is not None else max(phi.support() + psi.support(), default=1)
    return _rank_one_sum(ctx, d, [(ctx.one(), phi, psi)])


def _rank_one_sum(
    context: ExtensionContext,
    dim: int,
    terms: Iterable[tuple[QuadExtElement, PVector, PVector]],
) -> BlockOperator:
    """sum_j w_j |e_j><f_j| on a dim-by-dim block.

    Each entry collects only its nonzero contributions w * (e[m] conj(f[n]))
    and is summed once (``quadext._rank_one_entries``), so the sum
    truncates once per entry.
    """
    terms = list(terms)
    if any(max(e.support() + f.support(), default=1) > dim for _, e, f in terms):
        raise DimensionMismatch("dim does not cover the supports")
    return BlockOperator._of(context, _rank_one_entries(context, dim, [(w, e.items(), f.items()) for w, e, f in terms]))


def _hermitian(
    terms: Iterable[tuple[QuadExtElement, PVector, PVector]],
) -> Iterator[tuple[QuadExtElement, PVector, PVector]]:
    """Each (sigma, e, f) with its adjoint partner (conj(sigma), f, e)."""
    for sig, e, f in terms:
        yield sig, e, f
        yield sig.conj(), f, e


def from_rotation(rotation: BasisRotation, dim: int) -> BlockOperator:
    """The block unitary sending each basis vector to its rotated image."""
    ctx = rotation.context
    rows = [[ctx.one() if m == n else ctx.zero() for n in range(dim)] for m in range(dim)]
    for i, j, z in rotation.pairs:
        if j > dim or i > dim:
            raise DimensionMismatch("rotation pair outside the block")
        zi = z.inv()
        rows[i - 1][i - 1] = zi
        rows[j - 1][i - 1] = zi
        rows[i - 1][j - 1] = zi
        rows[j - 1][j - 1] = -zi
    return BlockOperator(ctx, rows)


# -- generator-backed operators ----------------------------------------------


@dataclass(frozen=True)
class DecayCertificate:
    """The affine valuation lower bound base + row_coeff*m + col_coeff*n.

    Entries satisfy |A_mn| <= p**(-bound(m, n)); with ``support``
    "diagonal" the off-diagonal entries vanish.  Nonnegative coefficients
    make the bound nondecreasing in both indices, and every limit verdict
    is derived from them.
    """

    base: Fraction
    row_coeff: Fraction
    col_coeff: Fraction
    support: str = "all"

    def __post_init__(self) -> None:
        if not all(isinstance(x, Rational) for x in (self.base, self.row_coeff, self.col_coeff)):
            raise ValidationError("decay base and coefficients must be rational")
        if self.row_coeff < 0 or self.col_coeff < 0:
            raise ValidationError("decay coefficients must be nonnegative")
        if self.support not in ("all", "diagonal"):
            raise ValidationError(f"unknown decay support {self.support!r}")

    def bound(self, m: int, n: int) -> Fraction | None:
        """The bound on v(A_mn); None off the diagonal of a diagonal-only
        certificate, where the entries vanish."""
        if self.support == "diagonal" and m != n:
            return None
        return self.base + self.row_coeff * m + self.col_coeff * n

    def adjoint(self) -> DecayCertificate:
        return replace(self, row_coeff=self.col_coeff, col_coeff=self.row_coeff)

    def floor_beyond(self, window: int) -> Fraction:
        """The least bound on the shell max(m, n) = window + 1 and beyond."""
        t = window + 1
        if self.support == "diagonal":
            return self.bound(t, t)
        return min(self.bound(t, 1), self.bound(1, t))

    @property
    def row_divergent(self) -> bool:
        return self.support == "diagonal" or self.row_coeff > 0

    @property
    def col_divergent(self) -> bool:
        return self.support == "diagonal" or self.col_coeff > 0

    @property
    def grows(self) -> bool:
        """The bound diverges along max(m, n) and along the diagonal."""
        return self.row_coeff + self.col_coeff > 0

    @property
    def joint_divergent(self) -> bool:
        return self.grows and self.row_divergent and self.col_divergent


def affine_certificate(
    base: int | Fraction,
    row_coeff: int | Fraction,
    col_coeff: int | Fraction,
    diagonal_only: bool = False,
) -> DecayCertificate:
    """Certificate for bounds of the shape base + a*m + b*n (a, b >= 0)."""
    return DecayCertificate(
        Fraction(base),
        Fraction(row_coeff),
        Fraction(col_coeff),
        "diagonal" if diagonal_only else "all",
    )


def _magnitude_below(p: int, floor: Fraction) -> Magnitude:
    """The largest |z| that a certificate floor v(z) >= floor admits."""
    return Magnitude(p, -math.ceil(2 * floor))


class GeneratorOperator(MatrixOperator):
    """A window block whose entries beyond it obey a decay certificate.

    Only the window entries are known; each is checked against the
    certificate bound at construction.
    """

    __slots__ = ("block", "certificate")

    def __init__(self, block: BlockOperator, certificate: DecayCertificate) -> None:
        _require_block("a generator window", block)
        if block.dim < 1:
            raise ValidationError("window must be at least 1")
        for m, row in enumerate(block._grid, 1):
            for n, c in enumerate(row, 1):
                if not _magnitude_within(block.context, c, certificate.bound(m, n)):
                    raise ValidationError(
                        f"window entry ({m},{n}) violates the decay bound"
                    )
        self.block = block
        self.certificate = certificate

    @property
    def context(self) -> ExtensionContext:
        return self.block.context

    @property
    def window(self) -> int:
        return self.block.dim

    def entry(self, m: int, n: int) -> QuadExtElement:
        if m > self.window or n > self.window:
            raise OutsideWindow("entry beyond the materialized window")
        return self.block.entry(m, n)

    def adjoint(self) -> GeneratorOperator:
        if not self.certificate.col_divergent:
            raise NotAdjointable("certificate declares no column decay")
        return GeneratorOperator(self.block.adjoint(), self.certificate.adjoint())

    def apply(self, v: PVector) -> PVector:
        """Rows inside the window; the certificate bounds the dropped rest."""
        if any(i > self.window for i in v.support()):
            raise OutsideWindow("vector support exceeds the window")
        return self.block.apply(v)

    def norm(self) -> Magnitude:
        """The window max, when the certificate keeps the tail below it."""
        peak = self.block.norm()
        tail = _magnitude_below(self.context.p, self.certificate.floor_beyond(self.window))
        if tail > peak:
            raise TailDominates("certificate admits tail entries above the window max")
        return peak

    def classify(self) -> OperatorClassification:
        """Limit conditions derived from the certificate's coefficients.

        A decay bound cannot fix the entries beyond the window, so
        self-adjointness is never certified.
        """
        cert = self.certificate
        witness = _symmetry_witness(self.block) or "certificate declares no symmetry"
        return OperatorClassification(
            bounded=_certified(cert.row_divergent, "row decay"),
            adjointable=_certified(
                cert.row_divergent and cert.col_divergent, "row and column decay"
            ),
            self_adjoint=FlagReport(False, Verdict.REFUTED, witness),
            compact=_certified(cert.row_divergent and cert.grows, "row and joint-index decay"),
            trace_class=_certified(cert.joint_divergent, "total decay"),
            traceable_wrt_standard_basis=_certified(
                cert.row_divergent and cert.grows, "row and diagonal decay"
            ),
        )

    def _no_arithmetic(self, *_: object) -> NoReturn:
        raise NotBlockFinite("block arithmetic needs exact blocks")

    # exact arithmetic is defined on blocks, whose entries are all known
    __add__ = __sub__ = __mul__ = __neg__ = scale = _no_arithmetic

    def trace(self) -> QuadExtElement:
        """The window diagonal sum, if the certificate makes it traceable."""
        cert = self.certificate
        if not (cert.row_divergent and cert.grows):
            raise NotTraceClass("certificate does not support a trace")
        return self.block.trace()

    def __repr__(self) -> str:
        return f"GeneratorOperator(window={self.window})"


def _certified(flag: bool, reason: str) -> FlagReport:
    if flag:
        return FlagReport(True, Verdict.CERTIFIED_BY_DECAY, reason)
    return FlagReport(False, Verdict.REFUTED, f"certificate declares no {reason}")


# -- the public operator functions ----------------------------------------------


def adjoint(a: MatrixOperator) -> MatrixOperator:
    return a.adjoint()


def apply(a: MatrixOperator, v: PVector) -> PVector:
    """Matrix-vector product; exact for blocks, window rows for generators."""
    return a.apply(v)


def operator_norm(a: MatrixOperator) -> Magnitude:
    """sup |A_mn|; exact for blocks, certified from the window for generators."""
    return a.norm()


def classify(a: MatrixOperator) -> OperatorClassification:
    return a.classify()


# -- trace and the Hilbert-Schmidt product -------------------------------------


def trace(t: MatrixOperator) -> QuadExtElement:
    """Sum of diagonal entries; ``trace_tail_bound`` bounds a generator's dropped tail."""
    return t.trace()


def trace_tail_bound(t: GeneratorOperator) -> Magnitude:
    """Ultrametric bound on the dropped diagonal tail of the trace."""
    if not isinstance(t, GeneratorOperator):
        raise ValidationError("only a generator-backed operator drops a tail")
    w = t.window + 1
    return _magnitude_below(t.context.p, t.certificate.bound(w, w))


def _trace_of_product(a: BlockOperator, b: BlockOperator) -> QuadExtElement:
    """tr(AB) as one sum over the nonzero A_mk B_km, without forming AB.

    O(d^2) products and one truncation, where ``trace(a * b)`` makes d^3
    and truncates each diagonal entry before the sum.  The sum runs on
    integer coordinates (``quadext._sum_of_products``) with the digits of ``quad_sum``
    over the scalar products A_mk * B_km.
    """
    a._check(b)
    d = max(a.dim, b.dim)
    xs = [x for row in _pad(a._grid, d) for x in row]
    return _sum_of_products(a.context, xs, [y for col in zip(*_pad(b._grid, d)) for y in col])


def hs_inner(s: MatrixOperator, t: MatrixOperator) -> QuadExtElement:
    """Hilbert-Schmidt product tr(adjoint(S) T) on block operators: one sum
    over the d^2 products conj(S_mn) T_mn, without forming adjoint(S) or
    adjoint(S) T.  The sum is ``_trace_of_product``'s, with each S_mn
    conjugated on its coordinates (``quadext._sum_of_products``)."""
    _require_block("the Hilbert-Schmidt product", s, t)
    s._check(t)
    d = max(s.dim, t.dim)
    xs = [x for col in zip(*_pad(s._grid, d)) for x in col]
    return _sum_of_products(s.context, xs, [y for col in zip(*_pad(t._grid, d)) for y in col], -1)


def verify_cyclic(b: BlockOperator, t: BlockOperator) -> tuple[QuadExtElement, QuadExtElement]:
    """(tr(BT), tr(TB)), each one sum over the d^2 products B_mk T_km without
    forming BT or TB; the two sums have the same terms, so they agree
    exactly, in digits and precision."""
    _require_block("the cyclic check", b, t)
    return _trace_of_product(b, t), _trace_of_product(t, b)


# -- unitarity ------------------------------------------------------------------


def is_ip_preserving(u: MatrixOperator) -> bool:
    """Exact check of adjoint(U) U = Id on the declared block: the Gram scan
    of the columns of U."""
    _require_block("inner-product preservation", u)
    return _gram_is_identity(u.context, list(zip(*u._grid)))


def is_unitary(u: MatrixOperator) -> bool:
    """U U* = Id = U* U and max entry magnitude exactly 1.

    The norm condition cannot be dropped: inner-product preservation alone
    admits operators of norm p**K > 1.  The norm is read from its range
    (``quadext._abs_is_one``), so an O(p**N) entry raises only where it
    leaves the norm's being 1 open.  U U* = Id is the Gram scan of the
    rows of U, whose entry (m, n) is conj((U U*)_mn).
    """
    _require_block("unitarity", u)
    entries = chain.from_iterable(u._grid)
    return _abs_is_one(u.context, entries) and is_ip_preserving(u) and _gram_is_identity(u.context, u._grid)


def four_squares_unit_solution(p: int, k: int) -> tuple[int, int, int, int]:
    """x1..x4 with sum of squares p**(2k) and some x_i coprime to p."""
    target = p ** (2 * k)
    top = math.isqrt(target)
    for a in range(top, -1, -1):
        ra = target - a * a
        for b in range(math.isqrt(ra), -1, -1):
            rb = ra - b * b
            for c in range(math.isqrt(rb), -1, -1):
                d2 = rb - c * c
                d = math.isqrt(d2)
                if d * d != d2 or d > c or c > b or b > a:
                    continue
                if any(x % p for x in (a, b, c, d)):
                    return (a, b, c, d)
    raise SearchExhausted("no admissible four-squares split found")


def build_norm_inflating_ip_preserver(context: ExtensionContext, k: int) -> BlockOperator:
    """A 4x4 operator that preserves the inner product but has norm p**k.

    Built from an integer solution of x1^2 + ... + x4^2 = p**(2k) with a
    unit coordinate; it passes the IP-preservation check and fails the
    unitarity test.
    """
    if context.p == 2:
        raise RequiresOddP("construction needs an odd prime")
    if k < 1:
        raise ValidationError("k must be at least 1")
    x1, x2, x3, x4 = (context.base.from_int(x) for x in four_squares_unit_solution(context.p, k))
    scale = context.base.from_fraction(Fraction(1, context.p**k))
    pattern = [
        [x1, x2, x3, x4],
        [-x2, x1, -x4, x3],
        [-x4, -x3, x2, x1],
        [-x3, x4, x1, -x2],
    ]
    rows = [[context.from_base(scale * x) for x in row] for row in pattern]
    return BlockOperator(context, rows)


# -- decompositions --------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalDecomposition:
    """C = sum_j lambda_j |e_j><f_j| with basis e_j and unit-norm f_j, kept as
    ``scaled_rows`` (``_decompose_rows``); ``terms`` builds e_j and f_j."""

    context: ExtensionContext
    dim: int
    scaled_rows: tuple

    @property
    def terms(self) -> tuple[tuple[QuadExtElement, PVector, PVector], ...]:
        ctx = self.context
        return tuple((lam, basis_vector(ctx, m), PVector(ctx, _conj_row(ctx, g))) for m, lam, g in self.scaled_rows)

    def reconstruct(self) -> BlockOperator:
        """Row m_j of C is lambda_j g_j, a row scaling (``quadext._row_block``)."""
        return BlockOperator._of(self.context, _row_block(self.context, self.dim, self.scaled_rows))

    def max_weight(self) -> Magnitude:
        return max_abs(self.context, (lam for _, lam, _ in self.scaled_rows))


def _decompose_rows(ctx: ExtensionContext, rows) -> Iterator[tuple]:
    """(m, lambda, g) for each row m (from 1) of (n, entry) items with an entry that is no
    zero: lambda of its largest |z| and g its ``quadext._scaled_row`` by lambda^-1."""
    for m, items in enumerate(rows, 1):
        nonzero = [(n, c) for n, c in items if _live(c)]
        if nonzero:
            lam = _scalar_of_magnitude(ctx, _max_abs(ctx, [c for _, c in nonzero]))
            yield m, lam, _scaled_row(ctx, lam.inv(), nonzero)


def canonical_decomposition(c: MatrixOperator) -> CanonicalDecomposition:
    """Row decomposition: e_j runs over the standard basis vectors of the
    nonzero rows, lambda_j is the canonical scalar matching the row's
    maximal entry magnitude and f_j is the conjugated, rescaled row.

    Pivots with a vanishing coordinate multiply without precision loss,
    so the reconstruction reproduces the source at full precision
    (Q_2(sqrt(3)) and Q_2(sqrt(7)) lack such pivots for half-magnitude
    rows; there the mixed uniformizer costs trailing digits).

    Each g = lambda_j^-1 z is kept as coordinate pairs; f_j = conj(g) is built on reading.
    """
    _require_block("decomposition", c)
    rows = tuple(_decompose_rows(c.context, (enumerate(row, 1) for row in c._grid)))
    return CanonicalDecomposition(c.context, c.dim, rows)


@dataclass(frozen=True)
class SymmetricDecomposition(CanonicalDecomposition):
    """T = sum_j (sigma_j |e_j><f_j| + conj(sigma_j) |f_j><e_j|): the
    canonical decomposition of the upper part A of T = A + adjoint(A)."""

    def reconstruct(self) -> BlockOperator:
        """Entry (m, n) is sigma_m g_m[n] + conj(sigma_n g_n[m]), truncated once."""
        return BlockOperator._of(self.context, _hermitian_row_block(self.context, self.dim, self.scaled_rows))

    def trace_by_formula(self):
        """2 * sum_j sc(sigma_j <f_j, e_j>), an element of Q_p."""
        terms = []
        for sig, e, f in self.terms:
            w = sig * inner_product(f, e)
            terms.extend((w, w.conj()))
        acc = quad_sum(self.context, terms)
        if not acc.ac.is_zero:
            raise ValidationError("internal error: symmetric trace left the base field")
        return acc.sc


def symmetric_decomposition(t: MatrixOperator) -> SymmetricDecomposition:
    """Split a self-adjoint block T as A + adjoint(A) by halving the
    diagonal, then decompose the rows of A canonically.

    For p = 2 the halving lowers valuations by one; the reconstruction is
    still exact.
    """
    _require_block("decomposition", t)
    if _symmetry_witness(t) is not None:
        raise NotSelfAdjoint("symmetric decomposition needs a self-adjoint block")
    half = t.context.from_base(t.context.base.from_fraction(Fraction(1, 2)))
    halved = _scale(t.context, half, [[row[m] for m, row in enumerate(t._grid)]])[0]
    upper = ([(m, halved[m - 1]), *enumerate(row[m:], m + 1)] for m, row in enumerate(t._grid, 1))
    return SymmetricDecomposition(t.context, t.dim, tuple(_decompose_rows(t.context, upper)))


def factor_trace_class(r: MatrixOperator) -> tuple[BlockOperator, BlockOperator]:
    """A pair S, T of trace-class blocks with S T = R: S the diagonal of the
    lambda_j of ``canonical_decomposition`` and row m_j of T its g_j."""
    _require_block("factorization", r)
    ctx, rows = r.context, canonical_decomposition(r).scaled_rows
    lams = {m: lam for m, lam, _ in rows}
    s = diagonal(ctx, [lams.get(m, ctx.zero()) for m in range(1, r.dim + 1)])
    return s, BlockOperator._of(ctx, _row_block(ctx, r.dim, [(m, None, g) for m, _, g in rows]))
