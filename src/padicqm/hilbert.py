"""Finitely supported coordinate vectors over Q_p(sqrt(mu)).

Supplies the sup-norm, the canonical inner product, an exact
norm-orthogonality test through residue-field ranks, two-index basis
rotations built from elements with z*conj(z) = 2, and the construction of
isotropic vectors together with the isotropy index of the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import padic
from .errors import (
    ContextMismatch,
    EmptyFamily,
    PrecisionExhausted,
    RequiresOddP,
    SearchExhausted,
    ValidationError,
)
from .padic import PadicNumber
from .quadext import ExtensionContext, Magnitude, QuadExtElement, _gram_is_identity, _grid, _sum_of_products, max_abs


class PVector:
    """Sparse vector indexed from 1; exact-zero entries are not stored."""

    __slots__ = ("context", "_entries")

    def __init__(self, context: ExtensionContext, entries: Mapping[int, QuadExtElement]) -> None:
        self.context = context
        data: dict[int, QuadExtElement] = {}
        for i, z in entries.items():
            if i < 1:
                raise ValidationError("indices are 1-based")
            if z.context != context:
                raise ContextMismatch("entry from a different extension")
            if not z.is_zero:
                data[i] = z
        self._entries = dict(sorted(data.items()))

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def support(self) -> list[int]:
        return list(self._entries)

    def entry(self, i: int) -> QuadExtElement:
        return self._entries.get(i, self.context.zero())

    def items(self) -> list[tuple[int, QuadExtElement]]:
        return list(self._entries.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PVector):
            return NotImplemented
        return self.context == other.context and self._entries == other._entries

    def __add__(self, other: PVector) -> PVector:
        if self.context != other.context:
            raise ContextMismatch("vectors from different extensions")
        out = dict(self._entries)
        for i, z in other._entries.items():
            out[i] = out[i] + z if i in out else z
        return PVector(self.context, out)

    def __neg__(self) -> PVector:
        return PVector(self.context, {i: -z for i, z in self._entries.items()})

    def __sub__(self, other: PVector) -> PVector:
        return self + (-other)

    def scale(self, alpha: QuadExtElement) -> PVector:
        return PVector(self.context, {i: alpha * z for i, z in self._entries.items()})

    def __repr__(self) -> str:
        return f"PVector({self._entries!r})"


def basis_vector(context: ExtensionContext, i: int) -> PVector:
    return PVector(context, {i: context.one()})


def inner_product(u: PVector, v: PVector) -> QuadExtElement:
    """Canonical inner product: sum of conj(u_i) * v_i over the common
    support, one ``quadext._sum_of_products``, digit for digit ``quad_sum`` over
    the scalar products."""
    if u.context != v.context:
        raise ContextMismatch("vectors from different extensions")
    w = v._entries
    common = [i for i in u._entries if i in w]
    return _sum_of_products(u.context, *_grid(u.context, [[u._entries[i] for i in common], [w[i] for i in common]]), -1)


def sup_norm(v: PVector) -> Magnitude:
    return max_abs(v.context, (z for _, z in v.items()))


# -- residue fields and the norm-orthogonality criterion ---------------------
#
# A family of norm-1 vectors is norm-orthogonal exactly when its coordinate
# residues are linearly independent over the residue field of the extension.
# General families reduce to this case by scaling each vector to norm 1.
# The residue field is F_p (F_2) for a ramified extension, F_{p^2} for the
# unramified one with odd p, and F_4 for the unramified 2-adic extension.


@dataclass(frozen=True)
class _ResidueField:
    """F_p[s]/(s**2 - t*s - r); a residue (a0, a1) stands for a0 + a1*s.

    (p) is F_p, where every residue is (a, 0); (p, r) with r a non-residue
    is F_{p^2}; (2, 1, 1) is F_4.
    """

    p: int
    r: int = 0
    t: int = 0

    def is_zero(self, a: tuple[int, int]) -> bool:
        return a == (0, 0)

    def add(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def neg(self, a: tuple[int, int]) -> tuple[int, int]:
        return ((-a[0]) % self.p, (-a[1]) % self.p)

    def mul(self, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        top = a[1] * b[1]  # the s**2 coefficient, reduced by s**2 = t*s + r
        return (
            (a[0] * b[0] + self.r * top) % self.p,
            (a[0] * b[1] + a[1] * b[0] + self.t * top) % self.p,
        )

    def inv(self, a: tuple[int, int]) -> tuple[int, int]:
        """a times its conjugate a0 + a1*(t - s) is the norm N in F_p."""
        if self.is_zero(a):
            raise ZeroDivisionError
        n = (a[0] * a[0] + self.t * a[0] * a[1] - self.r * a[1] * a[1]) % self.p
        n_inv = pow(n, -1, self.p)
        return ((a[0] + self.t * a[1]) * n_inv % self.p, (-a[1]) * n_inv % self.p)


def residue_field(context: ExtensionContext) -> _ResidueField:
    p = context.p
    if context.is_ramified():
        return _ResidueField(p)
    if p == 2:
        return _ResidueField(2, 1, 1)  # s**2 = s + 1
    return _ResidueField(p, context.reduced_mu.unit % p)


def _digit(x: PadicNumber) -> int:
    """First base-p digit of an integral number (0 when |x| < 1), known for
    an O(p**N) only when N >= 1."""
    if x.is_zero:
        if x.absolute is not None and x.absolute < 1:
            raise PrecisionExhausted(
                f"residue digit of O({x.context.p}^{x.absolute}) is unknown; raise the precision"
            )
        return 0
    if x.valuation > 0:
        return 0
    if x.valuation < 0:
        raise ValidationError("residue of a non-integral element")
    return x.unit % x.context.p


def _coordinate_residue(context: ExtensionContext, z: QuadExtElement) -> tuple[int, int]:
    """Residue of an integral z (|z| <= 1) in the residue field."""
    x = z.sc
    y = z.ac * context.sqrt_scale  # coordinate over the reduced radicand
    if context.p != 2:
        return (_digit(x), _digit(y) if context.reduced_mu.valuation == 0 else 0)
    gamma = context.mu_class
    if gamma not in (3, 5, 7):
        return (_digit(x), 0)
    # gamma = 5, integral basis {1, (1+sqrt(5))/2}: z = (x - y) + 2y * theta;
    # gamma = 3, 7, uniformizer 1 + sqrt(gamma):    z = (x - y) + y * pi
    a = x - y
    if gamma == 5:
        return (_digit(a), _digit(context.base.from_int(2) * y))
    return (_digit(a), 0)


def uniformizer(context: ExtensionContext) -> QuadExtElement:
    """An element of magnitude p**(-1/2); only ramified extensions have one."""
    if not context.is_ramified():
        raise ValidationError("unramified extension has no half-exponent element")
    inv_s = context.sqrt_scale.inv()
    root = QuadExtElement(context, context.base.zero(), inv_s)  # sqrt(reduced_mu)
    if context.p == 2 and context.mu_class in (3, 7):
        return context.one() + root
    return root


def _scalar_of_magnitude(context: ExtensionContext, target: Magnitude) -> QuadExtElement:
    """A scalar of the given magnitude with one vanishing coordinate where
    the context allows it; multiplication by such a scalar is lossless at
    fixed precision, which keeps decomposition round trips exact.

    Only Q_2(sqrt(3)) and Q_2(sqrt(7)) lack one-coordinate elements of
    half-integer magnitude; there the mixed uniformizer 1 + sqrt(gamma)
    is used and callers re-verify the reconstruction.
    """
    cap = context.base.precision
    e2 = target.exp2
    if e2 % 2 == 0:
        return context.from_base(PadicNumber(context.base, -e2 // 2, 1, cap))
    return uniformizer(context).scale_base(PadicNumber(context.base, -(e2 + 1) // 2, 1, cap))


def _scale_to_unit_norm(v: PVector) -> PVector:
    ctx = v.context
    return v.scale(_scalar_of_magnitude(ctx, Magnitude(ctx.p, -sup_norm(v).exp2)))


def is_norm_orthogonal(vectors: list[PVector]) -> bool:
    """Exact test that ||sum a_i v_i|| = max |a_i| ||v_i|| for all scalars.

    Each vector is scaled to norm 1 and the residue rows are tested for
    linear independence over the residue field.  Zero vectors fail.
    """
    ctx = _family_context(vectors)
    if any(v.is_zero for v in vectors):
        return False
    fld = residue_field(ctx)
    scaled = [_scale_to_unit_norm(v) for v in vectors]
    cols = sorted({i for v in scaled for i in v.support()})
    rows = [[_coordinate_residue(ctx, v.entry(i)) for i in cols] for v in scaled]
    return _rank(fld, rows) == len(vectors)


def _rank(fld: _ResidueField, rows: list[list[tuple[int, int]]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next(
            (k for k in range(rank, len(rows)) if not fld.is_zero(rows[k][col])), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = [fld.mul(inv, x) for x in rows[rank]]
        for k in range(len(rows)):
            if k != rank and not fld.is_zero(rows[k][col]):
                factor = fld.neg(rows[k][col])
                rows[k] = [
                    fld.add(rows[k][j], fld.mul(factor, rows[rank][j]))
                    for j in range(ncols)
                ]
        rank += 1
    return rank


def _family_context(vectors: list[PVector]) -> ExtensionContext:
    """The one context of a nonempty family of vectors."""
    if not vectors:
        raise EmptyFamily("need at least one vector")
    ctx = vectors[0].context
    if any(v.context != ctx for v in vectors):
        raise ContextMismatch("vectors from different extensions")
    return ctx


def is_orthonormal_system(vectors: list[PVector]) -> bool:
    """All norms 1, inner products delta_ab, and norm-orthogonal.  The inner
    products are one Gram scan (``quadext._gram_is_identity``) of the vectors
    over their joint support, which returns False at the first that differs
    and raises for none."""
    ctx = _family_context(vectors)
    if not all(sup_norm(v).is_one for v in vectors):
        return False
    support = sorted({i for v in vectors for i in v.support()})
    lines = _grid(ctx, [[v.entry(i) for i in support] for v in vectors])
    return _gram_is_identity(ctx, lines) and is_norm_orthogonal(vectors)


# -- basis rotations ----------------------------------------------------------


@dataclass(frozen=True)
class BasisRotation:
    """Disjoint two-index rotations e_i -> (e_i + e_j)/z, e_j -> (e_i - e_j)/z.

    Each pair carries a scalar with z*conj(z) = 2 and |z| = 1, which forces
    p != 2.  The images of the standard basis form an orthonormal system.
    """

    context: ExtensionContext
    pairs: tuple[tuple[int, int, QuadExtElement], ...]

    def __post_init__(self) -> None:
        if self.context.p == 2:
            raise RequiresOddP("rotation scalars need |2|_p = 1")
        seen: set[int] = set()
        two = self.context.from_ints(2, 0)
        for i, j, z in self.pairs:
            if i < 1 or j < 1 or i == j:
                raise ValidationError("pair indices must be distinct and 1-based")
            if i in seen or j in seen:
                raise ValidationError("pairs must be disjoint")
            seen.update((i, j))
            if z.context != self.context:
                raise ContextMismatch("rotation scalar from a different extension")
            if z * z.conj() != two or not z.ext_abs().is_one:
                raise ValidationError("need z*conj(z) = 2 with |z| = 1")

    def apply(self, v: PVector) -> PVector:
        return self._rotate(v, conjugate=False)

    def apply_inverse(self, v: PVector) -> PVector:
        return self._rotate(v, conjugate=True)

    def _rotate(self, v: PVector, conjugate: bool) -> PVector:
        """Each pair maps (v_i, v_j) to c (v_i + v_j, v_i - v_j), c = 1/z or 1/conj(z)."""
        if v.context != self.context:
            raise ContextMismatch("vector from a different extension")
        out = {i: z for i, z in v.items()}
        for i, j, z in self.pairs:
            c = (z.conj() if conjugate else z).inv()
            vi, vj = v.entry(i), v.entry(j)
            out[i] = c * (vi + vj)
            out[j] = c * (vi - vj)
        return PVector(self.context, out)


def find_norm_two_element(context: ExtensionContext) -> QuadExtElement:
    """Some z with z*conj(z) = 2 and |z| = 1, when one exists (p odd)."""
    if context.p == 2:
        raise RequiresOddP("|z|^2 = |2|_p = 1 fails for p = 2")
    two = context.base.from_int(2)
    for y in range(context.p):
        target = two + context.mu * context.base.from_int(y * y)
        if not target.is_zero and padic.is_square(target):
            return QuadExtElement(context, padic.sqrt(target), context.base.from_int(y))
    raise SearchExhausted("2 is not a norm of this extension")


def rotation_on_pairs(context: ExtensionContext, index_pairs: list[tuple[int, int]]) -> BasisRotation:
    z = find_norm_two_element(context)
    return BasisRotation(context, tuple((i, j, z) for i, j in index_pairs))


# -- isotropic vectors and the isotropy index --------------------------------

# Explicit isotropic coordinates over the canonical 2-adic radicands;
# (a, b) stands for a + b*sqrt(gamma).
_TWO_ADIC_ISOTROPIC = {
    2: [(1, 1), (1, 0)],
    3: [(1, 1), (1, 0), (1, 0)],
    5: [(1, 1), (2, 0)],
    6: [(1, 1), (2, 0), (1, 0)],
    7: [(3, 1), (1, 1), (2, 0)],
    10: [(1, 1), (3, 0)],
    14: [(1, 1), (3, 0), (2, 0)],
}


def sqrt_minus_one(context: ExtensionContext) -> PadicNumber:
    """A root of -1 in Q_p, available exactly when p = 1 mod 4."""
    return padic.sqrt(context.base.from_int(-1))


def _verify_isotropic(v: PVector) -> PVector:
    if v.is_zero or not inner_product(v, v).is_zero:
        raise ValidationError("internal error: candidate is not isotropic")
    return v


def find_isotropic(context: ExtensionContext, max_support: int) -> PVector | None:
    """A nonzero v with <v, v> = 0 of minimal support, or None if the
    minimal support exceeds ``max_support``."""
    if max_support < 2:
        return None
    p = context.p
    if p == 2:
        coords = _TWO_ADIC_ISOTROPIC[context.mu_class]
        if len(coords) > max_support:
            return None
        inv_s = context.sqrt_scale.inv()
        entries = {
            k + 1: context.element(context.base.from_int(a), context.base.from_int(b) * inv_s)
            for k, (a, b) in enumerate(coords)
        }
        return _verify_isotropic(PVector(context, entries))
    if p % 4 == 1:
        i = sqrt_minus_one(context)
        v = PVector(
            context, {1: context.one(), 2: context.from_base(i)}
        )
        return _verify_isotropic(v)
    # p = 3 mod 4: support 2 exactly when the reduced radicand is a unit
    if context.reduced_mu.valuation == 0:
        x, y = _minus_one_as_norm(context, context.reduced_mu)
        # back to coordinates over sqrt(mu)
        z = context.element(x, y * context.sqrt_scale.inv())
        return _verify_isotropic(PVector(context, {1: z, 2: context.one()}))
    if max_support < 3:
        return None
    a, b = _minus_one_as_norm(context, context.base.from_int(-1))
    v = PVector(
        context,
        {1: context.from_base(a), 2: context.from_base(b), 3: context.one()},
    )
    return _verify_isotropic(v)


def _minus_one_as_norm(context: ExtensionContext, c: PadicNumber) -> tuple[PadicNumber, PadicNumber]:
    """Exact x, y in Q_p with x**2 - c*y**2 = -1, for odd p and a unit c
    that is not a square mod p.

    The residue equation then forces x0 != 0, so the first residue
    solution (x0, y0) keeps y = y0 and lifts x by a square root.
    """
    base = context.base
    p = context.p
    r = c.unit % p
    for x0 in range(1, p):
        for y0 in range(p):
            if (x0 * x0 - r * y0 * y0 + 1) % p == 0:
                y = base.from_int(y0)
                return padic.sqrt(c * y * y - base.one()), y
    raise SearchExhausted("-1 is not a norm of this extension")


def isotropy_index(context: ExtensionContext) -> int:
    """Minimal support of a nonzero isotropic vector, always 2 or 3: the
    support of ``find_isotropic``'s witness, which is minimal."""
    return len(find_isotropic(context, 3).support())
