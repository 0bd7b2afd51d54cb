"""Arithmetic in the quadratic extension Q_p(sqrt(mu)).

Elements are stored through their selfconjugate and anticonjugate
coordinates, z = sc + ac*sqrt(mu).  The extension context validates that
mu is a non-square, classifies the extension (square class, ramification)
and precomputes the scaling needed to reduce mu to a canonical
representative of its square class.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from operator import add, lshift, mul
from typing import Iterable

from . import padic
from .errors import ContextMismatch, MuIsSquare, PrecisionExhausted, ValidationError
from .padic import PadicContext, PadicNumber


@dataclass(frozen=True, slots=True)
class Magnitude:
    """Exact ultrametric absolute value p**(exp2/2); exp2 None means 0.

    Half-integer exponents occur in ramified extensions, so the exponent
    is carried as an integer doubled exponent instead of a float.
    """

    p: int
    exp2: int | None

    @classmethod
    def zero(cls, p: int) -> Magnitude:
        return cls(p, None)

    @classmethod
    def one(cls, p: int) -> Magnitude:
        return cls(p, 0)

    @property
    def is_zero(self) -> bool:
        return self.exp2 is None

    @property
    def is_one(self) -> bool:
        return self.exp2 == 0

    def _key(self) -> tuple[int, int]:
        # zero sorts below every power of p
        return (0, 0) if self.is_zero else (1, self.exp2)

    def __lt__(self, other: Magnitude) -> bool:
        self._same_base(other)
        return self._key() < other._key()

    def __le__(self, other: Magnitude) -> bool:
        self._same_base(other)
        return self._key() <= other._key()

    def __mul__(self, other: Magnitude) -> Magnitude:
        self._same_base(other)
        if self.is_zero or other.is_zero:
            return Magnitude.zero(self.p)
        return Magnitude(self.p, self.exp2 + other.exp2)

    def _same_base(self, other: Magnitude) -> None:
        if self.p != other.p:
            raise ContextMismatch("magnitudes for different primes")

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.exp2 == 0:
            return "1"
        if self.exp2 % 2 == 0:
            return f"{self.p}^{self.exp2 // 2}"
        return f"{self.p}^({self.exp2}/2)"


# The live extensions, one per base and (valuation, unit, prec) of mu, held
# weakly as padic._CONTEXTS; copies and pickles come back as the live one.  A
# mu known to fewer digits makes another extension, whose values do not mix
# with this one's.  The key names the base by id(), not by a reference that
# would keep it alive: a live entry's extension holds its base, so no other
# object has that id.
_EXTENSIONS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, slots=True, eq=False, init=False, weakref_slot=True)
class ExtensionContext:
    """The extension Q_p(sqrt(mu)) for a validated non-square mu.

    ``reduced_mu`` is mu with the square factor divided out (valuation in
    {0, 1} for odd p, the canonical class label for p = 2) and
    ``sqrt_scale`` is the exact s with mu = s**2 * reduced_mu.
    """

    base: PadicContext
    mu: PadicNumber
    mu_class: int = field(init=False, repr=False)
    reduced_mu: PadicNumber = field(init=False, repr=False)
    sqrt_scale: PadicNumber = field(init=False, repr=False)
    # the one zero and one one of the extension, shared by every caller
    _zero: QuadExtElement = field(init=False, repr=False)
    _one: QuadExtElement = field(init=False, repr=False)

    def __new__(cls, base: PadicContext, mu: PadicNumber) -> ExtensionContext:
        if type(mu) is not PadicNumber or mu.context is not base:
            raise ContextMismatch("mu must be a PadicNumber of the base context")
        key = id(base), mu.valuation, mu.unit, mu.prec
        return padic._intern(cls, _EXTENSIONS, key, base=base, mu=mu)

    def _set_up(self) -> None:
        if self.mu.is_zero:
            raise ValidationError("mu must be nonzero")
        if padic.is_square(self.mu):
            raise MuIsSquare(f"mu is a square in Q_{self.base.p}")
        label = padic.square_class(self.mu)
        if self.base.p == 2:
            reduced = self.base.from_int(label)
            scale = padic.sqrt(self.mu / reduced)
        else:
            v = self.mu.valuation
            t = (v - v % 2) // 2
            reduced = PadicNumber(self.base, v - 2 * t, self.mu.unit, self.mu.prec)
            scale = PadicNumber(self.base, t, 1, self.base.precision)
        object.__setattr__(self, "mu_class", label)
        object.__setattr__(self, "reduced_mu", reduced)
        object.__setattr__(self, "sqrt_scale", scale)
        zero = self.base.zero()
        object.__setattr__(self, "_zero", QuadExtElement(self, zero, zero))
        object.__setattr__(self, "_one", QuadExtElement(self, self.base.one(), zero))

    def __reduce__(self):
        return ExtensionContext, (self.base, self.mu)

    @property
    def p(self) -> int:
        return self.base.p

    def is_ramified(self) -> bool:
        """True unless the value group of the extension is p**Z."""
        if self.p == 2:
            return self.mu_class != 5
        return self.reduced_mu.valuation == 1

    def is_isomorphic_to(self, other: ExtensionContext) -> bool:
        """Contexts build isomorphic extensions iff the classes of mu agree."""
        return self.base.p == other.base.p and self.mu_class == other.mu_class

    # -- constructors -------------------------------------------------------

    def element(self, sc: PadicNumber, ac: PadicNumber) -> QuadExtElement:
        return QuadExtElement(self, sc, ac)

    def from_base(self, x: PadicNumber) -> QuadExtElement:
        return QuadExtElement(self, x, self.base.zero())

    def from_ints(self, sc: int, ac: int) -> QuadExtElement:
        return QuadExtElement(self, self.base.from_int(sc), self.base.from_int(ac))

    def zero(self) -> QuadExtElement:
        return self._zero

    def one(self) -> QuadExtElement:
        return self._one

    def sqrt_mu(self) -> QuadExtElement:
        return self.from_ints(0, 1)


@dataclass(frozen=True, slots=True)
class QuadExtElement:
    """z = sc + ac*sqrt(mu) with exact p-adic coordinates."""

    context: ExtensionContext
    sc: PadicNumber
    ac: PadicNumber

    def __init__(self, context: ExtensionContext, sc: PadicNumber, ac: PadicNumber) -> None:
        """The one validator of every element, ``dataclasses.replace`` and the
        kernel's ``_element`` included; the slots are then written through
        their descriptors, not through the frozen class's ``object.__setattr__``."""
        base = context.base
        if sc.context is not base or ac.context is not base:
            raise ContextMismatch("coordinates must live in the base context")
        _set_context(self, context)
        _set_sc(self, sc)
        _set_ac(self, ac)

    @property
    def is_zero(self) -> bool:
        return self.sc.valuation is None and self.ac.valuation is None

    def _check_context(self, other: QuadExtElement) -> None:
        if self.context is not other.context:
            raise ContextMismatch("operands live in different extensions")

    def conj(self) -> QuadExtElement:
        return QuadExtElement(self.context, self.sc, -self.ac)

    def __add__(self, other: QuadExtElement) -> QuadExtElement:
        self._check_context(other)
        return QuadExtElement(self.context, self.sc + other.sc, self.ac + other.ac)

    def __neg__(self) -> QuadExtElement:
        return QuadExtElement(self.context, -self.sc, -self.ac)

    def __sub__(self, other: QuadExtElement) -> QuadExtElement:
        return self + (-other)

    def __mul__(self, other: QuadExtElement) -> QuadExtElement:
        self._check_context(other)
        mu = self.context.mu
        sc = self.sc * other.sc + mu * self.ac * other.ac
        ac = self.sc * other.ac + self.ac * other.sc
        return QuadExtElement(self.context, sc, ac)

    def norm_form(self) -> PadicNumber:
        """z * conj(z) = sc**2 - mu * ac**2, an element of the base field."""
        return self.sc * self.sc - self.context.mu * self.ac * self.ac

    def inv(self) -> QuadExtElement:
        """Through the norm, whose ``inv`` refuses an exact zero and an O(p**N)."""
        d = self.norm_form().inv()
        return QuadExtElement(self.context, self.sc * d, -(self.ac * d))

    def __truediv__(self, other: QuadExtElement) -> QuadExtElement:
        return self * other.inv()

    def ext_abs(self) -> Magnitude:
        """|z| = sqrt(|z conj(z)|_p), exact with a possibly half exponent.

        v(z conj(z)) is the lesser side, 2 v(sc) or 2 v(ac) + v(mu), of
        sc**2 - mu ac**2.  Equal sides cancel in the leading digit only for
        p = 2 and mu = 4**t mu0: by 1 for mu0 = 3 or 7, by 2 for mu0 = 5, as
        odd squares are 1 mod 8.  For odd p, mu0 is a non-residue.  An
        O(p**N) coordinate only bounds its side below, so it raises
        PrecisionExhausted unless the other side is smaller; a z whose
        coordinates are both zeros is 0, as ``is_zero`` reads it."""
        ctx = self.context
        coords = ((self.sc, 0), (self.ac, ctx.mu.valuation))
        sides = [2 * x.valuation + shift for x, shift in coords if not x.is_zero]
        if not sides:
            return Magnitude.zero(ctx.p)
        v = min(sides)
        if any(x.absolute is not None and 2 * x.absolute + shift <= v for x, shift in coords):
            raise PrecisionExhausted("an O(p^N) coordinate could decide |z|; raise the precision")
        if ctx.p == 2 and len(sides) == 2 and sides[0] == sides[1]:
            v += {3: 1, 5: 2, 7: 1}.get(ctx.mu_class, 0)
        return Magnitude(ctx.p, -v)

    def scale_base(self, a: PadicNumber) -> QuadExtElement:
        """Multiply by a base-field scalar."""
        return QuadExtElement(self.context, a * self.sc, a * self.ac)

    def __repr__(self) -> str:
        return f"QuadExt({self.sc!r} + {self.ac!r}*sqrt(mu))"


_set_context, _set_sc, _set_ac = (
    QuadExtElement.__dict__[name].__set__ for name in ("context", "sc", "ac")
)


def max_abs(context: ExtensionContext, values: Iterable[QuadExtElement]) -> Magnitude:
    """The largest |z| over the values; zero when there are none."""
    return max((z.ext_abs() for z in values), default=Magnitude.zero(context.p))


def quad_sum(context: ExtensionContext, terms: list[QuadExtElement]) -> QuadExtElement:
    """Componentwise sum with a single final truncation per coordinate."""
    if any(t.context is not context for t in terms):
        raise ContextMismatch("operands live in different extensions")
    sc = padic.padic_sum(context.base, [t.sc for t in terms])
    ac = padic.padic_sum(context.base, [t.ac for t in terms])
    return QuadExtElement(context, sc, ac)


# -- the integer kernel of sums of products ------------------------------------
#
# Its entry points take lines of elements, and only they decide which factor
# is conjugated and which coordinate form each takes.  Inside, coordinates
# are padic's (valuation, unit, prec) triples: None for an exact zero and
# (N, 0, 0) for O(p**N); an element is None when both of its coordinates
# are None.


def _dots(context: ExtensionContext, rows, ys) -> list[QuadExtElement]:
    """sum_k x_k * y_k for each line of x_k in rows against the one line
    ys, each line converted once: one ``_dot`` per row."""
    right = [_rhs_coords(y) for y in ys]
    return [_dot(context, [_lhs_coords(x) for x in row], right) for row in rows]


def _conj_dot(context: ExtensionContext, xs, ys) -> QuadExtElement:
    """sum_k conj(x_k) * y_k, one ``_dot`` of the conjugated left line."""
    base = context.base
    return _dot(context, [_conj(base, _lhs_coords(x)) for x in xs], [_rhs_coords(y) for y in ys])


def _rhs_coords(z: QuadExtElement):
    """(sc, ac) of a right factor; every kernel operand passes here."""
    sc, ac = padic._triple(z.sc), padic._triple(z.ac)
    return None if sc is None and ac is None else (sc, ac)


def _lhs_coords(z: QuadExtElement):
    """(sc, mu*ac, ac) of a left factor; mu*ac as PadicNumber.__mul__ gives it."""
    coords = _rhs_coords(z)
    if coords is None:
        return None
    sc, ac = coords
    if ac is None:
        return sc, None, None
    mu, pw = z.context.mu, z.context.base._powers
    prec = min(mu.prec, ac[2])
    m = pw[prec] if prec < len(pw) else z.context.base.p ** prec
    return sc, (mu.valuation + ac[0], mu.unit * ac[1] % m, prec), ac


def _conj(base: PadicContext, coords):
    """``_lhs_coords`` or ``_rhs_coords`` of conj(z) from those of z: every
    coordinate after sc negated modulo p**prec, as ``PadicNumber.__neg__``."""
    if coords is None:
        return None
    pw, top, p = base._powers, len(base._powers), base.p
    tail = [c and (c[0], -c[1] % (pw[c[2]] if c[2] < top else p ** c[2]), c[2]) for c in coords[1:]]
    return (coords[0], *tail)


def _dot(context: ExtensionContext, xs, ys) -> QuadExtElement:
    """sum_k x_k * y_k from ``_lhs_coords`` of the x_k and ``_rhs_coords``
    of the y_k, digit for digit ``quad_sum(context, [x * y ...])``.

    Each term of each coordinate, sc*sc' + (mu*ac)*ac' or sc*ac' + ac*sc',
    enters that coordinate's sum as one integer (``_residue``), and each
    sum is truncated once, by the rule of ``padic_sum``.  A residue is the
    term's value at the digits ``QuadExtElement.__mul__`` keeps, so every
    entry is the value of the scalar route, with the same ``prec`` and
    zeros.  No scalar object is built before the result.
    """
    base = context.base
    sc_terms, ac_terms = [], []
    for x, y in zip(xs, ys):
        if x is None or y is None:
            continue
        xsc, xmac, xac = x
        ysc, yac = y
        t = _residue(base, xsc, ysc, xmac, yac)
        if t is not None:
            sc_terms.append(t)
        t = _residue(base, xsc, yac, xac, ysc)
        if t is not None:
            ac_terms.append(t)
    sc, ac = padic._sum_triples(base, sc_terms), padic._sum_triples(base, ac_terms)
    return _element(context, (sc, ac))


def _element(context: ExtensionContext, coords) -> QuadExtElement:
    """The element whose ``_rhs_coords`` pair is coords."""
    base, (sc, ac) = context.base, coords
    return QuadExtElement(context, padic._number(base, sc), padic._number(base, ac))


def _times(base: PadicContext, x, y):
    """The ``_rhs_coords`` pair of x*y from nonzero ``_lhs_coords`` x and
    ``_rhs_coords`` y, as ``QuadExtElement.__mul__`` gives it: each
    coordinate one ``_residue`` term, closed as a sum of one term."""
    (xsc, xmac, xac), (ysc, yac) = x, y
    sc, ac = _residue(base, xsc, ysc, xmac, yac), _residue(base, xsc, yac, xac, ysc)
    return (
        sc and padic._truncate(base, sc[0], sc[0] + sc[2], sc[1]),
        ac and padic._truncate(base, ac[0], ac[0] + ac[2], ac[1]),
    )


def _conj_scaled(context: ExtensionContext, a: QuadExtElement, zs) -> list[QuadExtElement]:
    """conj(a * z) for each z, a and the z nonzero: one ``_times`` then
    ``_conj``, with the digits and prec of ``(a * z).conj()``."""
    base, x = context.base, _lhs_coords(a)
    return [_element(context, _conj(base, _times(base, x, _rhs_coords(z)))) for z in zs]


def _rank_one_entries(context: ExtensionContext, terms) -> dict:
    """{(m, n): sum_j w_j * (e_j[m] conj(f_j[n]))} over the cells some term
    reaches, from (w, e items, f items) triples.  Each e[m] conj(f[n]) is a
    ``_times`` of e[m] with the conjugated f[n], and each cell one ``_dot``
    with the w as left factors: the digits of ``quad_sum`` over the scalar
    products, truncated once per cell."""
    base, cells = context.base, {}
    for w, e, f in terms:
        x = _lhs_coords(w)
        f_conj = [(n, _conj(base, _rhs_coords(fn))) for n, fn in f]
        for m, em in e:
            ex = _lhs_coords(em)
            for n, fy in f_conj:
                cells.setdefault((m, n), []).append((x, _times(base, ex, fy)))
    return {cell: _dot(context, *zip(*pairs)) for cell, pairs in cells.items()}


def _gram_is_identity(ctx: ExtensionContext, lines: list) -> bool:
    """G == Id without forming G, whose entry (m, n) is sum_k
    conj(lines[m][k]) * lines[n][k], one ``_dot``: adjoint(U) U from the
    columns of U, the conjugate of U adjoint(U) from its rows, the Gram
    matrix of an orthonormal system from its vectors.  Entry (n, m) is the
    conjugate of entry (m, n), zeros included, so only m <= n is summed,
    up to the first entry that differs from Id.
    """
    base, one, zero = ctx.base, ctx.one(), ctx.zero()
    left = [[_conj(base, _lhs_coords(z)) for z in line] for line in lines]
    right = [[_rhs_coords(z) for z in line] for line in lines]
    return all(
        _dot(ctx, row, right[n]) == (one if m == n else zero)
        for m, row in enumerate(left)
        for n in range(m, len(right))
    )


def _product(context: ExtensionContext, rows, cols) -> list[list[QuadExtElement]]:
    """The block product of element rows and columns, each entry digit for
    digit ``_dot`` of their ``_lhs_coords`` and ``_rhs_coords``.  Each
    coordinate is a base-field product, sc = [sc | mu*ac] . [sc'; ac'] or
    ac = [sc | ac] . [ac'; sc'], its entry sums packed one int per row
    (``_sums``) and then truncated (``_coordinate``)."""
    base, d = context.base, len(cols)
    rows = [[_lhs_coords(z) for z in row] for row in rows]
    cols = [[_rhs_coords(z) for z in col] for col in cols]
    left_sc = [_scaled(base, [x and x[0] for x in r] + [x and x[1] for x in r]) for r in rows]
    left_ac = [_scaled(base, [x and x[0] for x in r] + [x and x[2] for x in r]) for r in rows]
    right = [_scaled(base, [y and y[0] for y in c] + [y and y[1] for y in c]) for c in cols]
    if None in left_sc or None in left_ac or None in right:
        return [[_dot(context, row, col) for col in cols] for row in rows]
    # [ac'; sc'] is [sc'; ac'] with its halves swapped
    swapped = [(c, u[d:] + u[:d], v[d:] + v[:d], a[d:] + a[:d], *x) for c, u, v, a, *x in right]
    sc, ac = _coordinate(base, left_sc, right), _coordinate(base, left_ac, swapped)
    return [[_element(context, coords) for coords in zip(srow, arow)] for srow, arow in zip(sc, ac)]


_FAR = 1 << 62  # a zero's valuation in a line: beyond every live place


def _scaled(base: PadicContext, line):
    """A line of triples (None for zero) over its least valuation r: r, the
    units p**(v - r) * u, the v - r and v + prec - r (0, _FAR and _FAR for
    a zero), the least v + prec - r, and the least and largest prec; None
    where the valuations span the power table, whose product takes ``_dot``."""
    live = [x for x in line if x]
    vals = [x[0] for x in live] or [0]
    r, pw = min(vals), base._powers
    if max(vals) - r >= len(pw):
        return None
    us = [x[1] * pw[x[0] - r] if x else 0 for x in line]
    vs = [x[0] - r if x else _FAR for x in line]
    als = [x[0] + x[2] - r if x else _FAR for x in line]
    precs = [x[2] for x in live] or [_FAR]
    return r, us, vs, als, min(als), min(precs), max(precs)


def _sums(left, right) -> list[list[int]]:
    """sum(map(mul, us, ws)) for each ``_scaled`` left and right line by
    Kronecker packing: the right lines' units, never negative, share one int
    per place in slots wider than any entry sum."""
    lmax, rmax = (max([max(z[1]) for z in lines] or [0]) for lines in (left, right))
    places = list(zip(*[y[1] for y in right]))
    width = (lmax * rmax * len(places)).bit_length() or 1
    mask, slots = (1 << width) - 1, range(0, width * len(right), width)
    packed = [sum(map(lshift, place, slots)) for place in places]
    return [[s >> i & mask for i in slots] for s in (sum(map(mul, x[1], packed)) for x in left)]


def _coordinate(base: PadicContext, left, right):
    """Entry (m, n) from ``_scaled`` lines: the ``_sum_triples`` triple of
    the ``_residue`` terms of ``_dot``.  S (``_sums``), the sum of the scaled
    units of the live products, is the entry over p**(r + c), known modulo
    p**A, A the least v + v' + min(prec, prec') of those products; the entry
    is O(p**(r + c + A)) where S vanishes modulo p**A, and None where no
    product is live.  A is taken only where the lines' least v + prec leave
    fewer than ``precision`` digits, or S is 0."""
    p, cap, powers, top = base.p, base.precision, base._powers, len(base._powers)
    out = []
    for (r, _, vs, als, low, lo, hi), sums in zip(left, _sums(left, right)):
        row = []
        for (c, _, wvs, wals, wlow, wlo, whi), s in zip(right, sums):
            w = 0
            while s and not s % p:
                s, w = s // p, w + 1
            # at most cap: the prec of a line's least valuation
            k = (low if low < wlow else wlow) - w
            if k < cap or not s:
                least = lo if lo < wlo else wlo
                if least == (hi if hi < whi else whi):
                    a = min(map(add, vs, wvs)) + least
                else:
                    a = min(min(map(add, als, wvs)), min(map(add, vs, wals)))
                if not s or a <= w:
                    row.append(None if a >= _FAR else (r + c + a, 0, 0))
                    continue
                k = a - w if a - w < cap else cap
            row.append((r + c + w, s % (powers[k] if k < top else p**k), k))
        out.append(row)
    return out


def _residue(base: PadicContext, a, b, c, d):
    """The term a*b + c*d of a sum, on coordinate triples, as the triple
    (v, r, k) that ``padic._sum_triples`` sums: the value r * p**v, known
    to k digits, r possibly 0; None when neither product is live.

    v is the lower of the two products' valuations, v + k the term's
    absolute precision as ``PadicNumber`` tracks it, and r the residue
    modulo p**k of the unreduced u_a*u_b*p**(v1-v) + u_c*u_d*p**(v2-v).
    A unit product differs from its reduction by a multiple of p**prec,
    so r * p**v is the term the scalar route (``QuadExtElement.__mul__``)
    hands the sum, modulo p**(v + k), and a sum's outcome depends on its
    terms only there.  The one two-product rule: ``_times`` closes a
    single term."""
    if a is None or b is None:
        if c is None or d is None:
            return None
        a, b, c, d = c, d, a, b
    powers, top, p = base._powers, len(base._powers), base.p
    v, n = a[0] + b[0], a[2] if a[2] < b[2] else b[2]
    # e: how far the second product lies above the first
    if c is None or d is None:
        e = n
    else:
        v2, n2 = c[0] + d[0], c[2] if c[2] < d[2] else d[2]
        if v2 < v:
            a, b, c, d, v, n, v2, n2 = c, d, a, b, v2, n2, v, n
        e = v2 - v
    if e >= n:  # no second product inside the first one's digits
        return v, a[1] * b[1] % (powers[n] if n < top else p**n), n
    k = n if n < e + n2 else e + n2
    m = powers[k] if k < top else p**k
    return v, (a[1] * b[1] + c[1] * d[1] * (powers[e] if e < top else p**e)) % m, k
