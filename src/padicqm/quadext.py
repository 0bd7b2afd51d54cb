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
from fractions import Fraction
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
        """|z| = sqrt(|z conj(z)|_p), exact with a possibly half exponent (``_abs``)."""
        return _abs(self.context, _rhs_coords(self))

    def scale_base(self, a: PadicNumber) -> QuadExtElement:
        """Multiply by a base-field scalar."""
        return QuadExtElement(self.context, a * self.sc, a * self.ac)

    def __repr__(self) -> str:
        return f"QuadExt({self.sc!r} + {self.ac!r}*sqrt(mu))"


_set_context, _set_sc, _set_ac = (
    QuadExtElement.__dict__[name].__set__ for name in ("context", "sc", "ac")
)


def max_abs(context: ExtensionContext, values: Iterable[QuadExtElement]) -> Magnitude:
    """The largest |z| over the values; zero when there are none (``_max_abs``)."""
    return _max_abs(context, map(_rhs_coords, values))


def _max_abs(context: ExtensionContext, entries) -> Magnitude:
    """The largest |z| over grid entries, unless an O(p**N) leaves it open (``_abs_range``)."""
    low, high = _abs_range(context, entries)
    if low != high:
        raise PrecisionExhausted("an O(p^N) entry could exceed the largest known |z|; raise the precision")
    return low


def _abs(context: ExtensionContext, coords) -> Magnitude:
    """|z| = sqrt(|z conj(z)|_p) of an entry, exact with a possibly half exponent.

    v(z conj(z)) is the lesser side, 2 v(sc) or 2 v(ac) + v(mu), of
    sc**2 - mu ac**2.  Equal sides cancel in the leading digit only for
    p = 2 and mu = 4**t mu0: by 1 for mu0 = 3 or 7, by 2 for mu0 = 5, as
    odd squares are 1 mod 8.  For odd p, mu0 is a non-residue.  An
    O(p**N) coordinate only bounds its side below, so it raises
    PrecisionExhausted unless the other side is smaller; an entry with no
    known digit is 0, as ``QuadExtElement.is_zero`` reads it."""
    (sc, ac), shift = coords or (None, None), context.mu.valuation
    s = 2 * sc[0] if sc and sc[2] else None
    a = 2 * ac[0] + shift if ac and ac[2] else None
    if s is None and a is None:
        return Magnitude.zero(context.p)
    v = a if s is None or a is not None and a < s else s
    if sc and not sc[2] and 2 * sc[0] <= v or ac and not ac[2] and 2 * ac[0] + shift <= v:
        raise PrecisionExhausted("an O(p^N) coordinate could decide |z|; raise the precision")
    if context.p == 2 and s == a:
        v += {3: 1, 5: 2, 7: 1}.get(context.mu_class, 0)
    return Magnitude(context.p, -v)


def _abs_range(context: ExtensionContext, entries) -> tuple[Magnitude, Magnitude]:
    """The least and largest values max |z| over grid entries may take.  An
    entry with no known digit, a coordinate O(p**N), lies at or below p**(b/2),
    b = -min(2 N_sc, 2 N_ac + v(mu)) (an exact zero side left out): the largest
    is the greater of that and the largest known |z|, the least the latter."""
    largest, bound, shift = Magnitude.zero(context.p), None, context.mu.valuation
    for c in entries:
        if _live(c):
            largest = max(largest, _abs(context, c))
        elif c:
            b = -min(2 * t[0] + s for t, s in zip(c, (0, shift)) if t)
            bound = b if bound is None or b > bound else bound
    if bound is None:
        return largest, largest
    return largest, max(largest, Magnitude(context.p, bound))


def _abs_is_one(context: ExtensionContext, entries) -> bool:
    """Whether max |z| over grid entries is 1: False where ``_abs_range`` lies above or
    below 1, PrecisionExhausted where it holds 1 and other values too."""
    low, high = _abs_range(context, entries)
    one = Magnitude.one(context.p)
    if high < one or one < low:
        return False
    if low != high:
        raise PrecisionExhausted("an O(p^N) entry leaves open whether the largest |z| is 1; raise the precision")
    return True


def _magnitude_within(context: ExtensionContext, coords, bound: Fraction | None) -> bool:
    """Whether an entry has v(z) >= bound (None: only zero does); PrecisionExhausted
    for one with no known digit and a coordinate O(p**N), N below the bound."""
    if not _live(coords):
        floors = [t[0] for t in coords or () if t]
        if floors and (bound is None or min(floors) < bound):
            raise PrecisionExhausted("O(p^N) with N below the decay bound; raise the precision")
        return True
    return bound is not None and Fraction(-_abs(context, coords).exp2, 2) >= bound


def quad_sum(context: ExtensionContext, terms: list[QuadExtElement]) -> QuadExtElement:
    """Componentwise sum with a single final truncation per coordinate."""
    if any(t.context is not context for t in terms):
        raise ContextMismatch("operands live in different extensions")
    sc = padic.padic_sum(context.base, [t.sc for t in terms])
    ac = padic.padic_sum(context.base, [t.ac for t in terms])
    return QuadExtElement(context, sc, ac)


# -- coordinate grids ------------------------------------------------------------
#
# A coordinate is padic's (valuation, unit, prec) triple: None for an exact
# zero and (N, 0, 0) for O(p**N).  An entry is the pair (sc, ac) of its
# coordinates (``_rhs_coords``), None when both are None, and a grid is a
# tuple of rows of entries: a block is stored so.  Every operation on a grid
# is here, and ``operators``, ``states`` and ``hilbert`` pass grids through;
# besides ``padic``, whose integer layer they are, only ``jsonio`` reads
# triples, to write their digits.  The kernel's entry points read and
# return grids and lines of entries, and an element is built only where a
# caller reads one.


def _grid(context: ExtensionContext, rows) -> tuple:
    """The grid of element rows, each read once; ContextMismatch for another extension's."""
    if any(z.context is not context for row in rows for z in row):
        raise ContextMismatch("entry from a different extension")
    return tuple(tuple(map(_rhs_coords, row)) for row in rows)


def _elements(context: ExtensionContext, grid) -> tuple:
    return tuple(tuple(_element(context, c) for c in row) for row in grid)


def _coords(sc, ac):
    """The entry of the coordinates sc and ac."""
    return None if sc is None and ac is None else (sc, ac)


def _rhs_coords(z: QuadExtElement):
    """The entry of an element, the form of a right factor."""
    return _coords(padic._triple(z.sc), padic._triple(z.ac))


def _element(context: ExtensionContext, coords) -> QuadExtElement:
    if coords is None:
        return context.zero()
    base, (sc, ac) = context.base, coords
    return QuadExtElement(context, padic._number(base, sc), padic._number(base, ac))


def _live(coords) -> bool:
    """Whether an entry has a known digit: no zero, as ``is_zero`` reads it."""
    return coords is not None and bool(coords[0] and coords[0][2] or coords[1] and coords[1][2])


def _known_at_one(entries) -> bool:
    """Whether no coordinate is O(p**N) with N <= 0, whose p**0 digit is unknown."""
    return not any(t and not t[2] and t[0] <= 0 for c in entries if c for t in c)


def _pad(grid, d: int) -> tuple:
    """The grid zero-padded to d by d (d at least its size): blocks of different
    sizes meet as the larger, the smaller one vanishing outside its own."""
    k = d - len(grid)
    return tuple(row + (None,) * k for row in grid) + ((None,) * d,) * k if k else grid


def _diagonal(context: ExtensionContext, values) -> tuple:
    (line,) = _grid(context, [values])
    return tuple(tuple(c if m == n else None for n in range(len(line))) for m, c in enumerate(line))


def _added(context: ExtensionContext, a, b) -> tuple:
    """The grid of x + y, each coordinate as ``PadicNumber.__add__``: an exact zero adds nothing."""
    base = context.base

    def add(x, y):
        if x is None or y is None:
            return y if x is None else x
        return tuple(s if t is None else t if s is None else padic._sum_triples(base, [s, t]) for s, t in zip(x, y))

    return tuple(tuple(map(add, r, s)) for r, s in zip(a, b))


def _scale(context: ExtensionContext, a: QuadExtElement, grid) -> tuple:
    """The grid of a * z, one ``_times`` per entry, as ``QuadExtElement.__mul__``."""
    base, x = context.base, _lhs_coords(a)
    return tuple(tuple(x and c and _times(base, x, c) for c in row) for row in grid)


def _adjoint(context: ExtensionContext, grid) -> tuple:
    """The grid of conj(z), transposed."""
    return tuple(tuple(_conj(context.base, c) for c in col) for col in zip(*grid))


def _trace(context: ExtensionContext, grid) -> QuadExtElement:
    """The diagonal sum, each coordinate truncated once, as ``quad_sum``."""
    diagonal = [row[m] for m, row in enumerate(grid) if row[m]]
    return _element(context, tuple(padic._sum_triples(context.base, [c[i] for c in diagonal if c[i]]) for i in (0, 1)))


def _equal(base: PadicContext, x, y) -> bool:
    """x == y for entries by ``PadicNumber.__eq__``: O(p**N) equals any zero and v >= N."""
    for s, t in zip(x or (None, None), y or (None, None)):
        if not (s and s[2] and t and t[2]):
            zero, other = (t, s) if s and s[2] else (s, t)
            if other and other[2] and (zero is None or other[0] < zero[0]):
                return False
        elif s[0] != t[0] or (s[1] - t[1]) % base._power(min(s[2], t[2])):
            return False
    return True


# -- the integer kernel of sums of products ------------------------------------
#
# Its entry points take lines of entries, and only they decide which factor
# is conjugated and which coordinate form each takes: ``_rhs_coords`` for a
# right factor, ``_lhs`` for a left one.


def _sum_of_products(context: ExtensionContext, xs, ys, sign: int = 1) -> QuadExtElement:
    """The element sum_k x_k * y_k of two lines of entries; conj(x_k) for sign -1."""
    return _element(context, _dot(context, [_lhs(context, x, sign) for x in xs], ys))


def _lhs(context: ExtensionContext, coords, sign: int = 1):
    """(sc, mu*ac, ac) of a left factor's entry, mu*ac as ``PadicNumber.__mul__``
    gives it; with sign -1 those of its conjugate (``_conj``)."""
    if coords is None:
        return None
    sc, ac = coords
    if ac is None:
        return sc, None, None
    mu, pw, k = context.mu, context.base._powers, min(context.mu.prec, ac[2])
    mac = mu.valuation + ac[0], sign * mu.unit * ac[1] % (pw[k] if k < len(pw) else context.base.p**k), k
    return sc, mac, ac if sign > 0 else _neg(context.base, ac)


def _lhs_coords(z: QuadExtElement):
    """``_lhs`` of an element."""
    return _lhs(z.context, _rhs_coords(z))


def _neg(base: PadicContext, t):
    """The triple of -x from that of x, as ``PadicNumber.__neg__``: a zero stays one."""
    return t and (t[0], -t[1] % (base._powers[t[2]] if t[2] < len(base._powers) else base.p ** t[2]), t[2])


def _conj(base: PadicContext, coords):
    """``_lhs`` or entry of conj(z) from those of z: every coordinate after sc ``_neg``."""
    return coords and (coords[0], *[_neg(base, c) for c in coords[1:]])


def _dot(context: ExtensionContext, xs, ys):
    """The entry sum_k x_k * y_k from ``_lhs`` of the x_k and the entries
    y_k, digit for digit ``quad_sum(context, [x * y ...])``.

    Each term of each coordinate, sc*sc' + (mu*ac)*ac' or sc*ac' + ac*sc',
    enters that coordinate's sum as one integer (``_residue``), and each
    sum is truncated once, by the rule of ``padic_sum``.  A residue is the
    term's value at the digits ``QuadExtElement.__mul__`` keeps, so every
    entry is the value of the scalar route, with the same ``prec`` and
    zeros.  No scalar object is built.
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
    return _coords(padic._sum_triples(base, sc_terms), padic._sum_triples(base, ac_terms))


def _times(base: PadicContext, x, y):
    """The entry x*y of nonzero ``_lhs`` x and entry y, as ``QuadExtElement.__mul__``:
    each coordinate one ``_residue`` term, closed as a sum of one term."""
    (xsc, xmac, xac), (ysc, yac) = x, y
    sc, ac = _residue(base, xsc, ysc, xmac, yac), _residue(base, xsc, yac, xac, ysc)
    return (
        sc and padic._truncate(base, sc[0], sc[0] + sc[2], sc[1]),
        ac and padic._truncate(base, ac[0], ac[0] + ac[2], ac[1]),
    )


def _scaled_row(context: ExtensionContext, a: QuadExtElement, items) -> tuple:
    """(n, the entry a * c, one ``_times``) for each (n, c) of items, a and
    the c no zeros; a product with no known digit is left out, as ``PVector`` does."""
    base, x = context.base, _lhs_coords(a)
    row = ((n, _times(base, x, c)) for n, c in items)
    return tuple((n, g) for n, g in row if _live(g))


def _conj_row(context: ExtensionContext, row) -> dict:
    """{n: conj(g)} over the (n, g) of a ``_scaled_row``, conjugated on coordinates."""
    return {n: _element(context, _conj(context.base, g)) for n, g in row}


def _row_block(context: ExtensionContext, dim: int, rows) -> tuple:
    """The dim-by-dim grid with row m the w * g of each (m, w, g) of rows, g a
    ``_scaled_row``: one ``_times`` per entry, the one-term ``_dot``; g where w is None."""
    grid = [[None] * dim for _ in range(dim)]
    for m, w, g in rows:
        x, line = w and _lhs_coords(w), grid[m - 1]
        for n, y in g:
            line[n - 1] = _times(context.base, x, y) if x else y
    return tuple(map(tuple, grid))


def _hermitian_row_block(context: ExtensionContext, dim: int, rows) -> tuple:
    """The grid of ``_row_block`` plus its adjoint: the terms w * g[n] at (m, n)
    and conj(w) * conj(g[n]) at (n, m), each entry one ``_dot`` of its terms."""
    base, cells = context.base, {}
    for m, w, g in rows:
        x = _lhs_coords(w)
        for n, y in g:
            cells.setdefault((m, n), []).append((x, y))
            cells.setdefault((n, m), []).append((_conj(base, x), _conj(base, y)))
    span = range(1, dim + 1)
    return tuple(tuple(_dot(context, *zip(*cells[m, n])) if (m, n) in cells else None for n in span) for m in span)


def _rank_one_entries(context: ExtensionContext, dim: int, terms) -> tuple:
    """The dim-by-dim grid of sum_j w_j * (e_j[m] conj(f_j[n])) from (w, e items, f
    items) triples.  Each e[m] conj(f[n]) is a ``_times`` of e[m] with the
    conjugated f[n], and each cell one ``_dot`` with the w as left factors:
    the digits of ``quad_sum`` over the scalar products."""
    base, cells = context.base, {}
    for w, e, f in terms:
        x = _lhs_coords(w)
        f_conj = [(n, _conj(base, _rhs_coords(fn))) for n, fn in f]
        for m, em in e:
            ex = _lhs_coords(em)
            for n, fy in f_conj:
                cells.setdefault((m, n), []).append((x, _times(base, ex, fy)))
    span = range(1, dim + 1)
    return tuple(tuple(_dot(context, *zip(*cells[m, n])) if (m, n) in cells else None for n in span) for m in span)


def _gram_is_identity(ctx: ExtensionContext, lines: list) -> bool:
    """G == Id without forming G, whose entry (m, n) is sum_k
    conj(lines[m][k]) * lines[n][k] over lines of entries: adjoint(U) U from
    the columns of U, the conjugate of U adjoint(U) from its rows, the Gram
    matrix of an orthonormal system from its vectors.  Entry (n, m) is the
    conjugate of entry (m, n), zeros included, so only m <= n is decided, up
    to the first entry that differs from Id: the diagonal first, each entry
    as its line is scaled (``_gram_line``), then row m's entries n > m from
    the row's packed sums (``_sums``), each read off its integer sums by
    ``_matches_id``.  Where a line spans the power table every entry is one
    ``_dot``, as in a product."""
    base, d, grams = ctx.base, len(lines), []
    for line in lines:
        g = _gram_line(ctx, line)
        if g is None:
            one = _rhs_coords(ctx.one())
            left = [[_lhs(ctx, z, -1) for z in x] for x in lines]
            cells = ((m, n) for m in range(d) for n in range(m, d))
            return all(_equal(base, _dot(ctx, left[m], lines[n]), one if m == n else None) for m, n in cells)
        xs, xa, y = g[:3]
        if not _matches_id(base, g, g, sum(map(mul, xs[1], y[1])), sum(map(mul, xa[1], y[1]))):
            return False
        grams.append(g)
    sums = _sums([x for g in grams for x in g[:2]], [g[2] for g in grams])
    # the rows come in pairs, sc then ac of one left line; the last has no n > m
    for m, (g, srow, arow) in enumerate(zip(grams[:-1], sums, sums)):
        for n in range(m + 1, d):
            if not _matches_id(base, g, grams[n], srow[n], arow[n]):
                return False
    return True


def _gram_line(ctx: ExtensionContext, line):
    """The ``_scaled`` lines of one Gram line z of entries and their
    ``_masks``: conj(z) . z' has sc = [sc | -mu*ac] . [sc' | ac'] and
    ac = [-ac | sc] . [sc' | ac'], so the left sc line, the left ac line and
    the right line [sc | ac], then the masks of each.  Conjugation changes
    units only, so the left ac line is the right line's structure with its
    halves swapped and its ac units negated, as ``_lhs`` of the conjugate
    gives them, and its masks are the right line's with their halves
    swapped.  The left sc line is scaled on its own.  None where a line
    spans the power table."""
    base, mu, d = ctx.base, ctx.mu, len(line)
    pw, top, p = base._powers, len(base._powers), base.p
    scs, acs = [c and c[0] for c in line], [c and c[1] for c in line]
    right = _scaled(base, scs + acs)
    if right is None:
        return None
    r, us, vs, als, low, lo, hi = right
    neg = [-a[1] % (pw[a[2]] if a[2] < top else p ** a[2]) * pw[a[0] - r] if a else 0 for a in acs]
    left_ac = r, neg + us[:d], vs[d:] + vs[:d], als[d:] + als[:d], low, lo, hi
    lows, zeros = masks = _masks(right)
    half = (1 << d) - 1
    flipped = lows >> d | (lows & half) << d, zeros >> d | (zeros & half) << d
    mac = []
    for a in acs:
        if a:
            k = mu.prec if mu.prec < a[2] else a[2]
            a = mu.valuation + a[0], -mu.unit * a[1] % (pw[k] if k < top else p**k), k
        mac.append(a)
    left = _scaled(base, scs + mac)
    return left and (left, left_ac, right, _masks(left), flipped, masks)


def _masks(line) -> tuple[int, int]:
    """Two bit masks of a ``_scaled`` line's places: where it sits at its
    least v + prec, and where at valuation 0 (``_vanishes``)."""
    vs, als, low = line[2], line[3], line[4]
    return sum([1 << i for i, a in enumerate(als) if a == low]), sum([1 << i for i, v in enumerate(vs) if not v])


def _matches_id(base: PadicContext, g, h, s: int, t: int) -> bool:
    """Whether entry (m, n) of a Gram matrix equals Id's, from the
    ``_gram_line`` g of line m, h of line n, and the entry's sc and ac sums:
    off the diagonal both coordinates are zeros, and on it (h is g) sc is 1,
    as ``_entries`` reads its triple (O(p**N) equals 1 where N <= 0), and ac
    is a zero."""
    xs, xa, _, ms, ma, _ = g
    y, my = h[2], h[5]
    if h is g:
        e = _entries(base, xs, (y,), (s,))[0]
        if e is None or (e[0] > 0 if not e[2] else e[0] != 0 or e[1] != 1):
            return False
    elif not _vanishes(base, xs, ms, y, my, s):
        return False
    return _vanishes(base, xa, ma, y, my, t)


def _vanishes(base: PadicContext, x, xm, y, ym, s: int) -> bool:
    """Whether ``_entries`` of lines x, y with ``_masks`` xm, ym and sum s
    is a zero, exact or O(p**N), without forming it: s is 0, or p**A
    divides s.  Every live product has v + v' + min(prec, prec') >=
    min(v + prec, v' + prec'), so A >= a0, the lesser of the lines' least
    v + prec, and an s that p**a0 does not divide is no zero.  A is a0 where
    the line that attains a0 sits at its least v + prec at a place where the
    other is at valuation 0: that product's bound is at most a0."""
    if not s:
        return True
    powers, top, p = base._powers, len(base._powers), base.p
    low, wlow = x[4], y[4]
    a = low if low < wlow else wlow
    if s % (powers[a] if a < top else p**a):
        return False
    if low <= wlow and xm[0] & ym[1] or wlow <= low and xm[1] & ym[0]:
        return True
    a = _bound(x, y)
    return not s % (powers[a] if a < top else p**a)


def _product(context: ExtensionContext, rows, cols) -> tuple:
    """The grid product of grid rows and columns, each entry digit for digit ``_dot``
    of their ``_lhs`` and entries.  Each coordinate is a base-field product,
    sc = [sc | mu*ac] . [sc'; ac'] or ac = [ac | sc] . [sc'; ac'], its entry
    sums packed one int per row (``_sums``) and truncated (``_entries``), or
    one ``_times`` per entry (the one-term ``_dot``) for a row with at most one
    live place.  The columns are scaled only for a packed row (else ``_spans``)."""
    base = context.base
    rows = [[_lhs(context, c) for c in row] for row in rows]
    places = [[k for k, x in enumerate(r) if x] for r in rows]
    # a row with one live place is checked against the power table on that place alone
    cut = [([r[ks[0]]] if len(ks) == 1 else r, len(ks) > 1) for r, ks in zip(rows, places)]
    # both coordinates of a row against the same right lines, packed once
    lines = [([x and x[i] for x in r] + [x and x[j] for x in r], packed) for r, packed in cut for i, j in ((0, 1), (2, 0))]
    right = [[y and y[0] for y in c] + [y and y[1] for y in c] for c in cols]
    dense = [_scaled(base, x) for x, packed in lines if packed]
    right = [_scaled(base, y) for y in right] if dense else [None if _spans(base, y) else y for y in right]
    if None in dense or None in right or any(_spans(base, x) for x, packed in lines if not packed):
        return tuple(tuple(_dot(context, row, col) for col in cols) for row in rows)
    pairs = iter([_entries(base, x, right, s) for x, s in zip(dense, _sums(dense, right) if dense else ())])
    # a packed row's two lines of sums, else one _times of its live place per column
    return tuple(
        tuple(map(_coords, next(pairs), next(pairs)))
        if len(ks) > 1
        else tuple(_times(base, r[ks[0]], c[ks[0]]) if ks and c[ks[0]] else None for c in cols)
        for r, ks in zip(rows, places)
    )


_FAR = 1 << 62  # a zero's valuation in a line: beyond every live place


def _spans(base: PadicContext, line) -> bool:
    """Whether a line's live valuations span the power table, as ``_scaled`` refuses it."""
    vals = [x[0] for x in line if x]
    return bool(vals) and max(vals) - min(vals) >= len(base._powers)


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


def _sums(left, right):
    """sum(map(mul, us, ws)) of each ``_scaled`` left line against every
    right line, one row per left line as it is read, by Kronecker packing:
    the right lines' units, never negative, share one int per place in
    slots wider than any entry sum."""
    lmax, rmax = (max([max(z[1]) for z in lines] or [0]) for lines in (left, right))
    places = list(zip(*[y[1] for y in right]))
    width = (lmax * rmax * len(places)).bit_length() or 1
    mask, slots = (1 << width) - 1, range(0, width * len(right), width)
    packed = [sum(map(lshift, place, slots)) for place in places]
    for x in left:
        s = sum(map(mul, x[1], packed))
        yield [s >> i & mask for i in slots]


def _entries(base: PadicContext, x, right, sums) -> list:
    """Entry (m, n) of left line x against each right line from their sum s
    (``_sums``), all ``_scaled``: the ``_sum_triples`` triple of the
    ``_residue`` terms of ``_dot``.  s, the sum of the scaled units of the
    live products, is the entry over p**(r + c), known modulo p**A
    (``_bound``); the entry is O(p**(r + c + A)) where s vanishes modulo
    p**A, and None where no product is live.  A is taken only where the
    lines' least v + prec leave fewer than ``precision`` digits, or s is 0."""
    p, cap, powers, top = base.p, base.precision, base._powers, len(base._powers)
    r, _, _, _, low, _, _ = x
    row = []
    for y, s in zip(right, sums):
        c, wlow = y[0], y[4]
        w = 0
        while s and not s % p:
            s, w = s // p, w + 1
        # at most cap: the prec of a line's least valuation
        k = (low if low < wlow else wlow) - w
        if k < cap or not s:
            a = _bound(x, y)
            if not s or a <= w:
                row.append(None if a >= _FAR else (r + c + a, 0, 0))
                continue
            k = a - w if a - w < cap else cap
        row.append((r + c + w, s % (powers[k] if k < top else p**k), k))
    return row


def _bound(x, y) -> int:
    """A of ``_scaled`` lines x and y: the least v + v' + min(prec, prec')
    over the places where both are live, _FAR or more where none is."""
    _, _, vs, als, _, lo, hi = x
    _, _, wvs, wals, _, wlo, whi = y
    least = lo if lo < wlo else wlo
    if least == (hi if hi < whi else whi):
        return min(map(add, vs, wvs)) + least
    return min(min(map(add, als, wvs)), min(map(add, vs, wals)))


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
