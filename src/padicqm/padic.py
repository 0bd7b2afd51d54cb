"""Exact p-adic arithmetic with tracked significant digits.

A nonzero number is stored as p**valuation * unit, where the unit carries
``prec`` known base-p digits (at most the context precision, which is the
cap every freshly constructed value starts from).  Operations propagate
the honest precision: products keep the smaller operand precision, and
sums lose digits only under additive cancellation.  A sum that vanishes
at its absolute precision N is the inexact zero O(p**N), decided by the
operand values alone; only a consumer that needs its valuation or a digit
raises PrecisionExhausted.  Equality compares numbers at their common
tracked precision, which is exactly the decidable notion the model
certifies.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidPrime,
    NotASquare,
    PrecisionExhausted,
    UnsupportedForP2,
    ValidationError,
    ZeroInput,
)


# The first 13 primes decide every n below _MR_LIMIT as Miller-Rabin bases
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Largest exponent a context caches p**e for.  The table's bits grow with
# the square of its length, and a precision comes from the caller.
_POWER_TABLE = 64

# Largest precision a context accepts: it builds p**precision at once.
MAX_PRECISION = 10_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24, refused above."""
    if n >= _MR_LIMIT:
        raise ValidationError("primality is decided only below 3.3e24")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing the nonzero integer n."""
    if n == 0:
        raise ZeroInput("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# The live contexts, one per key, held weakly: a context nothing else refers
# to is freed and leaves its table.
_CONTEXTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERNING = threading.RLock()


# The live context of cls under key, else a new one with these fields, set up
# and entered.  One lock covers the lookup, the set-up and the entry, so two
# threads that build one new context get one object.
def _intern(cls, table: weakref.WeakValueDictionary, key: tuple, **fields):
    with _INTERNING:
        self = table.get(key)
        if self is None:
            self = object.__new__(cls)
            for name, value in fields.items():
                object.__setattr__(self, name, value)
            self._set_up()
            table[key] = self
        return self


@dataclass(frozen=True, slots=True, eq=False, init=False, weakref_slot=True)
class PadicContext:
    """A prime p and the cap on significant base-p digits carried: one
    object per (p, precision), which copies and pickles come back as."""

    p: int
    precision: int
    modulus: int = field(init=False, repr=False)
    # p**0 .. p**min(2 * precision, _POWER_TABLE): the digit moduli and the
    # usual valuation gaps of a moderate precision
    _powers: tuple[int, ...] = field(init=False, repr=False)
    # the one zero and one one of the context, shared by every caller
    _zero: PadicNumber = field(init=False, repr=False)
    _one: PadicNumber = field(init=False, repr=False)

    def __new__(cls, p: int, precision: int) -> PadicContext:
        if type(p) is not int or type(precision) is not int:
            raise ValidationError("p and precision must be integers")
        return _intern(cls, _CONTEXTS, (p, precision), p=p, precision=precision)

    def _set_up(self) -> None:
        if not is_prime(self.p):
            raise InvalidPrime(f"{self.p} is not prime")
        if not 5 <= self.precision <= MAX_PRECISION:
            raise ValidationError(f"precision must be between 5 and {MAX_PRECISION}")
        object.__setattr__(self, "modulus", self.p**self.precision)
        top = min(2 * self.precision, _POWER_TABLE)
        object.__setattr__(self, "_powers", tuple(self.p**e for e in range(top + 1)))
        object.__setattr__(self, "_zero", PadicNumber(self, None, 0, self.precision))
        object.__setattr__(self, "_one", PadicNumber(self, 0, 1, self.precision))

    def __reduce__(self):
        return PadicContext, (self.p, self.precision)

    def _power(self, e: int) -> int:
        """p**e for e >= 0: from the table, or computed past it (the loops
        of ``_sum_triples`` and ``quadext._residue`` and the validator of
        ``PadicNumber`` inline this)."""
        powers = self._powers
        return powers[e] if e < len(powers) else self.p**e

    def zero(self) -> PadicNumber:
        return self._zero

    def one(self) -> PadicNumber:
        return self._one

    def from_int(self, n: int) -> PadicNumber:
        if n == 0:
            return self.zero()
        v = int_valuation(n, self.p)
        return PadicNumber(self, v, (n // self.p**v) % self.modulus, self.precision)

    def from_fraction(self, q: Fraction) -> PadicNumber:
        if q == 0:
            return self.zero()
        num, den = q.numerator, q.denominator
        vn = int_valuation(num, self.p)
        vd = int_valuation(den, self.p)
        num //= self.p**vn
        den //= self.p**vd
        unit = num * pow(den, -1, self.modulus) % self.modulus
        return PadicNumber(self, vn - vd, unit, self.precision)

    def from_digits(self, valuation: int, digits: list[int]) -> PadicNumber:
        """Build a number from little-endian base-p digits of the unit."""
        if not 1 <= len(digits) <= self.precision:
            raise ValidationError("need between 1 and `precision` digits")
        unit = 0
        for d in reversed(digits):
            if type(d) is not int or not 0 <= d < self.p:
                raise ValidationError(f"digit {d!r} is not an integer in [0, {self.p})")
            unit = unit * self.p + d
        if unit % self.p == 0:
            raise ValidationError("unit must have a nonzero first digit")
        return PadicNumber(self, valuation, unit, len(digits))


@dataclass(frozen=True, slots=True, eq=False)
class PadicNumber:
    """Element of Q_p known to ``prec`` significant digits.

    ``valuation is None`` encodes a zero: exact, or, with ``absolute`` N,
    the inexact zero O(p**N) that a sum vanishing at its absolute precision
    gives (``prec`` 0).  The valuation of a nonzero number is always exact:
    the leading digit is known and nonzero.
    """

    context: PadicContext
    valuation: int | None
    unit: int
    prec: int
    absolute: int | None = None

    def __init__(
        self,
        context: PadicContext,
        valuation: int | None,
        unit: int,
        prec: int,
        absolute: int | None = None,
    ) -> None:
        """The one validator of every scalar, ``dataclasses.replace`` and the
        kernel's ``_number`` included; the slots are then written through
        their descriptors, not through the frozen class's ``object.__setattr__``."""
        if type(unit) is not int or type(prec) is not int:
            raise ValidationError("unit and precision must be integers")
        if valuation is None:
            if unit != 0:
                raise ValidationError("zero must carry unit 0")
            if absolute is not None and type(absolute) is not int:
                raise ValidationError("absolute precision must be an integer")
        else:
            if type(valuation) is not int:
                raise ValidationError("valuation must be an integer")
            if absolute is not None:
                raise ValidationError("only a zero carries an absolute precision")
            if not 1 <= prec <= context.precision:
                raise ValidationError("precision out of range")
            # context._power, inlined
            powers = context._powers
            modulus = powers[prec] if prec < len(powers) else context.p**prec
            if not 0 < unit < modulus or unit % context.p == 0:
                raise ValidationError("unit must be reduced and coprime to p")
        _set_context(self, context)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_prec(self, prec)
        _set_absolute(self, absolute)

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def __eq__(self, other: object) -> bool:
        """Equality at the common tracked precision: O(p**N) equals any zero
        and any number of valuation at least N."""
        if not isinstance(other, PadicNumber):
            return NotImplemented
        if self.context is not other.context:
            return False
        if self.valuation is None or other.valuation is None:
            zero, x = (self, other) if self.valuation is None else (other, self)
            return x.valuation is None or zero.absolute is not None and x.valuation >= zero.absolute
        if self.valuation != other.valuation:
            return False
        m = self.context._power(min(self.prec, other.prec))
        return self.unit % m == other.unit % m

    __hash__ = None  # tracked-precision equality is not hash-compatible

    def _check_context(self, other: PadicNumber) -> None:
        if self.context is not other.context:
            raise ContextMismatch("operands live in different contexts")

    def _require_nonzero(self, error: type, message: str) -> None:
        """error(message) for an exact zero; PrecisionExhausted for O(p**N),
        whose valuation and digits are unknown."""
        if self.valuation is None:
            if self.absolute is None:
                raise error(message)
            raise PrecisionExhausted(
                f"O({self.context.p}^{self.absolute}) has no known valuation or digit;"
                " raise the precision"
            )

    # -- views ----------------------------------------------------------------

    def abs_p(self) -> Fraction:
        """|x|_p = p**(-valuation) as an exact rational; 0 for a zero."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.context.p) ** (-self.valuation)

    def digits(self) -> list[int]:
        """The known little-endian base-p digits of the unit part."""
        self._require_nonzero(ZeroInput, "exact zero has no digit expansion")
        out, u = [], self.unit
        for _ in range(self.prec):
            u, d = divmod(u, self.context.p)
            out.append(d)
        return out

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: PadicNumber) -> PadicNumber:
        self._check_context(other)
        a, b = _triple(self), _triple(other)
        if a is None:
            return other
        if b is None:
            return self
        return _number(self.context, _sum_triples(self.context, [a, b]))

    def __neg__(self) -> PadicNumber:
        if self.is_zero:
            return self
        m = self.context._power(self.prec)
        return PadicNumber(self.context, self.valuation, m - self.unit, self.prec)

    def __sub__(self, other: PadicNumber) -> PadicNumber:
        return self + (-other)

    def __mul__(self, other: PadicNumber) -> PadicNumber:
        """An exact zero absorbs; O(p**N) * x is O(p**(N + v(x)))."""
        self._check_context(other)
        if self.valuation is None or other.valuation is None:
            a, b = _triple(self), _triple(other)
            if a is None or b is None:
                return self.context.zero()
            return _number(self.context, (a[0] + b[0], 0, 0))
        prec = min(self.prec, other.prec)
        unit = self.unit * other.unit % self.context._power(prec)
        return PadicNumber(self.context, self.valuation + other.valuation, unit, prec)

    def inv(self) -> PadicNumber:
        self._require_nonzero(DivisionByZero, "cannot invert zero")
        m = self.context._power(self.prec)
        return PadicNumber(self.context, -self.valuation, pow(self.unit, -1, m), self.prec)

    def __truediv__(self, other: PadicNumber) -> PadicNumber:
        return self * other.inv()

    def __repr__(self) -> str:
        if self.is_zero:
            zero = "0" if self.absolute is None else f"O({self.context.p}^{self.absolute})"
            return f"PadicNumber(p={self.context.p}, {zero})"
        return (
            f"PadicNumber(p={self.context.p}, v={self.valuation}, digits={self.digits()})"
        )


_set_context, _set_valuation, _set_unit, _set_prec, _set_absolute = (
    PadicNumber.__dict__[name].__set__
    for name in ("context", "valuation", "unit", "prec", "absolute")
)


def padic_sum(context: PadicContext, terms: list[PadicNumber]) -> PadicNumber:
    """Sum with a single final truncation.

    Accumulating exactly and truncating once never loses digits to the
    order of summation; a total that vanishes at its absolute precision N
    is O(p**N).  Every term, zeros included, must live in ``context``.
    """
    if any(t.context is not context for t in terms):
        raise ContextMismatch("operands live in different contexts")
    return _number(context, _sum_triples(context, [t for t in map(_triple, terms) if t]))


# -- the integer layer: (valuation, unit, prec) triples -----------------------
#
# None is an exact zero, and (N, 0, 0) the inexact zero O(p**N): no digit,
# known below p**N.


def _triple(x: PadicNumber) -> tuple[int, int, int] | None:
    if x.valuation is not None:
        return x.valuation, x.unit, x.prec
    return None if x.absolute is None else (x.absolute, 0, 0)


def _number(context: PadicContext, t: tuple[int, int, int] | None) -> PadicNumber:
    if t is None:
        return context.zero()
    return PadicNumber(context, *t) if t[2] else PadicNumber(context, None, 0, 0, t[0])


def _sum_triples(
    context: PadicContext, terms: list[tuple[int, int, int]]
) -> tuple[int, int, int] | None:
    """The rule of ``padic_sum`` on the triples of its terms, exact zeros left out.

    The sum is known below p**absolute, the least v + prec of its terms, so a
    term at or beyond it changes no digit and is left out; s is the sum of the
    other units scaled to their least valuation v0, rescaled in place whenever
    a term lowers v0.  ``PadicContext._power`` is inlined.
    """
    if not terms:
        return None
    powers, top, p = context._powers, len(context._powers), context.p
    absolute = terms[0][0] + terms[0][2]
    for v, _, prec in terms:
        if v + prec < absolute:
            absolute = v + prec
    v0, s = absolute, 0
    for v, u, _ in terms:
        if v >= absolute:
            continue
        if v >= v0:
            e = v - v0
            s += u * (powers[e] if e < top else p**e)
        else:
            e = v0 - v
            s = s * (powers[e] if e < top else p**e) + u
            v0 = v
    return _truncate(context, v0, absolute, s)


def _truncate(
    context: PadicContext, v0: int, absolute: int, s: int
) -> tuple[int, int, int]:
    """p**v0 * s, known below p**absolute (v0 <= absolute), as a triple.

    The one cancellation rule of every sum: s that vanishes modulo
    p**(absolute - v0), s == 0 included, is O(p**absolute), and otherwise
    the result keeps min(absolute - v, cap) digits.  The outcome depends on
    s only modulo p**(absolute - v0), that is, on the terms' values alone.
    """
    if not s % context._power(absolute - v0):
        return absolute, 0, 0
    p = context.p
    v = v0
    while not s % p:
        s //= p
        v += 1
    prec = absolute - v if absolute - v < context.precision else context.precision
    return v, s % context._power(prec), prec


# -- squares and square classes ------------------------------------------------


def is_square(a: PadicNumber) -> bool:
    """True iff a is a square: even valuation and a square unit.

    For odd p the first digit must be a quadratic residue mod p; for p = 2
    the unit must be congruent to 1 mod 8 (needs three known digits).
    """
    a._require_nonzero(ZeroInput, "squareness of zero is undefined here")
    return a.valuation % 2 == 0 and square_class(a) == 1


def sqrt(a: PadicNumber, companion: bool = False) -> PadicNumber:
    """Square root by Hensel lifting.

    The root keeps the input precision for odd p and loses one digit for
    p = 2.  The default branch has first digit in [1, (p-1)/2] for odd p
    and is congruent to 1 mod 4 for p = 2; ``companion`` negates it.
    """
    a._require_nonzero(ZeroInput, "zero has no canonical root branch")
    if not is_square(a):
        raise NotASquare("argument is not a square at this precision")
    p = a.context.p
    u = a.unit
    if p == 2:
        n = a.prec
        r, e = 1, 3
        while e < n:
            if (r * r - u) % (1 << (e + 1)):
                r += 1 << (e - 1)
            e += 1
        prec = n - 1
        r %= 1 << prec
    else:
        n = prec = a.prec
        r = next(x for x in range(1, p) if (x * x - u) % p == 0)
        e = 1
        while e < n:
            e = min(2 * e, n)
            m = p**e
            r = (r - (r * r - u) * pow(2 * r % m, -1, m)) % m
        if not 1 <= r % p <= (p - 1) // 2:
            r = p**n - r
    if companion:
        r = p**prec - r
    return PadicNumber(a.context, a.valuation // 2, r, prec)


def find_eta(context: PadicContext) -> PadicNumber:
    """Least positive quadratic non-residue mod p, as a p-adic unit."""
    if context.p == 2:
        raise UnsupportedForP2("no canonical eta for p = 2; use the eight class labels")
    return context.from_int(_eta_int(context.p))


def _eta_int(p: int) -> int:
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) != 1)


def square_class(a: PadicNumber) -> int:
    """Label of a's coset modulo squares.

    Odd p: one of {1, eta, p, eta*p} with eta the least non-residue.
    p = 2: one of {1, 2, 3, 5, 6, 7, 10, 14}.
    """
    a._require_nonzero(ZeroInput, "zero has no square class")
    p = a.context.p
    odd_val = a.valuation % 2 == 1
    if p == 2:
        if a.prec < 3:
            raise PrecisionExhausted("square class mod 8 needs three known digits")
        label = a.unit % 8
        return label * 2 if odd_val else label
    label = 1 if pow(a.unit % p, (p - 1) // 2, p) == 1 else _eta_int(p)
    return label * p if odd_val else label


def square_class_product(context: PadicContext, label_a: int, label_b: int) -> int:
    """Group law on square-class labels: the class of the product."""
    return square_class(context.from_int(label_a * label_b))
