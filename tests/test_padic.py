"""Field arithmetic, square testing and square classes in Q_p."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given

import helpers
from padicqm import PadicContext, find_eta, is_prime, is_square, sqrt, square_class
from padicqm.errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidPrime,
    NotASquare,
    PadicError,
    PrecisionExhausted,
    UnsupportedForP2,
    ValidationError,
    ZeroInput,
)
from padicqm.padic import MAX_PRECISION, padic_sum, square_class_product

C3 = helpers.base_ctx(3, 5)
C5 = helpers.base_ctx(5, 5)
C7 = helpers.base_ctx(7, 5)
C2 = helpers.base_ctx(2, 5)


def test_context_validation():
    with pytest.raises(InvalidPrime):
        PadicContext(4, 5)
    with pytest.raises(ValidationError):
        PadicContext(3, 4)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(-3, 10**5))


def test_is_prime_decides_large_primes():
    assert is_prime(10**18 + 3)
    assert not is_prime((10**9 + 7) * (10**9 + 9))
    PadicContext(10**18 + 3, 5)
    with pytest.raises(ValidationError):
        is_prime(10**25 + 13)


def test_one_plus_two_is_three():
    assert C3.from_int(1) + C3.from_int(2) == C3.from_int(3)
    assert (C3.from_int(1) + C3.from_int(2)).abs_p() == Fraction(1, 3)


def test_additive_inverse_is_zero_at_its_precision():
    # x - x vanishes at every digit x carries: O(3^5), which equals 0
    x = C3.from_int(47)
    for zero in (x + (-x), x - x):
        assert zero.is_zero and zero.absolute == 5 and zero.prec == 0
        assert zero == C3.zero() and zero == C3.from_int(3**5) and zero != C3.from_int(3**4)


def test_geometric_series_digits():
    ctx = C5
    x = ctx.from_fraction(Fraction(1, 1 - 5))
    assert x.digits() == [1, 1, 1, 1, 1]
    # independent oracle: multiplying by (1 - p) must give exactly 1
    assert x * ctx.from_int(1 - 5) == ctx.one()


def test_mul_valuations_add():
    a, b = C3.from_int(9), C3.from_int(6)
    assert (a * b).valuation == a.valuation + b.valuation
    assert C3.from_int(9).abs_p() == Fraction(1, 9)


def test_inv():
    assert C3.from_int(1).inv() == C3.one()
    x = C7.from_fraction(Fraction(13, 5))
    assert x * x.inv() == C7.one()
    with pytest.raises(DivisionByZero):
        C3.zero().inv()


def test_sqrt_two_squared_is_two():
    r = sqrt(C7.from_int(2))
    assert r * r == C7.from_int(2)


def test_abs_examples():
    assert C3.from_int(3).abs_p() == Fraction(1, 3)
    assert C3.zero().abs_p() == 0
    assert C5.from_int(29).abs_p() == 1


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        C3.one() + C5.one()


def test_padic_sum_checks_the_context_of_exact_zero_terms():
    c, c2 = PadicContext(3, 8), PadicContext(5, 8)
    with pytest.raises(ContextMismatch):
        c.one() + c2.zero()
    with pytest.raises(ContextMismatch):
        padic_sum(c, [c.one(), c2.zero()])
    with pytest.raises(ContextMismatch):
        padic_sum(c, [c2.zero()])


def test_a_large_precision_context_is_cheap_and_exact():
    tracemalloc.start()
    try:
        PadicContext(3, 5000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # p**5000 is about 1 kB; a cached power per digit would be megabytes
    assert peak < 256 * 1024
    ctx = PadicContext(3, 200)
    a, b = 3**150 + 2, 3**180 - 7
    x, y = ctx.from_int(a), ctx.from_int(b)
    assert x * y == ctx.from_int(a * b) and (x * y).prec == 200
    assert x + y == ctx.from_int(a + b)
    assert padic_sum(ctx, [x, y, -x]) == y
    assert (x - ctx.from_int(2)).valuation == 150


def test_a_precision_past_the_limit_is_refused_before_any_power_is_built():
    # p**precision is built eagerly; 10**7 digits took seconds before the limit
    assert MAX_PRECISION >= 5000  # the large-precision test above builds 5000
    assert PadicContext(3, MAX_PRECISION).precision == MAX_PRECISION
    start = time.perf_counter()
    for precision in (MAX_PRECISION + 1, 10**7, 10**100):
        with pytest.raises(ValidationError, match=str(MAX_PRECISION)):
            PadicContext(3, precision)
    assert time.perf_counter() - start < 1


def test_precision_exhausted_on_deep_cancellation():
    # 13 - 4 = 9 vanishes mod 9, the common precision: the sum is O(3^2), and
    # only a consumer that needs its valuation or a digit raises
    a = C3.from_digits(0, [1, 1, 1, 0, 0])  # 13, known to two digits below
    b = C3.from_digits(0, [2, 1])  # -4 at two known digits
    total = a + b
    assert total.is_zero and total.absolute == 2 and repr(total) == "PadicNumber(p=3, O(3^2))"
    consumers = [total.inv, total.digits, lambda: sqrt(total), lambda: is_square(total), lambda: square_class(total)]
    for consumer in consumers:
        with pytest.raises(PrecisionExhausted, match=r"O\(3\^2\)"):
            consumer()
    with pytest.raises(DivisionByZero):
        C3.zero().inv()


def test_a_sum_depends_only_on_the_values_at_its_precision():
    # 7 and 34 agree mod 27, the precision of b = -7 known to 3 digits; a rule
    # that read the stored lifts called one sum exact zero and raised on the other
    ctx = helpers.base_ctx(3, 8)
    b = ctx.from_digits(0, [2, 0, 2])
    sums = [ctx.from_int(n) + b for n in (7, 34)]
    assert [(x.valuation, x.unit, x.prec, x.absolute) for x in sums] == [(None, 0, 0, 3)] * 2


def test_inexact_zero_arithmetic():
    # O(3^2) bounds every sum it enters, scales with a product, and an exact
    # zero absorbs it
    o2 = C3.from_digits(0, [1, 1]) - C3.from_digits(0, [1, 1])
    x = C3.from_digits(-1, [1, 2, 1, 1, 1])
    assert o2 + x == x and (o2 + x).prec == 3 and (x + o2).prec == 3
    assert (o2 + o2).absolute == 2 and padic_sum(C3, [o2, C3.zero(), o2]).absolute == 2
    assert (o2 * x).absolute == 1 and (x * o2).absolute == 1 and (o2 * o2).absolute == 4
    assert (o2 * C3.zero()).absolute is None and (-o2).absolute == 2
    assert o2 == C3.from_digits(2, [1]) and o2 != C3.from_digits(1, [1]) and C3.from_digits(1, [1]) != o2


def test_is_square_known_values():
    assert is_square(C3.from_int(7))
    assert not is_square(C3.from_int(5))
    assert is_square(C2.from_int(-7))
    assert not is_square(C3.from_int(3))  # odd valuation
    with pytest.raises(ZeroInput):
        is_square(C3.zero())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_is_square_agrees_with_brute_force(p):
    ctx = PadicContext(p, 5)
    p4 = p**4
    squares = {v * v % p4 for v in range(1, p4) if v % p}
    for u in range(1, p4):
        if u % p == 0:
            continue
        assert is_square(ctx.from_int(u)) == (u % p4 in squares)


def test_sqrt_digit_expansions():
    assert sqrt(C3.from_int(7)).digits() == [1, 1, 1, 0, 2]
    assert sqrt(C3.from_int(7), companion=True).digits() == [2, 1, 1, 2, 0]
    assert sqrt(C5.from_int(29)).digits() == [2, 0, 4, 3, 4]
    assert sqrt(C5.from_int(29), companion=True).digits() == [3, 4, 0, 1, 0]
    assert sqrt(C7.from_int(2)).digits() == [3, 1, 2, 6, 1]
    assert sqrt(C7.from_int(2), companion=True).digits() == [4, 5, 4, 0, 5]


def test_sqrt_rejects_non_squares():
    with pytest.raises(NotASquare):
        sqrt(C3.from_int(5))
    with pytest.raises(ZeroInput):
        sqrt(C3.zero())


@pytest.mark.parametrize("p", [3, 5, 7, 2])
@pytest.mark.parametrize("precision", [5, 10, 20])
def test_sqrt_round_trip(p, precision):
    ctx = PadicContext(p, precision)
    rng = random.Random(p * 1000 + precision)
    for _ in range(200):
        x = helpers.rand_padic(rng, ctx, -3, 3)
        square = x * x
        root = sqrt(square)
        assert root * root == square
        companion = sqrt(square, companion=True)
        assert companion * companion == square
        assert (root + companion).is_zero


def test_sqrt_branch_is_deterministic():
    r = sqrt(C3.from_int(7))
    assert 1 <= r.digits()[0] <= 1  # (p - 1) / 2 = 1
    r2 = sqrt(C2.from_int(-7))
    assert r2.unit % 4 == 1


def test_square_class_labels():
    assert square_class(C3.from_int(7)) == 1
    assert square_class(C3.from_int(5)) == 2
    assert square_class(C2.from_int(14)) == 14
    assert square_class(C2.from_int(5)) == 5
    assert square_class(C3.from_int(3)) == 3
    assert square_class(C3.from_int(15)) == 6


@pytest.mark.parametrize("p,count", [(3, 4), (5, 4), (7, 4), (2, 8)])
def test_square_class_group(p, count):
    ctx = PadicContext(p, 6)
    rng = random.Random(p)
    seen = set()
    for _ in range(120):
        a = helpers.rand_padic(rng, ctx, -2, 2)
        b = helpers.rand_padic(rng, ctx, -2, 2)
        la, lb = square_class(a), square_class(b)
        seen.update((la, lb))
        assert square_class(a * b) == square_class_product(ctx, la, lb)
        # same label exactly when the quotient is a square
        assert (la == lb) == is_square(a / b)
    assert len(seen) == count


def test_find_eta():
    assert find_eta(C3) == C3.from_int(2)
    assert find_eta(C5) == C5.from_int(2)
    assert find_eta(C7) == C7.from_int(3)
    # enumeration oracle: eta is the least positive non-residue
    for ctx in (C3, C5, C7):
        p = ctx.p
        residues = {v * v % p for v in range(1, p)}
        eta = next(n for n in range(2, p) if n not in residues)
        assert find_eta(ctx) == ctx.from_int(eta)
    with pytest.raises(UnsupportedForP2):
        find_eta(C2)


@given(a=helpers.padic_numbers(C3), b=helpers.padic_numbers(C3))
def test_ultrametric_inequality(a, b):
    try:
        s = a + b
    except PrecisionExhausted:
        return
    assert s.abs_p() <= max(a.abs_p(), b.abs_p())
    if a.abs_p() != b.abs_p():
        assert s.abs_p() == max(a.abs_p(), b.abs_p())


@given(a=helpers.padic_numbers(C5), b=helpers.padic_numbers(C5))
def test_multiplicativity(a, b):
    assert (a * b).abs_p() == a.abs_p() * b.abs_p()


@given(
    a=helpers.padic_numbers(C3, zero=False),
    b=helpers.padic_numbers(C3, zero=False),
    c=helpers.padic_numbers(C3, zero=False),
)
def test_field_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * a.inv() == C3.one()


def test_padic_sum_matches_sequential_when_benign():
    rng = random.Random(11)
    for _ in range(50):
        terms = [helpers.rand_padic(rng, C5, 0, 2) for _ in range(6)]
        acc = C5.zero()
        for t in terms:
            acc = acc + t
        assert padic_sum(C5, terms) == acc


def test_digits_reject_zero():
    with pytest.raises(ZeroInput):
        C3.zero().digits()


def _outcome(call):
    """(valuation, unit, prec) of the result, or the type of the raised error."""
    try:
        x = call()
    except PadicError as exc:
        return type(exc)
    return x if isinstance(x, bool) else (x.valuation, x.unit, x.prec)


def _truncated(rng, ctx, min_val=-2, max_val=2):
    prec = rng.randint(1, ctx.precision)
    digits = [rng.randrange(1, ctx.p)] + [rng.randrange(ctx.p) for _ in range(prec - 1)]
    return ctx.from_digits(rng.randint(min_val, max_val), digits)


@pytest.mark.parametrize("ctx", [C2, C3, PadicContext(5, 8)], ids=lambda c: f"p{c.p}")
def test_add_and_two_term_sum_share_the_cancellation_rule(ctx):
    rng = random.Random(ctx.p)
    kinds = {"random": 0, "exact zero": 0, "deep": 0}
    for _ in range(400):
        a = _truncated(rng, ctx)
        kind = rng.choice(list(kinds))
        if kind == "random":  # valuations in a short range: equal ones are common
            b = ctx.zero() if rng.random() < 0.05 else _truncated(rng, ctx)
        elif kind == "exact zero":
            b = -a
        else:  # a perturbation k digits below the leading one survives the cancellation
            k = rng.randint(1, ctx.precision + 1)
            b = -(a + _truncated(rng, ctx, a.valuation + k, a.valuation + k))
        kinds[kind] += 1
        assert _outcome(lambda: a + b) == _outcome(lambda: padic_sum(ctx, [a, b]))
    assert min(kinds.values()) > 0


@pytest.mark.parametrize("p", [2, 3])
def test_is_square_is_parity_then_square_class(p):
    ctx = PadicContext(p, 5)
    for n in range(1, 5):
        for digits in itertools.product(range(p), repeat=n):
            if digits[0] == 0:
                continue
            for v in (-1, 0, 1, 2):
                x = ctx.from_digits(v, list(digits))
                expected = _outcome(lambda: x.valuation % 2 == 0 and square_class(x) == 1)
                assert _outcome(lambda: is_square(x)) == expected
