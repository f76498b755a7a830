"""Tests for the billiards residue symbol and its identity chain."""

import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadres.billiards import base_bounces, trace_path
from quadres.oracles import euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_perm_sign
from quadres.symbols import (
    _floor_sum,
    billiard_symbol,
    mod4_symbol,
    negative_bounce_count,
    symbol_supplement_minus_one,
    symbol_supplement_two,
)
from reference import ref_base_bounces


def test_billiard_symbol_5x7():
    ev = billiard_symbol(5, 7)
    assert ev.value == -1
    assert ev.negative_bounce_count is None
    assert ev.base_bounces == ()
    assert negative_bounce_count(5, 7) == 1


def test_billiard_symbol_shared_factor_is_zero():
    ev = billiard_symbol(6, 9)
    assert ev.value == 0


def test_billiard_symbol_5_8_is_plus_one():
    # the permutation-sign convention for even denominators, not Kronecker
    assert billiard_symbol(5, 8).value == 1


def test_billiard_symbol_empty_products():
    assert billiard_symbol(4, 1).value == 1
    assert billiard_symbol(1, 4).value == 1
    assert billiard_symbol(1, 1).value == 1


def test_billiard_symbol_rejects_nonpositive():
    for symbol in (billiard_symbol, base_bounces, negative_bounce_count):
        for m, n in [(0, 5), (5, 0), (1, 0), (-3, 5)]:
            with pytest.raises(ValueError, match="sides must be positive"):
                symbol(m, n)


def test_billiard_symbol_matches_traced_path():
    # the floor sums against the product of the traced path's bottom-bounce signs, on every shape
    for m in range(1, 41):
        for n in range(1, 41):
            signs = [s for _, s, _ in ref_base_bounces(trace_path(m, n))]
            assert billiard_symbol(m, n).value == (math.prod(signs) if math.gcd(m, n) == 1 else 0), (m, n)


def test_floor_sums_match_bounce_walk():
    # the O(log n) value against the signs base_bounces lists, on every grid
    # shape: even n, m > n and gcd > 1 included; each descent is checked to
    # the integer against its plain sum, and negative_bounce_count against the walked count
    for m in range(1, 399):
        for n in range(1, 202):
            coprime = math.gcd(m, n) == 1
            negatives = sum(s < 0 for _, s, _ in base_bounces(m, n)) if coprime else 0
            walked = (-1 if negatives % 2 else 1) if coprime else 0
            assert billiard_symbol(m, n).value == walked, (m, n)
            count = (n + 1) // 2
            sums = [_floor_sum(count, n, a) for a in (m, 2 * m)]
            assert sums == [sum(a * k // n for k in range(count)) for a in (m, 2 * m)], (m, n)
            assert negative_bounce_count(m, n) == negatives, (m, n)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3000))
def test_floor_sum_matches_plain_sum(data, n):
    count, a = data.draw(st.integers(0, n + 1)), data.draw(st.integers(0, 3 * n))
    assert _floor_sum(count, n, a) == sum(a * k // n for k in range(count))


def _refuse(*args, **kwargs):
    raise AssertionError("billiard_symbol called a method it is checked against")


def _refuse_everywhere(monkeypatch, targets):
    modules = [mod for name, mod in sys.modules.items() if name == "quadres" or name.startswith("quadres.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                monkeypatch.setattr(module, attr, _refuse)


def test_billiard_symbol_calls_no_oracle(monkeypatch):
    """The floor sums run without the bounce lister, its fold or the path tracer, and with every oracle disabled."""
    import quadres
    from quadres import billiards, oracles

    cells = [(m, n) for m in range(1, 30) for n in range(1, 30)]
    want = [sum(s < 0 for _, s, _ in base_bounces(m, n)) if math.gcd(m, n) == 1 else 0 for m, n in cells]
    _refuse_everywhere(monkeypatch, {billiards.base_bounces, billiards._fold, billiards.trace_path,
                                     oracles.jacobi_symbol, oracles.euler_symbol, oracles.zolotarev_perm_sign})
    assert quadres.base_bounces is _refuse and billiards._fold is _refuse and quadres.jacobi_symbol is _refuse
    assert [negative_bounce_count(m, n) for m, n in cells] == want
    values = [billiard_symbol(m, n).value for m, n in cells]
    assert values == [(-1) ** count if math.gcd(m, n) == 1 else 0 for (m, n), count in zip(cells, want)]
    assert values.count(-1) > 0 and values.count(0) > 0
    assert billiard_symbol(5, 7).value == -1
    assert billiard_symbol(5, 8).value == 1


def test_billiard_symbol_takes_one_floor_sum(monkeypatch):
    from quadres import symbols

    calls = []

    def counted(count, n, a):
        calls.append((count, n, a))
        return _floor_sum(count, n, a)

    monkeypatch.setattr(symbols, "_floor_sum", counted)
    assert billiard_symbol(5, 7).value == -1
    assert calls == [(4, 7, 10)]


_sides = st.integers(min_value=1, max_value=10**12)
_odd = st.integers(min_value=0, max_value=(10**12 - 1) // 2).map(lambda k: 2 * k + 1)


@settings(max_examples=300, deadline=None)
@given(m=_sides, n=_sides)
def test_periodic_in_numerator_large(m, n):
    assert billiard_symbol(m, n).value == billiard_symbol(m + n, n).value


@settings(max_examples=300, deadline=None)
@given(m1=_sides, m2=_sides, n=_sides)
def test_multiplicative_in_numerator_large(m1, m2, n):
    prod = billiard_symbol(m1, n).value * billiard_symbol(m2, n).value
    assert billiard_symbol(m1 * m2, n).value == prod


def _swapped(m, n):
    return billiard_symbol(m, n).value * billiard_symbol(n, m).value


def _reciprocity_sign(m, n):
    return -1 if (m - 1) * (n - 1) // 4 % 2 else 1


@settings(max_examples=300, deadline=None)
@given(m=_odd, n=_odd)
def test_reciprocity_large(m, n):
    assume(m >= 3 and n >= 3 and math.gcd(m, n) == 1)
    assert _swapped(m, n) == _reciprocity_sign(m, n)


@settings(max_examples=300, deadline=None)
@given(m=_odd, n=_odd)
def test_almost_reciprocity_large(m, n):
    assume(m < n)
    assert _swapped(m, n) == billiard_symbol(m, n - m).value


@settings(max_examples=300, deadline=None)
@given(m=_sides, n=_odd)
def test_agrees_with_jacobi_large(m, n):
    assert billiard_symbol(m, n).value == jacobi_symbol(m, n)


def test_supplement_minus_one():
    assert symbol_supplement_minus_one(5) == 1
    assert symbol_supplement_minus_one(7) == -1
    assert symbol_supplement_minus_one(13) == 1
    with pytest.raises(ValueError):
        symbol_supplement_minus_one(8)


def test_supplement_two():
    assert symbol_supplement_two(7) == 1
    assert symbol_supplement_two(5) == -1
    assert symbol_supplement_two(17) == 1
    with pytest.raises(ValueError):
        symbol_supplement_two(4)


def test_supplements_match_billiards_all_odd():
    # holds for every odd n, prime or not
    for n in range(3, 200, 2):
        assert symbol_supplement_minus_one(n) == billiard_symbol(n - 1, n).value, n
        assert symbol_supplement_two(n) == billiard_symbol(2, n).value, n


def test_almost_reciprocity_examples():
    assert _swapped(5, 7) == 1 == billiard_symbol(5, 2).value  # (-1)(-1) = (5|2) = +1
    assert _swapped(3, 9) == 0 == billiard_symbol(3, 6).value
    assert _swapped(1, 3) == 1 == billiard_symbol(1, 2).value


def test_mod4_symbol_examples():
    assert mod4_symbol(5, 8) == 1
    assert mod4_symbol(3, 4) == -1
    assert mod4_symbol(7, 2) == 1


def test_mod4_symbol_validation():
    with pytest.raises(ValueError):
        mod4_symbol(4, 6)  # even numerator
    with pytest.raises(ValueError):
        mod4_symbol(3, 5)  # odd denominator
    with pytest.raises(ValueError):
        mod4_symbol(3, 6)  # shared factor


def test_reciprocity_examples():
    assert _swapped(5, 7) == 1 == _reciprocity_sign(5, 7)
    assert _swapped(3, 7) == -1 == _reciprocity_sign(3, 7)  # (3|7) = -1, (7|3) = +1, exponent 3 odd
    assert _swapped(13, 17) == 1 == _reciprocity_sign(13, 17)


def test_periodicity_in_numerator():
    for m in range(1, 81):
        for n in range(1, 81):
            assert billiard_symbol(m, n).value == billiard_symbol(m + n, n).value, (m, n)


def test_multiplicative_in_numerator():
    for n in range(2, 41):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for m1 in units:
            for m2 in units:
                prod = billiard_symbol(m1, n).value * billiard_symbol(m2, n).value
                assert billiard_symbol(m1 * m2 % n, n).value == prod, (m1, m2, n)


def test_agrees_with_euler_on_primes():
    for n in range(3, 80):
        if not is_odd_prime(n):
            continue
        for m in range(1, 2 * n):
            if m % n == 0:
                continue
            assert billiard_symbol(m, n).value == euler_symbol(m, n), (m, n)


def test_agrees_with_jacobi_on_odd():
    for n in range(1, 60, 2):
        for m in range(1, 60):
            assert billiard_symbol(m, n).value == jacobi_symbol(m, n), (m, n)


def test_agrees_with_zolotarev_including_even():
    for n in range(1, 50):
        for m in range(1, 50):
            if math.gcd(m, n) != 1:
                continue
            assert billiard_symbol(m, n).value == zolotarev_perm_sign(m, n), (m, n)
