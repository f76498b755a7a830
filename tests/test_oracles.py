"""Tests for the classical number-theory oracles."""

import inspect
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadres.oracles import euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_perm_sign
from reference import ref_zolotarev_perm_sign, residue_table


def test_is_odd_prime():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for n in range(2, 50):
        assert is_odd_prime(n) == (n in primes)


def test_euler_symbol_examples():
    # squares mod 7 are {1, 2, 4} by brute enumeration
    assert euler_symbol(5, 7) == -1
    assert euler_symbol(2, 7) == 1  # 3^2 = 9 = 2 mod 7
    assert euler_symbol(14, 7) == 0


def test_euler_symbol_rejects_composite():
    with pytest.raises(ValueError):
        euler_symbol(2, 9)
    with pytest.raises(ValueError):
        euler_symbol(2, 8)


def test_euler_symbol_reduces_argument():
    assert euler_symbol(-2, 7) == euler_symbol(5, 7)
    assert euler_symbol(12, 7) == euler_symbol(5, 7)


def test_residue_table_examples():
    assert residue_table(7) == {1, 2, 4}
    assert residue_table(3) == {1}
    assert residue_table(11) == {1, 3, 4, 5, 9}


def test_residue_table_rejects_small():
    with pytest.raises(ValueError):
        residue_table(1)


def test_euler_matches_residue_table():
    for p in range(3, 501):
        if not is_odd_prime(p):
            continue
        table = residue_table(p)
        assert len(table) == (p - 1) // 2
        for a in range(1, p):
            assert (euler_symbol(a, p) == 1) == (a in table), (a, p)


def test_residues_and_nonresidues_balanced():
    for p in range(3, 501):
        if not is_odd_prime(p):
            continue
        values = [euler_symbol(a, p) for a in range(1, p)]
        assert values.count(1) == values.count(-1) == (p - 1) // 2


def test_jacobi_examples():
    assert jacobi_symbol(5, 7) == euler_symbol(5, 7) == -1
    assert jacobi_symbol(35, 15) == 0
    for n in (1, 3, 9, 15, 21):
        assert jacobi_symbol(1, n) == 1


def test_jacobi_rejects_even_denominator():
    with pytest.raises(ValueError):
        jacobi_symbol(3, 8)
    with pytest.raises(ValueError):
        jacobi_symbol(3, 0)


def test_jacobi_matches_euler_on_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(0, 2 * p):
            assert jacobi_symbol(a, p) == euler_symbol(a, p), (a, p)


def test_jacobi_multiplicative_in_denominator():
    for n1 in range(1, 30, 2):
        for n2 in range(1, 30, 2):
            for a in range(1, 20):
                assert jacobi_symbol(a, n1 * n2) == jacobi_symbol(a, n1) * jacobi_symbol(a, n2)


def test_zolotarev_examples():
    assert zolotarev_perm_sign(5, 8) == 1
    assert zolotarev_perm_sign(5, 7) == -1  # equals euler_symbol(5, 7)
    for n in (1, 2, 5, 12):
        assert zolotarev_perm_sign(1, n) == 1


def test_zolotarev_rejects_shared_factor():
    with pytest.raises(ValueError):
        zolotarev_perm_sign(6, 9)


def test_zolotarev_matches_jacobi_for_odd_denominators():
    for n in range(1, 302, 2):
        for a in range(1, n + 1):
            if math.gcd(a, n) != 1:
                continue
            assert jacobi_symbol(a, n) == zolotarev_perm_sign(a, n), (a, n)


def test_zolotarev_matches_cycle_walk():
    for n in range(1, 300):
        for m in range(1, 300):
            if math.gcd(m, n) == 1:
                assert zolotarev_perm_sign(m, n) == ref_zolotarev_perm_sign(m, n), (m, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**5))
@example(7, 1)
@example(10**6 - 1, 2 * 3**2 * 5 * 7 * 11 * 13)  # many divisors, m > n
@example(3, 65537)  # prime n, m a primitive root: one order of n - 1 steps
def test_zolotarev_matches_cycle_walk_on_large_n(m, n):
    if math.gcd(m, n) == 1:
        assert zolotarev_perm_sign(m, n) == ref_zolotarev_perm_sign(m, n)


def test_zolotarev_calls_no_other_method(monkeypatch):
    """The cycle count runs with every symbols and billiards function, Jacobi and Euler disabled."""
    from quadres import billiards, oracles, symbols

    def refuse(*args, **kwargs):
        raise AssertionError("the permutation sign called a method it is checked against")

    targets = {f for module in (symbols, billiards) for _, f in inspect.getmembers(module, inspect.isfunction)
               if f.__module__ == module.__name__} | {oracles.jacobi_symbol, oracles.euler_symbol}
    cells = [(m, n) for n in range(1, 60) for m in range(1, 120) if math.gcd(m, n) == 1]
    want = [ref_zolotarev_perm_sign(m, n) for m, n in cells]
    for name, module in list(sys.modules.items()):
        if name == "quadres" or name.startswith("quadres."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    monkeypatch.setattr(module, attr, refuse)
    assert oracles.jacobi_symbol is refuse and symbols._floor_sum is refuse and billiards._fold is refuse
    assert [zolotarev_perm_sign(m, n) for m, n in cells] == want


def test_zolotarev_multiplicative_in_numerator():
    for n in range(2, 40):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        for m1 in units:
            for m2 in units:
                prod = zolotarev_perm_sign(m1, n) * zolotarev_perm_sign(m2, n)
                assert zolotarev_perm_sign(m1 * m2 % n, n) == prod, (m1, m2, n)


def test_symbol_values_multiplication_closed():
    values = {-1, 0, 1}
    for a in values:
        for b in values:
            assert a * b in values
