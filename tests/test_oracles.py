"""Tests for the classical number-theory oracles."""

import math

import pytest

from quadres.oracles import euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_perm_sign
from reference import residue_table


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
