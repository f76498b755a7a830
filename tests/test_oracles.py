"""Tests for the classical number-theory oracles."""

import importlib
import inspect
import math
import pkgutil
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadres
from quadres import oracles
from quadres.oracles import (
    euler_row, euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_perm_sign, zolotarev_row,
)
from reference import ref_cycle_count, ref_zolotarev_perm_sign, residue_table


def test_is_odd_prime():
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for n in range(2, 50):
        assert is_odd_prime(n) == (n in primes)


def test_is_odd_prime_matches_a_sieve_up_to_10_6():
    limit = 10**6
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    assert [n for n in range(limit + 1) if is_odd_prime(n) != (prime[n] == 1 and n != 2)] == []


# strong pseudoprimes to the first 1, 2, 3, 4, 11 and 12 prime bases: the last passes 2..37, so base 41 is needed
@pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_odd_prime_rejects_strong_pseudoprimes(n):
    assert not is_odd_prime(n)


def test_is_odd_prime_rejects_a_carmichael_number_with_no_factor_up_to_41():
    # 211 * 421 * 631: every base is a Fermat liar, and a squaring that reaches 1 without passing -1 is the witness
    assert not is_odd_prime(56052361)


def test_is_odd_prime_accepts_large_primes():
    assert is_odd_prime(10**12 + 39)
    assert is_odd_prime(2**61 - 1)


@pytest.mark.parametrize("n", [33 * 10**23, 33 * 10**23 + 1, 10**30])
def test_is_odd_prime_refuses_where_its_bases_are_not_proven(n):
    with pytest.raises(ValueError, match="3.3e24"):
        is_odd_prime(n)


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


def test_euler_row_matches_the_residue_table_and_takes_p_on_trust(monkeypatch):
    """Each a of the row, negative, zero and past p included, against the squares mod p; the row proves nothing
    about p, whose caller has, and euler_symbol proves p prime once a call."""
    calls = []
    monkeypatch.setattr(oracles, "is_odd_prime", lambda n, real=is_odd_prime: calls.append(n) or real(n))
    for p in (3, 5, 7, 11, 1861, 10007):
        table, ms = residue_table(p), list(range(-p, 2 * p + 1))
        assert euler_row(p, ms) == [0 if a % p == 0 else 1 if a % p in table else -1 for a in ms], p
    assert calls == [] and euler_row(7, []) == []
    assert [euler_symbol(a, 1861) for a in (2, 3)] == euler_row(1861, [2, 3]) and calls == [1861, 1861]
    for p in (1, 2, 9, 1849):
        with pytest.raises(ValueError, match="odd prime"):
            euler_symbol(1, p)


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
    with pytest.raises(ValueError, match=r"^gcd\(6, 9\) > 1: the map x -> 6x mod 9 is not a permutation$"):
        zolotarev_perm_sign(6, 9)


@pytest.mark.parametrize("ms, shared", [([6, 1, 2], 6), ([1, 2, 6], 6), ([1, 6, 2, 6], 6), ([1, 3, 6], 3)])
def test_zolotarev_row_names_the_first_numerator_sharing_a_factor(ms, shared):
    message = rf"^gcd\({shared}, 9\) > 1: the map x -> {shared}x mod 9 is not a permutation$"
    with pytest.raises(ValueError, match=message):
        zolotarev_row(9, ms)


@pytest.mark.parametrize("m, n", [(0, 5), (5, 0)])
def test_zolotarev_rejects_a_nonpositive_argument(m, n):
    with pytest.raises(ValueError, match="^arguments must be positive$"):
        zolotarev_perm_sign(m, n)


@pytest.mark.parametrize("n, ms", [(0, []), (-7, [1]), (5, [1, 2, 0]), (5, [-3, 1]), (9, [6, 0])])
def test_zolotarev_row_rejects_a_nonpositive_argument(n, ms):
    with pytest.raises(ValueError, match="^arguments must be positive$"):
        zolotarev_row(n, ms)


def test_zolotarev_matches_jacobi_for_odd_denominators():
    for n in range(1, 302, 2):
        units = [a for a in range(1, n + 1) if math.gcd(a, n) == 1]
        assert zolotarev_row(n, units) == [jacobi_symbol(a, n) for a in units], n


def test_zolotarev_matches_cycle_walk():
    """One row per n against the point-by-point walk: every numerator in order, the first eight reversed and then
    repeated, and the empty row."""
    for n in range(1, 300):
        ms = [m for m in range(1, 300) if math.gcd(m, n) == 1]
        want = [ref_zolotarev_perm_sign(m, n) for m in ms]
        assert zolotarev_row(n, ms) == want, n
        assert zolotarev_row(n, ms[7::-1] + ms[:8]) == want[7::-1] + want[:8], n
        assert zolotarev_row(n, []) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**5))
@example(7, 1)
@example(10**6 - 1, 2 * 3**2 * 5 * 7 * 11 * 13)  # many divisors, m > n
@example(3, 65537)  # prime n, m a primitive root: one order of n - 1 steps
def test_zolotarev_matches_cycle_walk_on_large_n(m, n):
    if math.gcd(m, n) == 1:
        assert zolotarev_perm_sign(m, n) == ref_zolotarev_perm_sign(m, n)


def test_cycle_count_matches_cycle_walk(monkeypatch):
    """The count itself: the sign reads only whether m^(phi(d)/2) = 1 mod d, hiding a wrong odd part of an order.

    The counts are those the row takes from the unit groups it builds.
    """
    counts, real = [], oracles._cycle_count

    def count(m, groups):
        counts.append((m, cycles := real(m, groups)))
        return cycles

    monkeypatch.setattr(oracles, "_cycle_count", count)
    for n in range(1, 200):
        ms = [m for m in range(1, 60) if math.gcd(m, n) == 1]
        counts.clear()
        zolotarev_row(n, ms)
        assert counts == [(m, ref_cycle_count(m, n)) for m in ms], n


def test_zolotarev_matches_jacobi_at_seeded_odd_n_up_to_10_12():
    """Jacobi is a test oracle here only: the permutation sign never calls it."""
    rng = random.Random(16)
    for _ in range(40):
        n = int(10 ** rng.uniform(0, 12)) | 1  # log-uniform
        m = rng.randrange(1, 2 * n)
        while math.gcd(m, n) != 1:
            m = rng.randrange(1, 2 * n)
        assert zolotarev_perm_sign(m, n) == jacobi_symbol(m, n), (m, n)


@pytest.mark.parametrize("n", [3**12, 2**19, 2 * 3**2 * 5 * 7 * 11 * 13])
def test_zolotarev_matches_cycle_walk_on_structured_n(n):
    assert zolotarev_row(n, [17, n - 1]) == [ref_zolotarev_perm_sign(17, n), ref_zolotarev_perm_sign(n - 1, n)]


@pytest.mark.parametrize("n", [720720 * 11 + 1, 2**40 + 1, 3**25])
def test_zolotarev_matches_jacobi_on_structured_n_above_10_6(n):
    assert zolotarev_perm_sign(2, n) == jacobi_symbol(2, n)


def test_no_oracle_table_outlives_a_row(monkeypatch):
    """Every row factors n afresh, with the _factor it finds when it runs, and no quadres function keeps a cache."""
    first, second, real = [], [], oracles._factor
    monkeypatch.setattr(oracles, "_factor", lambda n: first.append(n) or real(n))
    assert zolotarev_row(45, [2, 7]) == zolotarev_row(45, [2, 7]) and first.count(45) == 2
    assert zolotarev_perm_sign(7, 45) == zolotarev_perm_sign(7, 45) and first.count(45) == 4
    monkeypatch.setattr(oracles, "_factor", lambda n: second.append(n) or real(n))
    assert zolotarev_row(45, [2]) == [zolotarev_perm_sign(2, 45)] and first.count(45) == 4
    assert second == [45, 2, 4, 45, 2, 4]  # 45 = 3^2 * 5, then 3 - 1 and 5 - 1
    modules = [quadres, *(importlib.import_module(f"quadres.{m.name}") for m in pkgutil.iter_modules(quadres.__path__))]
    assert len(modules) == 9  # the package and its eight modules
    for module in modules:
        values = [*vars(module).values()]
        values += [v for cls in values if isinstance(cls, type) for v in vars(cls).values()]
        assert not [v for v in values if hasattr(v, "cache_info")], module.__name__


def test_zolotarev_calls_no_other_method(monkeypatch):
    """The sign, one call and a row per n at a time, runs with every symbols and billiards function, Jacobi and
    Euler (symbol and row) disabled."""
    from quadres import billiards, symbols

    def refuse(*args, **kwargs):
        raise AssertionError("the permutation sign called a method it is checked against")

    targets = {f for module in (symbols, billiards) for _, f in inspect.getmembers(module, inspect.isfunction)
               if f.__module__ == module.__name__} | {oracles.jacobi_symbol, oracles.euler_symbol, oracles.euler_row}
    cells = [(m, n) for n in range(1, 60) for m in range(1, 120) if math.gcd(m, n) == 1]
    want = [ref_zolotarev_perm_sign(m, n) for m, n in cells]
    cells.append((3, 10**12 + 39))  # n prime, so both n and n - 1 are factored
    want.append(jacobi_symbol(3, 10**12 + 39))
    for name, module in list(sys.modules.items()):
        if name == "quadres" or name.startswith("quadres."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in targets:
                    monkeypatch.setattr(module, attr, refuse)
    assert oracles.jacobi_symbol is refuse and symbols._floor_sum is refuse and billiards._fold is refuse
    assert [zolotarev_perm_sign(m, n) for m, n in cells] == want
    rows = [zolotarev_row(n, [m for m in range(1, 120) if math.gcd(m, n) == 1]) for n in range(1, 60)]
    assert [sign for row in rows for sign in row] == want[:-1]  # the last cell's n = 10**12 + 39 ran as one call


def test_zolotarev_multiplicative_in_numerator():
    for n in range(2, 40):
        units = [a for a in range(1, n) if math.gcd(a, n) == 1]
        sign = dict(zip(units, zolotarev_row(n, units)))
        for m1 in units:
            for m2 in units:
                assert sign[m1 * m2 % n] == sign[m1] * sign[m2], (m1, m2, n)


def test_symbol_values_multiplication_closed():
    values = {-1, 0, 1}
    for a in values:
        for b in values:
            assert a * b in values
