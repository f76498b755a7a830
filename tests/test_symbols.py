"""Tests for the billiards residue symbol and its identity chain."""

import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quadres.billiards import base_bounces, trace_path
from quadres.oracles import euler_symbol, is_odd_prime, jacobi_symbol, zolotarev_row
from quadres.sweeps import FAMILIES, Table, _billiard, run_family
from quadres.symbols import (
    SymbolEvidence,
    _floor_sum,
    _value,
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
    assert [f.name for f in dataclasses.fields(SymbolEvidence)] == ["value"]
    assert negative_bounce_count(5, 7) == 1


def test_benchmark_counts_a_wrong_symbol_record_as_failed(monkeypatch, capsys):
    """The benchmark's symbol_queries round fails an op whose one-field record holds a wrong value, not only one
    that raises: every other answer flipped fails 5 of 10 ops, and none of them raised."""
    from quadres import symbols

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls, real = [], symbols.billiard_symbol

    def flip_every_other(m, n):
        calls.append((m, n))
        value = real(m, n).value
        return SymbolEvidence(-value if len(calls) % 2 else value)

    monkeypatch.setattr(symbols, "billiard_symbol", flip_every_other)
    rnd = workloads.run_symbol_round(workloads.symbol_inputs(5, 0, count=10, log10_n=(1.0, 2.0)))
    assert (len(rnd.op_s), rnd.failed, len(calls)) == (10, 5, 10)
    assert "op failed" not in capsys.readouterr().err


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
    # the halving descent against the product of the traced path's bottom-bounce signs, on every shape
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


def test_billiard_row_matches_bounce_walk():
    """Every n <= 60 and m <= 3n against the listed bounce signs: n = 1, n = 2, even n and gcd > 1 among them.

    The row is asked in order, then reversed with every m repeated, so a class is first met at any member.
    """
    for n in range(1, 61):
        ms = list(range(1, 3 * n + 1))
        want = [math.prod(s for _, s, _ in base_bounces(m, n)) if math.gcd(m, n) == 1 else 0 for m in ms]
        assert _billiard(n, ms, Table()) == want, n
        assert _billiard(n, ms[::-1] + ms, Table()) == want[::-1] + want, n
    assert _billiard(7, [], Table()) == [] and _billiard(1, [5, 1, 1], Table()) == [1, 1, 1]
    assert _billiard(2, [4, 3], Table()) == [0, 1]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 10**6))
def test_reflected_class_flips_by_the_half_count(data, n):
    """(m|n) = (m mod n|n) and (n-r|n) = (-1)^((n-1)//2) (r|n), the two identities a row reads, any class r.

    The int symbol takes each class by its own descent here: a row holds every class below the highest it is
    asked, so reading n - r through one would take n/2 descents.  Rows read both identities on every class of
    n <= 60 in test_billiard_row_matches_bounce_walk, and on any asks of n <= 120 in tests/test_sweeps.py.
    """
    m = data.draw(st.integers(1, 3 * n))
    r = m % n
    got = [_value(k % n, n) for k in (m, n - r, r or n)]
    assert got == [billiard_symbol(k, n).value for k in (m, n - r, r or n)]
    assert got[1] == (-1) ** ((n - 1) // 2) * got[2] if r else got[1] == got[2]


def test_billiard_row_asks_value_per_reflected_class(monkeypatch):
    """Row 7 over m <= 21 asks _value for (1|7), (2|7) and (3|7), and for (0|7), which the gcd answers: the classes
    4, 5, 6 are their reflections.  No floor sum is taken."""
    from quadres import symbols

    calls, want = [], [billiard_symbol(m, 7).value for m in range(1, 22)]
    monkeypatch.setattr(symbols, "_value", lambda m, n: calls.append((m, n)) or _value(m, n))
    monkeypatch.setattr(symbols, "_floor_sum", _refuse)
    assert _billiard(7, list(range(1, 22)), Table()) == want and calls == [(0, 7), (1, 7), (2, 7), (3, 7)]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 3000))
def test_floor_sum_matches_plain_sum(data, n):
    count, a = data.draw(st.integers(0, n + 1)), data.draw(st.integers(0, 3 * n))
    assert _floor_sum(count, n, a) == sum(a * k // n for k in range(count))


def _refuse(*args, **kwargs):
    raise AssertionError("a function this test refuses was called")


def _refuse_everywhere(monkeypatch, targets):
    modules = [mod for name, mod in sys.modules.items() if name == "quadres" or name.startswith("quadres.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if callable(value) and value in targets:
                monkeypatch.setattr(module, attr, _refuse)


def test_billiard_symbol_calls_no_oracle(monkeypatch):
    """The descent, the floor sums, the row and its int symbol run without the bounce lister, its fold or the
    path tracer, and with every oracle disabled."""
    import quadres
    from quadres import billiards, oracles, sweeps, symbols

    cells = [(m, n) for m in range(1, 30) for n in range(1, 30)]
    want = [sum(s < 0 for _, s, _ in base_bounces(m, n)) if math.gcd(m, n) == 1 else 0 for m, n in cells]
    _refuse_everywhere(monkeypatch, {billiards.base_bounces, billiards._fold, billiards.trace_path,
                                     oracles.jacobi_symbol, oracles.euler_symbol, oracles.euler_row,
                                     oracles.zolotarev_perm_sign, oracles.zolotarev_row})
    assert quadres.base_bounces is _refuse and billiards._fold is _refuse and quadres.jacobi_symbol is _refuse
    assert [negative_bounce_count(m, n) for m, n in cells] == want
    values = [billiard_symbol(m, n).value for m, n in cells]
    assert values == [(-1) ** count if math.gcd(m, n) == 1 else 0 for (m, n), count in zip(cells, want)]
    assert values.count(-1) > 0 and values.count(0) > 0
    assert [_billiard(n, list(range(1, 30)), Table())[m - 1] for m, n in cells] == values  # the row, n at a time
    assert [_value(m, n) for m, n in cells] == values  # the int symbol the rows ask
    rows = {}  # a batch's plain dict of rows, each grown by symbols._row through that int symbol, in any order
    order = random.Random(0).sample(range(len(cells)), len(cells))
    assert [symbols._row(rows, n, m % n + 1)[m % n] for m, n in (cells[i] for i in order)] == [values[i] for i in order]
    assert all(sweeps.run_family(name, 21, 21).ok for name in ("reciprocity", "almost_reciprocity"))
    assert billiard_symbol(5, 7).value == -1
    assert billiard_symbol(5, 8).value == 1


@pytest.mark.parametrize("bound", [9, None], ids=["9", "default"])
def test_sweeps_read_no_billiard_symbol(monkeypatch, bound):
    """Every family passes with billiard_symbol refused: a sweep reads each billiard value from its batch table."""
    from quadres import symbols

    _refuse_everywhere(monkeypatch, {symbols.billiard_symbol})
    assert symbols.billiard_symbol is _refuse
    failed = {name: result.failures[:3] for name in FAMILIES if not (result := run_family(name, bound, bound)).ok}
    assert failed == {}


def test_billiard_symbol_asks_value_once_and_no_floor_sum(monkeypatch):
    from quadres import symbols

    calls = []
    monkeypatch.setattr(symbols, "_value", lambda m, n: calls.append((m, n)) or _value(m, n))
    monkeypatch.setattr(symbols, "_floor_sum", _refuse)
    assert billiard_symbol(5, 7).value == -1
    assert calls == [(5, 7)]


def _floor_parity_symbol(m, n):
    """(m|n) from one whole floor sum, the count the halving descent keeps only the parity of."""
    return 0 if math.gcd(m, n) != 1 else -1 if _floor_sum((n + 1) // 2, n, 2 * m) % 2 else 1


def test_halving_step_is_exact():
    """The descent's step, S_n(r) = (n // 2r) r(r-1)/2 + S_{n mod 2r}(r) for 1 <= r <= n/2, with S_n(r) the sum of
    floor(2rk/n) over 0 < k < n/2 and S_0 = 0, holds as integers, not only mod 2, for odd and even n <= 400."""
    def s(n, r):
        return _floor_sum((n + 1) // 2, n, 2 * r) if n else 0

    for n in range(1, 401):
        for r in range(1, n // 2 + 1):
            assert s(n, r) == n // (2 * r) * (r * (r - 1) // 2) + s(n % (2 * r), r), (n, r)


@settings(max_examples=500, deadline=None)
@given(m=st.integers(0, 10**24), n=st.integers(1, 10**24), shared=st.sampled_from([1, 1, 1, 2, 3, 30]))
@example(m=0, n=1, shared=1)
@example(m=5, n=1, shared=1)
@example(m=0, n=2, shared=1)
@example(m=3, n=2, shared=1)
@example(m=10**24, n=7, shared=1)
@example(m=5, n=8, shared=1)
@example(m=6, n=9, shared=1)
def test_value_matches_floor_sum_parity(m, n, shared):
    """_value against the parity of the one floor sum it replaces, m and n rounded down to multiples of `shared`:
    m >= n, gcd > 1 (a shared factor, or m = 0), even n and n = 1, 2 among the draws."""
    m, n = m // shared * shared, n // shared * shared or shared
    assert _value(m, n) == _floor_parity_symbol(m, n)


def test_value_matches_jacobi_at_sixty_digits():
    """_value against the Jacobi symbol, used here as a test oracle only, at seeded odd n up to 10^60, m up to 2n."""
    rnd = random.Random(39)
    for _ in range(3000):
        n = rnd.randrange(1, 10 ** rnd.randint(1, 60)) | 1
        m = rnd.randrange(0, 2 * n + 1)
        assert _value(m, n) == jacobi_symbol(m, n), (m, n)


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
        ms = [m for m in range(1, 50) if math.gcd(m, n) == 1]
        assert [billiard_symbol(m, n).value for m in ms] == zolotarev_row(n, ms), n
