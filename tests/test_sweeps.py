"""Every check family passes at its full default bounds."""

import dataclasses
import itertools
import json
import math
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CliRunner
from quadres import sweeps
from quadres.symbols import billiard_symbol
from quadres.checkers import Board
from quadres.cli import main
from quadres.sweeps import FAMILIES, run_family
from reference import pebbles, ref_almost_rhs, ref_reciprocity_sweeps, ref_swapped

ALL_FAMILIES = sorted(FAMILIES)


def test_family_registry_names():
    assert list(FAMILIES) == [
        "euler", "zolotarev", "jacobi", "supplements", "almost_reciprocity",
        "mod4", "reciprocity", "checkers_symbol", "checkers_bridge", "kernel",
        "superposition", "tilings",
    ]


def test_readme_family_table_follows_the_registry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(readme) if line.startswith("| family "))
    rows = itertools.takewhile(lambda line: line.startswith("|"), readme[start + 2:])  # past the header and rule
    assert [row.split("|")[1].strip() for row in rows] == list(FAMILIES)


# (cells, checked) at the default bounds, so that a faster check cannot quietly verify less
DEFAULT_SIZES = {
    "euler": (45, 8360), "zolotarev": (100, 6087), "jacobi": (76, 11476), "supplements": (99, 198),
    "almost_reciprocity": (100, 5050), "mod4": (100, 8222), "reciprocity": (99, 7952),
    "checkers_symbol": (50, 1547), "checkers_bridge": (555, 3830),
    "kernel": (169, 169), "superposition": (182, 182), "tilings": (36, 36),
}


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_family_passes_at_default_bounds(name):
    result = run_family(name)
    assert (result.cells, result.checked) == DEFAULT_SIZES[name]
    assert result.failures == (), result.failures[:3]


# (cells, checked) at two bound pairs that differ, so that a family reading max_m for max_n shows
ASYMMETRIC_SIZES = {
    (21, 13): {
        "euler": (5, 68), "zolotarev": (13, 180), "jacobi": (7, 147), "supplements": (6, 12),
        "almost_reciprocity": (6, 21), "mod4": (6, 56), "reciprocity": (6, 46), "checkers_symbol": (13, 180),
        "checkers_bridge": (180, 507), "kernel": (240, 240), "superposition": (46, 46), "tilings": (273, 273),
    },
    (13, 21): {
        "euler": (7, 136), "zolotarev": (21, 180), "jacobi": (11, 143), "supplements": (10, 20),
        "almost_reciprocity": (10, 55), "mod4": (10, 61), "reciprocity": (10, 46), "checkers_symbol": (21, 180),
        "checkers_bridge": (180, 851), "kernel": (240, 240), "superposition": (46, 46), "tilings": (273, 273),
    },
}


@pytest.mark.parametrize("name", ALL_FAMILIES)
@pytest.mark.parametrize("max_m, max_n", sorted(ASYMMETRIC_SIZES))
def test_family_grid_follows_each_bound(name, max_m, max_n):
    result = run_family(name, max_m=max_m, max_n=max_n)
    assert (result.cells, result.checked) == ASYMMETRIC_SIZES[max_m, max_n][name]
    assert result.ok, result.failures[:3]


@pytest.mark.parametrize("max_m, max_n", [(None, None), *sorted(ASYMMETRIC_SIZES), (40, 40)])
def test_checkers_families_check_every_coprime_pair_and_bottom_bounce(max_m, max_n):
    """A coprime m x n path bounces on the bottom at 2mk for each k with 2mk < mn: (n-1)//2 bounces."""
    def coprime_pairs(name):
        bound_m, bound_n = FAMILIES[name].bounds(max_m, max_n)
        return [(m, n) for m in range(1, bound_m + 1) for n in range(1, bound_n + 1) if math.gcd(m, n) == 1]

    assert run_family("checkers_symbol", max_m, max_n).checked == len(coprime_pairs("checkers_symbol"))
    bridge = run_family("checkers_bridge", max_m, max_n)
    assert bridge.checked == sum((n - 1) // 2 for _, n in coprime_pairs("checkers_bridge"))
    assert bridge.ok, bridge.failures[:3]


def _negated(value):
    return dataclasses.replace(value, value=-value.value) if hasattr(value, "value") else -value


def _wrong_at(at, change=_negated):
    """Breaks a function of (m, n): `change` applied to its value at the one argument pair `at`."""
    def breaker(fn):
        return lambda m, n: change(fn(m, n)) if (m, n) == at else fn(m, n)
    return breaker


def _wrong_in_row(at):
    """Breaks a row function of (n, ms): its value for the one pair (m, n) = `at` negated."""
    def breaker(row):
        return lambda n, ms: [-value if (m, n) == at else value for m, value in zip(ms, row(n, ms))]
    return breaker


def _count_one_more_at(index):
    """Breaks single_pebble_counts' list: the checker count of the bounce at `index` is one too many."""
    def change(counts):
        x, count = counts[index]
        return [*counts[:index], (x, count + 1), *counts[index + 1:]]
    return change


def _extra_pebble_at(m, n):
    """Breaks apply_checkers: on the (m-1)x(n-1) board its image gains a pebble at (1, 0)."""
    board = Board(rows=m - 1, cols=n - 1)

    def breaker(apply):
        return lambda c: apply(c) ^ pebbles(board, (1, 0)) if c.board == board else apply(c)
    return breaker


def _two_more_on(m, n):
    """Breaks CheckerSet.count: on the (m-1)x(n-1) board it counts two checkers too many, which keeps its parity."""
    board = Board(rows=m - 1, cols=n - 1)

    def breaker(count):
        return lambda c: count(c) + 2 if c.board == board else count(c)
    return breaker


# (family, module, function broken by the breaker, breaker, every failure record at bounds 9)
FAILURE_CASES = [
    ("euler", sweeps.oracles, "euler_row", _wrong_in_row((2, 7)), [{"m": 2, "n": 7, "billiard": 1, "euler": -1}]),
    ("zolotarev", sweeps.oracles, "zolotarev_row", _wrong_in_row((3, 8)),
     [{"m": 3, "n": 8, "billiard": -1, "zolotarev": 1}]),
    ("jacobi", sweeps.oracles, "jacobi_symbol", _wrong_at((2, 9)), [{"m": 2, "n": 9, "billiard": 1, "jacobi": -1}]),
    # the row takes one value per class r = m mod n with 2r <= n: (1|3) serves (4|3) and (7|3), and, reflected,
    # (2|3), (5|3) and (8|3)
    ("jacobi", sweeps.symbols, "_value", _wrong_at((1, 3)),
     [{"m": m, "n": 3, "billiard": -value, "jacobi": value} for m, value in zip((1, 2, 4, 5, 7, 8), (1, -1) * 3)]),
    ("mod4", sweeps.symbols, "mod4_symbol", _wrong_at((3, 8)), [{"m": 3, "d": 8, "billiard": -1, "closed": 1}]),
    # supplements reads (2|7) and (6|7) straight from the int symbol, with no table: one record
    ("supplements", sweeps.symbols, "_value", _wrong_at((2, 7)),
     [{"n": 7, "identity": "two", "closed": 1, "billiard": -1}]),
    # (3|7) enters the cell (7, 3) as the column (n|m) and the cell (3, 7) as the row's class 3
    ("reciprocity", sweeps.symbols, "_value", _wrong_at((3, 7)),
     [{"m": 7, "n": 3, "lhs": 1, "rhs": -1}, {"m": 3, "n": 7, "lhs": 1, "rhs": -1}]),
    # (2|7) enters the row n = 7 as its reflected class 5, and the cell (9, 7) as the column (9|7), class 2 of 7
    ("almost_reciprocity", sweeps.symbols, "_value", _wrong_at((2, 7)),
     [{"m": 5, "n": 7, "lhs": -1, "rhs": 1}, {"m": 7, "n": 9, "lhs": -1, "rhs": 1}]),
    ("checkers_symbol", sweeps.ck, "bottom_row_symbol", _wrong_at((3, 5)),
     [{"m": 3, "n": 5, "checkers": 1, "billiard": -1}]),
    ("checkers_bridge", sweeps.ck, "single_pebble_counts", _wrong_at((5, 7), _count_one_more_at(1)),
     [{"m": 5, "n": 7, "k": 3, "sign": 1, "checkers": 9}]),
    # negating a count keeps its parity, so the count is made one too many; s(3, 5) is also t(5, 3)
    ("superposition", sweeps.ck, "bottom_row_count", _wrong_at((3, 5), lambda s: s + 1),
     [{"m": 3, "n": 5, "u": 2, "s": 4, "t": 3}, {"m": 5, "n": 3, "u": 2, "s": 3, "t": 4}]),
    ("superposition", sweeps.ck, "apply_checkers", _extra_pebble_at(5, 7),
     [{"m": 5, "n": 7, "combined": "not a solution"}]),
    ("superposition", sweeps.ck.CheckerSet, "count", _two_more_on(5, 7), [{"m": 5, "n": 7, "u": 8, "formula": 6}]),
    ("tilings", sweeps.tilings, "count_tilings", _wrong_at((2, 2), lambda count: count + 1),
     [{"rows": 2, "cols": 2, "count": 3, "gcd_flag": False, "rank_full": False}]),
    ("kernel", sweeps.ck, "kernel_element", _wrong_at((6, 9), lambda e: e ^ e), [{"m": 6, "n": 9, "kernel": "empty"}]),
    # a coprime board given a kernel: one nullity record, its cokernel 1 too, which also says it is not invertible
    ("kernel", sweeps.ck, "kernel_dimension", _wrong_at((4, 7), lambda nullity: nullity + 1),
     [{"m": 4, "n": 7, "nullity": 1, "cokernel": 1, "gcd": 1}]),
    ("kernel", sweeps.ck, "apply_checkers", _extra_pebble_at(6, 9), [{"m": 6, "n": 9, "kernel": "nonzero image"}]),
]


def _case_id(case):
    """The family's name, and the broken function's too where the family has several cases."""
    name, _, attr, *_ = case
    return name if [c[0] for c in FAILURE_CASES].count(name) == 1 else f"{name}-{attr}"


@pytest.mark.parametrize("name, module, attr, breaker, want", FAILURE_CASES, ids=map(_case_id, FAILURE_CASES))
def test_failure_records_carry_each_familys_keys(monkeypatch, name, module, attr, breaker, want):
    monkeypatch.setattr(module, attr, breaker(getattr(module, attr)))
    result = run_family(name, max_m=9, max_n=9)
    assert [list(f.items()) for f in result.failures] == [list(f.items()) for f in want]


def test_billiard_row_matches_each_symbol():
    """Every class of m mod n, n = 1, even n and gcd > 1 among them; in order, out of order and repeated."""
    table = sweeps.Table()  # one table for every n, as a sweep's batch keeps it
    for n in range(1, 61):
        ms = list(range(1, 3 * n + 1))
        want = [billiard_symbol(m, n).value for m in ms]
        assert sweeps._billiard(n, ms, sweeps.Table()) == want, n
        assert sweeps._billiard(n, ms[::-1] + ms, sweeps.Table()) == want[::-1] + want, n
        assert sweeps._swapped(n, ms, table) == [w * billiard_symbol(n, m).value for m, w in zip(ms, want)], n
        assert sweeps._swapped(n, ms, table) == ref_swapped(n, ms), n
    assert sweeps._billiard(7, [], table) == [] and sweeps._billiard(1, [5, 1], table) == [1, 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 400), st.integers(1, 120), st.booleans()), max_size=80))
def test_table_answers_every_question_with_the_symbol(questions):
    """One table asked any (m, n), repeated, m >= n, gcd > 1, even n, n = 2 and n = 1 among them, one at a time
    through symbols._row(table, n, m % n + 1) or beside m + n through the billiard side of a comparison, returns
    billiard_symbol(m, n).value every time.  The asks come in any order, so a row grows from any prefix length:
    each leaves it the prefix (r|n), r < len, at least min(top, n) long and holding no class past twice the highest
    one asked, unless it was already longer."""
    table = {}  # a batch's table, the plain dict of its rows
    for m, n, in_row in questions + questions[::-1]:
        before, top = len(table.get(n, [])), m % n + 1
        got = sweeps._billiard(n, [m, m + n], table) if in_row else [sweeps.symbols._row(table, n, top)[m % n]]
        assert got == [billiard_symbol(m, n).value] * len(got), (m, n)
        row = table[n]
        assert row == [billiard_symbol(r or n, n).value for r in range(len(row))], (m, n)
        assert len(row) == n if in_row else min(top, n) <= len(row) <= max(before, 2 * top - 1), (m, n, before)


def _count_values(monkeypatch) -> list[tuple[int, int]]:
    """Records every (m, n) that symbols._value, the int symbol behind the rows, is asked from now on."""
    calls, real = [], sweeps.symbols._value
    monkeypatch.setattr(sweeps.symbols, "_value", lambda m, n: calls.append((m, n)) or real(m, n))
    return calls


# symbols._value calls in one default sweep: a row is a prefix r = 0, 1, ... of its classes, so it takes one call
# per r <= n // 2 below its length, the classes no read names (0, and those sharing a factor with n, which the gcd
# answers without a descent) among them.  The two reciprocity families read their rows, their columns (n|m) and
# almost_reciprocity's right side (m|n-m) from one table for the sweep, so each class is taken once.  A dict of
# the classes read took 2090, 1523, 2926, 2041, 388, 4025 and 6801
VALUE_CALLS = {"euler": 2135, "zolotarev": 2600, "jacobi": 2926, "mod4": 5150, "checkers_symbol": 675,
               "reciprocity": 5049, "almost_reciprocity": 8931}


@pytest.mark.parametrize("name", sorted(VALUE_CALLS))
def test_billiard_row_takes_one_value_per_reflected_class(monkeypatch, name):
    calls = _count_values(monkeypatch)
    result = run_family(name)
    assert result.ok and (result.cells, result.checked) == DEFAULT_SIZES[name]
    assert len(calls) == VALUE_CALLS[name]
    assert len(set(calls)) == len(calls) and all(2 * r <= n for r, n in calls)


def test_billiard_row_asks_the_low_member_of_each_class(monkeypatch):
    """A new row asked to top takes exactly the classes r <= min(top - 1, n // 2), and an ask within its length
    takes none.  (1|3) serves (4|3), and reflected (5|3) and (8|3); (0|3) serves (6|3); once row 7 holds (3|7),
    (10|7) reads it, and (4|7) and (11|7) its reflection."""
    calls, grow = _count_values(monkeypatch), sweeps.symbols._row
    table = {}
    assert sweeps._billiard(3, [5, 7, 8, 4, 6], table) == [-1, 1, -1, 1, 0] and calls == [(0, 3), (1, 3)]
    assert grow(table, 7, 4)[3] == -1 and calls[2:] == [(0, 7), (1, 7), (2, 7), (3, 7)]
    calls.clear()
    assert sweeps._billiard(7, [3, 10, 4, 11], table) == [-1, -1, 1, 1] and calls == []
    for n in range(1, 41):
        for top in range(1, 2 * n + 2):
            calls.clear()
            table = {}
            row = grow(table, n, top)
            assert all(grow(table, n, below) is row for below in range(1, len(row) + 1)), (n, top)
            assert calls == [(r, n) for r in range(min(top - 1, n // 2) + 1)], (n, top)


def test_a_cell_with_no_numerators_fills_no_row(monkeypatch):
    """An empty ms asks its row for no class, not even (0|n).  At 3x2001 reciprocity's 333 denominators divisible
    by 3 have no numerator and take no _value call: 2,665 calls in all, 2,998 when each took (0|n)."""
    calls = _count_values(monkeypatch)
    table = sweeps.Table()
    assert sweeps._billiard(7, [], table) == sweeps._swapped(9, [], table) == [] and table == {7: [], 9: []}
    assert calls == []
    result = run_family("reciprocity", 3, 2001)
    assert result.ok and len(calls) == 2665 and not [n for _, n in calls if n > 3 and n % 3 == 0]


# (family, max_m, max_n): few numerators over many denominators, or the reverse, so each row is read at a few low
# classes.  symbols._value calls per check and cell measured 1.25, 1.00, 1.10, 1.80 and 4.00: at 2001 x 3 each of
# 666 checks reads (3|m), the class 3 of a column m that holds 0 to 3.  Rows built whole on first ask took 31 to
# 125 times this bound (501,500 calls for mod4).
SKEWED_GRIDS = [("mod4", 3, 2000), ("jacobi", 3, 2001), ("checkers_symbol", 3, 2000), ("reciprocity", 3, 2001),
                ("reciprocity", 2001, 3)]


@pytest.mark.parametrize("name, max_m, max_n", SKEWED_GRIDS)
def test_rows_grow_only_as_far_as_their_reads(monkeypatch, name, max_m, max_n):
    calls = _count_values(monkeypatch)
    result = run_family(name, max_m, max_n)
    assert result.ok and result.checked and len(calls) <= 4 * (result.checked + result.cells)


def test_breaking_the_int_symbol_fails_every_billiard_row(monkeypatch):
    """Each family that reads billiard values, from its batch table or, in the supplements, straight from the int
    symbol, records a failure when symbols._value is negated for every n not 1 mod 4.

    Rows and the reciprocity families' table ask only classes m < n, so negating every value would leave
    (m|n)(n|m) as it is; a coprime odd pair of 1 and 3 mod 4 negates one factor alone.
    """
    real = sweeps.symbols._value
    monkeypatch.setattr(sweeps.symbols, "_value", lambda m, n: -real(m, n) if n % 4 != 1 else real(m, n))
    assert all(run_family(name, max_m=9, max_n=9).failures for name in [*VALUE_CALLS, "supplements"])


_BOUNDS = [(None, None), (21, 13), (13, 21)]


@pytest.mark.parametrize("name", ["reciprocity", "almost_reciprocity"])
@pytest.mark.parametrize("bounds, broken, parallelism", [*((b, k, 1) for b in _BOUNDS for k in (None, 7, 9)),
                                                         *((b, None, 2) for b in _BOUNDS)])
def test_reciprocity_families_match_their_per_cell_sides(monkeypatch, name, bounds, broken, parallelism):
    """checked and failures as each cell's own row and one value per column and right side gave them.

    With every (m|broken) negated, a break both ways of reading ask alike, both report the same failures.
    With two workers each grid runs as 8 batches, a table each.
    """
    if broken is not None:
        real = sweeps.symbols._value
        monkeypatch.setattr(sweeps.symbols, "_value", lambda m, n: -real(m, n) if n == broken else real(m, n))
    result = run_family(name, *bounds, parallelism=parallelism)
    want = ref_reciprocity_sweeps(*FAMILIES[name].bounds(*bounds))[name]
    assert (result.checked, list(result.failures)) == want
    assert (broken is None) == result.ok


def _record_tables(monkeypatch) -> list[weakref.ref]:
    """A weak reference to every Table made from now on."""
    made = []

    class Recorded(sweeps.Table):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(sweeps, "Table", Recorded)
    return made


def test_one_table_per_sweep_and_none_after_it(monkeypatch):
    """Each serial reciprocity sweep makes one table, asks each class once, and leaves nothing behind: the table
    is gone once run_family returns, the second sweep asks as often as the first, and a _value patched between
    them is the one it asks."""
    made = _record_tables(monkeypatch)
    calls = _count_values(monkeypatch)
    first = run_family("reciprocity")
    assert first.ok and len(calls) == 5049 and len(made) == 1 and made[0]() is None
    real = sweeps.symbols._value  # still counting
    monkeypatch.setattr(sweeps.symbols, "_value", lambda m, n: -real(m, n) if n == 7 else real(m, n))
    second = run_family("reciprocity")
    assert len(calls) == 2 * 5049 and len(made) == 2 and made[1]() is None
    assert second.failures and all(7 in (f["m"], f["n"]) for f in second.failures)


def test_no_row_table_outlives_its_cell(monkeypatch):
    """A second sweep asks symbols._value as often as the first: nothing is kept between cells or runs."""
    calls = _count_values(monkeypatch)
    first = run_family("jacobi", max_m=40, max_n=40)
    counted = len(calls)
    assert counted and run_family("jacobi", max_m=40, max_n=40) == first and len(calls) == 2 * counted


def test_oracle_sides_evaluate_every_numerator(monkeypatch):
    """Past n the billiard row reuses values, so the oracle must not: each (m, n) of the row is asked once."""
    calls = []
    real = sweeps.oracles.jacobi_symbol
    monkeypatch.setattr(sweeps.oracles, "jacobi_symbol", lambda m, n: calls.append((m, n)) or real(m, n))
    result = run_family("jacobi", max_m=30, max_n=9)
    assert sorted(calls) == sorted((m, n) for n in range(1, 10, 2) for m in range(1, 31)) and result.checked == 150
    rows, real_row = [], sweeps.oracles.euler_row
    monkeypatch.setattr(sweeps.oracles, "euler_row", lambda n, ms: rows.append((n, ms)) or real_row(n, ms))
    assert run_family("euler", max_n=9).checked == 4 + 8 + 12
    assert rows == [(n, [m for m in range(1, 2 * n + 1) if m % n]) for n in (3, 5, 7)]
    signs, real_signs = [], sweeps.oracles.zolotarev_row
    monkeypatch.setattr(sweeps.oracles, "zolotarev_row", lambda n, ms: signs.append((n, ms)) or real_signs(n, ms))
    assert run_family("zolotarev", max_m=12, max_n=9).checked == 12 + 6 + 8 + 6 + 10 + 4 + 11 + 6 + 8
    assert signs == [(n, [m for m in range(1, 13) if math.gcd(m, n) == 1]) for n in range(1, 10)]


CAP = 500 * 500  # the CLI's default cap, about 1 s of work
UNREACHABLE = 10**18  # a limit no grid here passes: work() sums every cell


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_work_sums_the_cell_cost_of_every_cell(name):
    family = FAMILIES[name]
    for max_m, max_n in itertools.product(range(13), repeat=2):
        costs = [family.cell_cost(*cell) for cell in list(family.make_cells(max_m, max_n))]
        assert all(type(cost) is int and cost >= 1 for cost in costs), (max_m, max_n)
        assert family.work(max_m, max_n, UNREACHABLE) == sum(costs), (max_m, max_n)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_work_stops_at_the_first_cell_past_the_limit(name):
    """The count runs until the running sum passes the limit, and not a cell further; a sum equal to it passes."""
    family = FAMILIES[name]
    sums = list(itertools.accumulate(family.cell_cost(*cell) for cell in family.make_cells(13, 21)))
    for limit in (0, sums[0], sums[len(sums) // 2], sums[-2], sums[-1] - 1, sums[-1]):
        want = next((total for total in sums if total > limit), sums[-1])
        assert family.work(13, 21, limit) == want, limit  # at sums[-2], reaching the limit is not passing it


# the largest square bound each family's work admits under the CLI's default cap; each takes 0.4-1.3 s
LARGEST_SQUARE = {
    "euler": 1296, "zolotarev": 433, "jacobi": 706, "supplements": 250002, "almost_reciprocity": 1412, "mod4": 999,
    "reciprocity": 1411, "checkers_symbol": 138, "checkers_bridge": 102, "kernel": 143, "superposition": 144,
    "tilings": 13,
}


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_cap_admits_each_familys_largest_square_and_no_more(name):
    family, bound = FAMILIES[name], LARGEST_SQUARE[name]
    assert family.work(bound, bound, CAP) <= CAP < family.work(bound + 1, bound + 1, CAP)


# the longest 1xN and Nx1 grids the cap admits, None where no bound is refused; each takes at most 1.4 s
LONGEST_THIN = {
    "euler": (1296, None), "zolotarev": (20762, 545453), "jacobi": (250000, 249999), "supplements": (250002, None),
    "almost_reciprocity": (1412, None), "mod4": (250001, None), "reciprocity": (250002, None),
    "checkers_symbol": (2818, 1999), "checkers_bridge": (1338, 1338), "kernel": (None, None),
    "superposition": (None, None), "tilings": (1411, 1411),
}


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_cap_admits_each_familys_longest_row_and_column_and_no_more(name):
    family = FAMILIES[name]
    for longest, bounds in zip(LONGEST_THIN[name], (lambda k: (1, k), lambda k: (k, 1))):
        if longest is None:
            assert family.work(*bounds(10**9), CAP) <= CAP
        else:
            assert family.work(*bounds(longest), CAP) <= CAP < family.work(*bounds(longest + 1), CAP)


def test_kernel_cost_counts_board_squares():
    # a unit per 10 of the short side for the path polynomials; when g > 1, 2 units and one per 5000 of
    # m * (n + 1000) for the element, its count and its image, m rows of n bits: 3 units at 2x2, 22 at 64x64
    # and 7 at the coprime 63x64, which makes no element; the 143x143 sweep takes 0.8 s of process wall
    kernel = FAMILIES["kernel"]
    assert kernel.cell_cost(2, 2) == 3 and kernel.cell_cost(64, 64) == 1 + 6 + 2 + 13 == 22
    assert kernel.cell_cost(63, 64) == 1 + 6 == 7
    assert kernel.work(14, 14, UNREACHABLE) == 410 and kernel.work(2, 14, UNREACHABLE) == 27
    assert kernel.work(143, 143, UNREACHABLE) == 243526 <= CAP < kernel.work(144, 144, UNREACHABLE) == 250573
    assert kernel.work(1, 10**9, CAP) == kernel.work(10**9, 1, CAP) == 0  # a side below 2 makes no board
    # the work at 33x40 for every family: it reads each bound its grid reads, and only those
    at_33_40 = {"euler": 401, "zolotarev": 1045, "jacobi": 680, "supplements": 38, "almost_reciprocity": 209,
                "mod4": 360, "reciprocity": 190, "checkers_symbol": 4436, "checkers_bridge": 8416, "kernel": 4868,
                "superposition": 3287, "tilings": 4826686022405}
    assert {name: family.work(33, 40, UNREACHABLE) for name, family in FAMILIES.items()} == at_33_40


def test_euler_cost_is_two_units_a_numerator_at_any_prime():
    """The row proves n prime once and then takes one modular power a numerator, so 43^2 changes nothing.

    Measured per cell (median of 7, Python 3.11.7, 2 shared cores): (1847, ·) 10.1 ms, 2,532 units;
    (1861, ·) 9.7 ms, 2,432 units; (10007, ·) 62.6 ms, 15,648 units.  With primality proven per numerator
    the last two took 65 and 422 ms.
    """
    euler = FAMILIES["euler"]
    for n, measured in [(1847, 2532), (1861, 2432), (10007, 15648)]:
        assert measured / 2 <= euler.cell_cost(n, 0) == 1 + 2 * n <= 2 * measured, n


def test_euler_proves_each_prime_once(monkeypatch):
    """The default sweep tests each n <= 199 once to pick its 45 primes; a prime's row takes that proof on trust."""
    calls, real = [], sweeps.oracles.is_odd_prime
    monkeypatch.setattr(sweeps.oracles, "is_odd_prime", lambda n: calls.append(n) or real(n))
    assert (result := run_family("euler")).ok and result.cells == 45 and calls == list(range(3, 200))


def test_zolotarev_cost_grows_with_the_bits_of_n():
    """A numerator's cycle count walks the divisors of n, so its units grow with n's bits b: (32 + b^2)/72 each.

    Measured per cell (median of 7, Python 3.11.7, 2 shared cores): (7, 1000) 0.82 ms, 571 units; (1000, 1000)
    8.4 ms, 1,837 units; (100003, 1000) 10.7 ms, 4,482 units.  A flat unit a numerator priced the widest grids
    the cap admitted (30x7000 took 2.4 s) up to 2x too low; each grid below takes 1.0-1.3 s of process wall.
    """
    zolotarev = FAMILIES["zolotarev"]
    assert zolotarev.cell_cost(7, 1000) == 1 + 1001 * 41 // 72 == 571
    assert zolotarev.cell_cost(100003, 1000) == 1 + 1001 * 321 // 72 + 316 // 16 == 4482
    for max_m, widest, refused in [(433, 433, 499), (499, 385, 499), (240, 695, 1000), (100, 1407, 2400),
                                   (30, 3678, 7000), (1, 20762, 29045)]:
        assert zolotarev.work(max_m, widest, CAP) <= CAP < zolotarev.work(max_m, widest + 1, CAP), max_m
        assert zolotarev.work(max_m, refused, CAP) > CAP, max_m


def test_tilings_cost_admits_13_and_refuses_14():
    work = partial(FAMILIES["tilings"].work, limit=UNREACHABLE)
    assert work(6, 6) == 533 and work(12, 12) == 74810  # the default, and every board of 12x12
    assert work(13, 13) == 171833 <= CAP < work(14, 14) == 394894  # the CLI's default cap, about 1 s
    # past the cap the count stops at the first board over it, whatever the rest of the grid
    assert FAMILIES["tilings"].work(60, 60, CAP) == 251499 and FAMILIES["tilings"].work(10**9, 10**9, CAP) == 250277


def test_bridge_cost_admits_100_and_refuses_150():
    bridge = FAMILIES["checkers_bridge"]
    assert bridge.work(30, 30, UNREACHABLE) == 4641
    assert bridge.work(100, 100, UNREACHABLE) == 218979 <= CAP  # about 1 s of path walks
    assert bridge.work(150, 150, UNREACHABLE) == 1006213 > CAP


def test_layout_cost_admits_138_and_144_and_refuses_200():
    symbol, superposition = (partial(FAMILIES[name].work, limit=UNREACHABLE)
                             for name in ("checkers_symbol", "superposition"))
    assert symbol(50, 50) == 11825 and superposition(31, 31) == 2240  # the defaults, far inside the cap
    assert symbol(138, 138) == 247054 <= CAP < symbol(139, 139) == 252455  # the CLI's default cap, about 0.4 s
    assert superposition(144, 144) == 241126 <= CAP < superposition(145, 145) == 251470  # about 0.6 s
    assert symbol(200, 200) == 751400 and superposition(200, 200) == 697436


def test_reduced_bounds_shrink_the_sweep():
    small = run_family("reciprocity", max_m=21, max_n=21)
    full = run_family("reciprocity")
    assert 0 < small.checked < full.checked
    assert small.ok and full.ok


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_parallel_merge_matches_serial(name):
    """Two worker processes: each cell and check pickles, and a worker runs the same sides.

    tilings runs its 117 boards of 9x13 (0.07 s serial): 13x21 costs it 3.5 times the CLI's cap, and
    test_family_grid_follows_each_bound checks those boards at both bound orders.
    """
    bounds = (9, 13) if name == "tilings" else (13, 21)
    assert run_family(name, *bounds, parallelism=1) == run_family(name, *bounds, parallelism=2)


def test_board_is_odd_exactly_when_the_gcd_is_even():
    """Why the kernel family compares the nullity alone: with this, nullity floor(g/2) forces the cokernel
    nullity - (m-1)(n-1) mod 2 to be floor((g-1)/2), and an invertible map (no kernel, even board) to mean g = 1."""
    for m, n in itertools.product(range(1, 61), repeat=2):
        assert (m - 1) * (n - 1) % 2 == (math.gcd(m, n) % 2 == 0), (m, n)


@pytest.mark.parametrize("name", ALL_FAMILIES)
@pytest.mark.parametrize("max_n", [1, 9, 20])
def test_run_family_sweeps_the_grid_verify_sweeps(monkeypatch, name, max_n):
    """One bound rule: with max_n alone, run_family and `quadres verify --max-n` take max_m = max_n.

    Only the grid is compared, so count_tilings is stubbed (every board of 20x20 is out of its reach) and
    the cap is raised to admit tilings' 20x20 grid; the stub's failures are counted, not compared.
    """
    monkeypatch.setattr(sweeps.tilings, "count_tilings", lambda rows, cols: 0)
    monkeypatch.setenv("QUADRES_MAX_CELLS", str(10**12))
    result = run_family(name, max_n=max_n)
    payload = json.loads(CliRunner().invoke(main, ["verify", "--checks", name, "--max-n", str(max_n), "--json"]).output)
    witness = payload["checks"][0]["witness"]
    assert (witness["cells"], witness["checked"]) == (result.cells, result.checked)
    assert witness["reproduce"].endswith(f"--max-m {max_n} --max-n {max_n}") and payload["inputs"]["m"] is None


def test_zero_bound_is_not_the_default():
    assert run_family("reciprocity", max_m=0, max_n=0).checked == 0
    assert run_family("kernel", max_m=0, max_n=14).checked == 0


def test_elapsed_time_is_reported_but_not_compared():
    result = run_family("supplements", max_n=21)
    assert result.elapsed_s > 0
    assert result == run_family("supplements", max_n=21)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_no_family_named_runs_nothing(parallelism):
    assert list(sweeps.run_families([], parallelism=parallelism)) == []


def test_a_family_named_twice_runs_once():
    results = sweeps.run_families(["kernel", "tilings", "kernel"], 3, 3)
    assert [result.name for result in results] == ["kernel", "tilings"]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and each batch mapped, starts no process."""

    requested: list[int] = []
    batches: list[tuple] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, batches, chunksize=1):
        batches = list(batches)
        self.batches.extend(batches)
        return map(fn, batches)


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)  # run_families imports it late
    _InlinePool.requested, _InlinePool.batches = [], []
    return _InlinePool


@pytest.mark.parametrize("cpus, max_n, want", [(3, 14, 3), (None, 14, None), (8, 3, 5)])
def test_parallelism_is_clamped_to_cores_and_cells(monkeypatch, inline_pool, cpus, max_n, want):
    """Once a run, against all its cells: at 3x3 kernel's 4 boards and supplements' one denominator make 5."""
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    names = ["kernel", "supplements"]
    results = list(sweeps.run_families(names, max_n, max_n, parallelism=10_000))
    assert inline_pool.requested == ([want] if want else [])
    assert results == [run_family(name, max_n, max_n) for name in names]


def test_one_pool_runs_every_family_with_a_table_each(monkeypatch, inline_pool):
    """At defaults two workers over 12 families cut none: 1 batch a family, all in one pool, and a Table per
    tabled family, 7, as the serial run makes."""
    made = _record_tables(monkeypatch)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    parallel = list(sweeps.run_families(ALL_FAMILIES, parallelism=2))
    assert inline_pool.requested == [2] and [name for name, _ in inline_pool.batches] == ALL_FAMILIES
    assert len(made) == sum(FAMILIES[name].tabled for name in ALL_FAMILIES) == 7
    assert [result.name for result in parallel] == ALL_FAMILIES  # the order named, not the registry's
    assert parallel == list(sweeps.run_families(ALL_FAMILIES)) and len(made) == 14


def test_a_lone_family_runs_as_four_batches_a_worker(monkeypatch, inline_pool):
    """Two workers cut a lone family into ceil(4 * 2 / 1) = 8 contiguous runs of its cells, each a batch with
    its own Table; the serial sweep is one batch."""
    made = _record_tables(monkeypatch)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    parallel = run_family("reciprocity", parallelism=2)
    assert [len(cells) for _, cells in inline_pool.batches] == [12, 12, 13, 12, 12, 13, 12, 13] and len(made) == 8
    cells = list(FAMILIES["reciprocity"].make_cells(199, 199))
    assert [cell for _, run in inline_pool.batches for cell in run] == cells and len(cells) == 99
    assert parallel == run_family("reciprocity") and len(made) == 9


def test_two_families_under_two_workers_run_whole(monkeypatch, inline_pool):
    """Two workers over two families cut neither: 2 batches, a Table each, and each class asked once a family,
    as often as the serial run asks."""
    made, calls = _record_tables(monkeypatch), _count_values(monkeypatch)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    names = ["reciprocity", "almost_reciprocity"]
    parallel = list(sweeps.run_families(names, parallelism=2))
    assert [name for name, _ in inline_pool.batches] == names and len(made) == 2 and len(calls) == 5049 + 8931
    assert parallel == list(sweeps.run_families(names)) and len(made) == 4 and len(calls) == 2 * (5049 + 8931)


def test_elapsed_time_sums_its_batches_timed_where_they_ran(monkeypatch, inline_pool):
    """With a clock that advances 1 a reading, a family reads 1 a batch: 1 serially, 8 for a lone family cut for
    two workers.  Nothing outside a batch is timed, so making the cells costs a family nothing."""
    ticks = itertools.count()
    monkeypatch.setattr(sweeps.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    assert [result.elapsed_s for result in sweeps.run_families(["kernel", "reciprocity"])] == [1, 1]
    assert run_family("reciprocity", parallelism=2).elapsed_s == 8 and len(inline_pool.batches) == 8
