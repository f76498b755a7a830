"""Every check family passes at its full default bounds."""

import dataclasses
import itertools
import math
from pathlib import Path

import pytest

from quadres import sweeps
from quadres.checkers import Board
from quadres.sweeps import FAMILIES, run_family
from reference import pebbles

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


# (cells, checked) at two bound pairs that differ, so that a family reading max_m for max_n shows;
# tilings runs only the boards it can count exactly, 254 of the 273 (the 19 past 12x12 with both sides 12 or more drop)
ASYMMETRIC_SIZES = {
    (21, 13): {
        "euler": (5, 68), "zolotarev": (13, 180), "jacobi": (7, 147), "supplements": (6, 12),
        "almost_reciprocity": (6, 21), "mod4": (6, 56), "reciprocity": (6, 46), "checkers_symbol": (13, 180),
        "checkers_bridge": (180, 507), "kernel": (240, 240), "superposition": (46, 46), "tilings": (254, 254),
    },
    (13, 21): {
        "euler": (7, 136), "zolotarev": (21, 180), "jacobi": (11, 143), "supplements": (10, 20),
        "almost_reciprocity": (10, 55), "mod4": (10, 61), "reciprocity": (10, 46), "checkers_symbol": (21, 180),
        "checkers_bridge": (180, 851), "kernel": (240, 240), "superposition": (46, 46), "tilings": (254, 254),
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


# (family, module, function broken by the breaker, breaker, every failure record at bounds 9)
FAILURE_CASES = [
    ("euler", sweeps.oracles, "euler_symbol", _wrong_at((2, 7)), [{"m": 2, "n": 7, "billiard": 1, "euler": -1}]),
    ("zolotarev", sweeps.oracles, "zolotarev_perm_sign", _wrong_at((3, 8)),
     [{"m": 3, "n": 8, "billiard": -1, "zolotarev": 1}]),
    ("jacobi", sweeps.oracles, "jacobi_symbol", _wrong_at((2, 9)), [{"m": 2, "n": 9, "billiard": 1, "jacobi": -1}]),
    ("mod4", sweeps.symbols, "mod4_symbol", _wrong_at((3, 8)), [{"m": 3, "d": 8, "billiard": -1, "closed": 1}]),
    ("supplements", sweeps.symbols, "billiard_symbol", _wrong_at((2, 7)),
     [{"n": 7, "identity": "two", "closed": 1, "billiard": -1}]),
    ("reciprocity", sweeps.symbols, "billiard_symbol", _wrong_at((3, 7)),  # (3|7) enters the cells (7, 3) and (3, 7)
     [{"m": 7, "n": 3, "lhs": 1, "rhs": -1}, {"m": 3, "n": 7, "lhs": 1, "rhs": -1}]),
    ("almost_reciprocity", sweeps.symbols, "billiard_symbol", _wrong_at((3, 7)),
     [{"m": 3, "n": 7, "lhs": 1, "rhs": -1}]),
    ("checkers_symbol", sweeps.ck, "bottom_row_symbol", _wrong_at((3, 5)),
     [{"m": 3, "n": 5, "checkers": 1, "billiard": -1}]),
    ("checkers_bridge", sweeps.ck, "single_pebble_counts", _wrong_at((5, 7), _count_one_more_at(1)),
     [{"m": 5, "n": 7, "k": 3, "sign": 1, "checkers": 9}]),
    # negating a count keeps its parity, so the count is made one too many; s(3, 5) is also t(5, 3)
    ("superposition", sweeps.ck, "bottom_row_count", _wrong_at((3, 5), lambda s: s + 1),
     [{"m": 3, "n": 5, "u": 2, "s": 4, "t": 3}, {"m": 5, "n": 3, "u": 2, "s": 3, "t": 4}]),
    ("superposition", sweeps.ck, "apply_checkers", _extra_pebble_at(5, 7),
     [{"m": 5, "n": 7, "combined": "not a solution"}]),
    ("tilings", sweeps.tilings, "count_tilings", _wrong_at((2, 2), lambda count: count + 1),
     [{"rows": 2, "cols": 2, "count": 3, "gcd_flag": False, "rank_full": False}]),
    ("kernel", sweeps.ck, "kernel_element", _wrong_at((6, 9), lambda e: e ^ e), [{"m": 6, "n": 9, "kernel": "empty"}]),
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


def test_kernel_cost_counts_board_squares():
    # the squares of all its boards over 20, plus the two side ranges the grid enumerates
    kernel = FAMILIES["kernel"]
    assert kernel.cost(14, 14) == 8281 // 20 + 28 == 442
    assert kernel.cost(64, 64) == 4064256 // 20 + 128 == 203340  # 64x64 takes about 0.9 s
    assert kernel.cost(67, 67) == 244560 < 500 * 500 < kernel.cost(68, 68) == 259600  # the CLI's default cap
    assert kernel.cost(2, 14) == 91 // 20 + 16 == 20
    assert kernel.cost(1, 10**9) == kernel.cost(10**9, 1) == 10**9 + 1  # no board, but a range of 10^9 sides
    n_only = {"euler": 2 * 40 * 40, "almost_reciprocity": 40 * 40, "supplements": 40}  # their grids read no m
    path_walks = {"checkers_bridge": 33 * 40 * (33 + 40) // 8}  # each cell walks its whole path
    layouts = {name: 33 * 40 * (33 + 40) // 64 for name in ("checkers_symbol", "superposition")}  # one grid a cell
    tilings = {"tilings": 42171672 // 40}  # the tiling checks' work over the countable boards up to 33x40
    for family in FAMILIES.values():
        if family.name != "kernel":
            want = {**n_only, **path_walks, **layouts, **tilings}.get(family.name, 33 * 40)
            assert family.cost(33, 40) == want, family.name


def test_tilings_cost_admits_17_and_refuses_18():
    cost = FAMILIES["tilings"].cost
    assert cost(6, 6) == 506 and cost(12, 12) == 74705  # the default, and every board of 12x12 counted
    assert cost(17, 17) == 243492 < 500 * 500 < cost(18, 18) == 284001  # the CLI's default cap, about 1 s
    assert cost(60, 60) == 2182347 and cost(500, 500) == 25366226


def test_bridge_cost_admits_100_and_refuses_150():
    bridge = FAMILIES["checkers_bridge"]
    assert bridge.cost(30, 30) == 6750
    assert bridge.cost(100, 100) == 500 * 500  # the CLI's default cap, about 1 s of path walks
    assert bridge.cost(150, 150) == 843750 > 500 * 500


def test_layout_cost_admits_200_and_refuses_250():
    for name in ("checkers_symbol", "superposition"):
        cost = FAMILIES[name].cost
        assert cost(50, 50) == 3906 and cost(31, 31) == 930  # the defaults, far inside the cap
        assert cost(200, 200) == 250000 == 500 * 500  # the CLI's default cap, about 1 s of layouts
        assert cost(250, 250) == 488281 > 500 * 500


def test_reduced_bounds_shrink_the_sweep():
    small = run_family("reciprocity", max_m=21, max_n=21)
    full = run_family("reciprocity")
    assert 0 < small.checked < full.checked
    assert small.ok and full.ok


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_parallel_merge_matches_serial(name):
    """Two worker processes: each cell and check pickles, and a worker runs the same sides."""
    serial = run_family(name, max_m=13, max_n=21, parallelism=1)
    parallel = run_family(name, max_m=13, max_n=21, parallelism=2)
    assert serial == parallel


def test_zero_bound_is_not_the_default():
    assert run_family("reciprocity", max_m=0, max_n=0).checked == 0
    assert run_family("kernel", max_m=0, max_n=14).checked == 0


def test_elapsed_time_is_reported_but_not_compared():
    result = run_family("supplements", max_n=21)
    assert result.elapsed_s > 0
    assert result == run_family("supplements", max_n=21)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cpus, max_n, want", [(3, 14, 3), (None, 14, None), (8, 3, 4)])
def test_parallelism_is_clamped_to_cores_and_cells(monkeypatch, cpus, max_n, want):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _InlinePool)  # run_family imports it late
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    _InlinePool.requested = []
    result = run_family("kernel", max_m=max_n, max_n=max_n, parallelism=10_000)
    assert _InlinePool.requested == ([want] if want else [])
    assert result == run_family("kernel", max_m=max_n, max_n=max_n)
