"""Acceptance suite: one test per criterion, each printing its verdict.

Every sweep runs at the full stated bounds with zero tolerated failures,
and the stated wall-clock budgets are asserted, not just observed.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import math
import random
import statistics
import time

from conftest import CliRunner
from quadres.billiards import base_bounces, trace_path
from quadres.checkers import (
    Board,
    PebbleSet,
    apply_checkers,
    kernel_element,
    solve,
)
from quadres.cli import main
from quadres.sweeps import run_family
from quadres.symbols import billiard_symbol
from quadres.tilings import count_tilings
from reference import solve_elimination


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def timed_family(name: str, **bounds):
    start = time.perf_counter()
    result = run_family(name, **bounds)
    return result, time.perf_counter() - start


def test_criterion_01_figure_one_trace():
    trace_path(5, 7)  # warm up
    times = []
    for _ in range(7):  # the median of 7, so that one sample slowed by a loaded machine does not decide
        start = time.perf_counter()
        path = trace_path(5, 7)
        times.append(time.perf_counter() - start)
    elapsed = statistics.median(times)
    ok = (
        base_bounces(5, 7) == [(4, -1, 10), (6, 1, 20), (2, 1, 30)]
        and path.end == (7, 5)
        and path.length == 35
        and elapsed < 0.001
    )
    report(1, "5x7 trace reproduces the known bounce table", ok, f"{elapsed * 1e6:.0f} us")


def test_criterion_02_prime_denominator_sweep():
    result, elapsed = timed_family("euler", max_n=199)
    ok = result.ok and elapsed < 5.0
    report(2, "billiard symbol = Euler criterion, primes n <= 199, m <= 2n",
           ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_03_permutation_sign_sweep():
    result, elapsed = timed_family("zolotarev", max_m=100, max_n=100)
    ok = result.ok and elapsed < 5.0 and billiard_symbol(5, 8).value == 1
    report(3, "billiard symbol = permutation sign, coprime m, n <= 100",
           ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_04_supplements():
    result, elapsed = timed_family("supplements", max_n=199)
    report(4, "closed forms for (n-1|n) and (2|n), odd n <= 199",
           result.ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_05_identity_chain():
    almost, t1 = timed_family("almost_reciprocity", max_n=201)
    mod4, t2 = timed_family("mod4", max_m=201, max_n=200)
    recip, t3 = timed_family("reciprocity", max_m=199, max_n=199)
    total = t1 + t2 + t3
    ok = almost.ok and mod4.ok and recip.ok and total < 10.0
    detail = f"{almost.checked}+{mod4.checked}+{recip.checked} checks, {total:.2f}s"
    report(5, "reduction, even-denominator form, and reciprocity sweeps", ok, detail)


def test_criterion_06_first_figure_solution():
    result = CliRunner().invoke(main, ["solve", "5", "7", "--bottom-row", "--json"])
    payload = json.loads(result.output)
    ok = (
        result.exit_code == 0
        and payload["result"]["checkers"]
        == [[0, 2], [1, 1], [1, 3], [2, 2], [4, 0], [4, 2], [5, 3]]
        and payload["result"]["symbol"] == -1
    )
    report(6, "solve 5 7 --bottom-row returns the seven known checkers", ok)


def test_criterion_07_checkers_symbol_and_bridge():
    symbol, symbol_s = timed_family("checkers_symbol", max_m=50, max_n=50)
    bridge, bridge_s = timed_family("checkers_bridge", max_m=30, max_n=30)
    elapsed = symbol_s + bridge_s
    ok = symbol.ok and bridge.ok and elapsed < 20.0
    report(7, "bottom-row parity = billiard symbol (<=50) with bounce bridge (<=30)",
           ok, f"{symbol.checked} + {bridge.checked} checks, {elapsed:.2f}s")


def test_criterion_08_solvability_dichotomy():
    result, elapsed = timed_family("kernel", max_m=14, max_n=14)
    fig5 = kernel_element(6, 9).squares == {
        (0, 0), (1, 1), (3, 3), (4, 4), (6, 4), (7, 3), (7, 1), (6, 0),
        (4, 0), (3, 1), (1, 3), (0, 4),
    }
    ok = result.ok and fig5
    report(8, "invertible iff coprime (2..14); kernel element exact for 6x9",
           ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_09_superposition():
    from reference import combined_puzzle_count

    result, elapsed = timed_family("superposition", max_m=31, max_n=31)
    ok = result.ok and combined_puzzle_count(7, 11) == 15
    report(9, "combined puzzle count = (m-1)(n-1)/4, odd coprime <= 31",
           ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_10_tiling_parity():
    result, elapsed = timed_family("tilings", max_m=6, max_n=6)
    ok = (
        result.ok
        and count_tilings(2, 3) == 3
        and count_tilings(4, 4) == 36
        and elapsed < 10.0
    )
    report(10, "tiling parity = invertibility = gcd condition, boards <= 6x6",
           ok, f"{result.checked} checks, {elapsed:.2f}s")


def test_criterion_11_solver_cross_validation():
    rng = random.Random(2024)
    coprime_boards = [
        (m, n) for m in range(2, 14) for n in range(2, 14) if math.gcd(m, n) == 1
    ]
    checked = 0
    ok = True
    while checked < 200:
        m, n = coprime_boards[rng.randrange(len(coprime_boards))]
        board = Board(rows=m - 1, cols=n - 1)
        lights = board.light_squares()
        p = PebbleSet(board, frozenset(sq for sq in lights if rng.random() < 0.5))
        constructive = solve(p)
        eliminated = solve_elimination(p)
        if not (
            eliminated.unique
            and eliminated.solution == constructive
            and apply_checkers(constructive) == p
        ):
            ok = False
            break
        checked += 1
    report(11, "constructive vs elimination solver on 200 random puzzles",
           ok, f"{checked} puzzles")
