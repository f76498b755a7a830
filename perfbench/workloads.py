"""The benchmark's workloads: seeded inputs, timed rounds and the checks on their answers.

A round is one batch of operations run back to back by a single closed-loop
client.  Every round of a run has the same op sizes, drawn from the seed:
op i of each round does the same amount of work, so the median of its
repeats is its cost.  What the size leaves free
(m for a symbol, the pebbles of a random puzzle) is drawn again from
(seed, round), so those inputs do not repeat.  Only the library call is
timed; the answer is checked after the clock stops.

Sizes are drawn stratified: one draw from each of `count` equal slices of
the range, run in an order of slices fixed for every seed.  The total work
of a batch then barely depends on the seed, and neither does the size of
the op before each op, which moves its time (a mid-size symbol runs about
10% slower right after a large one); the spread between runs is the
machine's, not the draw's.

Between ops, at most every `REF_INTERVAL_S`, a round times the benchmark's
own `reference_kernel`.  The median of those samples is the round's
reference unit: how long fixed Python work took on the machine as it ran
at that time.  Op times divided by it no longer move with the slow
stretches of a shared machine, which slow the kernel and the library alike.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field

from quadres import checkers, sweeps, symbols
from quadres.oracles import jacobi_symbol  # bound before tracing, so checks are never traced

SYMBOL_BATCH = 200
SYMBOL_LOG10_N = (3.0, 6.0)
SOLVE_BATCH = 50
SOLVE_SIDES = (40, 200)
PUZZLE_KINDS = ("bottom_row", "left_column", "both", "random")
REF_INTERVAL_S = 0.05


def reference_kernel() -> int:
    """Fixed Python work that calls no quadres code: 0.7 to 1.2 ms on a 2-core Xeon.

    Half of it is integer arithmetic, half tuple keys toggled in a dict: the
    slow stretches of a shared machine slow these two kinds of work by
    different amounts, and the library's workloads lie between them.
    """
    x = 1
    for i in range(5000):
        x = (x * 31 + i) % 1_000_003
    parity: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = ((i * 37) % 97, (i * 11) % 89)
        parity[key] = parity.get(key, 0) ^ 1
    return x + len(parity)


@dataclass
class Round:
    """Outcome of one batch: each op's time and checks verified, and the failed ops."""

    op_s: list[float] = field(default_factory=list)
    op_checks: list[int] = field(default_factory=list)
    failed: int = 0
    families: dict[str, dict] = field(default_factory=dict)
    ref_s: list[float] = field(default_factory=list)
    _ref_at: float = float("-inf")

    def gauge(self) -> None:
        """Times `reference_kernel` if `REF_INTERVAL_S` has passed since the last sample."""
        start = time.perf_counter()
        if start - self._ref_at >= REF_INTERVAL_S:
            reference_kernel()
            self._ref_at = time.perf_counter()
            self.ref_s.append(self._ref_at - start)

    @property
    def ref_unit_s(self) -> float:
        return statistics.median(self.ref_s)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def checks(self) -> int:
        return sum(self.op_checks)


def _plain(call):
    return call


def _rngs(seed: int, round_no: int) -> tuple[random.Random, random.Random]:
    """Generators for the run's op sizes and for this round's free inputs."""
    return random.Random(seed), random.Random(seed * 1_000_003 + round_no + 1)


def _slice_order(count: int) -> list[int]:
    """A shuffle of range(count) that is the same for every seed."""
    return random.Random(0).sample(range(count), count)


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in _slice_order(count)]


def _timed(call):
    """(seconds, result) of call(); result is None if it raised."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        result = None
        print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return time.perf_counter() - start, result


# --- verify_default: every sweep family at default bounds, one process ---

def verify_inputs(seed: int, round_no: int) -> list[str]:
    """The family names in registry order; the seed changes nothing here."""
    return list(sweeps.FAMILIES)


def run_verify_round(families: list[str], wrap=_plain) -> Round:
    """One op per family sweep; it verifies the family's `checked` cases."""
    rnd = Round()
    for name in families:
        rnd.gauge()
        elapsed, res = _timed(wrap(lambda: sweeps.run_family(name, parallelism=1)))
        checked = res.checked if res is not None else 0
        failures = len(res.failures) if res is not None else 1
        if failures or checked < 1:
            rnd.failed += 1
        rnd.op_s.append(elapsed)
        rnd.op_checks.append(checked)
        rnd.families[name] = {"checked": checked, "elapsed_s": elapsed, "failure_count": failures}
    return rnd


# --- symbol_queries: one (m|n) per op, n odd and log-uniform ---

def symbol_inputs(seed: int, round_no: int, count: int = SYMBOL_BATCH,
                  log10_n: tuple[float, float] = SYMBOL_LOG10_N) -> list[tuple[int, int]]:
    """Coprime (m, n): n odd, log-uniform in [10^lo, 10^hi]; m uniform in [1, n)."""
    sizes, free = _rngs(seed, round_no)
    pairs = []
    for exponent in _stratified(sizes, count, *log10_n):
        n = int(10 ** exponent) | 1
        m = free.randrange(1, n)
        while math.gcd(m, n) != 1:
            m = free.randrange(1, n)
        pairs.append((m, n))
    return pairs


def run_symbol_round(pairs: list[tuple[int, int]], wrap=_plain) -> Round:
    rnd = Round()
    for m, n in pairs:
        rnd.gauge()
        elapsed, value = _timed(wrap(lambda: symbols.billiard_symbol(m, n).value))
        rnd.op_s.append(elapsed)
        rnd.op_checks.append(1)
        if value is None or value != jacobi_symbol(m, n):
            rnd.failed += 1
    return rnd


# --- solve_boards: one checkers puzzle per op on a large coprime board ---

def solve_inputs(seed: int, round_no: int, count: int = SOLVE_BATCH,
                 sides: tuple[int, int] = SOLVE_SIDES) -> list[checkers.PebbleSet]:
    """Puzzles on (m-1)x(n-1) boards, m and n uniform in `sides` and coprime.

    Op k takes m from slice k of the range, n from a slice picked by a
    fixed shuffle, and kind k mod 4, and the ops run in a fixed order, so
    every seed has the same sequence of shapes and kinds; the seed moves
    each side within its slice.  The random kind pebbles each light square with probability 1/2.
    """
    sizes, free = _rngs(seed, round_no)
    lo, hi = sides
    width = (hi + 1 - lo) / count
    n_slices = _slice_order(count)
    plan = []
    for k in range(count):
        m = int(lo + (k + sizes.random()) * width)
        n = int(lo + (n_slices[k] + sizes.random()) * width)
        while math.gcd(m, n) != 1:
            n = n + 1 if n < hi else lo
        plan.append((m, n, PUZZLE_KINDS[k % len(PUZZLE_KINDS)]))
    plan = [plan[k] for k in random.Random(1).sample(range(count), count)]
    puzzles = []
    for m, n, kind in plan:
        board = checkers.Board(rows=m - 1, cols=n - 1)
        if kind == "bottom_row":
            puzzle = checkers.bottom_row_puzzle(board)
        elif kind == "left_column":
            puzzle = checkers.left_column_puzzle(board)
        elif kind == "both":
            puzzle = checkers.bottom_row_puzzle(board) ^ checkers.left_column_puzzle(board)
        else:
            puzzle = checkers.PebbleSet(board, frozenset(
                sq for sq in board.light_squares() if free.random() < 0.5))
        puzzles.append(puzzle)
    return puzzles


def pebbles_lit_by(rows: int, cols: int, squares) -> set[tuple[int, int]] | None:
    """Light squares with an odd count of checkers among their four neighbours.

    The benchmark's own count over plain sets, so that a faster library
    cannot weaken the check that judges it.  None if a checker is off the
    board or on a light square.
    """
    lit: set[tuple[int, int]] = set()
    for col, row in squares:
        if not (0 <= col < cols and 0 <= row < rows) or (col + row) % 2:
            return None
        for sq in ((col - 1, row), (col + 1, row), (col, row - 1), (col, row + 1)):
            if 0 <= sq[0] < cols and 0 <= sq[1] < rows:
                if sq in lit:
                    lit.remove(sq)
                else:
                    lit.add(sq)
    return lit


def run_solve_round(puzzles: list[checkers.PebbleSet], wrap=_plain) -> Round:
    rnd = Round()
    for puzzle in puzzles:
        rnd.gauge()
        elapsed, solution = _timed(wrap(lambda: checkers.solve(puzzle)))
        rnd.op_s.append(elapsed)
        rnd.op_checks.append(1)
        board = puzzle.board
        if solution is None or pebbles_lit_by(board.rows, board.cols, solution.squares) != puzzle.squares:
            rnd.failed += 1
    return rnd


WORKLOADS = {
    "verify_default": (verify_inputs, run_verify_round),
    "symbol_queries": (symbol_inputs, run_symbol_round),
    "solve_boards": (solve_inputs, run_solve_round),
}
