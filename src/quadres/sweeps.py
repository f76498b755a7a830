"""Verification sweeps: every identity the library claims, over finite grids.

Each check family enumerates a grid of inputs, evaluates one identity on
each cell, and reports the cells that fail.  Every family is one row of
one registry, FAMILIES; a cell is the tuple of its check's arguments, and
a row's cost counts only the bounds its grid reads.  `verify` runs them all.

Cells are coarse units of work (one denominator, or one (m, n) pair), so a
sweep can be partitioned across processes; results are merged in cell
order, which keeps output deterministic regardless of scheduling.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable

from . import checkers as ck
from . import billiards, oracles, symbols, tilings

Failure = dict


@dataclass(frozen=True)
class FamilyResult:
    name: str
    checked: int
    failures: tuple[Failure, ...]
    cells: int = 0
    elapsed_s: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def checks_per_s(self) -> float:  # 0 when the run took no measurable time
        return self.checked / self.elapsed_s if self.elapsed_s > 0 else 0.0


@dataclass(frozen=True)
class Family:
    name: str
    make_cells: Callable[[int, int], list[tuple]]  # the argument tuples of `check`, in order
    check: Callable[..., tuple[int, list[Failure]]]
    default_max_m: int
    default_max_n: int
    cost: Callable[[int, int], int] = operator.mul  # work in cells at bounds (max_m, max_n), for the size cap

    def bounds(self, max_m: int | None, max_n: int | None) -> tuple[int, int]:
        """The grid bounds a run uses: a bound left as None takes the family default."""
        return (self.default_max_m if max_m is None else max_m,
                self.default_max_n if max_n is None else max_n)


def _coprime_pairs(max_m: int, max_n: int, start: int = 1, step: int = 1) -> list[tuple[int, int]]:
    return [(m, n) for m in range(start, max_m + 1, step) for n in range(start, max_n + 1, step)
            if math.gcd(m, n) == 1]


def _coprime_numerators(n: int, max_m: int, start: int = 1, step: int = 1) -> Iterable[int]:
    return (m for m in range(start, max_m + 1, step) if math.gcd(m, n) == 1)


def _agreement(n: int, ms, lhs: Callable[[int, int], int], rhs: Callable[[int, int], int],
               keys: tuple[str, str], n_key: str = "n") -> tuple[int, list[Failure]]:
    """lhs(m, n) against rhs(m, n) for every m in ms; a failure records both under `keys`."""
    values = [(m, lhs(m, n), rhs(m, n)) for m in ms]
    left, right = keys
    return len(values), [{"m": m, n_key: n, left: got, right: want} for m, got, want in values if got != want]


def _billiard(m: int, n: int) -> int:
    return symbols.billiard_symbol(m, n).value


def _swapped(m: int, n: int) -> int:
    """(m|n)(n|m), the left side of both reciprocity identities."""
    return symbols.billiard_symbol(m, n).value * symbols.billiard_symbol(n, m).value


def _comparison(name: str, default_max_m: int, default_max_n: int, denominators: Callable[[int], Iterable[int]],
                numerators: Callable[[int, int], Iterable[int]], lhs: Callable[[int, int], int],
                rhs: Callable[[int, int], int], keys: tuple[str, str], n_key: str = "n",
                cost: Callable[[int, int], int] = operator.mul) -> Family:
    """A symbol family: for each denominator n up to max_n, lhs(m, n) against rhs(m, n) over the numerators m of n.

    A cell is (n, max_m).  A side looks its callee up in its module when the cell runs, so a function
    patched after import is the one checked.
    """
    return Family(name, lambda max_m, max_n: [(n, max_m) for n in denominators(max_n)],
                  lambda n, max_m: _agreement(n, numerators(n, max_m), lhs, rhs, keys, n_key),
                  default_max_m, default_max_n, cost)


def _layout_cost(max_m: int, max_n: int) -> int:
    """One laid grid of about m*(m+n) bits a cell, summed over the grid: about 1 s at bounds 200, the default cap."""
    return max_m * max_n * (max_m + max_n) // 64


# --- supplements: closed forms for (n-1|n) and (2|n) vs billiards, odd n ---

def _supplements_check(n: int) -> tuple[int, list[Failure]]:
    closed = (("minus_one", n - 1, symbols.symbol_supplement_minus_one(n)),
              ("two", 2, symbols.symbol_supplement_two(n)))
    return 2, [{"n": n, "identity": identity, "closed": want, "billiard": got}
               for identity, m, want in closed if (got := symbols.billiard_symbol(m, n).value) != want]


# --- checkers_bridge: the single-pebble solution above a bottom bounce is even iff the bounce is positive ---

def _bridge_check(m: int, n: int) -> tuple[int, list[Failure]]:
    # signs from the bounce fold, checker counts from the lattice walk
    bounces = billiards.base_bounces(m, n)
    return len(bounces), [{"m": m, "n": n, "k": x // 2, "sign": sign, "checkers": count}
                          for (x, sign, _), (at, count) in zip(bounces, ck.single_pebble_counts(m, n), strict=True)
                          if x != at or (sign > 0) != (count % 2 == 0)]


# --- kernel: unique solvability iff g = gcd(m, n) = 1; kernel dimension floor(g/2) and cokernel
# --- floor((g-1)/2); explicit kernel element otherwise ---

def _kernel_cost(max_m: int, max_n: int) -> int:
    """The squares of all its boards over 20, about 1 s at the default cap (64x64 in 0.87 s), plus the two
    side ranges the grid enumerates, so that a bound below 2, which makes no board, still counts the other."""
    return math.comb(max_m, 2) * math.comb(max_n, 2) // 20 + max_m + max_n


def _kernel_check(m: int, n: int) -> tuple[int, list[Failure]]:
    failures = []
    odd = (m - 1) * (n - 1) % 2  # an odd board has one more dark square than light ones
    nullity = ck.kernel_dimension(m, n)
    cokernel = nullity - odd  # #light - (#dark - nullity): the unsolvable part of the pebble space
    invertible = nullity == 0 and not odd
    g = math.gcd(m, n)
    if invertible != (g == 1):
        failures.append({"m": m, "n": n, "invertible": invertible, "coprime": g == 1})
    if (nullity, cokernel) != (g // 2, (g - 1) // 2):
        failures.append({"m": m, "n": n, "nullity": nullity, "cokernel": cokernel, "gcd": g})
    if g > 1:
        elem = ck.kernel_element(m, n)
        if not elem.count():
            failures.append({"m": m, "n": n, "kernel": "empty"})
        elif ck.apply_checkers(elem).count():
            failures.append({"m": m, "n": n, "kernel": "nonzero image"})
    return 1, failures


# --- superposition: the paper's checkers proof of reciprocity for odd coprime m, n, s + t = u (mod 2),
# --- where s and t count the bottom-row and left-column solutions and u = (m-1)(n-1)/4 the combined one ---

def _combined_solution(board: ck.Board) -> ck.CheckerSet:
    """Checkers on every dark square of the odd rows: the odd columns of rows 1, 3, ...

    For odd m and n the board has an even number of rows and of columns.  A light square of an
    odd row then sees the checkers left and right of it, and one of an even row those above and
    below; only the left column and the bottom row miss one, so this solves the combined puzzle.
    """
    odd_columns = sum(1 << col for col in range(1, board.cols, 2))
    return ck.CheckerSet._from_rows(board, (odd_columns if row % 2 else 0 for row in range(board.rows)))


def _superposition_check(m: int, n: int) -> tuple[int, list[Failure]]:
    failures = []
    board = ck.Board(rows=m - 1, cols=n - 1)
    combined = _combined_solution(board)
    if ck.apply_checkers(combined) != ck.bottom_row_puzzle(board) ^ ck.left_column_puzzle(board):
        failures.append({"m": m, "n": n, "combined": "not a solution"})
    u, formula = combined.count(), (m - 1) * (n - 1) // 4
    s, t = ck.bottom_row_count(m, n), ck.bottom_row_count(n, m)  # transposing the board: t(m, n) = s(n, m)
    if u != formula:
        failures.append({"m": m, "n": n, "u": u, "formula": formula})
    if u % 2 != (s + t) % 2:
        failures.append({"m": m, "n": n, "u": u, "s": s, "t": t})
    return 1, failures


# --- tilings: domino tiling-count parity vs mod-2 invertibility vs the gcd condition, on the countable boards ---

def _countable(rows: int, cols: int) -> bool:
    return tilings._work(rows, cols) <= tilings.MAX_TILING_WORK


def _countable_boards(max_m: int, max_n: int) -> list[tuple[int, int]]:
    """Every board of the grid that count_tilings counts: a prefix of each row, as the work grows with either side."""
    return [(rows, cols) for rows in itertools.takewhile(lambda rows: _countable(rows, 1), range(1, max_m + 1))
            for cols in itertools.takewhile(partial(_countable, rows), range(1, max_n + 1))]


def _tilings_cost(max_m: int, max_n: int) -> int:
    """The work of the countable boards, (2^s + 8s) * s * long each, summed by the short side s and divided by 40.

    A cell of an s-wide board takes about 0.1 us for each of its 2^s profiles and 0.8 us * s for its dict
    and the chase, so the cap is about 1 s (0.7-1.2 s measured on 1-, 2-, 4-, 6-, 8- and 12-wide and square
    grids): 243,492 at bounds 17, over it from 18 on.  In closed form, so that refusing a huge bound lists
    no board.
    """
    total = 0
    for short in itertools.takewhile(lambda short: _countable(short, short), itertools.count(1)):
        longest = tilings.MAX_TILING_WORK // (2**short * short)  # the longest countable board this wide
        for along, across, first in ((max_n, max_m, short), (max_m, max_n, short + 1)):  # s x long, then long x s
            last = min(along, longest)
            if short <= across and first <= last:
                total += (2**short + 8 * short) * short * (last * (last + 1) - first * (first - 1)) // 2
    return total // 40


def _invertible(rows: int, cols: int) -> bool:
    """The board's checker-to-pebble map is invertible mod 2: as many light as dark squares, and no kernel."""
    short, long = sorted((rows, cols))  # chased down the long side, a line is a short row: a cheap transfer
    return rows * cols % 2 == 0 and ck.kernel_dimension(long + 1, short + 1) == 0


def _tilings_check(rows: int, cols: int) -> tuple[int, list[Failure]]:
    count = tilings.count_tilings(rows, cols)
    gcd_flag, rank_full = math.gcd(rows + 1, cols + 1) == 1, _invertible(rows, cols)
    return 1, [] if count % 2 == gcd_flag == rank_full else [{"rows": rows, "cols": cols, "count": count,
                                                              "gcd_flag": gcd_flag, "rank_full": rank_full}]


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        # billiard symbol vs Euler's criterion, odd prime n, 1 <= m <= 2n with n not dividing m
        _comparison("euler", 398, 199, lambda max_n: filter(oracles.is_odd_prime, range(3, max_n + 1)),
                    lambda n, max_m: (m for m in range(1, 2 * n + 1) if m % n), _billiard,
                    lambda m, n: oracles.euler_symbol(m, n), ("billiard", "euler"), cost=lambda m, n: 2 * n * n),
        # billiard symbol vs permutation sign, coprime m, n, even denominators included
        _comparison("zolotarev", 100, 100, lambda max_n: range(1, max_n + 1), _coprime_numerators,
                    _billiard, lambda m, n: oracles.zolotarev_perm_sign(m, n), ("billiard", "zolotarev")),
        # billiard symbol vs Jacobi symbol, odd denominators
        _comparison("jacobi", 151, 151, lambda max_n: range(1, max_n + 1, 2), lambda n, max_m: range(1, max_m + 1),
                    _billiard, lambda m, n: oracles.jacobi_symbol(m, n), ("billiard", "jacobi")),
        Family("supplements", lambda max_m, max_n: [(n,) for n in range(3, max_n + 1, 2)],
               _supplements_check, 199, 199, lambda m, n: n),
        # almost-reciprocity: (m|n)(n|m) = (m|n-m) for odd m < n
        _comparison("almost_reciprocity", 201, 201, lambda max_n: range(3, max_n + 1, 2),
                    lambda n, max_m: range(1, n, 2), _swapped,
                    lambda m, n: symbols.billiard_symbol(m, n - m).value, ("lhs", "rhs"), cost=lambda m, n: n * n),
        # closed form for (m|d), odd numerator m over even denominator d, coprime
        _comparison("mod4", 201, 200, lambda max_n: range(2, max_n + 1, 2), partial(_coprime_numerators, step=2),
                    _billiard, lambda m, d: symbols.mod4_symbol(m, d), ("billiard", "closed"), n_key="d"),
        # reciprocity: (m|n)(n|m) = (-1)^((m-1)(n-1)/4) for coprime odd m, n >= 3
        _comparison("reciprocity", 199, 199, lambda max_n: range(3, max_n + 1, 2),
                    partial(_coprime_numerators, start=3, step=2),
                    _swapped, lambda m, n: -1 if (m - 1) * (n - 1) // 4 % 2 else 1, ("lhs", "rhs")),
        # bottom-row puzzle parity vs billiard symbol, coprime m, n
        _comparison("checkers_symbol", 50, 50, lambda max_n: range(1, max_n + 1), _coprime_numerators,
                    lambda m, n: ck.bottom_row_symbol(m, n), _billiard, ("checkers", "billiard"), cost=_layout_cost),
        Family("checkers_bridge", _coprime_pairs, _bridge_check, 30, 30,
               lambda m, n: m * n * (m + n) // 8),  # each cell walks its whole path: about cubic, 1 s at 100
        Family("kernel", lambda max_m, max_n: list(itertools.product(range(2, max_m + 1), range(2, max_n + 1))),
               _kernel_check, 14, 14, _kernel_cost),
        Family("superposition", partial(_coprime_pairs, start=3, step=2), _superposition_check, 31, 31, _layout_cost),
        Family("tilings", _countable_boards, _tilings_check, 6, 6, _tilings_cost),
    )
}


def _run_cell(name: str, cell: tuple) -> tuple[int, list[Failure]]:
    """One cell of a family; module-level, so that a worker receives only the name and the cell."""
    return FAMILIES[name].check(*cell)


def run_family(name: str, max_m: int | None = None, max_n: int | None = None,
               parallelism: int = 1) -> FamilyResult:
    """Run one check family and merge per-cell results in cell order.

    A bound left as None takes the family default.  At most one worker
    process runs per core and per cell, whatever `parallelism` asks for.
    """
    start = time.perf_counter()
    family = FAMILIES[name]
    cells = family.make_cells(*family.bounds(max_m, max_n))
    run = partial(_run_cell, name)
    workers = min(parallelism, os.cpu_count() or 1, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, cells, chunksize=max(1, len(cells) // (4 * workers))))
    else:
        results = list(map(run, cells))
    return FamilyResult(name=name, checked=sum(c for c, _ in results),
                        failures=tuple(f for _, fails in results for f in fails), cells=len(cells),
                        elapsed_s=time.perf_counter() - start)
