"""Verification sweeps: every identity the library claims, over finite grids.

Each check family enumerates a grid of inputs, evaluates one identity on
each cell, and reports the cells that fail.  Every family is one row of
one registry, FAMILIES; a cell is the tuple of its check's arguments, and
a row's cell_cost prices one cell from those arguments alone.  A sweep's
work is the sum over the cells its grid makes, which `Family.work` counts
before anything runs.  `verify` runs them all.

Cells are coarse units of work (one denominator, or one (m, n) pair), so a
sweep can be partitioned across processes; results are merged in cell
order, which keeps output deterministic regardless of scheduling.
"""

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator

from . import checkers as ck
from . import billiards, oracles, symbols, tilings

Failure = dict


Table = dict  # one batch's billiard rows, n to the prefix (r|n), r = 0, 1, ..., that symbols._row grows
Row = Callable[[int, list[int], Table], list[int]]  # a side of a comparison: (n, ms, table) to a value per m of ms


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
    make_cells: Callable[[int, int], Iterable[tuple]]  # the argument tuples of `check`, in order, made lazily
    check: Callable[..., tuple[int, list[Failure]]]
    default: int  # the grid bound a run sets for neither side (see `bounds`)
    cell_cost: Callable[..., int]  # one cell's work from its arguments alone: at least 1 unit of about 4 us
    tabled: bool = False  # check takes its batch's Table after the cell's arguments

    def bounds(self, max_m: int | None, max_n: int | None) -> tuple[int, int]:
        """The grid bounds a run uses: max_n left as None takes the family default, then max_m left as None max_n."""
        max_n = self.default if max_n is None else max_n
        return max_n if max_m is None else max_m, max_n

    def work(self, max_m: int, max_n: int, limit: int) -> int:
        """The cells' summed cell_cost at these bounds, counted only until it passes `limit`."""
        total = 0
        for cell in self.make_cells(max_m, max_n):
            total += self.cell_cost(*cell)
            if total > limit:
                break
        return total


def _grid(ms: range, ns: range) -> Iterator[tuple[int, int]]:
    """Every (m, n) of ms x ns, m-major; an empty ns makes no row, so a huge ms is not walked for nothing."""
    return ((m, n) for m in (ms if ns else ()) for n in ns)


def _coprime_pairs(max_m: int, max_n: int, start: int = 1, step: int = 1) -> Iterator[tuple[int, int]]:
    return (c for c in _grid(range(start, max_m + 1, step), range(start, max_n + 1, step)) if math.gcd(*c) == 1)


def _coprime_numerators(n: int, max_m: int, start: int = 1, step: int = 1) -> Iterable[int]:
    return (m for m in range(start, max_m + 1, step) if math.gcd(m, n) == 1)


def _billiard(n: int, ms: list[int], table: Table) -> list[int]:
    row = symbols._row(table, n, max(ms, default=-1) + 1)
    return [row[m % n] for m in ms]


def _swapped(n: int, ms: list[int], table: Table) -> list[int]:
    """(m|n)(n|m) for each m of ms, the left side of both reciprocity identities, from the batch's table."""
    row, grow = symbols._row(table, n, max(ms, default=-1) + 1), symbols._row
    return [row[m % n] * grow(table, m, (r := n % m) + 1)[r] for m in ms]


def _comparison(name: str, default: int, denominators: Callable[[int], Iterable[int]],
                numerators: Callable[[int, int], Iterable[int]], lhs: Row, rhs: Row, keys: tuple[str, str],
                cell_cost: Callable[[int, int], int], n_key: str = "n") -> Family:
    """A symbol family: for each denominator n up to max_n, lhs(n, ms, table) against rhs over its numerators ms.

    A cell is (n, max_m), table is its batch's, and a failure records both values under `keys`.  A side looks its
    callee up in its module when the cell runs, so a function patched after import is the one checked; an oracle
    or closed-form side evaluates every numerator.
    """
    left, right = keys
    def check(n: int, max_m: int, table: Table) -> tuple[int, list[Failure]]:
        ms = list(numerators(n, max_m))
        return len(ms), [{"m": m, n_key: n, left: got, right: want}
                         for m, got, want in zip(ms, lhs(n, ms, table), rhs(n, ms, table), strict=True) if got != want]
    return Family(name, lambda max_m, max_n: ((n, max_m) for n in denominators(max_n)), check, default, cell_cost,
                  tabled=True)


# --- supplements: closed forms for (n-1|n) and (2|n) vs billiards, odd n ---

def _supplements_check(n: int) -> tuple[int, list[Failure]]:
    closed = (("minus_one", n - 1, symbols.symbol_supplement_minus_one(n)),
              ("two", 2, symbols.symbol_supplement_two(n)))
    return 2, [{"n": n, "identity": identity, "closed": want, "billiard": got}
               for identity, m, want in closed if (got := symbols._value(m, n)) != want]


# --- checkers_bridge: the single-pebble solution above a bottom bounce is even iff the bounce is positive ---

def _bridge_check(m: int, n: int) -> tuple[int, list[Failure]]:
    # signs from the bounce fold, checker counts from the lattice walk
    bounces = billiards.base_bounces(m, n)
    return len(bounces), [{"m": m, "n": n, "k": x // 2, "sign": sign, "checkers": count}
                          for (x, sign, _), (at, count) in zip(bounces, ck.single_pebble_counts(m, n), strict=True)
                          if x != at or (sign > 0) != (count % 2 == 0)]


# --- kernel: kernel dimension floor(g/2), g = gcd(m, n); as (m-1)(n-1) is odd exactly when g is even, unique
# --- solvability iff g = 1 and cokernel floor((g-1)/2) follow from it; explicit kernel element otherwise ---

def _kernel_check(m: int, n: int) -> tuple[int, list[Failure]]:
    failures = []
    nullity, g = ck.kernel_dimension(m, n), math.gcd(m, n)
    if nullity != g // 2:
        cokernel = nullity - (m - 1) * (n - 1) % 2  # #light - (#dark - nullity): the unsolvable part of pebble space
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


# --- tilings: domino tiling-count parity vs mod-2 invertibility vs the gcd condition, on every board ---

def _tilings_check(rows: int, cols: int) -> tuple[int, list[Failure]]:
    count = tilings.count_tilings(rows, cols)
    # the checker-to-pebble map is invertible mod 2: as many light as dark squares, and no kernel
    rank_full = rows * cols % 2 == 0 and ck.kernel_dimension(rows + 1, cols + 1) == 0
    gcd_flag = math.gcd(rows + 1, cols + 1) == 1
    return 1, [] if count % 2 == gcd_flag == rank_full else [{"rows": rows, "cols": cols, "count": count,
                                                              "gcd_flag": gcd_flag, "rank_full": rank_full}]


FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        # billiard symbol vs Euler's criterion, 1 <= m <= 2n with n not dividing m, odd n proven prime by the filter
        _comparison("euler", 199, lambda max_n: filter(oracles.is_odd_prime, range(3, max_n + 1)),
                    lambda n, max_m: (m for m in range(1, 2 * n + 1) if m % n), _billiard,
                    lambda n, ms, _: oracles.euler_row(n, ms), ("billiard", "euler"), lambda n, max_m: 1 + 2 * n),
        # billiard symbol vs permutation sign, coprime m, n, even denominators included; the row factors n once,
        # and each numerator's cycle count walks n's divisors, so its units grow with the bits of n
        _comparison("zolotarev", 100, lambda max_n: range(1, max_n + 1), _coprime_numerators,
                    _billiard, lambda n, ms, _: oracles.zolotarev_row(n, ms), ("billiard", "zolotarev"),
                    lambda n, max_m: 1 + (max_m + 1) * (32 + n.bit_length() ** 2) // 72 + math.isqrt(n) // 16),
        # billiard symbol vs Jacobi symbol, odd denominators
        _comparison("jacobi", 151, lambda max_n: range(1, max_n + 1, 2), lambda n, max_m: range(1, max_m + 1),
                    _billiard, lambda n, ms, _: [oracles.jacobi_symbol(m, n) for m in ms], ("billiard", "jacobi"),
                    lambda n, max_m: 1 + max_m),
        Family("supplements", lambda max_m, max_n: ((n,) for n in range(3, max_n + 1, 2)),
               _supplements_check, 199, lambda n: 2),
        # almost-reciprocity: (m|n)(n|m) = (m|n-m) for odd m < n
        _comparison("almost_reciprocity", 201, lambda max_n: range(3, max_n + 1, 2),
                    lambda n, max_m: range(1, n, 2), _swapped,
                    lambda n, ms, table: [grow(table, n - m, m % (n - m) + 1)[m % (n - m)] for grow in [symbols._row]
                                          for m in ms], ("lhs", "rhs"), lambda n, max_m: 1 + n // 2),
        # closed form for (m|d), odd numerator m over even denominator d, coprime
        _comparison("mod4", 201, lambda max_n: range(2, max_n + 1, 2), partial(_coprime_numerators, step=2),
                    _billiard, lambda d, ms, _: [symbols.mod4_symbol(m, d) for m in ms], ("billiard", "closed"),
                    lambda d, max_m: 1 + (max_m + 1) // 2, n_key="d"),
        # reciprocity: (m|n)(n|m) = (-1)^((m-1)(n-1)/4) for coprime odd m, n >= 3
        _comparison("reciprocity", 199, lambda max_n: range(3, max_n + 1, 2),
                    partial(_coprime_numerators, start=3, step=2),
                    _swapped, lambda n, ms, _: [-1 if (m - 1) * (n - 1) // 4 % 2 else 1 for m in ms], ("lhs", "rhs"),
                    lambda n, max_m: 2 + max_m // 4),
        # bottom-row puzzle parity vs billiard symbol, coprime m, n
        _comparison("checkers_symbol", 50, lambda max_n: range(1, max_n + 1), _coprime_numerators,
                    lambda n, ms, _: [ck.bottom_row_symbol(m, n) for m in ms], _billiard, ("checkers", "billiard"),
                    lambda n, max_m: 1 + max_m * (max_m + n) // 16),
        Family("checkers_bridge", _coprime_pairs, _bridge_check, 30,
               lambda m, n: 1 + (m + n) * (8000 + m * n) // 32000),
        # the path polynomials, a step per unit of the short side; for g > 1 the element, its count and image: m rows
        Family("kernel", lambda max_m, max_n: _grid(range(2, max_m + 1), range(2, max_n + 1)), _kernel_check, 14,
               lambda m, n: 1 + min(m, n) // 10 + (math.gcd(m, n) > 1) * (2 + m * (n + 1000) // 5000)),
        Family("superposition", partial(_coprime_pairs, start=3, step=2), _superposition_check, 31,
               lambda m, n: 1 + (m + n) // 3 + (m + n) ** 2 // 2400),
        Family("tilings", lambda max_m, max_n: _grid(range(1, max_m + 1), range(1, max_n + 1)), _tilings_check,
               6, lambda r, c: 1 + (2 ** min(r, c) + 8 * min(r, c)) * r * c // 40),
    )
}


def _run_batch(batch: tuple[str, list[tuple]]) -> tuple[float, int, list[Failure]]:
    """One (name, cells) batch on a fresh Table, timed where it runs; module-level, so a worker gets only those."""
    start, (name, cells) = time.perf_counter(), batch
    family = FAMILIES[name]
    check = partial(family.check, table=Table()) if family.tabled else family.check
    done = [check(*cell) for cell in cells]
    return time.perf_counter() - start, sum(c for c, _ in done), [f for _, fails in done for f in fails]


def run_families(names: Iterable[str], max_m: int | None = None, max_n: int | None = None,
                 parallelism: int = 1) -> Iterator[FamilyResult]:
    """Each family's result in the order named, once however often named, merged in cell order; bounds as
    `Family.bounds`.  A batch, a contiguous run of a family's cells, shares one Table; a family is one batch, and
    when a pool of at most a worker per core and per cell has more workers than the run has families, it cuts each
    into ceil(4 * workers / families).  elapsed_s sums its batches' seconds, each measured where it ran."""
    grids = {name: list(FAMILIES[name].make_cells(*FAMILIES[name].bounds(max_m, max_n))) for name in names}
    workers = min(parallelism, os.cpu_count() or 1, sum(map(len, grids.values())))
    cuts = -(-4 * workers // len(grids)) if len(grids) < workers else 1
    batches = [(name, cells[i * len(cells) // cuts:(i + 1) * len(cells) // cuts]) for name, cells in grids.items()
               for i in range(cuts)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(_run_batch, batches)
        for name, cells in grids.items():
            seconds, checked, failures = zip(*(next(results) for _ in range(cuts)))
            yield FamilyResult(name, sum(checked), tuple(f for fs in failures for f in fs), len(cells), sum(seconds))


def run_family(name: str, max_m: int | None = None, max_n: int | None = None, parallelism: int = 1) -> FamilyResult:
    return next(run_families([name], max_m, max_n, parallelism))
