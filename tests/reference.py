"""Plain constructions that the tests check the library against.

The path constructions trace the billiard path event by event and record
every interior lattice-point visit in a dict, so they follow the paper's
geometry step by step and share no code with the packed walk in
`quadres.checkers`.  `ref_walk` is the packed walk that one replaced: it
works out each piece's position and directions from its time anew.
`ref_zolotarev_perm_sign` walks the cycles of x -> m*x mod n point by
point, where the library counts them from multiplicative orders.
`ref_two_color` and `ref_rows` are the walk-based two-colouring and row
read-back that the arch layout replaced: they XOR the colour-1 stretches
into a `ref_walk` grid and slice its rows back out, where the library lays
whole arches down the grid at once.  The
GF(2) elimination solves a puzzle from the light-by-dark neighbour matrix
alone, with no chase and no path (the matrix is read off the checkers
stencil, and the tests check it against one built square by square), and
the backtracking counter enumerates domino tilings one by one.
`ref_kernel_dimension` is the transfer-map chase that the path
polynomials replaced: it chases each dark top-row square down the long
side and row-reduces the bottom-row residuals in an XOR basis.
`ref_base_bounces` reads the bottom-wall events off a traced path, where
the library folds their times alone, and `vertices` lists the path's
corners and bounce points in time order.  `position_at` reads the ball's
state off one time, `solve_single_pebble` clears one bottom-row pebble, and `combined_puzzle_count` solves the
bottom-row plus left-column puzzle with the general `solve`.  `quadres`
itself calls none of them.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from quadres.billiards import BilliardPath, Wall, _fold, trace_path
from quadres.checkers import (
    Board,
    CheckerSet,
    PebbleSet,
    PuzzleNotUniquelySolvable,
    Square,
    _clear_bottom_row,
    _columns,
    _lit,
    bottom_row_puzzle,
    left_column_puzzle,
    solve,
)


class Crossing(NamedTuple):
    """Interior lattice point the path traverses twice, in crossing directions."""

    x: int
    y: int
    t1: int
    t2: int


def crossings(path: BilliardPath) -> list[Crossing]:
    """Interior lattice points the path visits exactly twice, transversally.

    Found by walking each straight segment between consecutive events and
    recording interior lattice-point visits.  When gcd(m, n) = 1 there are
    exactly (m-1)(n-1)/2 crossings.  Sorted by (x, y).
    """
    side = path.m + 1
    first, second = _interior_visits(path)
    out = []
    for key in sorted(second):
        a, b = first[key], second[key]
        if (a ^ b) & 1:  # one ascending and one descending visit, not the same diagonal twice
            x, y = divmod(key, side)
            out.append(Crossing(x, y, a >> 1, b >> 1))
    return out


def vertices(path: BilliardPath) -> list[tuple[int, int]]:
    """The start corner, every bounce point in time order, and the end corner."""
    return [(0, 0), *((b.x, b.y) for b in path.bounces), path.end]


def _interior_visits(path: BilliardPath) -> tuple[dict[int, int], dict[int, int]]:
    """First and second visits to each interior lattice point of the path.

    Point (x, y) is keyed x*(m+1) + y, so the keys sort in (x, y) order, and
    a visit at time t is stored as 2t + 1 along an ascending diagonal and 2t
    along a descending one.  The path is on a wall exactly at event times, so
    the lattice points at times strictly between consecutive events are all
    interior.  No point is visited three times.
    """
    side = path.m + 1
    times = (0, *(b.t for b in path.bounces), path.length)  # the time at each vertex
    points = vertices(path)
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        x0, y0 = points[i]
        x1, y1 = points[i + 1]
        span = t1 - t0
        dx, dy = (x1 - x0) // span, (y1 - y0) // span
        start, step = x0 * side + y0, dx * side + dy
        visits = range(2 * t0 + 2 + (dx == dy), 2 * t1, 2)
        for key, visit in zip(range(start + step, start + span * step, step), visits):
            if key not in first:
                first[key] = visit
            elif key not in second:
                second[key] = visit
            else:
                raise AssertionError(f"lattice point {divmod(key, side)} visited three times")
    return first, second


def ref_base_bounces(path: BilliardPath) -> list[tuple[int, int, int]]:
    """Bottom-wall bounces in time order, as (x, sign, t) triples."""
    return [(b.x, b.sign, b.t) for b in path.bounces if b.wall is Wall.BOTTOM]


def two_color_checkers(m: int, n: int, k: int) -> set[tuple[int, int]]:
    """Self-crossings whose two transits straddle the bottom bounce at (2k, 0).

    Coloring the path with one color before that bounce and another after
    it, these are the crossings where the two colors meet.  Requires
    gcd(m, n) = 1 and 0 < 2k < n, so the bounce at (2k, 0) exists.
    """
    if math.gcd(m, n) != 1:
        raise ValueError(f"sides must be coprime, got {m}x{n}")
    if not 0 < 2 * k < n:
        raise ValueError(f"need 0 < 2k < n, got k={k}, n={n}")
    path = trace_path(m, n)
    tk = next(t for x, _, t in ref_base_bounces(path) if x == 2 * k)
    return {(c.x, c.y) for c in crossings(path) if c.t1 < tk < c.t2}


def kernel_checkers(m: int, n: int) -> set[tuple[int, int]]:
    """Interior lattice points the corner-to-corner path visits exactly once.

    These exist exactly when gcd(m, n) > 1 (the path exits early and covers
    only part of the diagonal grid); the set is then nonempty.
    """
    if math.gcd(m, n) == 1:
        raise ValueError(f"sides {m}x{n} are coprime: every interior point is covered twice")
    first, second = _interior_visits(trace_path(m, n))
    return {divmod(key, m + 1) for key in first.keys() - second.keys()}


def position_at(m: int, n: int, t: int) -> tuple[int, int, int, int]:
    """Ball state (x, y, dx, dy) at integer time t in [0, lcm(m, n)].

    dx, dy give the outgoing direction (the post-reflection direction when
    the ball is on a wall).  At the final corner the direction is undefined
    and reported as (0, 0).
    """
    length = math.lcm(m, n)
    if t < 0 or t > length:
        raise ValueError(f"t={t} outside [0, {length}]")
    x, dx = _fold(t, n)
    y, dy = _fold(t, m)
    if t == length:
        return x, y, 0, 0
    return x, y, dx, dy


def solve_single_pebble(m: int, n: int, k: int) -> CheckerSet:
    """Solution of the puzzle with one pebble at bottom-row square 2k-1.

    By the billiards two-coloring, checkers go on the board squares of the
    path self-crossings that straddle the bottom bounce at (2k, 0), after
    the (-1, -1) shift from lattice points to squares.
    """
    if math.gcd(m, n) != 1:
        raise PuzzleNotUniquelySolvable(f"gcd({m}, {n}) > 1")
    if not 0 < 2 * k < n:
        raise ValueError(f"need 0 < 2k < n, got k={k}, n={n}")
    return CheckerSet._from_rows(Board(rows=m - 1, cols=n - 1), _clear_bottom_row(m, n, 1 << 2 * k - 1))


def combined_puzzle_count(m: int, n: int) -> int:
    """Checker count of the bottom-row-plus-left-column puzzle.

    For odd coprime m and n it equals (m-1)(n-1)/4 and has the parity of
    s + t, the counts of the two one-sided solutions.
    """
    if m % 2 == 0 or n % 2 == 0:
        raise ValueError(f"m and n must both be odd, got {m}, {n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m and n must be coprime, got gcd={math.gcd(m, n)}")
    board = Board(rows=m - 1, cols=n - 1)
    puzzle = bottom_row_puzzle(board) ^ left_column_puzzle(board)
    return solve(puzzle).count()


def ref_walk(m: int, n: int, stretches: Iterable[tuple[int, int]]) -> Iterator[int]:
    """XOR the interior lattice points of each (start, stop) stretch of the m-by-n path into one int.

    Point (x, y) is bit y*width + x, width being whole bytes a row, so a diagonal piece
    is a run of bits of stride width -+ 1, cut from a precomputed run by one shift.
    Yields the grid after each stretch: the points visited an odd number of times so far.
    """
    width = (n + 8) & ~7
    longest = min(m, n) - 1  # the most interior points on one diagonal piece
    runs = {s: ((1 << s * longest) - 1) // ((1 << s) - 1) for s in (width - 1, width + 1)}
    grid = 0
    for t, stop in stretches:
        while t < stop:
            step = min(n - t % n, m - t % m)  # time to the next wall contact
            if step > 1:
                x, dx = (t % (2 * n), 1) if t % (2 * n) < n else (2 * n - t % (2 * n), -1)
                y, dy = (t % (2 * m), 1) if t % (2 * m) < m else (2 * m - t % (2 * m), -1)
                if dy < 0:  # read a descending piece upward from its lower end
                    x, dx, y = x + dx * step, -dx, y - step
                stride = width + dx
                grid ^= runs[stride] >> (longest - step + 1) * stride << (y + 1) * width + x + dx
            t += step
        yield grid


def ref_rows(m: int, n: int, grid: int) -> list[int]:
    """Board rows of a packed `ref_walk` grid: lattice point (x, y) is square (x-1, y-1)."""
    span = n // 8 + 1  # bytes a lattice row
    raw = grid.to_bytes(m * span, "little")
    return [int.from_bytes(raw[y * span:(y + 1) * span], "little") >> 1 for y in range(1, m)]


def ref_two_color(m: int, n: int, cuts: Sequence[int]) -> int:
    """Packed `ref_walk` grid of the checkers for a coprime m-by-n path whose color flips at sorted `cuts`.

    A crossing carries a checker exactly when one of its two visits has color 1, so XORing
    the interior points of every color-1 stretch leaves the checkers.  After an odd number
    of cuts the last such stretch runs to the end corner m*n (zip drops that stop otherwise).
    """
    grid = 0  # no cuts, no checkers
    for grid in ref_walk(m, n, zip(cuts[::2], [*cuts[1::2], m * n])):
        pass
    return grid


def ref_clear_bottom_row(m: int, n: int, pebbled: int) -> list[int]:
    """Checker rows that clear bottom-row pebbles `pebbled`, by walking the color-1 stretches."""
    # the color flips at the bounce below each pebble c, at x = c+1 = 2j and time 2mk with mk = +-j (mod n)
    inverse = pow(m, -1, n)
    ks = ((col + 1) // 2 * inverse % n for col in _columns(pebbled))
    return ref_rows(m, n, ref_two_color(m, n, sorted(2 * m * min(k, n - k) for k in ks)))


def ref_zolotarev_perm_sign(m: int, n: int) -> int:
    """Sign of the permutation x -> m*x mod n on {0, ..., n-1}.

    Computed by cycle decomposition: the sign is -1 to the number of
    even-length cycles.  Requires gcd(m, n) = 1 so the map is a bijection.
    """
    if m < 1 or n < 1:
        raise ValueError("arguments must be positive")
    if math.gcd(m, n) != 1:
        raise ValueError(f"gcd({m}, {n}) > 1: the map x -> {m}x mod {n} is not a permutation")
    m %= n
    seen = bytearray(n)
    sign = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = m * x % n
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def ref_cycle_count(m: int, n: int) -> int:
    """Number of cycles of x -> m*x mod n on {0, ..., n-1}, gcd(m, n) = 1, by walking every point."""
    seen, cycles = bytearray(n), 0
    for start in range(n):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x], x = 1, m * x % n
    return cycles


def residue_table(n: int) -> set[int]:
    """The set of nonzero-square values {x^2 mod n : 1 <= x <= n-1}."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return {x * x % n for x in range(1, n)}


def dark_squares(board: Board) -> list[Square]:
    """Dark squares in row-major order, bottom row first."""
    return [(c, r) for r in range(board.rows) for c in range(board.cols) if (c + r) % 2 == 0]


def pebbles(board: Board, *squares: Square) -> PebbleSet:
    return PebbleSet(board, frozenset(squares))


def checkers_at(board: Board, *squares: Square) -> CheckerSet:
    return CheckerSet(board, frozenset(squares))


class Mod2Matrix:
    """Dense matrix over GF(2) with bit-packed rows (bit j of row i = entry ij)."""

    def __init__(self, rows: int, cols: int, data: list[int]):
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    def entry(self, i: int, j: int) -> int:
        return self.data[i] >> j & 1

    def solve(self, rhs: int) -> "Gf2Solution":
        """Gauss-Jordan on the augmented system; pivots take the lowest available row."""
        aug = [self.data[i] | ((rhs >> i & 1) << self.cols) for i in range(self.rows)]
        pivots: list[int] = []
        row = 0
        for col in range(self.cols):
            sel = next((r for r in range(row, self.rows) if aug[r] >> col & 1), None)
            if sel is None:
                continue
            aug[row], aug[sel] = aug[sel], aug[row]
            for r in range(self.rows):
                if r != row and aug[r] >> col & 1:
                    aug[r] ^= aug[row]
            pivots.append(col)
            row += 1
        # Non-pivot rows are zero in every column, so only their rhs bit matters.
        consistent = all(aug[r] >> self.cols & 1 == 0 for r in range(row, self.rows))
        particular = None
        if consistent:
            particular = 0
            for i, col in enumerate(pivots):
                if aug[i] >> self.cols & 1:
                    particular |= 1 << col
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            v = 1 << free
            for i, col in enumerate(pivots):
                if aug[i] >> free & 1:
                    v |= 1 << col
            basis.append(v)
        return Gf2Solution(consistent=consistent, particular=particular, kernel_basis=tuple(basis), rank=len(pivots))

    def rank(self) -> int:
        """Rank by forward elimination alone: solve's pivots, with no back substitution or kernel."""
        rows = list(self.data)
        rank = 0
        for col in range(self.cols):
            bit = 1 << col
            sel = next((r for r in range(rank, self.rows) if rows[r] & bit), None)
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            for r in range(sel + 1, self.rows):
                if rows[r] & bit:
                    rows[r] ^= rows[rank]
            rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


@dataclass(frozen=True)
class Gf2Solution:
    """Raw elimination outcome: bit-packed vectors over the column index."""

    consistent: bool
    particular: int | None
    kernel_basis: tuple[int, ...]
    rank: int

    @property
    def unique(self) -> bool:
        return self.consistent and not self.kernel_basis


def config_bits(config: PebbleSet | CheckerSet) -> tuple[int, ...]:
    """0/1 vector over the squares of the configuration's color in board order."""
    squares = dark_squares(config.board) if config.dark else config.board.light_squares()
    return tuple(config.row_bits[row] >> col & 1 for col, row in squares)


def neighbor_matrix(board: Board) -> Mod2Matrix:
    """The light-by-dark adjacency matrix of the checker-to-pebble map.

    Row i is light square i and column j dark square j, both in board
    order, so dark square (c, r) is column (r*cols + 1)//2 + c//2.
    Adjacency is symmetric: the darks next to a light square are the
    squares the stencil lights around a unit placed there.
    """
    rows, cols = board.rows, board.cols
    full = (1 << cols) - 1
    data = []
    for col, row in board.light_squares():
        unit = 1 << col
        around = ((row - 1, unit), (row, _lit(unit, 0, full)), (row + 1, unit))
        data.append(sum(1 << (r * cols + 1) // 2 + c // 2
                        for r, nbrs in around if 0 <= r < rows for c in _columns(nbrs)))
    return Mod2Matrix(rows=len(data), cols=(rows * cols + 1) // 2, data=data)


@dataclass(frozen=True)
class EliminationResult:
    """Outcome of the elimination solver.

    Exactly one of three shapes: unique solution; singular but consistent
    (a particular solution plus a nonempty kernel basis); or inconsistent
    (no solution, kernel basis still reported).
    """

    board: Board
    consistent: bool
    solution: CheckerSet | None
    kernel_basis: tuple[CheckerSet, ...]

    @property
    def unique(self) -> bool:
        return self.consistent and not self.kernel_basis


def _unpack(board: Board, bits: int) -> CheckerSet:
    darks = dark_squares(board)
    return CheckerSet(board, frozenset(sq for j, sq in enumerate(darks) if bits >> j & 1))


def solve_elimination(p: PebbleSet) -> EliminationResult:
    """Solve a pebble puzzle by GF(2) elimination, independent of the geometry."""
    board = p.board
    matrix = neighbor_matrix(board)
    raw = matrix.solve(sum(bit << i for i, bit in enumerate(config_bits(p))))
    return EliminationResult(
        board=board,
        consistent=raw.consistent,
        solution=_unpack(board, raw.particular) if raw.particular is not None else None,
        kernel_basis=tuple(_unpack(board, v) for v in raw.kernel_basis),
    )


def ref_kernel_dimension(m: int, n: int) -> int:
    """Dimension of the checker sets with no pebbles on the (m-1)-by-(n-1) board.

    With no pebbles, light chasing fixes each row from the two above it, so a kernel
    element is fixed by its top row.  Each dark top-row square, placed alone and chased
    down, leaves a bottom-row residual; the kernel is the top rows whose residuals
    cancel, of dimension the top-row darks less the rank of their residuals.  A board and
    its transpose have the same kernel, so the chase runs down the long side: a line is a short row.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    rows, cols = max(m, n) - 1, min(m, n) - 1
    full = (1 << cols) - 1
    tops = range((rows - 1) % 2, cols, 2) if rows else range(0)
    leading: dict[int, int] = {}  # XOR basis of the residuals, keyed by highest bit
    for col in tops:
        above, row = 0, 1 << col
        for _ in range(rows - 1):
            above, row = row, _lit(row, above, full)
        residual = _lit(row, above, full)
        while residual.bit_length() in leading:
            residual ^= leading[residual.bit_length()]
        if residual:
            leading[residual.bit_length()] = residual
    return len(tops) - len(leading)


MAX_BRUTE_CELLS = 42


def ref_count_tilings(rows: int, cols: int) -> int:
    """Exact number of perfect domino tilings, by backtracking.

    Cells are covered in scan order: the first uncovered cell tries a
    horizontal then a vertical domino.  Boards over MAX_BRUTE_CELLS cells
    are rejected, since the search grows exponentially.
    """
    if rows < 0 or cols < 0:
        raise ValueError("dimensions must be nonnegative")
    if rows * cols > MAX_BRUTE_CELLS:
        raise ValueError(
            f"{rows}x{cols} exceeds the {MAX_BRUTE_CELLS}-cell brute-force bound"
        )
    if rows * cols % 2 == 1:
        return 0
    if rows == 0 or cols == 0:
        return 1  # empty board: the empty tiling

    full = (1 << (rows * cols)) - 1

    def fill(used: int) -> int:
        if used == full:
            return 1
        i = ((~used & full) & -(~used & full)).bit_length() - 1
        r, c = divmod(i, cols)
        total = 0
        if c + 1 < cols and not used >> (i + 1) & 1:
            total += fill(used | 1 << i | 1 << (i + 1))
        if r + 1 < rows and not used >> (i + cols) & 1:
            total += fill(used | 1 << i | 1 << (i + cols))
        return total

    return fill(0)
