"""The parity-checkers puzzle on an (m-1)-by-(n-1) checkerboard.

Squares are addressed 0-based as (col, row) with row 0 at the bottom; the
lower-left square (0, 0) is dark, so a square is dark exactly when
col + row is even.  A puzzle is a set of pebbles on light squares; a
solution is a set of checkers on dark squares such that the light squares
with an odd number of orthogonally adjacent checkers are exactly the
pebbled ones.  Counting mod 2 this is a linear map, and the board
coordinates are the billiard lattice points shifted by (-1, -1): square
(col, row) sits at lattice point (col+1, row+1) of the m-by-n rectangle.

Configurations are kept as one int bitmask per row (bit c = column c), so
the map and light chasing work a row at a time by shifts and XORs.

The solver is the greedy top-to-bottom "light chasing" pass combined with
the billiards two-coloring for the bottom-row residue, laid arch by arch
(bottom bounce to bottom bounce) down one packed grid.  The dimension of the
kernel is the degree of a gcd of two path polynomials over GF(2), and (for
gcd > 1 boards) the once-visited billiard points give a kernel element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator


class PuzzleNotUniquelySolvable(ValueError):
    """Raised when gcd(m, n) > 1 and the puzzle has zero or many solutions."""


Square = tuple[int, int]


@dataclass(frozen=True)
class Board:
    """An (m-1)-by-(n-1) checkerboard: rows = m-1, cols = n-1 (possibly 0)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"board dimensions must be nonnegative, got {self.rows}x{self.cols}")

    def is_dark(self, col: int, row: int) -> bool:
        return (col + row) % 2 == 0

    def in_bounds(self, col: int, row: int) -> bool:
        return 0 <= col < self.cols and 0 <= row < self.rows

    def light_squares(self) -> list[Square]:
        """Light squares in row-major order, bottom row first."""
        return [(c, r) for r in range(self.rows) for c in range(self.cols) if (c + r) % 2 == 1]


def _columns(bits: int) -> Iterator[int]:
    """Indices of the set bits of a row bitmask, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _lit(row: int, nearby: int, full: int) -> int:
    """Squares of a row next to an odd number of checkers, in it or in `nearby` (rows above ^ below)."""
    return (row << 1 ^ row >> 1 ^ nearby) & full


@dataclass(frozen=True, init=False)
class _Configuration:
    """A mod-2 configuration on the squares of one color, one bitmask per row.

    Bit c of row_bits[r] is set when square (c, r) is occupied; `squares`
    lists the occupied squares, built on first use.
    """

    board: Board
    row_bits: tuple[int, ...]
    dark: ClassVar[bool]

    def __init__(self, board: Board, squares: Iterable[Square]) -> None:
        kind, shade = ("checker", "dark") if self.dark else ("pebble", "light")
        row_bits = [0] * board.rows
        for col, row in squares:
            if not board.in_bounds(col, row):
                raise ValueError(f"{kind} square {(col, row)} outside {board.rows}x{board.cols} board")
            if board.is_dark(col, row) != self.dark:
                raise ValueError(f"{kind} square {(col, row)} is not a {shade} square")
            row_bits[row] |= 1 << col
        object.__setattr__(self, "board", board)
        object.__setattr__(self, "row_bits", tuple(row_bits))

    @classmethod
    def _from_rows(cls, board: Board, row_bits: Iterable[int]):
        """Wrap row bitmasks that already lie on this color's squares of the board."""
        config = cls.__new__(cls)
        object.__setattr__(config, "board", board)
        object.__setattr__(config, "row_bits", tuple(row_bits))
        return config

    @cached_property
    def squares(self) -> frozenset[Square]:
        return frozenset((col, row) for row, bits in enumerate(self.row_bits) for col in _columns(bits))

    def count(self) -> int:
        """Number of occupied squares."""
        return sum(bits.bit_count() for bits in self.row_bits)

    def __xor__(self, other):
        if type(other) is not type(self) or other.board != self.board:
            raise ValueError("cannot combine configurations on different boards")
        return self._from_rows(self.board, (a ^ b for a, b in zip(self.row_bits, other.row_bits)))


class PebbleSet(_Configuration):
    """A mod-2 configuration on the light squares."""

    dark = False


class CheckerSet(_Configuration):
    """A mod-2 configuration on the dark squares."""

    dark = True


def bottom_row_puzzle(board: Board) -> PebbleSet:
    """Pebbles on every light square of the bottom row."""
    row_bits = [0] * board.rows
    if board.rows:
        row_bits[0] = sum(1 << col for col in range(1, board.cols, 2))
    return PebbleSet._from_rows(board, row_bits)


def left_column_puzzle(board: Board) -> PebbleSet:
    """Pebbles on every light square of the leftmost column."""
    return PebbleSet._from_rows(board, (row % 2 if board.cols else 0 for row in range(board.rows)))


def apply_checkers(c: CheckerSet) -> PebbleSet:
    """The puzzle a checker configuration solves.

    A light square gets a pebble exactly when an odd number of its (up to
    four) orthogonal neighbors carry checkers; every orthogonal neighbor of
    a light square is dark, so this is well defined.
    """
    board = c.board
    full = (1 << board.cols) - 1
    padded = (0, *c.row_bits, 0)
    return PebbleSet._from_rows(board, (_lit(padded[r], padded[r - 1] ^ padded[r + 1], full)
                                        for r in range(1, board.rows + 1)))


def light_chase(p: PebbleSet) -> tuple[CheckerSet, PebbleSet]:
    """Greedy pass: satisfy every light square above the bottom row.

    Rows are processed top to bottom; whenever a light square's parity
    constraint is still wrong, a checker goes on the square directly below
    it.  Returns (partial, residual) with residual = p XOR
    apply_checkers(partial), supported on the bottom row only.
    """
    board = p.board
    full = (1 << board.cols) - 1
    want = p.row_bits
    placed = [0] * (board.rows + 1)  # placed[rows] stays 0: nothing sits above the top row
    for row in range(board.rows - 1, 0, -1):
        placed[row - 1] = want[row] ^ _lit(placed[row], placed[row + 1], full)
    residual = [0] * board.rows
    if board.rows:
        residual[0] = want[0] ^ _lit(placed[0], placed[1], full)
    return CheckerSet._from_rows(board, placed[:-1]), PebbleSet._from_rows(board, residual)


def kernel_dimension(m: int, n: int) -> int:
    """Dimension of the checker sets with no pebbles on the (m-1)-by-(n-1) board.

    The grid graph's adjacency is M + M^T, M the checker-to-pebble map, so its GF(2) nullity is
    2 dim ker M - (#dark - #light), the last term the parity of the square count.  By Sutner's theorem
    that nullity is deg gcd(p_{m-1}, p_{n-1}), p_k the k-vertex path's characteristic polynomial:
    p_0 = 1, p_1 = x, p_{k+1} = x p_k + p_{k-1}, an int with bit i the coefficient of x^i.  As
    p_{a+b} = p_a p_b + p_{a-1} p_{b-1} and p_{s-1}^2 = 1 + p_s p_{s-2}, p_k mod p_s has period 2s + 2.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    short, long = sorted((m - 1, n - 1))
    below, path = 0, 1  # p_{k-1} and p_k, up to k = short
    for _ in range(short):
        below, path = path, path << 1 ^ below
    rest = 0  # p_k mod p_short, one XOR a step, from k = short; below is p_{short-1}, reduced already
    for _ in range((long - short) % (2 * short + 2)):
        below, rest = rest, rest << 1 ^ below
        if rest >> short:
            rest ^= path
    while rest:  # Euclid by shifted XORs, path kept the higher degree: path becomes the gcd
        path ^= rest << path.bit_length() - rest.bit_length()
        if path.bit_length() < rest.bit_length():
            path, rest = rest, path
    return (path.bit_length() - 1 + short * long % 2) // 2


def _walk(m: int, n: int) -> Iterator[int]:
    """XOR the interior lattice points of the m-by-n path into one int, one diagonal piece at a time.

    Point (x, y) is bit y*width + x, so a piece is a run of bits of stride width + dx*dy, cut from a
    precomputed run.  Yields the grid at each bottom bounce: the points visited an odd number of times.
    """
    width = (n + 8) & ~7
    longest = min(m, n) - 1  # the most interior points on one diagonal piece
    rising, falling = (((1 << s * longest) - 1) // ((1 << s) - 1) for s in (width + 1, width - 1))
    grid = pos = t = 0
    dx, dy, tx, ty = 1, 1, n, m  # the directions, and the next side and top/bottom contact times
    while True:
        step = (tx if tx < ty else ty) - t
        end = pos + (dy * width + dx) * step
        if step > 1:  # cut the piece's run upward from its lower end
            stride = width + dx * dy
            run = rising if dx == dy else falling
            grid ^= run >> (longest - step + 1) * stride << (pos if dy > 0 else end) + stride
        pos, t = end, t + step
        if t == tx:
            dx, tx = -dx, tx + n
        if t == ty:
            dy, ty = -dy, ty + m
            if dy > 0:
                yield grid


def single_pebble_counts(m: int, n: int) -> list[tuple[int, int]]:
    """(x, count) for every bottom bounce of the coprime m-by-n path, in time order.

    count is the checker count of the puzzle with one pebble above the bounce at (x, 0): the
    crossings whose two visits straddle it, which are the points the walk has visited once so far.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    if math.gcd(m, n) != 1:
        raise PuzzleNotUniquelySolvable(f"gcd({m}, {n}) > 1")
    bounces = range(2 * m, m * n, 2 * m)
    return [(min(t % (2 * n), -t % (2 * n)), grid.bit_count()) for t, grid in zip(bounces, _walk(m, n))]


def _stride(m: int, n: int) -> int:
    """Bits a row of a laid grid: whole bytes, and more than one tile (m + n - 1 bits)."""
    return (m + n + 7) & ~7


def _lay(m: int, n: int, arches: Iterable[int], length: int) -> int:
    """The interior lattice points that the chosen arches of the m-by-n path visit an odd number of times.

    Arch k runs from the bottom bounce at time 2mk, at unfolded abscissa u = 2mk mod 2n, up to the
    top wall and back down to the next bounce, unless the path ends at time `length` first.  On row
    y it rises through x = +-(u + y) and falls through x = +-(u' - y), u' its next bounce's abscissa,
    so the arches' points are A(x - y) ^ A(-x - y), A the 2n-bit pattern of their starts u and
    mirrored ends -u'.  Tiles of A and of its mirror go down the rows at strides S + 1 and S - 1 by
    doubling shift-ORs, then the grid is masked to 1 <= x < n, 1 <= y < m: point (x, y) is bit y*S + x.
    """
    period, stride, size, step = 2 * n, _stride(m, n), m + n - 1, 2 * m
    rise = fall = 0  # A and its mirror
    for k in arches:
        t = step * k
        rise ^= 1 << t % period
        fall ^= 1 << -t % period
        if t + step <= length:  # the arch falls back before the path ends
            rise ^= 1 << -(t + step) % period
            fall ^= 1 << (t + step) % period
    lead = -m % period  # bit i of row 0 of the rising copies is A(i - m), so point (x, y) lands at bit m + y*S + x
    repunit = ((1 << period * ((size + lead) // period + 1)) - 1) // ((1 << period) - 1)
    rising, falling = rise * repunit >> lead & (1 << size) - 1, fall * repunit & (1 << size) - 1
    copies = 1
    while copies < m:  # copies past row m - 1 land outside the mask
        rising |= rising << copies * (stride + 1)
        falling |= falling << copies * (stride - 1)
        copies *= 2
    mask = int.from_bytes(((1 << n) - 2).to_bytes(stride // 8, "little") * (m - 1), "little") << stride
    return (rising >> m ^ falling) & mask


def _laid_rows(m: int, n: int, grid: int) -> list[int]:
    """Board rows of a laid grid, one byte slice each: lattice point (x, y) is square (x-1, y-1)."""
    width, span = _stride(m, n) // 8, n // 8 + 1
    raw = grid.to_bytes(m * width, "little")
    return [int.from_bytes(raw[y * width:y * width + span], "little") >> 1 for y in range(1, m)]


def _clear_bottom_row(m: int, n: int, pebbled: int) -> list[int]:
    """Checker rows that solve the puzzle with pebbles `pebbled` in the bottom row of a coprime board.

    The path's color flips at the bounce below each pebble, and a crossing carries a checker exactly
    when one of its two visits has color 1: the color-1 arches, past an odd number of cuts, are laid.
    """
    # the bounce below pebble c is at x = c+1 = 2j, time 2mk with mk = +-j (mod n), so it starts arch k
    inverse = pow(m, -1, n)
    cuts = sorted(min(k, n - k) for k in ((col + 1) // 2 * inverse % n for col in _columns(pebbled)))
    colored = (k for start, stop in zip(cuts[::2], [*cuts[1::2], (n + 1) // 2]) for k in range(start, stop))
    return _laid_rows(m, n, _lay(m, n, colored, m * n))


def solve(p: PebbleSet) -> CheckerSet:
    """The unique solution of a pebble puzzle on a coprime board.

    Light chasing reduces the puzzle to a bottom-row residual, which the two-coloring then clears.
    """
    board = p.board
    m, n = board.rows + 1, board.cols + 1
    if math.gcd(m, n) != 1:
        raise PuzzleNotUniquelySolvable(f"board {board.rows}x{board.cols} has gcd({m}, {n}) > 1")
    partial, residual = light_chase(p)
    if not any(residual.row_bits):
        return partial
    cleared = _clear_bottom_row(m, n, residual.row_bits[0])
    return CheckerSet._from_rows(board, (a ^ b for a, b in zip(partial.row_bits, cleared)))


def kernel_element(m: int, n: int) -> CheckerSet:
    """A nonempty checker set with no pebbles, for gcd(m, n) > 1: every arch up to lcm(m, n), laid.

    The checkers sit on the lattice points that the path visits exactly once (none is visited thrice).
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    if math.gcd(m, n) == 1:
        raise ValueError(f"gcd({m}, {n}) = 1: the kernel is trivial")
    length = math.lcm(m, n)
    grid = _lay(m, n, range(-(-length // (2 * m))), length)
    return CheckerSet._from_rows(Board(rows=m - 1, cols=n - 1), _laid_rows(m, n, grid))


def bottom_row_count(m: int, n: int) -> int:
    """Checker count s of the bottom-row solution on the (m-1)-by-(n-1) board.

    Every bottom bounce carries a pebble, so light chasing places nothing and the color flips at
    every bounce: s is the popcount of the laid color-1 arches k = 1, 3, 5, ... < n/2.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    if math.gcd(m, n) != 1:
        raise PuzzleNotUniquelySolvable(f"gcd({m}, {n}) > 1")
    return _lay(m, n, range(1, (n + 1) // 2, 2), m * n).bit_count()


def bottom_row_symbol(m: int, n: int) -> int:
    """(m|n) as (-1)^s, s the checker count of the bottom-row solution."""
    return -1 if bottom_row_count(m, n) % 2 else 1
