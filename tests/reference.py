"""Plain constructions that the tests check the library against.

The path constructions trace the billiard path event by event and record
every interior lattice-point visit in a dict, so they follow the paper's
geometry step by step and share no code with the packed walk in
`quadres.checkers`.  `quadres` itself calls none of them.
"""

import math
from typing import NamedTuple

from quadres.billiards import BilliardPath, Rect, base_bounces, trace_path
from quadres.checkers import Board, CheckerSet, PebbleSet, Square


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
    side = path.rect.m + 1
    first, second = _interior_visits(path)
    out = []
    for key in sorted(second):
        a, b = first[key], second[key]
        if (a ^ b) & 1:  # one ascending and one descending visit, not the same diagonal twice
            x, y = divmod(key, side)
            out.append(Crossing(x, y, a >> 1, b >> 1))
    return out


def _interior_visits(path: BilliardPath) -> tuple[dict[int, int], dict[int, int]]:
    """First and second visits to each interior lattice point of the path.

    Point (x, y) is keyed x*(m+1) + y, so the keys sort in (x, y) order, and
    a visit at time t is stored as 2t + 1 along an ascending diagonal and 2t
    along a descending one.  The path is on a wall exactly at event times, so
    the lattice points at times strictly between consecutive events are all
    interior.  No point is visited three times.
    """
    side = path.rect.m + 1
    times = path.vertex_times()
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        x0, y0 = path.vertices[i]
        x1, y1 = path.vertices[i + 1]
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


def two_color_checkers(rect: Rect, k: int) -> set[tuple[int, int]]:
    """Self-crossings whose two transits straddle the bottom bounce at (2k, 0).

    Coloring the path with one color before that bounce and another after
    it, these are the crossings where the two colors meet.  Requires
    gcd(m, n) = 1 and 0 < 2k < n, so the bounce at (2k, 0) exists.
    """
    if math.gcd(rect.m, rect.n) != 1:
        raise ValueError(f"sides must be coprime, got {rect.m}x{rect.n}")
    if not 0 < 2 * k < rect.n:
        raise ValueError(f"need 0 < 2k < n, got k={k}, n={rect.n}")
    path = trace_path(rect)
    tk = next(t for x, _, t in base_bounces(path) if x == 2 * k)
    return {(c.x, c.y) for c in crossings(path) if c.t1 < tk < c.t2}


def kernel_checkers(rect: Rect) -> set[tuple[int, int]]:
    """Interior lattice points the corner-to-corner path visits exactly once.

    These exist exactly when gcd(m, n) > 1 (the path exits early and covers
    only part of the diagonal grid); the set is then nonempty.
    """
    if math.gcd(rect.m, rect.n) == 1:
        raise ValueError(f"sides {rect.m}x{rect.n} are coprime: every interior point is covered twice")
    first, second = _interior_visits(trace_path(rect))
    return {divmod(key, rect.m + 1) for key in first.keys() - second.keys()}


def residue_table(n: int) -> set[int]:
    """The set of nonzero-square values {x^2 mod n : 1 <= x <= n-1}."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return {x * x % n for x in range(1, n)}


def pebbles(board: Board, *squares: Square) -> PebbleSet:
    return PebbleSet(board, frozenset(squares))


def checkers_at(board: Board, *squares: Square) -> CheckerSet:
    return CheckerSet(board, frozenset(squares))
