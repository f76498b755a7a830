"""Exact simulation of arithmetic billiards on an integer rectangle.

A ball starts in the lower-left corner (0, 0) of an m-by-n rectangle
(height m along y, width n along x), moves at 45 degrees with a speed of
one unit-square diagonal per time unit, reflects off the walls, and stops
when it reaches another corner at time lcm(m, n).

Coordinates follow the usual axes: x in [0, n], y in [0, m].  Both
coordinates are triangle waves of time, so every wall contact and every
lattice-point visit happens at an integer time and can be computed
exactly, without stepping the ball.

Sign convention for a bounce: contacts with the bottom or top wall are
positive when the ball moves left-to-right, contacts with the left or
right wall are positive when it moves upward.  The motion component
parallel to the wall is unchanged by the reflection, so the sign does not
depend on whether the incoming or outgoing direction is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Wall(Enum):
    BOTTOM = "bottom"
    TOP = "top"
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class BounceEvent:
    """One wall contact: time, position, wall, and direction sign."""

    t: int
    x: int
    y: int
    wall: Wall
    sign: int


@dataclass(frozen=True)
class BilliardPath:
    """Complete corner-to-corner trajectory on the rectangle of height m and width n.

    vertices lists the start corner, every reflection point in time order,
    and the end corner; consecutive vertices differ by a 45-degree segment.
    """

    m: int
    n: int
    vertices: tuple[tuple[int, int], ...]
    bounces: tuple[BounceEvent, ...]
    end: tuple[int, int]
    length: int


def _fold(t: int, side: int) -> tuple[int, int]:
    """Triangle wave: coordinate and outgoing direction at time t (period 2*side)."""
    r = t % (2 * side)
    return (r, 1) if r < side else (2 * side - r, -1)


def trace_path(m: int, n: int) -> BilliardPath:
    """Trace the full path on the m-by-n rectangle event by event.

    Bounce times are exactly the multiples of m (top/bottom contacts) and
    of n (left/right contacts) in the open interval (0, lcm(m, n)); a time
    divisible by both would be a corner and those occur only at the end.
    Neither the start nor the end corner is a bounce.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    total = math.lcm(m, n)  # travel time from the start corner to the end corner
    times = sorted(set(range(m, total, m)) | set(range(n, total, n)))

    bounces, vertices = [], [(0, 0)]
    for t in times:
        (x, dx), (y, dy) = _fold(t, n), _fold(t, m)
        if y == 0:
            wall, sign = Wall.BOTTOM, dx
        elif y == m:
            wall, sign = Wall.TOP, dx
        elif x == 0:
            wall, sign = Wall.LEFT, dy
        else:
            wall, sign = Wall.RIGHT, dy
        bounces.append(BounceEvent(t=t, x=x, y=y, wall=wall, sign=sign))
        vertices.append((x, y))

    (ex, _), (ey, _) = _fold(total, n), _fold(total, m)
    vertices.append((ex, ey))
    return BilliardPath(m=m, n=n, vertices=tuple(vertices), bounces=tuple(bounces), end=(ex, ey), length=total)


def base_bounces(m: int, n: int) -> list[tuple[int, int, int]]:
    """Bottom-wall bounces of the m-by-n path in time order, as (x, sign, t) triples, without tracing it.

    The ball is on the bottom wall exactly at the multiples of 2m before lcm(m, n);
    each one's abscissa and sign is the x triangle wave at that time.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sides must be positive, got {m}x{n}")
    return [(*_fold(t, n), t) for t in range(2 * m, math.lcm(m, n), 2 * m)]
