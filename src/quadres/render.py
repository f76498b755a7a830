"""Deterministic ASCII and SVG renderings of paths and boards.

SVG output uses only rect, line, polyline, circle, and text elements, with
the y axis flipped so the origin renders at the lower left.  Identical
inputs always produce byte-identical output.
"""

from __future__ import annotations

from html import escape
from typing import TYPE_CHECKING

from .billiards import BilliardPath, Wall

if TYPE_CHECKING:  # annotations only: rendering a path loads no checkers
    from .checkers import Board, CheckerSet, PebbleSet

BOARD_CELL_PX = 24


def render_path_svg(path: BilliardPath, split_k: int | None = None, *, cell_px: int = BOARD_CELL_PX,
                    show_grid: bool = True, color_before: str = "steelblue", color_after: str = "darkorange",
                    annotate_signs: bool = True) -> str:
    """Standalone SVG of a billiard path, cell_px (at least 4) a unit square.

    With split_k the polyline is cut at the bottom bounce at (2k, 0) and the
    two halves get distinct stroke colors, written escaped; without it the whole
    path uses color_before.  Bottom bounces are labeled +/- below the base when
    annotate_signs is set.
    """
    if cell_px < 4:
        raise ValueError(f"cell_px must be >= 4, got {cell_px}")
    if not (color_before + color_after).isprintable():  # XML cannot carry control characters, even escaped
        raise ValueError(f"colors must be printable, got {color_before!r} and {color_after!r}")
    m, n = path.m, path.n
    px = margin = cell_px
    width, height = n * px + 2 * margin, m * px + 2 * margin

    def sx(x: int) -> int:
        return margin + x * px

    def sy(y: int) -> int:
        return margin + (m - y) * px

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">',
             f'<rect x="{sx(0)}" y="{sy(m)}" width="{n * px}" height="{m * px}" fill="white" stroke="black"/>']
    if show_grid:
        parts += [f'<line x1="{sx(gx)}" y1="{sy(0)}" x2="{sx(gx)}" y2="{sy(m)}" stroke="lightgray"/>'
                  for gx in range(1, n)]
        parts += [f'<line x1="{sx(0)}" y1="{sy(gy)}" x2="{sx(n)}" y2="{sy(gy)}" stroke="lightgray"/>'
                  for gy in range(1, m)]

    def polyline(points: list[tuple[int, int]], color: str) -> str:
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in points)
        return f'<polyline points="{coords}" fill="none" stroke="{escape(color)}" stroke-width="2"/>'

    vertices = [(0, 0), *((b.x, b.y) for b in path.bounces), path.end]
    bottom = [(i, b) for i, b in enumerate(path.bounces, 1) if b.wall is Wall.BOTTOM]  # vertex 0 is the start corner
    if split_k is None:
        parts.append(polyline(vertices, color_before))
    else:
        cut = next((i for i, b in bottom if b.x == 2 * split_k), None)
        if cut is None:
            raise ValueError(f"no bottom bounce at ({2 * split_k}, 0) to split at")
        parts.append(polyline(vertices[: cut + 1], color_before))
        parts.append(polyline(vertices[cut:], color_after))

    if annotate_signs:
        parts += [f'<text x="{sx(b.x)}" y="{sy(0) + px // 2 + 4}" text-anchor="middle" font-size="{px // 2 + 4}">'
                  f'{"+" if b.sign > 0 else "-"}</text>' for _, b in bottom]

    parts.append("</svg>")
    return "\n".join(parts)


def render_board_ascii(board: Board, pebbles: PebbleSet | None = None, checkers: CheckerSet | None = None) -> str:
    """One character per square: '#' dark, '.' light, 'o' pebble, 'O' checker.

    The top row is printed first so the bottom row comes last, matching the
    board's row-0-at-the-bottom convention.
    """
    pebble_squares = pebbles.squares if pebbles else frozenset()
    checker_squares = checkers.squares if checkers else frozenset()

    def char(col: int, row: int) -> str:
        if (col, row) in checker_squares:
            return "O"
        return "o" if (col, row) in pebble_squares else "#" if board.is_dark(col, row) else "."

    return "\n".join("".join(char(col, row) for col in range(board.cols)) for row in range(board.rows - 1, -1, -1))


def render_board_svg(board: Board, pebbles: PebbleSet | None = None, checkers: CheckerSet | None = None) -> str:
    """Standalone SVG of a checkerboard with pebbles and checkers as circles, BOARD_CELL_PX a square."""
    px = BOARD_CELL_PX
    width, height = max(board.cols, 1) * px, max(board.rows, 1) * px

    def corner(col: int, row: int) -> tuple[int, int]:
        return col * px, (board.rows - 1 - row) * px

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">']
    for row in range(board.rows):
        for col in range(board.cols):
            x, y = corner(col, row)
            fill = "lightgray" if board.is_dark(col, row) else "white"
            parts.append(f'<rect x="{x}" y="{y}" width="{px}" height="{px}" fill="{fill}" stroke="gray"/>')
    for col, row in sorted(pebbles.squares if pebbles else ()):
        x, y = corner(col, row)
        parts.append(f'<circle cx="{x + px // 2}" cy="{y + px // 2}" r="{px // 5}" fill="black"/>')
    for col, row in sorted(checkers.squares if checkers else ()):
        x, y = corner(col, row)
        parts.append(f'<circle cx="{x + px // 2}" cy="{y + px // 2}" r="{px // 3}" fill="firebrick" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)
