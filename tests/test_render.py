"""Tests for ASCII and SVG rendering."""

import xml.etree.ElementTree as ET

import pytest

from quadres.billiards import trace_path
from quadres.checkers import Board, CheckerSet, PebbleSet, bottom_row_puzzle, kernel_element, solve
from quadres.render import BOARD_CELL_PX, render_board_ascii, render_board_svg, render_path_svg

ALLOWED_TAGS = {"svg", "rect", "line", "polyline", "circle", "text"}


def svg_tags(doc):
    root = ET.fromstring(doc)
    tags = [root.tag.split("}")[-1]]
    tags += [el.tag.split("}")[-1] for el in root.iter() if el is not root]
    return root, tags


def polyline_points(doc):
    root = ET.fromstring(doc)
    out = []
    for el in root.iter():
        if el.tag.split("}")[-1] == "polyline":
            pts = [tuple(int(v) for v in pair.split(",")) for pair in el.attrib["points"].split()]
            out.append(pts)
    return out


def test_path_svg_well_formed():
    doc = render_path_svg(trace_path(5, 7))
    root, tags = svg_tags(doc)
    assert tags[0] == "svg"
    assert set(tags) <= ALLOWED_TAGS


def test_path_svg_vertex_count():
    # the 5x7 path has 10 reflection points, so start + bounces + end = 12
    doc = render_path_svg(trace_path(5, 7))
    lines = polyline_points(doc)
    assert len(lines) == 1
    assert len(lines[0]) == 12


def test_path_svg_single_segment():
    doc = render_path_svg(trace_path(1, 1))
    lines = polyline_points(doc)
    assert len(lines) == 1 and len(lines[0]) == 2


def test_path_svg_split():
    doc = render_path_svg(trace_path(7, 11), split_k=3)
    lines = polyline_points(doc)
    assert len(lines) == 2
    # the halves meet at the (6, 0) bounce vertex, which appears in both;
    # with cell_px=24 and a one-cell margin that pixel is (24+6*24, 24+7*24)
    assert lines[0][-1] == lines[1][0] == (168, 192)


def test_path_svg_split_rejects_missing_bounce():
    with pytest.raises(ValueError):
        render_path_svg(trace_path(5, 7), split_k=5)


def test_path_svg_sign_annotations():
    doc = render_path_svg(trace_path(5, 7), annotate_signs=True)
    root = ET.fromstring(doc)
    labels = [el.text for el in root.iter() if el.tag.split("}")[-1] == "text"]
    assert sorted(labels) == ["+", "+", "-"]
    doc = render_path_svg(trace_path(5, 7), annotate_signs=False)
    root = ET.fromstring(doc)
    assert not [el for el in root.iter() if el.tag.split("}")[-1] == "text"]


def test_render_deterministic():
    path = trace_path(5, 7)
    assert render_path_svg(path) == render_path_svg(path)
    board = Board(rows=4, cols=6)
    sol = solve(bottom_row_puzzle(board))
    a = render_board_ascii(board, bottom_row_puzzle(board), sol)
    assert a == render_board_ascii(board, bottom_row_puzzle(board), sol)


def test_path_svg_cell_px_validation():
    with pytest.raises(ValueError, match="cell_px must be >= 4"):
        render_path_svg(trace_path(5, 7), cell_px=3)


def test_board_ascii_first_figure_golden():
    board = Board(rows=4, cols=6)
    sol = solve(bottom_row_puzzle(board))
    text = render_board_ascii(board, bottom_row_puzzle(board), sol)
    assert text == "\n".join([
        ".O.#.O",
        "O.O.O.",
        ".O.#.#",
        "#o#oOo",
    ])


def test_board_ascii_empty_2x2():
    text = render_board_ascii(Board(rows=2, cols=2))
    assert text == ".#\n#."


def test_board_ascii_kernel_6_9():
    elem = kernel_element(6, 9)
    text = render_board_ascii(elem.board, None, elem)
    assert text.count("O") == 12
    assert text.count("o") == 0


def test_board_svg_well_formed():
    board = Board(rows=4, cols=6)
    sol = solve(bottom_row_puzzle(board))
    doc = render_board_svg(board, bottom_row_puzzle(board), sol)
    root, tags = svg_tags(doc)
    assert set(tags) <= ALLOWED_TAGS
    circles = [el for el in root.iter() if el.tag.split("}")[-1] == "circle"]
    assert len(circles) == 3 + 7  # pebbles + checkers
    assert (root.get("width"), root.get("height")) == (str(6 * BOARD_CELL_PX), str(4 * BOARD_CELL_PX))
