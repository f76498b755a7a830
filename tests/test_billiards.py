"""Tests for the billiards engine.

The reference oracle here is a literal unit-stepping simulation of the
ball (advance one diagonal per tick, flip direction on wall contact); the
engine under test never steps, so agreement is a real cross-check.
"""

import math

import pytest

from quadres.billiards import Wall, base_bounces, trace_path
from reference import crossings, kernel_checkers, position_at, ref_base_bounces, two_color_checkers, vertices


def step_simulate(m, n):
    """Unit-stepping reference: returns (bounces, end, visits)."""
    total = math.lcm(m, n)
    x = y = 0
    dx = dy = 1
    bounces = []
    visits = {}
    for t in range(1, total + 1):
        x += dx
        y += dy
        on_y_wall = y in (0, m)
        on_x_wall = x in (0, n)
        if on_y_wall and on_x_wall:
            assert t == total
            return bounces, (x, y), visits
        if on_y_wall:
            bounces.append((t, x, y, Wall.BOTTOM if y == 0 else Wall.TOP, dx))
            dy = -dy
        elif on_x_wall:
            bounces.append((t, x, y, Wall.LEFT if x == 0 else Wall.RIGHT, dy))
            dx = -dx
        else:
            visits.setdefault((x, y), []).append(t)
    raise AssertionError("no corner reached")


def test_trace_path_validation():
    with pytest.raises(ValueError, match="sides must be positive"):
        trace_path(0, 5)
    with pytest.raises(ValueError, match="sides must be positive"):
        trace_path(5, -1)


def test_position_at_start():
    assert position_at(5, 7, 0) == (0, 0, 1, 1)


def test_position_at_first_base_bounce():
    # first base bounce of the 5x7 path: x=4 at t=10, moving leftward
    assert position_at(5, 7, 10) == (4, 0, -1, 1)


def test_position_at_endpoint():
    # lcm(5, 7) = 35; both sides odd, so the path ends at (n, m)
    assert position_at(5, 7, 35) == (7, 5, 0, 0)


def test_position_at_rejects_out_of_range():
    with pytest.raises(ValueError):
        position_at(5, 7, 36)
    with pytest.raises(ValueError):
        position_at(5, 7, -1)


def test_trace_5x7_base_bounces():
    path = trace_path(5, 7)
    assert ref_base_bounces(path) == base_bounces(5, 7) == [(4, -1, 10), (6, 1, 20), (2, 1, 30)]
    assert path.end == (7, 5)
    assert path.length == 35
    assert len(path.bounces) == 10
    assert vertices(path) == [
        (0, 0), (5, 5), (7, 3), (4, 0), (0, 4), (1, 5),
        (6, 0), (7, 1), (3, 5), (0, 2), (2, 0), (7, 5),
    ]


def test_trace_1x1():
    path = trace_path(1, 1)
    assert path.bounces == ()
    assert path.end == (1, 1)
    assert path.length == 1


def test_trace_2x3_hand_traced():
    path = trace_path(2, 3)
    events = [(b.t, b.x, b.y, b.wall, b.sign) for b in path.bounces]
    assert events == [
        (2, 2, 2, Wall.TOP, 1),
        (3, 3, 1, Wall.RIGHT, -1),
        (4, 2, 0, Wall.BOTTOM, -1),
    ]
    assert path.end == (0, 2)
    assert path.length == 6


def test_trace_matches_step_simulation():
    for m in range(1, 13):
        for n in range(1, 13):
            path = trace_path(m, n)
            got = [(b.t, b.x, b.y, b.wall, b.sign) for b in path.bounces]
            want, end, _ = step_simulate(m, n)
            assert got == want, (m, n)
            assert path.end == end


def test_segments_are_diagonal():
    # consecutive vertices always differ by a 45-degree segment
    for m in range(1, 15):
        for n in range(1, 15):
            points = vertices(trace_path(m, n))
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                assert abs(x1 - x0) == abs(y1 - y0) > 0, (m, n)


def test_bounce_time_structure():
    for m in range(1, 20):
        for n in range(1, 20):
            path = trace_path(m, n)
            for b in path.bounces:
                if b.wall in (Wall.BOTTOM, Wall.TOP):
                    assert b.t % m == 0
                    assert 0 < b.x < n
                    assert b.y == (0 if b.wall is Wall.BOTTOM else m)
                else:
                    assert b.t % n == 0
                    assert 0 < b.y < m
                    assert b.x == (0 if b.wall is Wall.LEFT else n)


def test_sign_time_congruence():
    # bottom and top: sign*x = t (mod n); left and right: sign*y = t (mod m)
    for m in range(1, 61):
        for n in range(1, 61):
            path = trace_path(m, n)
            for b in path.bounces:
                if b.wall in (Wall.BOTTOM, Wall.TOP):
                    assert (b.sign * b.x - b.t) % n == 0, (m, n, b)
                else:
                    assert (b.sign * b.y - b.t) % m == 0, (m, n, b)


def test_base_abscissae_cover_even_points_when_coprime():
    for m in range(1, 30):
        for n in range(2, 30):
            if math.gcd(m, n) != 1:
                continue
            xs = [x for x, _, _ in ref_base_bounces(trace_path(m, n))]
            assert sorted(xs) == list(range(2, n, 2)), (m, n)
            assert len(xs) == len(set(xs))


def test_base_bounces_all_negative_for_height_n_minus_1():
    for n in (5, 7, 9, 13):
        for bounces in (ref_base_bounces(trace_path(n - 1, n)), base_bounces(n - 1, n)):
            signs = [s for _, s, _ in bounces]
            assert signs and all(s == -1 for s in signs), n


def test_base_bounces_height_2_alternate():
    # signs at x = 2k are negative exactly for odd k
    for bb in (ref_base_bounces(trace_path(2, 7)), base_bounces(2, 7)):
        assert sorted((x, s) for x, s, _ in bb) == [(2, -1), (4, 1), (6, -1)]


def test_base_bounces_match_the_traced_path(monkeypatch):
    # the fold at the times 2m, 4m, ... against the traced path's bottom-wall events, on every
    # shape (gcd > 1, m = 1, n = 1 and m > n included), with the tracer refused while the lister runs
    from quadres import billiards

    def refuse(*args, **kwargs):
        raise AssertionError("base_bounces traced the path it is checked against")

    sides = [(m, n) for m in range(1, 61) for n in range(1, 61)]
    want = [ref_base_bounces(trace_path(m, n)) for m, n in sides]
    monkeypatch.setattr(billiards, "trace_path", refuse)
    for (m, n), bounces in zip(sides, want):
        assert base_bounces(m, n) == bounces, (m, n)


def test_endpoint_corners():
    for m in range(1, 25):
        for n in range(1, 25):
            end = trace_path(m, n).end
            if m % 2 == 1 and n % 2 == 1:
                assert end == (n, m), (m, n)
            elif math.gcd(m, n) == 1:
                # exactly one side even: that coordinate returns to 0
                assert end in ((n, 0), (0, m)), (m, n)
            assert end in ((n, 0), (0, m), (n, m)), (m, n)


def test_four_bounces_same_sign():
    # for odd m < n and 0 < 2k < m the bounces at (0, 2k), (m-2k, m),
    # (n, m-2k), (n-m+2k, 0) exist and agree in sign
    for m in range(3, 62, 2):
        for n in range(m + 2, 62, 2):
            if math.gcd(m, n) != 1:
                continue
            path = trace_path(m, n)
            at = {(b.x, b.y): b.sign for b in path.bounces}
            for k in range(1, (m - 1) // 2 + 1):
                quad = [(0, 2 * k), (m - 2 * k, m), (n, m - 2 * k), (n - m + 2 * k, 0)]
                signs = [at.get(p) for p in quad]
                assert None not in signs, (m, n, k, quad)
                assert len(set(signs)) == 1, (m, n, k, signs)


def test_rotational_symmetry_odd_sides():
    # for odd m, n the bounce multiset is fixed by (x, y, sign, t) ->
    # (n-x, m-y, sign, lcm-t)
    for m in range(1, 42, 2):
        for n in range(1, 42, 2):
            path = trace_path(m, n)
            events = {(b.x, b.y, b.sign, b.t) for b in path.bounces}
            rotated = {(n - x, m - y, s, path.length - t) for x, y, s, t in events}
            assert events == rotated, (m, n)


def test_reflection_symmetry_even_width():
    # odd m, even n: base-bounce (x, sign) pairs are fixed by x -> n-x
    for m in range(1, 40, 2):
        for n in range(2, 40, 2):
            pairs = {(x, s) for x, s, _ in ref_base_bounces(trace_path(m, n))}
            assert pairs == {(n - x, s) for x, s in pairs}, (m, n)


def test_corridor_reduction():
    # for odd coprime m < n, base bounces left of x = n-m match the
    # m-by-(n-m) rectangle in position and sign
    for m in range(1, 62, 2):
        for n in range(m + 2, 62, 2):
            if math.gcd(m, n) != 1:
                continue
            traced = [ref_base_bounces(trace_path(m, width)) for width in (n, n - m)]
            for wide, narrow in (traced, (base_bounces(m, n), base_bounces(m, n - m))):
                assert sorted((x, s) for x, s, _ in wide if x < n - m) == sorted((x, s) for x, s, _ in narrow), (m, n)


def test_crossing_counts():
    assert len(crossings(trace_path(5, 7))) == 12
    assert len(crossings(trace_path(7, 11))) == 30
    for n in range(1, 8):
        assert crossings(trace_path(1, n)) == []


def test_crossing_count_formula_coprime():
    for m in range(1, 41):
        for n in range(1, 41):
            if math.gcd(m, n) != 1:
                continue
            cr = crossings(trace_path(m, n))
            assert len(cr) == (m - 1) * (n - 1) // 2, (m, n)


def test_crossing_fields():
    for m, n in [(5, 7), (7, 11), (3, 4), (4, 9)]:
        for c in crossings(trace_path(m, n)):
            assert 1 <= c.x <= n - 1 and 1 <= c.y <= m - 1
            assert c.t1 < c.t2
            assert (c.x + c.y) % 2 == 0


def test_interior_points_visited_at_most_twice():
    for m in range(1, 25):
        for n in range(1, 25):
            _, _, visits = step_simulate(m, n)
            path = trace_path(m, n)
            cr = {(c.x, c.y): (c.t1, c.t2) for c in crossings(path)}
            for point, times in visits.items():
                assert len(times) <= 2, (m, n, point)
                if len(times) == 2:
                    assert cr.get(point) == tuple(times), (m, n, point)


def test_two_color_checkers_fig3():
    points = two_color_checkers(7, 11, 3)
    assert points == {
        (1, 1), (1, 5), (2, 2), (2, 4), (2, 6), (3, 5), (4, 2), (5, 1), (5, 3),
        (5, 5), (6, 2), (6, 6), (7, 1), (8, 6), (9, 1), (9, 5), (10, 2), (10, 4),
    }


def test_two_color_checkers_small():
    assert two_color_checkers(1, 3, 1) == set()
    # base bounce at (2, 0) on the 5x7 path is positive, so the set is even
    assert len(two_color_checkers(5, 7, 1)) % 2 == 0


def test_two_color_checkers_validation():
    with pytest.raises(ValueError):
        two_color_checkers(6, 9, 1)
    with pytest.raises(ValueError):
        two_color_checkers(5, 7, 4)  # 2k = 8 >= n
    with pytest.raises(ValueError):
        two_color_checkers(5, 7, 0)


def test_kernel_checkers_examples():
    assert kernel_checkers(6, 9) == {
        (1, 1), (2, 2), (4, 4), (5, 5), (7, 5), (8, 4), (8, 2), (7, 1),
        (5, 1), (4, 2), (2, 4), (1, 5),
    }
    assert kernel_checkers(2, 2) == {(1, 1)}
    assert kernel_checkers(3, 3) == {(1, 1), (2, 2)}


def test_kernel_checkers_rejects_coprime():
    with pytest.raises(ValueError):
        kernel_checkers(5, 7)


def test_kernel_checkers_nonempty_sweep():
    for m in range(2, 20):
        for n in range(2, 20):
            if math.gcd(m, n) == 1:
                continue
            assert kernel_checkers(m, n), (m, n)
