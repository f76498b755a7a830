"""Tests for the command-line interface: output, JSON schema, exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import CliRunner
from quadres import __version__
from quadres.billiards import base_bounces, trace_path
from quadres.cli import DEFAULT_MAX_CELLS, main
from quadres.oracles import jacobi_symbol
from quadres.sweeps import FAMILIES
from reference import ref_base_bounces


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_json(runner, args, env=None):
    result = runner.invoke(main, args, env=env)
    payload = json.loads(result.output)
    return result, payload


def assert_envelope(payload, command):
    assert set(payload) == {"command", "inputs", "result", "checks"}
    assert payload["command"] == command
    assert set(payload["inputs"]) == {"m", "n", "flags"}
    assert isinstance(payload["checks"], list)
    for check in payload["checks"]:
        assert set(check) == {"name", "status", "witness"}


class TestTrace:
    def test_table_output(self, runner):
        result = runner.invoke(main, ["trace", "5", "7"])
        assert result.exit_code == 0
        assert "bottom" in result.output
        assert "end (7, 5) at t=35" in result.output

    def test_no_bounces(self, runner):
        result = runner.invoke(main, ["trace", "1", "1"])
        assert result.exit_code == 0
        assert "no bounces" in result.output
        assert "end (1, 1)" in result.output

    def test_lcm_endpoint(self, runner):
        result = runner.invoke(main, ["trace", "6", "9"])
        assert result.exit_code == 0
        assert "t=18" in result.output

    def test_json_schema(self, runner):
        result, payload = invoke_json(runner, ["trace", "5", "7", "--json"])
        assert result.exit_code == 0
        assert_envelope(payload, "trace")
        assert payload["inputs"]["m"] == 5
        assert payload["result"]["base_bounces"] == [[4, -1, 10], [6, 1, 20], [2, 1, 30]]
        assert payload["result"]["end"] == [7, 5]
        assert payload["result"]["length"] == 35

    def test_json_base_bounces_match_the_fold(self, runner):
        # trace reads them off its traced path; base_bounces folds their times without tracing
        for m in range(1, 21):
            for n in range(1, 21):
                _, payload = invoke_json(runner, ["trace", str(m), str(n), "--json"])
                assert payload["result"]["base_bounces"] == [list(b) for b in base_bounces(m, n)], (m, n)

    def test_bad_args_exit_2(self, runner):
        assert runner.invoke(main, ["trace", "0", "7"]).exit_code == 2
        assert runner.invoke(main, ["trace", "5"]).exit_code == 2
        assert runner.invoke(main, ["trace", "x", "7"]).exit_code == 2

    def test_out_into_missing_directory_exit_2(self, runner, tmp_path):
        assert_unwritable_out(runner, ["trace", "5", "7"], tmp_path)

    @pytest.mark.parametrize("command", ["trace", "render"])
    def test_size_limit_counts_the_bounces_not_the_board(self, runner, command):
        # at most m + n - 2 bounces, 4 units per unit of m + n: 1000x999 is 999,000 cells but 7,996 units
        assert runner.invoke(main, [command, "1000", "999"]).exit_code == 0
        assert runner.invoke(main, [command, "50", "50"], env={"QUADRES_MAX_CELLS": "400"}).exit_code == 0
        result = runner.invoke(main, [command, "50", "51"], env={"QUADRES_MAX_CELLS": "400"})
        assert result.exit_code == 2
        assert "50x51 (404 work units for at most 99 bounces) exceeds the safety limit of 400" in result.output


def assert_unwritable_out(runner, args, tmp_path):
    """--out into a missing directory is a usage error naming the path, with no traceback."""
    target = tmp_path / "missing" / "x.txt"
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert result.exit_code == 2
    assert f"cannot write --out {target}" in result.output
    assert "Traceback" not in result.output and isinstance(result.exception, SystemExit)
    assert not target.parent.exists()


class TestSymbol:
    def test_plain(self, runner):
        result = runner.invoke(main, ["symbol", "6", "9"])
        assert result.exit_code == 0
        assert "(6|9) = 0" in result.output

    def test_verify_agreement(self, runner):
        result = runner.invoke(main, ["symbol", "5", "7", "--verify"])
        assert result.exit_code == 0
        assert "verdict: OK" in result.output
        for oracle in ("euler", "jacobi", "zolotarev"):
            assert oracle in result.output

    def test_verify_even_denominator(self, runner):
        result, payload = invoke_json(runner, ["symbol", "5", "8", "--verify", "--json"])
        assert result.exit_code == 0
        assert_envelope(payload, "symbol")
        assert payload["result"]["value"] == 1
        names = {c["name"] for c in payload["checks"]}
        assert names == {"zolotarev"}  # no Euler or Jacobi column for even n
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_json_result_fields(self, runner):
        result, payload = invoke_json(runner, ["symbol", "5", "7", "--json"])
        assert result.exit_code == 0
        assert payload["result"]["value"] == -1
        assert payload["result"]["negative_bounces"] == 1
        assert payload["result"]["base_bounces"] == [[4, -1], [6, 1], [2, 1]]

    def test_bad_args_exit_2(self, runner):
        assert runner.invoke(main, ["symbol", "-3", "7"]).exit_code == 2

    @pytest.mark.parametrize("args, name, value", [
        (["-3", "7"], "m", "-3"), (["--", "-3", "7"], "m", "-3"), (["--verify", "-3", "7"], "m", "-3"),
        (["3", "-7"], "n", "-7"), (["--", "3", str(-10**31)], "n", str(-10**31)),
    ])
    def test_negative_side_is_read_as_a_number(self, runner, args, name, value):
        # no option looks like a negative number, so -3 is a side, with `--` before it or without
        result = runner.invoke(main, ["symbol", *args])
        assert result.exit_code == 2 and result.stdout == ""
        assert f"Error: argument {name}: must be >= 1, got {value}\n" in result.stderr

    @pytest.mark.parametrize("m, n, result", [
        (5, 7, {"value": -1, "negative_bounces": 1, "base_bounces": [[4, -1], [6, 1], [2, 1]]}),
        (5, 8, {"value": 1, "negative_bounces": 2, "base_bounces": [[6, -1], [4, 1], [2, -1]]}),
        (6, 9, {"value": 0, "negative_bounces": 0, "base_bounces": []}),
        (1, 1, {"value": 1, "negative_bounces": 0, "base_bounces": []}),
    ])
    def test_json_payload(self, runner, m, n, result):
        out = runner.invoke(main, ["symbol", str(m), str(n), "--json"])
        assert out.exit_code == 0
        assert json.loads(out.output) == {
            "command": "symbol",
            "inputs": {"m": m, "n": n, "flags": {"verify": False, "json": True}},
            "result": result,
            "checks": [],
        }

    def test_size_limit_counts_n_alone(self, runner):
        # the --verify oracles factor n by up to isqrt(n) trial divisions, whatever m is: 32 to a work unit
        env = {"QUADRES_MAX_CELLS": "100"}
        assert runner.invoke(main, ["symbol", "1000", "7", "--verify"], env=env).exit_code == 0
        assert runner.invoke(main, ["symbol", "3", "10239999", "--verify"], env=env).exit_code == 0  # isqrt 3199
        result = runner.invoke(main, ["symbol", "3", "10240000", "--verify"], env=env)
        assert result.exit_code == 2
        assert "--verify on n=10240000 (101 work units) exceeds the safety limit of 100 (override" in result.output

    def test_verify_one_unit_past_the_cap_exits_2_fast(self, runner):
        n = (32 * DEFAULT_MAX_CELLS) ** 2  # 1 + isqrt(n) // 32 is the cap plus one
        start = time.perf_counter()
        result = runner.invoke(main, ["symbol", "3", str(n), "--verify"])
        assert result.exit_code == 2 and time.perf_counter() - start < 0.5
        assert f"({DEFAULT_MAX_CELLS + 1} work units) exceeds the safety limit of {DEFAULT_MAX_CELLS}" in result.output

    def test_verify_near_10_12(self, runner):
        result, payload = invoke_json(runner, ["symbol", "3", "1000000000039", "--verify", "--json"])
        assert result.exit_code == 0  # 31,251 work units, within the default cap
        assert [(c["name"], c["status"]) for c in payload["checks"]] == [
            ("euler", "pass"), ("jacobi", "pass"), ("zolotarev", "pass")]
        assert payload["result"]["value"] == -1 and payload["result"]["base_bounces_omitted"] is True

    def test_verify_proves_n_prime_once(self, runner, monkeypatch):
        """The CLI's primality proof is the only one: the Euler oracle takes its answer on."""
        from quadres import oracles

        calls, real = [], oracles.is_odd_prime
        monkeypatch.setattr(oracles, "is_odd_prime", lambda n: calls.append(n) or real(n))
        result = runner.invoke(main, ["symbol", "3", "1000000000039", "--verify"])
        assert result.exit_code == 0 and "euler: -1 [pass]" in result.output
        assert calls == [1000000000039]

    def test_verify_beyond_exact_primality_exit_2(self, runner):
        n = 33 * 10**23 + 1  # odd, and within an overridden cap: isqrt(n) is about 1.8e12
        result = runner.invoke(main, ["symbol", "3", str(n), "--verify"], env={"QUADRES_MAX_CELLS": str(10**13)})
        assert result.exit_code == 2
        assert "primality is proven exact only below 3.3e24" in result.output

    def test_value_only_above_the_limit(self, runner):
        result, payload = invoke_json(runner, ["symbol", "3", "1000003", "--json"])
        assert result.exit_code == 0
        assert payload["result"]["value"] == jacobi_symbol(3, 1000003) == -1
        assert payload["result"]["base_bounces"] == [] and payload["result"]["base_bounces_omitted"] is True
        assert (-1) ** payload["result"]["negative_bounces"] == -1
        text = runner.invoke(main, ["symbol", "3", "1000003"])
        assert text.exit_code == 0
        assert "(3|1000003) = -1" in text.output
        assert "(bounce list omitted: n=1000003 exceeds the limit of 250000 on n)" in text.output  # n bounds the list

    @pytest.mark.parametrize("m, n", [(5, 101), (2, 101), (7, 150), (101, 102), (6, 102), (3, 999)])
    def test_value_only_count_matches_the_bounce_walk(self, runner, m, n):
        # both branches take the value from the halving descent and the count from floor sums; the traced path's
        # bounces must agree
        coprime = math.gcd(m, n) == 1
        bounces = [[x, s] for x, s, _ in ref_base_bounces(trace_path(m, n))] if coprime else []
        negatives = sum(s < 0 for _, s in bounces)
        value = (-1) ** negatives if coprime else 0
        result, payload = invoke_json(runner, ["symbol", str(m), str(n), "--json"],
                                      env={"QUADRES_MAX_CELLS": "100"})
        assert result.exit_code == 0
        assert payload["result"] == {"value": value, "negative_bounces": negatives,
                                     "base_bounces": [], "base_bounces_omitted": True}
        result, payload = invoke_json(runner, ["symbol", str(m), str(n), "--json"])
        assert result.exit_code == 0
        assert payload["result"] == {"value": value, "negative_bounces": negatives, "base_bounces": bounces}


class TestSolve:
    def test_bottom_row_first_figure(self, runner):
        result, payload = invoke_json(runner, ["solve", "5", "7", "--bottom-row", "--json"])
        assert result.exit_code == 0
        assert_envelope(payload, "solve")
        assert payload["result"]["checkers"] == [
            [0, 2], [1, 1], [1, 3], [2, 2], [4, 0], [4, 2], [5, 3],
        ]
        assert payload["result"]["count"] == 7
        assert payload["result"]["symbol"] == -1

    def test_both_final_figure(self, runner):
        result, payload = invoke_json(runner, ["solve", "7", "11", "--both", "--json"])
        assert result.exit_code == 0
        assert payload["result"]["count"] == 15

    def test_left_column(self, runner):
        result, payload = invoke_json(runner, ["solve", "7", "11", "--left-column", "--json"])
        assert result.exit_code == 0
        # (11|7) = (4|7) = +1, so the count is even
        assert payload["result"]["count"] % 2 == 0
        assert payload["result"]["symbol"] == 1

    def test_kernel(self, runner):
        result, payload = invoke_json(runner, ["solve", "6", "9", "--kernel", "--json"])
        assert result.exit_code == 0
        assert payload["result"]["count"] == 12

    def test_size_limit_names_the_board_cells(self, runner):
        result = runner.invoke(main, ["solve", "30", "31", "--bottom-row"], env={"QUADRES_MAX_CELLS": "100"})
        assert result.exit_code == 2
        assert "30x31 (930 cells) exceeds the safety limit of 100 (override with QUADRES_MAX_CELLS)" in result.output

    def test_pebble_with_another_puzzle_kind_exit_2(self, runner):
        result = runner.invoke(main, ["solve", "5", "7", "--bottom-row", "--pebble", "0", "1"])
        assert result.exit_code == 2
        assert "--pebble cannot be combined" in result.output

    def test_kernel_on_coprime_board_fails(self, runner):
        result = runner.invoke(main, ["solve", "5", "7", "--kernel"])
        assert result.exit_code == 1

    def test_gcd_conflict_exit_1_with_witness(self, runner):
        result = runner.invoke(main, ["solve", "6", "9", "--bottom-row"])
        assert result.exit_code == 1
        assert "no unique solution" in result.output
        assert "kernel witness" in result.output

    def test_single_pebble(self, runner):
        result, payload = invoke_json(
            runner, ["solve", "5", "7", "--pebble", "3", "0", "--json"]
        )
        assert result.exit_code == 0
        sol = {tuple(sq) for sq in payload["result"]["checkers"]}
        assert len(sol) == payload["result"]["count"]

    def test_repeated_pebble_is_one_pebble(self, runner):
        # pebbles are a set of squares, so a repeat does not cancel as it would under mod-2 addition
        once = ["solve", "3", "5", "--pebble", "1", "0"]
        twice = [*once, "--pebble", "1", "0"]
        assert runner.invoke(main, twice).output == runner.invoke(main, once).output == (
            "checkers (2): (2,0) (3,1)\ncount s = 2, (-1)^s = +1\n")
        (_, repeated), (_, single) = (invoke_json(runner, [*args, "--json"]) for args in (twice, once))
        assert repeated["result"] == single["result"] and repeated["inputs"]["flags"]["pebbles"] == [[1, 0], [1, 0]]

    def test_pebble_on_dark_square_exit_2(self, runner):
        assert runner.invoke(main, ["solve", "5", "7", "--pebble", "0", "0"]).exit_code == 2

    def test_missing_puzzle_exit_2(self, runner):
        assert runner.invoke(main, ["solve", "5", "7"]).exit_code == 2

    def test_render_ascii_attached(self, runner):
        result = runner.invoke(main, ["solve", "5", "7", "--bottom-row", "--render", "ascii"])
        assert result.exit_code == 0
        assert "#o#oOo" in result.output

    def test_render_svg_attached(self, runner):
        result, payload = invoke_json(
            runner, ["solve", "5", "7", "--bottom-row", "--render", "svg", "--json"]
        )
        assert result.exit_code == 0
        assert payload["result"]["render"].startswith("<svg")


class TestVerify:
    def test_single_family(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "20", "--checks", "reciprocity"])
        assert result.exit_code == 0
        assert "reciprocity" in result.output
        assert "all checks passed" in result.output

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_out_into_missing_directory_exit_2(self, runner, tmp_path, as_json):
        assert_unwritable_out(runner, ["verify", "--checks", "kernel", "--max-n", "4", *as_json], tmp_path)

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_out_is_checked_before_any_family_runs(self, runner, tmp_path, monkeypatch, as_json):
        from quadres import sweeps

        ran = []

        def families_must_not_run(names, *_):
            ran.extend(names)
            raise AssertionError(f"{names} ran before --out was checked")

        monkeypatch.setattr(sweeps, "run_families", families_must_not_run)
        assert_unwritable_out(runner, ["verify", "--checks", "kernel,tilings", *as_json], tmp_path)
        assert ran == []

    def test_kernel_family(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "14", "--checks", "kernel"])
        assert result.exit_code == 0
        assert "failures    0" in result.output

    def test_tilings_family(self, runner):
        for bounds in [[], ["--max-n", "6"]]:  # the default
            result = runner.invoke(main, ["verify", *bounds, "--checks", "tilings"])
            assert result.exit_code == 0, result.output
            assert "failures    0" in result.output
        # the largest admitted square runs every board of its grid, none dropped
        result, payload = invoke_json(runner, ["verify", "--checks", "tilings", "--max-n", "13", "--json"])
        witness = payload["checks"][0]["witness"]
        assert result.exit_code == 0
        assert (witness["cells"], witness["checked"], witness["failure_count"]) == (169, 169, 0)

    @pytest.mark.parametrize("bound, work", [(14, 250485), (17, 253568), (60, 251499), (500, 250612),
                                             (10**9, 250277)])
    def test_tilings_cap_counts_the_work_of_every_board(self, runner, bound, work):
        # the grid's M*N (196 at 14, exactly the cap at 500) hides the work: 14x14's last board alone is 2^14
        # profiles a cell; the count stops at the first board past the cap, so the figure is a lower bound
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--checks", "tilings", "--max-n", str(bound)])
        assert time.perf_counter() - start < 0.5  # refused before any board is counted
        assert result.exit_code == 2
        want = f"tilings sweep grid {bound}x{bound} (at least {work} work units) exceeds the safety limit of 250000"
        assert want in result.output

    @pytest.mark.parametrize("max_m, max_n, work", [(1, 3161, 250277), (2, 1413, 250277)])
    def test_tilings_cap_counts_the_work_of_narrow_boards(self, runner, max_m, max_n, work):
        # the profiles alone cost these about 250,000 units over 40, yet each grid takes 4-5 s: a cell's dict
        # and its kernel dimension cost 8 units of 0.1 us a cell at any width
        result = runner.invoke(main, ["verify", "--checks", "tilings", "--max-m", str(max_m), "--max-n", str(max_n)])
        assert result.exit_code == 2
        assert f"tilings sweep grid {max_m}x{max_n} (at least {work} work units) exceeds" in result.output

    def test_json_schema(self, runner):
        result, payload = invoke_json(
            runner, ["verify", "--max-n", "12", "--checks", "euler,supplements", "--json"]
        )
        assert result.exit_code == 0
        assert_envelope(payload, "verify")
        assert [c["name"] for c in payload["checks"]] == ["euler", "supplements"]
        for check in payload["checks"]:
            assert check["status"] == "pass"
            assert check["witness"]["failures"] == []
            assert check["witness"]["failure_count"] == 0
            assert check["witness"]["checked"] > 0
            assert check["witness"]["cells"] > 0
            assert check["witness"]["work_units"] == FAMILIES[check["name"]].work(12, 12, 10**9)
            assert check["witness"]["elapsed_s"] >= 0
            assert check["witness"]["checks_per_s"] >= 0
            assert check["witness"]["reproduce"] == f"quadres verify --checks {check['name']} --max-m 12 --max-n 12"
        assert payload["result"]["all_ok"] is True

    def test_text_line_reports_elapsed_time(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "12", "--checks", "supplements"])
        assert result.exit_code == 0
        assert " ms " in result.output and " checks/s  [PASS]" in result.output
        assert "cells      5  checked      10" in result.output
        assert "failures    0  units      10  " in result.output  # 2 units a denominator, 3 to 11

    def test_kernel_cap_counts_board_squares(self, runner):
        # a cell is priced by its board's sides, not counted as one: 144x144 is the first square past the cap
        result = runner.invoke(main, ["verify", "--max-n", "144", "--checks", "kernel"])
        assert result.exit_code == 2
        assert "(at least 250018 work units) exceeds the safety limit" in result.output

    @pytest.mark.parametrize("max_m, max_n", [("1", "1000000000"), ("1000000000", "1")])
    def test_kernel_cap_counts_a_side_that_makes_no_board(self, runner, max_m, max_n):
        # a side below 2 makes no board, and the grid does not walk the other side's range to find that out
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--checks", "kernel", "--max-m", max_m, "--max-n", max_n])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 0, result.output
        assert "kernel               cells      0  checked       0" in result.output

    def test_bound_one_runs_every_family_and_passes(self, runner):
        # 1 admits no denominator or board for seven families, and checkers_bridge's one cell, 1x1, has no bounce
        result, payload = invoke_json(runner, ["verify", "--max-n", "1", "--json"])
        assert result.exit_code == 0 and payload["result"] == {"families": 12, "all_ok": True}
        witnesses = {c["name"]: c["witness"] for c in payload["checks"]}
        assert {name for name, w in witnesses.items() if w["cells"] == 0} == {
            "euler", "supplements", "almost_reciprocity", "mod4", "reciprocity", "kernel", "superposition"}
        assert {name for name, w in witnesses.items() if w["checked"] == 0} == {
            "euler", "supplements", "almost_reciprocity", "mod4", "reciprocity", "kernel", "superposition",
            "checkers_bridge"}

    def test_families_that_check_nothing_pass(self, runner):
        # a sweep with no cell has no failure, so it passes; the cells and checked columns show it ran nothing
        result = runner.invoke(main, ["verify", "--checks", "kernel,superposition", "--max-n", "1"])
        assert result.exit_code == 0
        assert result.output.count("cells      0  checked       0  failures    0") == 2
        assert result.output.endswith("all checks passed\n")

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_defaults_pass_the_default_cap(self, name):
        family = FAMILIES[name]
        assert family.work(*family.bounds(None, None), DEFAULT_MAX_CELLS) <= DEFAULT_MAX_CELLS

    @pytest.mark.parametrize("max_m, max_n", [(1, 10**9), (10**9, 1), (2, 10**9), (10**9, 2), (10**9, 10**9)])
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_refuses_or_builds_a_huge_bound_at_once(self, name, max_m, max_n):
        # a bound that leaves the grid empty or thin must not hide the other one from the cap, nor make the
        # count walk a huge range: the count stops past the cap, and a grid never walks an empty inner range
        start = time.perf_counter()
        FAMILIES[name].work(max_m, max_n, DEFAULT_MAX_CELLS)
        assert time.perf_counter() - start < 0.5

    def test_repeated_family_runs_once(self, runner):
        result, payload = invoke_json(
            runner, ["verify", "--max-n", "4", "--checks", "kernel, tilings,kernel", "--json"]
        )
        assert result.exit_code == 0
        assert payload["result"]["families"] == 2
        assert [c["name"] for c in payload["checks"]] == ["kernel", "tilings"]
        assert payload["inputs"]["flags"]["checks"] == ["kernel", "tilings"]
        _, payload = invoke_json(runner, ["verify", "--max-n", "4", "--checks", "kernel,kernel", "--json"])
        assert payload["result"]["families"] == 1

    def test_unknown_family_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "--checks", "nonsense"])
        assert result.exit_code == 2
        assert "unknown check families: nonsense" in result.output
        assert all(name in result.output.split("known: ", 1)[1] for name in FAMILIES)

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_checks_naming_no_family_exit_2(self, runner, checks):
        result = runner.invoke(main, ["verify", "--checks", checks])
        assert result.exit_code == 2
        assert "names no family" in result.output
        assert "all checks passed" not in result.output

    def test_cap_counts_no_m_where_the_grid_reads_none(self, runner):
        # euler runs m <= 2n, almost_reciprocity m < n and supplements no m, whatever --max-m says
        result = runner.invoke(
            main, ["verify", "--checks", "supplements,euler,almost_reciprocity", "--max-m", "100000", "--max-n", "21"]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("bound", [150, 500])
    def test_bridge_cap_counts_its_path_walks(self, runner, bound):
        # each checkers_bridge cell walks its whole path: about cubic work, which the grid's bound*bound hides
        result = runner.invoke(main, ["verify", "--checks", "checkers_bridge", "--max-n", str(bound)])
        assert result.exit_code == 2
        work = FAMILIES["checkers_bridge"].work(bound, bound, DEFAULT_MAX_CELLS)
        assert work in range(DEFAULT_MAX_CELLS + 1, DEFAULT_MAX_CELLS + 2000)  # the first cell past the cap
        assert f"grid {bound}x{bound} (at least {work} work units) exceeds the safety limit" in result.output

    @pytest.mark.parametrize("name", ["checkers_symbol", "superposition"])
    def test_layout_cap_counts_one_layout_a_cell(self, runner, name):
        # each cell lays a grid of about m*(m+n) bits, which the grid's bound*bound hides
        work = {"checkers_symbol": 254260, "superposition": 250047}[name]  # stopped at the first cell past the cap
        assert FAMILIES[name].work(500, 500, DEFAULT_MAX_CELLS) == work > DEFAULT_MAX_CELLS >= 500 * 500
        result = runner.invoke(main, ["verify", "--checks", name, "--max-n", "500"])
        assert result.exit_code == 2
        assert f"{name} sweep grid 500x500 (at least {work} work units) exceeds the safety limit of 250000" in result.output

    def test_oversized_sweep_exit_2(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "600", "--max-m", "600"])
        assert result.exit_code == 2

    def test_max_cells_override(self, runner):
        result = runner.invoke(
            main, ["verify", "--max-n", "600", "--max-m", "600"],
            env={"QUADRES_MAX_CELLS": "100"},
        )
        assert result.exit_code == 2
        result = runner.invoke(
            main, ["trace", "30", "30"], env={"QUADRES_MAX_CELLS": "100"}
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", [["symbol", "3", "7"], ["trace", "1", "1"]], ids=["symbol", "trace"])
    @pytest.mark.parametrize("raw", ["abc", "0", "-5"])
    def test_max_cells_must_be_a_positive_integer(self, runner, command, raw):
        result = runner.invoke(main, command, env={"QUADRES_MAX_CELLS": raw})
        assert result.exit_code == 2
        assert f"QUADRES_MAX_CELLS must be a positive integer, got '{raw}'" in result.output

    @pytest.mark.parametrize("bound", ["--max-m", "--max-n"])
    def test_max_cells_checks_the_default_side(self, runner, bound):
        # the bound left out takes the family default, and the cap counts it
        result = runner.invoke(main, ["verify", bound, "100"], env={"QUADRES_MAX_CELLS": "10"})
        assert result.exit_code == 2
        assert "safety limit of 10 (override with QUADRES_MAX_CELLS)" in result.output

    @pytest.mark.parametrize("bounds", [[], ["--max-m", "21", "--max-n", "13"]])
    def test_parallel_matches_serial(self, runner, bounds):
        """One pool runs every family: its JSON is the serial run's but for the timing fields.

        At 21x13 tilings is left out: its 273 boards cost 3.5 times the cap and take 3 s serially.
        """
        from quadres.sweeps import FAMILIES

        names = [name for name in FAMILIES if bounds == [] or name != "tilings"]
        command = ["verify", *bounds, "--checks", ",".join(names), "--json"]
        serial, parallel = runner.invoke(main, command), runner.invoke(main, [*command, "--parallelism", "2"])
        assert serial.exit_code == parallel.exit_code == 0
        serial_checks, parallel_checks = (json.loads(r.output)["checks"] for r in (serial, parallel))
        for check in serial_checks + parallel_checks:
            del check["witness"]["elapsed_s"]  # wall time and the rate read from it, the fields that may differ
            del check["witness"]["checks_per_s"]
        assert [check["name"] for check in serial_checks] == names and serial_checks == parallel_checks

    @pytest.mark.parametrize("args", [[], ["--max-n", "9"], ["--max-m", "7", "--max-n", "11"]])
    def test_witness_command_reproduces_it(self, runner, monkeypatch, args):
        """Every family's `reproduce` reruns its grid: the same cells, checks, failures and work units."""
        from quadres import sweeps

        real = sweeps.ck.kernel_dimension
        monkeypatch.setattr(sweeps.ck, "kernel_dimension", lambda m, n: real(m, n) + ((m, n) == (6, 9)))
        _, payload = invoke_json(runner, ["verify", "--json", *args])
        # every kernel grid holds 6x9; tilings asks only whether the dimension is 0, which the patch leaves as it is
        assert [c["status"] for c in payload["checks"]] == ["fail" if name == "kernel" else "pass" for name in FAMILIES]
        for check in payload["checks"]:
            command = shlex.split(check["witness"]["reproduce"])
            assert command[:2] == ["quadres", "verify"]
            _, again = invoke_json(runner, [*command[1:], "--json"])
            (rerun,) = again["checks"]
            for witness in (check["witness"], rerun["witness"]):
                del witness["elapsed_s"], witness["checks_per_s"]
            assert rerun == check


class TestRender:
    def test_svg_stdout(self, runner):
        result = runner.invoke(main, ["render", "5", "7"])
        assert result.exit_code == 0
        assert result.output.startswith("<svg")
        assert "</svg>" in result.output

    def test_svg_extension_appended(self, runner, tmp_path):
        target = tmp_path / "figure"
        result = runner.invoke(main, ["render", "5", "7", "--out", str(target)])
        assert result.exit_code == 0
        assert (tmp_path / "figure.svg").exists()

    def test_split_missing_bounce_exit_2(self, runner):
        assert runner.invoke(main, ["render", "5", "7", "--split-k", "5"]).exit_code == 2

    def test_json_envelope(self, runner):
        result, payload = invoke_json(runner, ["render", "3", "4", "--json"])
        assert result.exit_code == 0
        assert_envelope(payload, "render")
        assert payload["result"]["svg"].startswith("<svg")


class TestTextMatchesJson:
    """The text and --json output of one invocation report the same result."""

    @staticmethod
    def both(runner, args, env=None):
        text = runner.invoke(main, args, env=env)
        data = runner.invoke(main, [*args, "--json"], env=env)
        assert text.exit_code == data.exit_code
        return text.output.splitlines(), json.loads(data.output)

    @pytest.mark.parametrize("args", [["5", "7"], ["6", "9"], ["2", "3"], ["1", "1"]])
    def test_trace(self, runner, args):
        lines, payload = self.both(runner, ["trace", *args])
        rows = [line.split() for line in lines[1:-1]] if payload["result"]["bounces"] else []
        assert rows == [[str(b["t"]), str(b["x"]), str(b["y"]), b["wall"], "+" if b["sign"] > 0 else "-"]
                        for b in payload["result"]["bounces"]]
        assert lines[-1] == "end ({}, {}) at t={}".format(*payload["result"]["end"], payload["result"]["length"])

    @pytest.mark.parametrize("args, env", [
        (["5", "7"], None), (["5", "8", "--verify"], None), (["6", "9"], None), (["1", "1"], None),
        (["3", "1000003"], None), (["6", "101"], {"QUADRES_MAX_CELLS": "100"}),
    ])
    def test_symbol(self, runner, args, env):
        lines, payload = self.both(runner, ["symbol", *args], env)
        result = payload["result"]
        value = lines[0].split(" = ")[1]
        assert int(value) == result["value"]
        signs = ["+" if s > 0 else "-" for _, s in result["base_bounces"]]
        if result["value"] == 0:
            assert result["negative_bounces"] == 0 and signs == []
        elif result.get("base_bounces_omitted"):
            assert lines[1].startswith(f"negative bounces: {result['negative_bounces']} (bounce list omitted")
        else:
            assert lines[1] == "base-bounce signs: " + (" ".join(signs) or "(no bounces)")
            assert signs.count("-") == result["negative_bounces"]

    @pytest.mark.parametrize("args", [
        ["5", "7", "--bottom-row"], ["7", "11", "--both"], ["7", "11", "--left-column"],
        ["6", "9", "--kernel"], ["5", "7", "--pebble", "3", "0"],
    ])
    def test_solve(self, runner, args):
        lines, payload = self.both(runner, ["solve", *args])
        result = payload["result"]
        checkers = " ".join(f"({c},{r})" for c, r in result["checkers"])
        assert lines[:2] == [f"checkers ({result['count']}): {checkers}",
                             f"count s = {result['count']}, (-1)^s = {result['symbol']:+d}"]

    @pytest.mark.parametrize("args", [["--max-n", "12", "--checks", "euler,supplements"],
                                      ["--max-n", "6", "--checks", "kernel,tilings,superposition"]])
    def test_verify(self, runner, args):
        lines, payload = self.both(runner, ["verify", *args])
        assert len(lines) == len(payload["checks"]) + 1
        for line, check in zip(lines, payload["checks"]):
            words = line.split()
            witness = check["witness"]
            assert words[0] == check["name"]
            assert [int(words[i]) for i in (2, 4, 6)] == [witness["cells"], witness["checked"],
                                                           witness["failure_count"]]
            assert words[-1] == f"[{check['status'].upper()}]"


def _run_and_list_modules(*commands: list[str]) -> tuple[list[str], set[str]]:
    """Runs the commands through main() in one fresh interpreter: their output lines, then the quadres modules,
    click and the process pool it loaded (none when no command is given)."""
    import quadres

    env = {**os.environ, "PYTHONPATH": str(Path(quadres.__file__).parent.parent)}
    code = "import sys, quadres.cli\n" + "".join(f"quadres.cli.main({c!r})\n" for c in commands)
    code += "print(*sorted(m for m in sys.modules if m.startswith(('quadres', 'click', 'concurrent.futures.process'))))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], set(lines[-1].split())


def test_cli_import_leaves_out_the_process_pool():
    """Start-up loads no leg, no process pool and no click; each command imports the legs it runs.

    Only `verify --parallelism` above 1 needs multiprocessing, and `symbol` runs no checkers,
    rendering, tiling count or sweep, and no oracle unless --verify asks for them.
    """
    assert _run_and_list_modules() == ([], {"quadres", "quadres.cli"})
    output, modules = _run_and_list_modules(["symbol", "3", "5"])
    assert output == ["(3|5) = -1", "base-bounce signs: - +"]
    assert "quadres.symbols" in modules and "click" not in modules
    assert not modules & {"quadres.checkers", "quadres.oracles", "quadres.render", "quadres.tilings",
                          "quadres.sweeps"}
    output, modules = _run_and_list_modules(["symbol", "3", "5", "--verify"])
    assert output[-1] == "verdict: OK" and "quadres.oracles" in modules and "quadres.checkers" not in modules


def test_render_loads_no_checkers():
    """`render` draws a path without the checkers leg; `solve --render` then draws boards with the same module."""
    output, modules = _run_and_list_modules(["render", "3", "5"])
    assert output[0].startswith("<svg") and output[-1] == "</svg>"
    assert "quadres.render" in modules and "quadres.checkers" not in modules
    solve = ["solve", "5", "7", "--bottom-row", "--render"]
    output, modules = _run_and_list_modules(["render", "3", "5"], [*solve, "ascii"], [*solve, "svg"])
    assert "#o#oOo" in output and output.count("</svg>") == 2 and "quadres.checkers" in modules


def test_module_entry_point_runs_the_cli(runner):
    """`python -m quadres.cli` reaches main(): the same output and exit code as the in-process runner."""
    import quadres

    env = {**os.environ, "PYTHONPATH": str(Path(quadres.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "quadres.cli", "symbol", "3", "7", "--json"], env=env,
                          capture_output=True, text=True, timeout=60)
    result = runner.invoke(main, ["symbol", "3", "7", "--json"])
    assert proc.returncode == result.exit_code == 0, proc.stderr
    assert proc.stdout == result.output and json.loads(proc.stdout)["result"]["value"] == -1


def test_closed_stdout_ends_quietly():
    """A reader that stops early, as `| head -1` does, ends the command with exit 1 and no traceback."""
    import quadres

    env = {**os.environ, "PYTHONPATH": str(Path(quadres.__file__).parent.parent)}
    with subprocess.Popen([sys.executable, "-m", "quadres.cli", "trace", "20000", "20001"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:  # a 1.2 MB table
        assert proc.stdout.readline().split() == ["t", "x", "y", "wall", "sign"]
        proc.stdout.close()
        assert proc.stderr.read() == "" and proc.wait(timeout=60) == 1


@pytest.mark.parametrize("args", [["trace", "3", "5"], ["symbol", "3", "5"], ["solve", "5", "7", "--bottom-row"],
                                  ["verify", "--checks", "kernel", "--max-n", "4"], ["render", "3", "5"]],
                         ids=lambda args: args[0])
def test_out_at_a_directory_exit_2(runner, tmp_path, args):
    """--out naming a directory is refused before any work, and before render would append .svg to it."""
    target = tmp_path / "figures"
    target.mkdir()
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert result.exit_code == 2 and result.stdout == ""
    assert f"Error: --out {target} is a directory" in result.stderr
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_version_text(runner):
    result = runner.invoke(main, ["--version"])
    assert (result.exit_code, result.output) == (0, f"quadres, version {__version__}\n")


def test_no_command_exit_2(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2 and result.stdout == ""
    assert "Error: the following arguments are required: COMMAND" in result.stderr


@pytest.mark.parametrize("args", [["symbol", "3", "7", "--verif"], ["solve", "5", "7", "--bottom"],
                                  ["verify", "--check", "kernel"], ["render", "3", "5", "--split", "1"],
                                  ["trace", "3", "5", "--jso"]])
def test_abbreviated_option_exit_2(runner, args):
    """An option is named in full: --verif is not read as --verify.  The refusal shows that command's usage."""
    result = runner.invoke(main, args)
    abbreviated = next(arg for arg in args if arg.startswith("--"))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith(f"usage: quadres {args[0]} [--help] [--json] [--out FILE]")
    assert f"\nError: unrecognized arguments: {abbreviated}" in result.stderr


def test_unknown_option_before_the_command_shows_the_top_usage(runner):
    result = runner.invoke(main, ["--verif", "symbol", "3", "7"])
    assert result.exit_code == 2
    assert result.stderr == "usage: quadres [--help] [--version] COMMAND ...\nError: unrecognized arguments: --verif\n"


GOLDEN = Path(__file__).parent / "golden"
# each transcript's file under tests/golden and the command it records; `python tests/test_cli.py` rewrites them
GOLDEN_COMMANDS = {"verify.json": ["verify", "--json"],
                   "symbol_3_1000000000039.json": ["symbol", "3", "1000000000039", "--verify", "--json"],
                   "solve_6_9_kernel.json": ["solve", "6", "9", "--kernel", "--json"],
                   "trace_3_5.json": ["trace", "3", "5", "--json"],
                   "render_3_5.svg": ["render", "3", "5"]}


def _transcript(name: str) -> str:
    """The command's output, a JSON one with its timings (elapsed_s, checks_per_s) taken out."""
    result = CliRunner().invoke(main, GOLDEN_COMMANDS[name])
    assert result.exit_code == 0, result.output
    if not name.endswith(".json"):
        return result.output

    def untimed(node):
        if isinstance(node, dict):
            return {k: untimed(v) for k, v in node.items() if k not in ("elapsed_s", "checks_per_s")}
        return [untimed(v) for v in node] if isinstance(node, list) else node

    return json.dumps(untimed(json.loads(result.output)), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_output_matches_its_golden_transcript(name):
    assert _transcript(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in GOLDEN_COMMANDS:
        (GOLDEN / name).write_text(_transcript(name), encoding="utf-8")
