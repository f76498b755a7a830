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
from click.testing import CliRunner

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
        # both branches take the value and count from floor sums; the traced path's bounces must agree
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
        from quadres import cli

        ran = []

        def family_must_not_run(name, **_):
            ran.append(name)
            raise AssertionError(f"{name} ran before --out was checked")

        monkeypatch.setattr(cli, "run_family", family_must_not_run)
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
            assert check["witness"]["elapsed_s"] >= 0
            assert check["witness"]["checks_per_s"] >= 0
            assert check["witness"]["reproduce"] == f"quadres verify --checks {check['name']} --max-m 12 --max-n 12"
        assert payload["result"]["all_ok"] is True

    def test_text_line_reports_elapsed_time(self, runner):
        result = runner.invoke(main, ["verify", "--max-n", "12", "--checks", "supplements"])
        assert result.exit_code == 0
        assert " ms " in result.output and " checks/s  [PASS]" in result.output
        assert "cells      5  checked      10" in result.output

    def test_kernel_cap_counts_board_squares(self, runner):
        # a cell is priced by its board's sides, not counted as one: 147x147 is the first square past the cap
        result = runner.invoke(main, ["verify", "--max-n", "147", "--checks", "kernel"])
        assert result.exit_code == 2
        assert "(at least 250024 work units) exceeds the safety limit" in result.output

    @pytest.mark.parametrize("max_m, max_n", [("1", "1000000000"), ("1000000000", "1")])
    def test_kernel_cap_counts_a_side_that_makes_no_board(self, runner, max_m, max_n):
        # a side below 2 makes no board, and the grid does not walk the other side's range to find that out
        start = time.perf_counter()
        result = runner.invoke(main, ["verify", "--checks", "kernel", "--max-m", max_m, "--max-n", max_n])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 0, result.output
        assert "kernel               cells      0  checked       0" in result.output

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_defaults_pass_the_default_cap(self, name):
        family = FAMILIES[name]
        assert family.work(family.default_max_m, family.default_max_n, DEFAULT_MAX_CELLS) <= DEFAULT_MAX_CELLS

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
        assert runner.invoke(main, ["verify", "--checks", "nonsense"]).exit_code == 2

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

    def test_parallel_matches_serial(self, runner):
        serial = runner.invoke(main, ["verify", "--max-n", "14", "--checks", "kernel", "--json"])
        parallel = runner.invoke(
            main, ["verify", "--max-n", "14", "--checks", "kernel", "--parallelism", "3", "--json"]
        )
        assert serial.exit_code == parallel.exit_code == 0
        serial_checks, parallel_checks = (json.loads(r.output)["checks"] for r in (serial, parallel))
        for check in serial_checks + parallel_checks:
            del check["witness"]["elapsed_s"]  # wall time and the rate read from it, the fields that may differ
            del check["witness"]["checks_per_s"]
        assert serial_checks == parallel_checks

    @pytest.mark.parametrize("args", [[], ["--max-n", "9"], ["--max-m", "7", "--max-n", "11"]])
    def test_witness_command_reproduces_it(self, runner, monkeypatch, args):
        from quadres import sweeps

        real = sweeps.ck.kernel_dimension
        monkeypatch.setattr(sweeps.ck, "kernel_dimension", lambda m, n: real(m, n) + ((m, n) == (6, 9)))
        _, payload = invoke_json(runner, ["verify", "--checks", "kernel,euler,tilings", "--json", *args])
        assert [c["status"] for c in payload["checks"]] == ["fail", "pass", "pass"]  # every grid holds 6x9
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


def test_cli_import_leaves_out_the_process_pool():
    """Only `verify --parallelism` above 1 needs multiprocessing, so start-up does not load it."""
    import quadres

    code = "import sys, quadres.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(quadres.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_module_entry_point_runs_the_cli(runner):
    """`python -m quadres.cli` reaches main(): the same output and exit code as the CliRunner."""
    import quadres

    env = {**os.environ, "PYTHONPATH": str(Path(quadres.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "quadres.cli", "symbol", "3", "7", "--json"], env=env,
                          capture_output=True, text=True, timeout=60)
    result = runner.invoke(main, ["symbol", "3", "7", "--json"])
    assert proc.returncode == result.exit_code == 0, proc.stderr
    assert proc.stdout == result.output and json.loads(proc.stdout)["result"]["value"] == -1
