"""The CLI contract under random commands: exit codes 0, 1 or 2, the JSON envelope, and well-formed SVG.

Each example runs one command in-process with the runner in conftest.py.  Its integer arguments range from negatives
through 0 and 1 to 10^30, and QUADRES_MAX_CELLS stays at or below 20,000 units, about 80 ms of work, so that
every example the cap admits is short.  `--parallelism` is 1 or 2, so no example starts more than two workers.
"""

import json
import tempfile
import xml.dom.minidom
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CliRunner
from quadres.cli import main
from quadres.sweeps import FAMILIES

# an integer argument: a small board side or bound two times in three, else anywhere from -10^30 to 10^30
INTS = st.one_of(st.integers(1, 12), st.integers(-1, 40), st.integers(-10**30, 10**30)).map(str)
# a work cap of 0 (refused) to 20,000 units, counted down from 20,000 as hypothesis leans to the low end
MAX_CELLS = st.integers(0, 20_000).map(lambda v: str(20_000 - v))
SMALL = st.integers(-1, 8).map(str)  # a pebble's column or row, or render's --split-k
COLORS = st.sampled_from(["steelblue", "a&b", '"<q>"', "", "\x01"])


@st.composite
def commands(draw) -> list[str]:
    """A command, its options and its M N arguments, after `--` or not: a negative side is a number either way."""
    command = draw(st.sampled_from(["trace", "symbol", "solve", "verify", "render"]))
    if command == "verify":
        bounds = [a for flag in ("--max-m", "--max-n") if draw(st.booleans()) for a in (flag, draw(INTS))]
        names = draw(st.lists(st.sampled_from([*FAMILIES, "nosuch"]), min_size=1, max_size=3))
        checks = ["--checks", ",".join(names)] if draw(st.booleans()) else []
        return [command, *bounds, *checks, "--parallelism", str(draw(st.sampled_from([1, 2])))]
    options = []
    if command == "symbol" and draw(st.booleans()):
        options = ["--verify"]
    if command == "solve":
        kinds = draw(st.lists(st.sampled_from(["--bottom-row", "--left-column", "--both", "--kernel", "--pebble"]),
                              max_size=2))
        options = [a for kind in kinds for a in ((kind, draw(SMALL), draw(SMALL)) if kind == "--pebble" else (kind,))]
        options += draw(st.sampled_from([[], ["--render", "ascii"], ["--render", "svg"]]))
    if command == "render":
        options = ["--split-k", draw(SMALL)] if draw(st.booleans()) else []
        options += [draw(st.sampled_from(["--grid", "--no-grid"])), draw(st.sampled_from(["--signs", "--no-signs"])),
                    "--cell-px", draw(INTS), "--color-before", draw(COLORS), "--color-after", draw(COLORS)]
    return [command, *options, *draw(st.sampled_from([[], ["--"]])), draw(INTS), draw(INTS)]


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(args=commands(), as_json=st.booleans(), to_file=st.booleans(), max_cells=MAX_CELLS)
def test_every_command_keeps_the_contract(args, as_json, to_file, max_cells):
    """Exit 0, 1 or 2 and no other exception; exit 2 prints an error, and any other exit its promised output."""
    with tempfile.TemporaryDirectory() as tmp:
        flags = [*(["--json"] if as_json else []), *(["--out", str(Path(tmp) / "out")] if to_file else [])]
        result = CliRunner().invoke(main, [args[0], *flags, *args[1:]], env={"QUADRES_MAX_CELLS": max_cells})
        assert result.exit_code in (0, 1, 2), (result.exit_code, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
        if result.exit_code == 2:
            assert "Error: " in result.output
            return
        # the one file --out wrote: render names a text one out.svg
        text = next(Path(tmp).iterdir()).read_text(encoding="utf-8") if to_file else result.stdout
    if as_json:
        payload = json.loads(text)
        assert {"command", "inputs", "result", "checks"} <= set(payload) and payload["command"] == args[0]
        text = payload["result"].get("svg") or payload["result"].get("render") or ""
    assert "<svg" in text or args[0] != "render"
    if "<svg" in text:  # render's figure, or the board solve --render svg draws after its text lines
        xml.dom.minidom.parseString(text[text.index("<svg"):])
