"""The library stays within its size budget: src/quadres holds at most 1,490 lines."""

from pathlib import Path

import quadres

MAX_SOURCE_LINES = 1490


def test_source_lines_within_budget():
    files = sorted(Path(quadres.__file__).parent.glob("*.py"))
    counts = {f.name: len(f.read_text(encoding="utf-8").splitlines()) for f in files}
    total = sum(counts.values())
    assert total <= MAX_SOURCE_LINES, f"src/quadres has {total} lines, over {MAX_SOURCE_LINES}: {counts}"
