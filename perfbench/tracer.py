"""In-memory span tracer for the benchmark's traced run.

`installed(tracer)` wraps every public function of the layer modules in
every `quadres` namespace that binds it (`checkers.crossings`,
`sweeps.crossings` and `quadres.crossings` are one function reached three
ways), plus the public methods of their classes, such as
`Mod2Matrix.solve`.  Each call records one span: name, parent id, start,
end and a few work counters.  Spans stay in a list until the run ends.

Per-square accessors are left unwrapped: `light_chase` calls
`Board.neighbors` once per square, and a span per call would measure the
tracer instead of the layer.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("sweeps", "symbols", "billiards", "checkers", "oracles", "tilings")
PER_SQUARE = frozenset({"Board.is_dark", "Board.in_bounds", "Board.neighbors", "Mod2Matrix.entry"})

# Work counters read from a call's arguments and result: span name -> ((key, fn), ...).
COUNTERS = {
    "billiards.trace_path": (("bounces", lambda args, out: len(out.bounces)),),
    "billiards.crossings": (("found", lambda args, out: len(out)),),
    "checkers.light_chase": (
        ("cells", lambda args, out: args[0].board.rows * args[0].board.cols),
        ("residual_nonempty", lambda args, out: int(bool(out[1].squares))),
    ),
    "symbols.billiard_symbol": (("bounces_walked", lambda args, out: len(out.base_bounces)),),
}

# Fields of one span record.
NAME, PARENT, START, END, COUNTS = range(5)


class Tracer:
    """Collects spans from the calls it wraps, in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, counters=()):
        spans, open_ids, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, open_ids[-1] if open_ids else -1, clock(), 0.0, None]
            open_ids.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                open_ids.pop()
            if counters:
                record[COUNTS] = _count(counters, args, out)
            return out

        return traced

    def wall_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed counters."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += own
            for key, value in (span[COUNTS] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span_id, s in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": s[PARENT], "name": s[NAME],
                                     "start": s[START], "end": s[END], "counts": s[COUNTS]}))
                fh.write("\n")


def _count(counters, args, out) -> dict[str, int]:
    counts = {}
    for key, fn in counters:
        try:
            counts[key] = fn(args, out)
        except (AttributeError, IndexError, TypeError):
            pass  # the call's shape changed; the counter reads nothing
    return counts


@contextmanager
def installed(tracer: Tracer):
    """Route every public layer function and method through `tracer` until exit."""
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name == "quadres" or name.startswith("quadres.")]
    patches = []
    try:
        for layer in LAYERS:
            module = sys.modules[f"quadres.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = tracer.wrap(name, obj, COUNTERS.get(name, ()))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                patches.append((ns, key, obj))
                                setattr(ns, key, wrapper)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn) or f"{attr}.{meth}" in PER_SQUARE:
                            continue
                        patches.append((obj, meth, fn))
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))
        yield tracer
    finally:
        for ns, key, obj in reversed(patches):
            setattr(ns, key, obj)


IMPORTED_PACKAGES = ("click", "concurrent.futures")


def import_times(src: Path, runs: int) -> dict[str, float]:
    """Median import time per module from `python -X importtime -c 'import quadres.cli'`.

    `quadres` modules report their self time, since their imports of each
    other are listed separately; click and concurrent.futures report their
    cumulative time, the whole cost of pulling them in.
    """
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import quadres.cli"],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if not self_us.isdigit():
                continue  # the header line
            if module == "quadres" or module.startswith("quadres."):
                samples.setdefault(module, []).append(int(self_us) / 1e6)
            elif module in IMPORTED_PACKAGES:
                samples.setdefault(module, []).append(int(cumulative_us) / 1e6)
    return {module: statistics.median(values) for module, values in samples.items()}
