"""The three legs stay independent in the source: each module imports only the quadres names allowed.

The billiards, checkers and oracle legs, `symbols` and the tiling count
import no other quadres module: `symbols` takes no billiards name, as its
symbol comes from a descent over the floors, not from the bounces.  The
CLI imports only public names.  The refusal tests catch a call at run
time; this catches a new import before anything runs.
"""

import ast
from pathlib import Path

import quadres

ALLOWED = {
    "billiards": set(),
    "checkers": set(),
    "oracles": set(),
    "symbols": set(),
    "tilings": set(),
}


def quadres_imports(source: str) -> set[str]:
    """Every quadres module or name a module's source imports, anywhere in it, relative to the package."""
    edges = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            edges |= {a.name.removeprefix("quadres.") for a in node.names if a.name.split(".")[0] == "quadres"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "quadres"):
            module = (node.module or "") if node.level else node.module.removeprefix("quadres").lstrip(".")
            edges |= {f"{module}.{a.name}" if module else a.name for a in node.names}
    return edges


def test_quadres_imports_reads_every_form():
    source = """
import quadres.oracles
from . import checkers as ck
from .billiards import _fold
from quadres.symbols import billiard_symbol

def late():
    from quadres import tilings
"""
    assert quadres_imports(source) == {"oracles", "checkers", "billiards._fold", "symbols.billiard_symbol", "tilings"}


def test_legs_import_only_the_allowed_quadres_names():
    package = Path(quadres.__file__).parent
    edges = {path.stem: quadres_imports(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert {name: edges[name] for name in ALLOWED} == ALLOWED


def test_cli_imports_no_private_quadres_name():
    """The CLI imports modules and public names only (dunders such as __version__ are public); the private
    function `symbol` calls, symbols._value, it reads off its module."""
    source = (Path(quadres.__file__).parent / "cli.py").read_text(encoding="utf-8")
    private = {edge for edge in quadres_imports(source)
               if any(part.startswith("_") and not part.endswith("__") for part in edge.split("."))}
    assert private == set()
