"""Quadratic-residue symbols computed three independent ways.

Arithmetic billiards (bounce signs on an integer rectangle), parity
checkers (mod-2 puzzle solutions on the shifted checkerboard), and the
classical number-theory oracles, together with the identity chain that
proves quadratic reciprocity from the geometry.
"""

import importlib

__version__ = "0.1.0"

_OWNERS = {"billiards": "BilliardPath BounceEvent Wall base_bounces trace_path",  # the submodule defining each name
           "checkers": "Board CheckerSet PebbleSet PuzzleNotUniquelySolvable apply_checkers bottom_row_count "
                       "bottom_row_puzzle bottom_row_symbol kernel_dimension kernel_element left_column_puzzle "
                       "light_chase single_pebble_counts solve",
           "oracles": "euler_symbol is_odd_prime jacobi_symbol zolotarev_perm_sign",
           "render": "render_board_ascii render_board_svg render_path_svg",
           "symbols": "SymbolEvidence billiard_symbol mod4_symbol symbol_supplement_minus_one symbol_supplement_two",
           "tilings": "count_tilings"}
_SUBMODULE = {name: module for module, names in _OWNERS.items() for name in names.split()}
__all__ = ["__version__", *sorted(_SUBMODULE)]


def __getattr__(name: str):
    """A public name, read from its submodule on every access (PEP 562), so that none is stored here."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
