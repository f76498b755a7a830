"""Quadratic-residue symbols computed three independent ways.

Arithmetic billiards (bounce signs on an integer rectangle), parity
checkers (mod-2 puzzle solutions on the shifted checkerboard), and the
classical number-theory oracles, together with the identity chain that
proves quadratic reciprocity from the geometry.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .billiards import (
    BilliardPath,
    BounceEvent,
    Wall,
    base_bounces,
    trace_path,
)
from .checkers import (
    Board,
    CheckerSet,
    PebbleSet,
    PuzzleNotUniquelySolvable,
    apply_checkers,
    bottom_row_count,
    bottom_row_puzzle,
    bottom_row_symbol,
    kernel_dimension,
    kernel_element,
    left_column_puzzle,
    light_chase,
    single_pebble_counts,
    solve,
)
from .oracles import (
    euler_symbol,
    is_odd_prime,
    jacobi_symbol,
    zolotarev_perm_sign,
)
from .render import render_board_ascii, render_board_svg, render_path_svg
from .symbols import (
    SymbolEvidence,
    billiard_symbol,
    mod4_symbol,
    symbol_supplement_minus_one,
    symbol_supplement_two,
)
from .tilings import count_tilings

# every public name imported above; the submodules those imports bind are not part of the API
__all__ = ["__version__", *sorted(name for name, value in globals().items()
                                  if not name.startswith("_") and not isinstance(value, _ModuleType))]
