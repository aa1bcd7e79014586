"""Uniformity checks for finite structures and exact order algebra on the line."""

from .structures import FiniteStructure, Signature, StructureError, parse_structure, render_structure
from .formulas import (
    Formula,
    FormulaError,
    enumerate_formulas,
    evaluate,
    free_vars,
    parse_formula,
    render_formula,
)
from .autgroup import (
    OrbitPartition,
    Permutation,
    automorphisms,
    brute_force_automorphisms,
    orbit_partition,
)
from .uniformity import (
    UniformityVerdict,
    check_uniformity_orbits,
    check_uniformity_schema,
    distinguishing_formula,
)
from .ordline import (
    AffineMap,
    Interval,
    Shift,
    classify_displacement,
    commutes,
    factor_through_shift,
    point_shift_correspondence,
    preserves_construct,
    shift_measure,
    tile_line,
)
from .fieldgen import (
    Localization,
    loc_add,
    loc_inv,
    loc_mul,
    loc_neg,
    localization_iso,
    order_compatibility,
    stretch_image,
    verify_field_axioms,
)
from .cyclic import INFINITY, MobiusMap, cyclic_orient, linearize_at, mobius_orientation
from .cuts import (
    CutClass,
    CutOracle,
    Ray,
    classify_cut,
    connectivity_probe,
    galois_closure_check,
    lower_set,
    oracle_le,
    oracle_lt,
    oracle_sq_lt,
    upper_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
