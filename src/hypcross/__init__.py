"""hypcross: lengths and self-crossings of closed geodesics on hyperbolic
surfaces.

Submodules:
  halfplane  -- isometries, distance, axes, trace-length dictionary, and
                the 2x2 tuple kernel (mat_mul, mat_inv, mat_pow, moebius,
                moebius_point, fixed_points) shared by words, selfint, pants
  collar     -- collar half-widths, asymmetric profiles, hexagon gap
  pants      -- two-boundary winding curve lengths with a holonomy oracle
  winding    -- arc length <-> winding number dictionary for collars and cusps
  verifier   -- grid audits of the sharp-bound inequality chains
  words      -- rank-2 free-group words and conjugacy classes
  selfint    -- self-intersection counts (exact linked pairs and tracer)
  spectrum   -- bottom of the length spectrum of the three-cusp sphere
"""

from .halfplane import (
    INFINITY,
    Axis,
    Isometry,
    Point,
    axes_cross,
    axis_of,
    compose,
    dist,
    translation_length,
)
from .collar import CollarProfile, collar_width, cusp_horocycle_bound, generalized_width, hexagon_gap, wide_width
from .pants import CurveClass, PantsBoundary, chebyshev_ratio, gamma_mn_length, minimize_over_moduli, pants_holonomy, trace_length_oracle
from .winding import CollarArcQuery, CuspArcQuery, collar_arc_length, cusp_arc_length, cusp_winding_from_length, winding_from_length
from .verifier import constants, find_bound_minimum, length_bound, length_bound_deriv, verify_case1_chain, verify_concavity_chain
from .words import canonical_class, enumerate_classes, word_trace
from .selfint import self_intersection_count, tracer_count
from .spectrum import SpectrumEntry, spectrum

__version__ = "0.1.0"
