"""hypcross: lengths and self-crossings of closed geodesics on hyperbolic
surfaces.

Submodules (``import hypcross`` loads only the numpy-free halfplane, words,
selfint and spectrum, whose records are named tuples, not dataclasses; import
the others by name; collar, pants and verifier need numpy, winding and
tracer do not):
  halfplane  -- isometries, distance, axes, trace-length dictionary, and
                the 2x2 tuple kernel (mat_mul, mat_inv, moebius,
                moebius_point, fixed_points) shared by words, selfint and
                tracer
  collar     -- collar half-widths, asymmetric profiles, hexagon gap
  pants      -- two-boundary winding curve lengths with a trace oracle
  winding    -- arc length <-> winding number dictionary for collars and cusps
  verifier   -- grid audits of the sharp-bound inequality chains
  words      -- rank-2 free-group words and conjugacy classes
  selfint    -- self-intersection counts (exact linked pairs and exact
                boundary interleaving)
  tracer     -- float tracer through the fundamental domain, an oracle for
                selfint (not loaded by ``import hypcross``)
  spectrum   -- bottom of the length spectrum of the three-cusp sphere
                (the module: call hypcross.spectrum.spectrum)
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
from .words import canonical_class, enumerate_classes, word_trace
from .selfint import boundary_count, self_intersection_count
from . import spectrum

__version__ = "0.1.0"
