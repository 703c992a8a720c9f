"""Exact construction, certification and coloring of distance graphs in
the Poincare disk.

The package builds a family of graphs whose vertices are disk points with
coordinates in a fixed quartic number field and whose edges join pairs at
one exact hyperbolic distance; every edge is certified in exact arithmetic.
A backtracking search with unit propagation decides k-colorability; the
final graph of the default growth schedule admits no proper 4-coloring.

Progress is logged under the "hypchrom" logger (for example one INFO line
per probe of the prefix search); nothing is printed unless the caller
configures logging.
"""

import logging

from .augment import (
    AugmentConfig,
    CandidatePoint,
    EuclideanCircleRec,
    IdenticalCirclesError,
    circle_of,
    grow_pipeline,
    intersect_circles,
    phase_augment,
)
from .coloring import (
    AdjacencyGraph,
    SearchStats,
    chromatic_number,
    find_coloring_reordered,
    minimal_non_k_prefix,
    moser_spindle,
    search_k_coloring,
    verify_coloring,
)
from .field import (
    EDGE_INVARIANT,
    GEN,
    MIN_POLY,
    ONE,
    RADIUS_SQ,
    SIN_SQ,
    ZERO,
    FieldElement,
    fe_sign,
    fe_sqrt,
    fe_to_interval,
)
from .geometry import (
    D_NUMERIC,
    Graph,
    GraphIntegrityError,
    ModulePoint,
    NumericPoint,
    VertexOrigin,
    build_g9,
    certify_graph,
    f_of,
    is_unit_edge,
    point_coords_numeric,
    spindle_numeric,
    verify_condition1,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
