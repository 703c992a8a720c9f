"""Exact construction, certification and coloring of distance graphs in
the Poincare disk.

The package builds a family of graphs whose vertices are disk points with
coordinates in a fixed quartic number field and whose edges join pairs at
one exact hyperbolic distance; every edge is certified in exact arithmetic.
A backtracking search with unit propagation (search_k_coloring) decides
k-colorability and, when the graph is k-colorable, returns a verified
k-coloring; the final graph of the default growth schedule admits no proper
4-coloring, and search_k_coloring finds and verifies its 5-coloring.

Progress is logged under the "hypchrom" logger (for example one INFO line
per probe of the prefix search); nothing is printed unless the caller
configures logging.
"""

import logging

from .augment import (
    AugmentConfig,
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
    VertexOrigin,
    build_g9,
    certify_graph,
    f_of,
    is_unit_edge,
    spindle_numeric,
    verify_condition1,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
