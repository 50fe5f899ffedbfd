"""Simple-polytope combinatorics, vertex-cut reducibility, and real
moment-angle manifolds (chamber complexes and quadric intersection models).

The :mod:`momang.hrep` names load on first access, so importing the package
for its combinatorial parts does not load numpy.
"""

__version__ = "0.1.0"

from . import errors
from .corpus import cube, dodecahedron, generate, prism, random_vertexcuts, simplex
from .moves import (
    FlipMove,
    PrismaticCircuit,
    ReductionTrace,
    bistellar_flip,
    certificate_to_json,
    collapse_admissible,
    prismatic_circuits,
    psc_flip_certificate,
    rebuild_by_cuts,
    recognize_vertexcut_reducible,
    replay_flip_certificate,
    simplex_boundary_sphere,
    simplex_facet_collapse,
    trace_to_json,
    vertex_cut,
)
from .polytope import (
    CombPolytope,
    Face,
    FaceLattice,
    SimplicialSphere,
    combinatorial_isomorphic,
    dual_sphere,
    face_lattice,
    is_simplex,
    polytope_from_json,
    polytope_to_json,
    validate_polytope,
    validate_sphere,
)
from .zcomplex import (
    ChamberComplex,
    EdgeRecord,
    EdgeTypeSummary,
    FiltrationStage,
    FixedPointSet,
    build_chamber_complex,
    classify_edge_types,
    complex_summary,
    connected_components,
    doubling_filtration,
    euler_characteristic,
    fixed_point_components,
    orientability,
)

_HREP_NAMES = frozenset({
    "EmbeddedPoint",
    "HRep",
    "NondegeneracyReport",
    "QuadricSystem",
    "enumerate_vertices",
    "lift_point",
    "make_hrep",
    "parse_hrep",
    "quadric_gradient_rank",
    "quadrics_to_json",
    "relation_matrix",
    "verify_nondegeneracy",
})


def __getattr__(name):
    if name in _HREP_NAMES:
        from . import hrep

        return getattr(hrep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
