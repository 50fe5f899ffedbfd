"""Simple-polytope combinatorics, vertex-cut reducibility, and real
moment-angle manifolds (chamber complexes and quadric intersection models).

Every public name loads its module on first access, so ``import momang``
loads :mod:`momang.errors` alone, and a caller of the combinatorial parts
never loads :mod:`momang.hrep` and, with it, numpy.
"""

__version__ = "0.1.0"

from . import errors

_NAMES = {
    "corpus": ("cube", "dodecahedron", "generate", "prism", "random_vertexcuts", "simplex"),
    "moves": ("FlipMove", "PrismaticCircuit", "ReductionTrace", "bistellar_flip",
              "certificate_to_json", "collapse_admissible", "prismatic_circuits",
              "psc_flip_certificate", "rebuild_by_cuts", "recognize_vertexcut_reducible",
              "replay_flip_certificate", "simplex_boundary_sphere", "simplex_facet_collapse",
              "trace_to_json", "vertex_cut"),
    "polytope": ("CombPolytope", "Face", "FaceLattice", "SimplicialSphere",
                 "combinatorial_isomorphic", "dual_sphere", "face_lattice", "is_simplex",
                 "polytope_from_json", "polytope_to_json", "validate_polytope",
                 "validate_sphere"),
    "zcomplex": ("ChamberComplex", "EdgeRecord", "EdgeTypeSummary", "FiltrationStage",
                 "FixedPointSet", "build_chamber_complex", "classify_edge_types",
                 "complex_summary", "connected_components", "doubling_filtration",
                 "euler_characteristic", "fixed_point_components", "orientability"),
    "hrep": ("EmbeddedPoint", "HRep", "NondegeneracyReport", "QuadricSystem",
             "enumerate_vertices", "lift_point", "make_hrep", "parse_hrep",
             "quadric_gradient_rank", "quadrics_to_json", "relation_matrix",
             "verify_nondegeneracy"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
