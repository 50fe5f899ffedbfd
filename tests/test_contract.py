"""The library contract on arguments a call cannot use.

Every public call returns its result or raises a ``MomangError`` subclass.
Each call below escaped as a ``TypeError``, ``ValueError``, ``IndexError``,
``AttributeError`` or ``OverflowError``, or returned a value that is no
answer (``connected_components(None)`` returned 1), except the sign 0, which
was refused already and must stay refused under the new sign check.  The H-rep calls are fuzzed on one adversarial pool.
"""

import math

import numpy as np
import pytest

from momang import (
    HRep,
    ReductionTrace,
    bistellar_flip,
    build_chamber_complex,
    certificate_to_json,
    classify_edge_types,
    collapse_admissible,
    combinatorial_isomorphic,
    complex_summary,
    connected_components,
    cube,
    doubling_filtration,
    dual_sphere,
    enumerate_vertices,
    euler_characteristic,
    face_lattice,
    fixed_point_components,
    is_simplex,
    lift_point,
    make_hrep,
    orientability,
    parse_hrep,
    polytope_to_json,
    prismatic_circuits,
    psc_flip_certificate,
    quadric_gradient_rank,
    quadrics_to_json,
    random_vertexcuts,
    rebuild_by_cuts,
    recognize_vertexcut_reducible,
    relation_matrix,
    replay_flip_certificate,
    simplex_boundary_sphere,
    simplex_facet_collapse,
    trace_to_json,
    verify_nondegeneracy,
    vertex_cut,
)
from momang.corpus import cube_hrep
from momang.errors import BadParameters, GuardExceeded, MomangError, ParseError

CUBE = build_chamber_complex(cube(3))  # m = 6, 27 faces
STAGE = doubling_filtration(cube(3))[2]
TETRAHEDRON = simplex_boundary_sphere(3)
CENTRE = [0.5] * 3
CUBE_H = cube_hrep(3)

REFUSED = [
    # zcomplex: group elements, representatives and face indices
    ("translate-float", lambda: CUBE.translate(1.5, (0, 0)), BadParameters),
    ("translate-bool", lambda: CUBE.translate(True, (0, 0)), BadParameters),
    ("translate-numpy-int", lambda: CUBE.translate(np.int64(1), (0, 0)), BadParameters),
    ("translate-no-cell", lambda: CUBE.translate(1, None), BadParameters),
    ("translate-short-cell", lambda: CUBE.translate(1, (0,)), BadParameters),
    ("translate-negative-face", lambda: CUBE.translate(0, (-1, 0)), BadParameters),
    ("translate-face-past-end", lambda: CUBE.translate(0, (27, 0)), BadParameters),
    ("translate-bool-face", lambda: CUBE.translate(0, (True, 0)), BadParameters),
    ("translate-negative-rep", lambda: CUBE.translate(0, (0, -1)), BadParameters),
    ("translate-rep-past-group", lambda: CUBE.translate(0, (0, 1 << 6)), BadParameters),
    ("translate-float-rep", lambda: CUBE.translate(0, (0, 1.0)), BadParameters),
    ("canonical-face-past-end", lambda: CUBE.canonical(999, 1), BadParameters),
    ("canonical-float", lambda: CUBE.canonical(0, 1.5), BadParameters),
    # zcomplex: None or another record where a polytope, complex or stage belongs
    ("build-none", lambda: build_chamber_complex(None), BadParameters),
    ("build-sphere", lambda: build_chamber_complex(TETRAHEDRON), BadParameters),
    ("filtration-none", lambda: doubling_filtration(None), BadParameters),
    ("filtration-complex", lambda: doubling_filtration(CUBE), BadParameters),
    ("summary-none", lambda: complex_summary(None), BadParameters),
    ("summary-sphere", lambda: complex_summary(TETRAHEDRON), BadParameters),
    ("euler-none", lambda: euler_characteristic(None), BadParameters),
    ("euler-polytope", lambda: euler_characteristic(cube(3)), BadParameters),
    ("components-none", lambda: connected_components(None), BadParameters),
    ("components-stage", lambda: connected_components(STAGE), BadParameters),
    ("orientability-none", lambda: orientability(None), BadParameters),
    ("orientability-sphere", lambda: orientability(TETRAHEDRON), BadParameters),
    ("edge-types-none", lambda: classify_edge_types(None), BadParameters),
    ("edge-types-complex", lambda: classify_edge_types(CUBE), BadParameters),
    ("fixed-set-none", lambda: fixed_point_components(None, 0), BadParameters),
    ("fixed-set-polytope", lambda: fixed_point_components(cube(3), 0), BadParameters),
    # moves, polytope, hrep: None or another record where a polytope, sphere,
    # trace or presentation belongs
    ("recognize-none", lambda: recognize_vertexcut_reducible(None), BadParameters),
    ("recognize-sphere", lambda: recognize_vertexcut_reducible(TETRAHEDRON), BadParameters),
    ("cut-none", lambda: vertex_cut(None, 0), BadParameters),
    ("cut-sphere", lambda: vertex_cut(TETRAHEDRON, 0), BadParameters),
    ("flip-none", lambda: bistellar_flip(None, (0, 1, 2)), BadParameters),
    ("flip-polytope", lambda: bistellar_flip(cube(3), (0, 1, 2)), BadParameters),
    ("circuits-none", lambda: prismatic_circuits(None, 4), BadParameters),
    ("circuits-sphere", lambda: prismatic_circuits(TETRAHEDRON, 4), BadParameters),
    ("certificate-none", lambda: psc_flip_certificate(None, 3), BadParameters),
    ("certificate-sphere", lambda: psc_flip_certificate(TETRAHEDRON, 3), BadParameters),
    ("rebuild-none", lambda: rebuild_by_cuts(None), BadParameters),
    ("rebuild-polytope", lambda: rebuild_by_cuts(cube(3)), BadParameters),
    ("rebuild-no-start", lambda: rebuild_by_cuts(ReductionTrace(True, (), (), None, cube(3))),
     BadParameters),
    ("rebuild-sphere-end", lambda: rebuild_by_cuts(ReductionTrace(True, (), (), cube(3), TETRAHEDRON)),
     BadParameters),
    ("lattice-none", lambda: face_lattice(None), BadParameters),
    ("lattice-sphere", lambda: face_lattice(TETRAHEDRON), BadParameters),
    ("isomorphic-none", lambda: combinatorial_isomorphic(cube(3), None), BadParameters),
    ("isomorphic-sphere", lambda: combinatorial_isomorphic(TETRAHEDRON, cube(3)), BadParameters),
    ("relations-none", lambda: relation_matrix(None), BadParameters),
    ("relations-polytope", lambda: relation_matrix(cube(3)), BadParameters),
    ("nondegeneracy-none", lambda: verify_nondegeneracy(None), BadParameters),
    ("nondegeneracy-polytope", lambda: verify_nondegeneracy(cube(3)), BadParameters),
    ("dual-sphere-none", lambda: dual_sphere(None), BadParameters),
    ("is-simplex-none", lambda: is_simplex(None), BadParameters),
    ("polytope-json-none", lambda: polytope_to_json(None), BadParameters),
    ("admissible-none", lambda: collapse_admissible(None, 0), BadParameters),
    ("admissible-sphere", lambda: collapse_admissible(TETRAHEDRON, 0), BadParameters),
    ("collapse-none", lambda: simplex_facet_collapse(None, 0), BadParameters),
    ("trace-json-none", lambda: trace_to_json(None), BadParameters),
    ("quadrics-json-none", lambda: quadrics_to_json(None), BadParameters),
    ("quadrics-json-presentation", lambda: quadrics_to_json(CUBE_H), BadParameters),
    ("lift-none", lambda: lift_point(None, CENTRE, [1] * 6), BadParameters),
    ("gradient-rank-none", lambda: quadric_gradient_rank(None, [1.0] * 6), BadParameters),
    ("vertices-none", lambda: enumerate_vertices(None), BadParameters),
    ("vertices-polytope", lambda: enumerate_vertices(cube(3)), BadParameters),
    # moves: fields and move lists that are not iterable
    ("rebuild-none-steps", lambda: rebuild_by_cuts(ReductionTrace(True, None, (), cube(3), cube(3))),
     BadParameters),
    ("rebuild-int-steps", lambda: rebuild_by_cuts(ReductionTrace(True, 1, (), cube(3), cube(3))),
     BadParameters),
    ("certificate-json-int", lambda: certificate_to_json(5), BadParameters),
    ("certificate-json-int-move", lambda: certificate_to_json([1]), BadParameters),
    # moves: the simplex dimension, certificate moves and flipped faces
    ("simplex-float", lambda: simplex_boundary_sphere(2.5), BadParameters),
    ("simplex-negative", lambda: simplex_boundary_sphere(-1), BadParameters),
    ("simplex-zero", lambda: simplex_boundary_sphere(0), BadParameters),
    ("simplex-1e30", lambda: simplex_boundary_sphere(10 ** 30), GuardExceeded),
    ("simplex-past-cap", lambda: simplex_boundary_sphere(3162), GuardExceeded),
    ("replay-1e30", lambda: replay_flip_certificate(10 ** 30, []), GuardExceeded),
    ("replay-float", lambda: replay_flip_certificate(2.5, []), BadParameters),
    ("replay-none-moves", lambda: replay_flip_certificate(3, None), BadParameters),
    ("replay-int-moves", lambda: replay_flip_certificate(3, 5), BadParameters),
    ("replay-int-move", lambda: replay_flip_certificate(3, [1]), BadParameters),
    ("replay-tuple-move", lambda: replay_flip_certificate(3, [("vertex", (0, 1, 2), 3)]),
     BadParameters),
    ("flip-none-face", lambda: bistellar_flip(TETRAHEDRON, None), BadParameters),
    ("flip-int-face", lambda: bistellar_flip(TETRAHEDRON, 5), BadParameters),
    ("flip-unhashable-labels", lambda: bistellar_flip(TETRAHEDRON, [[0], [1]]), BadParameters),
    # hrep: lifting signs and the text to parse
    ("lift-no-signs", lambda: lift_point(cube_hrep(3), CENTRE, None), BadParameters),
    ("lift-string-signs", lambda: lift_point(cube_hrep(3), CENTRE, "ab"), BadParameters),
    ("lift-sign-1.5", lambda: lift_point(cube_hrep(3), CENTRE, [1.5] + [1] * 5), BadParameters),
    ("lift-sign-0", lambda: lift_point(cube_hrep(3), CENTRE, [0] + [1] * 5), BadParameters),
    ("lift-complex-sign", lambda: lift_point(cube_hrep(3), CENTRE, [1j ** 4] + [1] * 5),
     BadParameters),
    ("lift-nested-signs", lambda: lift_point(cube_hrep(3), CENTRE, [[1, 1]] * 6),
     BadParameters),
    ("parse-none", lambda: parse_hrep(None), ParseError),
    ("parse-bytes", lambda: parse_hrep(b"3 6"), ParseError),
    ("hrep-string-normals", lambda: HRep(2, 3, "ab", None), ParseError),
    ("hrep-zero-normals", lambda: HRep(3, 6, np.zeros((3, 6)), np.zeros(6)), ParseError),
    ("hrep-transposed", lambda: HRep(3, 6, CUBE_H.A.T, CUBE_H.b), ParseError),
    ("hrep-shape-not-n-m", lambda: HRep(2, 6, CUBE_H.A, CUBE_H.b), ParseError),
    ("hrep-short-offsets", lambda: HRep(3, 6, CUBE_H.A, CUBE_H.b[:5]), ParseError),
    ("hrep-bool-n", lambda: HRep(True, 6, CUBE_H.A, CUBE_H.b), BadParameters),
    ("hrep-zero-m", lambda: HRep(3, 0, CUBE_H.A, CUBE_H.b), ParseError),
    # corpus: seeds random.Random cannot take
    ("cuts-list-seed", lambda: random_vertexcuts(3, [0]), BadParameters),
    ("cuts-object-seed", lambda: random_vertexcuts(3, object()), BadParameters),
    ("cuts-dict-seed", lambda: random_vertexcuts(3, {}), BadParameters),
]


@pytest.mark.parametrize("call,error", [c[1:] for c in REFUSED], ids=[c[0] for c in REFUSED])
def test_unusable_arguments_raise_the_named_error(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


def test_the_refusals_keep_what_was_accepted():
    assert CUBE.translate(5, (0, 0)) == CUBE.canonical(0, 5) == (0, 5)
    face = CUBE.lattice.face_index((0,))
    assert CUBE.translate(3, [face, 4]) == (face, 6)  # any pair, bit 0 cleared
    point = lift_point(cube_hrep(3), CENTRE, np.array([1.0, -1.0] * 3))
    assert point.source[1] == (1, -1) * 3
    assert all(type(s) is int for s in point.source[1])
    assert classify_edge_types(STAGE).type1 == STAGE.edge_types.type1
    assert (euler_characteristic(CUBE), connected_components(CUBE)) == (0, 1)
    assert orientability(CUBE)[0] and fixed_point_components(CUBE, 0).count == 2
    assert [tuple(sorted(f)) for f in replay_flip_certificate(3, []).facets] == \
        [tuple(sorted(f)) for f in TETRAHEDRON.facets]
    cuts = random_vertexcuts(3, 0)
    for seed in (-1, 0.5, "seed", b"seed", bytearray(b"seed"), None, 10 ** 30):
        assert random_vertexcuts(3, seed).facet_count == 7
    assert random_vertexcuts(3, 0) == cuts


# bools, floats, NaN, infinities, a negative, huge ints, None, text, bytes, an
# empty and a ragged list, arrays of the wrong shape, and an opaque object
POOL = [True, 1.5, math.nan, math.inf, -math.inf, -1, 10 ** 30, 10 ** 400, None, "ab", b"ab",
        [], [[1, 2], [3]], np.zeros((2, 2)), np.zeros(7), object()]


def put_to_work(h):
    """An H-rep's relations, vertices and a few samples, which read every field."""
    return relation_matrix(h), enumerate_vertices(h), verify_nondegeneracy(h, 10)


HREP_CALLS = {
    "HRep-n": lambda x: put_to_work(HRep(x, 6, CUBE_H.A, CUBE_H.b)),
    "HRep-m": lambda x: put_to_work(HRep(3, x, CUBE_H.A, CUBE_H.b)),
    "HRep-A": lambda x: put_to_work(HRep(3, 6, x, CUBE_H.b)),
    "HRep-b": lambda x: put_to_work(HRep(3, 6, CUBE_H.A, x)),
    "make_hrep-rows": lambda x: make_hrep(x, CUBE_H.b),
    "make_hrep-offsets": lambda x: make_hrep(CUBE_H.A.T, x),
    "parse_hrep": parse_hrep,
    "values": CUBE_H.values,
    "residual": lambda x: relation_matrix(CUBE_H).residual(x),
    "lift_point-point": lambda x: lift_point(CUBE_H, x, [1] * 6),
    "lift_point-signs": lambda x: lift_point(CUBE_H, CENTRE, x),
    "quadric_gradient_rank": lambda x: quadric_gradient_rank(relation_matrix(CUBE_H), x),
    "verify_nondegeneracy-count": lambda x: verify_nondegeneracy(CUBE_H, x),
    "verify_nondegeneracy-seed": lambda x: verify_nondegeneracy(CUBE_H, 10, seed=x),
}


def escapes(call):
    """The pool values on which ``call`` raised anything but a ``MomangError``."""
    escaped = []
    for value in POOL:
        try:
            call(value)
        except MomangError:
            pass
        except Exception as e:  # any other escape breaks the contract
            escaped.append((value, type(e).__name__, str(e)))
    return escaped


@pytest.mark.parametrize("call", HREP_CALLS.values(), ids=HREP_CALLS)
def test_hrep_calls_raise_only_momang_errors_on_the_pool(call):
    assert not escapes(call)


# the circuit listing and the isomorphism test, with every pool value as
# the circuit length or as either polytope
COMBINATORIAL_CALLS = {
    "prismatic_circuits-k": lambda x: prismatic_circuits(cube(3), x),
    "combinatorial_isomorphic-p": lambda x: combinatorial_isomorphic(x, cube(3)),
    "combinatorial_isomorphic-q": lambda x: combinatorial_isomorphic(cube(3), x),
}


@pytest.mark.parametrize("call", COMBINATORIAL_CALLS.values(), ids=COMBINATORIAL_CALLS)
def test_combinatorial_calls_raise_only_momang_errors_on_the_pool(call):
    assert not escapes(call)
