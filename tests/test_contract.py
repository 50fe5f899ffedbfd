"""The library contract on arguments a call cannot use.

Every public call returns its result or raises a ``MomangError`` subclass.
Each call below escaped as a ``TypeError``, ``ValueError``, ``IndexError`` or
``AttributeError``, or returned a value that is no answer, except the sign 0,
which was refused already and must stay refused under the new sign check.
"""

import numpy as np
import pytest

from momang import (
    bistellar_flip,
    build_chamber_complex,
    cube,
    lift_point,
    parse_hrep,
    replay_flip_certificate,
    simplex_boundary_sphere,
)
from momang.corpus import cube_hrep
from momang.errors import BadParameters, ParseError

CUBE = build_chamber_complex(cube(3))  # m = 6, 27 faces
TETRAHEDRON = simplex_boundary_sphere(3)
CENTRE = [0.5] * 3

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
    # moves: the simplex dimension, certificate moves and flipped faces
    ("simplex-float", lambda: simplex_boundary_sphere(2.5), BadParameters),
    ("simplex-negative", lambda: simplex_boundary_sphere(-1), BadParameters),
    ("simplex-zero", lambda: simplex_boundary_sphere(0), BadParameters),
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
    assert [tuple(sorted(f)) for f in replay_flip_certificate(3, []).facets] == \
        [tuple(sorted(f)) for f in TETRAHEDRON.facets]
