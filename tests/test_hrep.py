import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import linprog

from momang import (
    combinatorial_isomorphic,
    cube,
    enumerate_vertices,
    lift_point,
    make_hrep,
    parse_hrep,
    quadric_gradient_rank,
    quadrics_to_json,
    relation_matrix,
    simplex,
    verify_nondegeneracy,
)
from momang.corpus import (
    cube_hrep,
    dodecahedron,
    dodecahedron_hrep,
    prism_hrep,
    simplex_hrep,
)
import momang.hrep as hrep
from conftest import stacked_nondegeneracy_oracle
from momang.hrep import HRep, _simplex
from momang.polytope import validate_polytope
from momang.errors import (
    BadParameters,
    EmptyInterior,
    GuardExceeded,
    MomangError,
    NotOnVariety,
    NotSimplePresentation,
    OutsidePolytope,
    ParseError,
    RedundantHalfspace,
    Unbounded,
)

SIMPLEX3_TEXT = "3 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n-1 -1 -1 1\n"


def all_hreps():
    return [("simplex3", simplex_hrep(3)), ("cube3", cube_hrep(3)),
            ("prism", prism_hrep()), ("dodecahedron", dodecahedron_hrep())]


# ---------------------------------------------------------------------------
# parsing


def test_parse_simplex_text():
    h = parse_hrep(SIMPLEX3_TEXT)
    assert h.n == 3 and h.m == 4
    assert np.allclose(h.A.T, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]])
    assert np.allclose(h.b, [0, 0, 0, 1])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_hrep("")
    with pytest.raises(ParseError):
        parse_hrep("3 4\n1 0 0 0\n")
    with pytest.raises(ParseError):
        parse_hrep("3 1\n1 0 x 0\n")


def test_slab_unbounded():
    with pytest.raises(Unbounded):
        parse_hrep("3 2\n1 0 0 0\n-1 0 0 1\n")


def test_halfspace_only_unbounded():
    with pytest.raises(Unbounded):
        make_hrep([[1, 0], [0, 1], [1, 1]], [0, 0, 1])


def test_empty_interior():
    with pytest.raises(EmptyInterior):
        make_hrep([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])


def test_duplicate_row_redundant():
    text = "3 5\n1 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n-1 -1 -1 1\n"
    with pytest.raises(RedundantHalfspace) as exc:
        parse_hrep(text)
    assert exc.value.index == 0


def test_loose_halfspace_redundant():
    with pytest.raises(RedundantHalfspace) as exc:
        make_hrep([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [-1, 0, 0]],
                  [0, 0, 0, 1, 5])
    assert exc.value.index == 4


def test_zero_normal_is_a_parse_error():
    # a zero row is no half-space, and the unit-row frame cannot scale it
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [0, 0, 0]]
    for offset in (0, -1):
        with pytest.raises(ParseError, match="row 4"):
            make_hrep(rows, [0, 0, 0, 1, offset])


@pytest.mark.parametrize("rows,offsets", [("ab", "cd"), ([[1, 2], [3]], [1, 2]),
                                          ([[1j, 0], [0, 1], [-1, -1]], [0, 0, 1]),
                                          ([[1, 0], [0, 1], [-1, -1]], ["x", 0, 1])])
def test_make_hrep_refuses_non_numbers(rows, offsets):
    with pytest.raises(ParseError, match="must be arrays of numbers"):
        make_hrep(rows, offsets)


def test_make_hrep_refuses_misshapen_and_empty_arrays():
    with pytest.raises(ParseError, match="need an m x n matrix of normals and m offsets"):
        make_hrep([1, 2], [0, 0])
    with pytest.raises(ParseError, match="empty presentation"):
        make_hrep(np.zeros((0, 3)), [])


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-170, 1e-160, 1e160, 1e200, 1e300])
def test_extreme_row_magnitudes(tmp_path, capsys, scale):
    # the squares in |a| under- or overflow at these scales of the cube's
    # row 0 0 -1 1 (at 1e-160 into subnormals, which gave 9.99994e-161);
    # its length is taken from the rescaled row instead
    from momang.cli import main

    path = tmp_path / "cube.hrep"
    path.write_text("3 6\n1 0 0 0\n0 1 0 0\n0 0 1 0\n-1 0 0 1\n0 -1 0 1\n"
                    f"0 0 {-scale!r} {scale!r}\n")
    for command in ("quadrics", "verify-quadrics"):
        assert main([command, str(path)]) == 0, command
        out = capsys.readouterr()
        assert out.err == "", command
    assert json.loads(out.out)["payload"]["min_rank"] == 3
    h = parse_hrep(path.read_text())
    assert h._frame.norms[5] == scale
    assert enumerate_vertices(h)[0] == cube(3)


def test_ordinary_row_lengths_are_the_direct_norms():
    for name, h in all_hreps():
        assert np.array_equal(h._frame.norms, np.linalg.norm(h.A, axis=0)), name


# ---------------------------------------------------------------------------
# vertex enumeration


def test_simplex_vertices_match_known_coordinates():
    p, coords = enumerate_vertices(simplex_hrep(3))
    assert combinatorial_isomorphic(p, simplex(3)) is not None
    points = {tuple(np.round(c, 9)) for c in coords}
    assert points == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_cube_vertices():
    p, coords = enumerate_vertices(cube_hrep(3))
    assert p == cube(3)
    assert {tuple(np.round(c, 9)) for c in coords} == set(
        tuple(float(b) for b in bits)
        for bits in np.ndindex(2, 2, 2))


def past_the_check(*args):
    raise LookupError


def test_enumeration_guard(monkeypatch):
    # the vertex bound times m n is checked before any LP or pivot; LookupError
    # marks a call past the check.  The dodecahedron's bound is its 20 vertices.
    h = dodecahedron_hrep()
    monkeypatch.setattr(hrep, "_simplex", past_the_check)
    work = 20 * 12 * 3
    monkeypatch.setattr(hrep, "_VERTEX_CAP", work)
    with pytest.raises(LookupError):
        enumerate_vertices(h)
    monkeypatch.setattr(hrep, "_VERTEX_CAP", work - 1)
    with pytest.raises(GuardExceeded):
        enumerate_vertices(h)


def test_enumeration_cap_admits_every_shape_the_subset_cap_admitted(monkeypatch):
    # every (m, n) with m <= 54 and C(m, n) <= 10^6, the former subset cap, is
    # admitted; so is n = 3 with m = 200, which that cap refused.  The check
    # reads only n and m (the rows here are all ones).
    monkeypatch.setattr(hrep, "_simplex", past_the_check)
    shapes = [(m, n) for m in range(2, 55) for n in range(1, m) if math.comb(m, n) <= 10 ** 6]
    for m, n in [*shapes, (200, 3)]:
        with pytest.raises(LookupError):
            enumerate_vertices(HRep._trusted(n, m, np.ones((n, m)), np.zeros(m)))
    # m = 55, n = 51 was admitted (C(55, 4) = 341,055 subsets) and is not
    with pytest.raises(GuardExceeded):
        enumerate_vertices(HRep._trusted(51, 55, np.ones((51, 55)), np.zeros(55)))


def test_octahedron_not_simple_presentation():
    rows = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    h = make_hrep(rows, [1.0] * 8)
    with pytest.raises(NotSimplePresentation):
        enumerate_vertices(h)


def test_dodecahedron_enumeration():
    p, coords = enumerate_vertices(dodecahedron_hrep())
    assert p.facet_count == 12 and p.vertex_count == 20
    assert p == dodecahedron()
    sizes = sorted(sum(1 for v in p.vertices if f in v) for f in range(12))
    assert sizes == [5] * 12


def test_dodecahedron_incidence_is_the_enumerated_one():
    # corpus.dodecahedron() spells out this incidence instead of solving LPs
    enumerated, _ = enumerate_vertices(dodecahedron_hrep())
    fixed = dodecahedron()
    assert fixed.vertices == enumerated.vertices
    assert (fixed.dim, fixed.facet_count, fixed.facet_labels) == (3, 12, None)


# ---------------------------------------------------------------------------
# relation matrix


def test_simplex_relation_matrix_is_all_ones():
    for n in (1, 2, 3, 5):
        q = relation_matrix(simplex_hrep(n))
        assert q.gamma.shape == (1, n + 1)
        assert np.array_equal(q.gamma, np.ones((1, n + 1)))
        assert np.array_equal(q.rhs, [1.0])


def test_cube_relation_matrix_pairs_opposite_facets():
    q = relation_matrix(cube_hrep(3))
    expect = np.zeros((3, 6))
    for i in range(3):
        expect[i, i] = expect[i, i + 3] = 1.0
    assert np.allclose(q.gamma, expect)
    assert np.allclose(q.rhs, [1, 1, 1])
    # independent oracle: gamma rows must span the null space of A
    ns = null_space(np.asarray(cube_hrep(3).A))
    proj = ns @ ns.T  # orthogonal projector onto the null space
    assert np.allclose(proj @ q.gamma.T, q.gamma.T, atol=1e-12)


def test_prism_relation_matrix():
    h = prism_hrep()
    q = relation_matrix(h)
    assert q.gamma.shape == (2, 5)
    assert np.abs(q.gamma @ np.asarray(h.A).T).max() < 1e-12
    assert np.allclose(sorted(map(tuple, q.gamma)),
                       [(0, 0, 0, 1, 1), (1, 1, 1, 0, 0)])
    assert np.allclose(q.rhs, [1, 1])


def test_relations_reduced_once_per_presentation(monkeypatch):
    # verify_nondegeneracy reads the relations relation_matrix cached
    calls = []
    reduce = hrep._reduce_relations
    monkeypatch.setattr(hrep, "_reduce_relations", lambda h: calls.append(h) or reduce(h))
    h = cube_hrep(3)
    q = relation_matrix(h)
    assert verify_nondegeneracy(h, 20).passed
    assert relation_matrix(h) is q and calls == [h]


def test_relation_matrix_properties():
    for name, h in all_hreps():
        q = relation_matrix(h)
        a = np.asarray(h.A)
        assert q.gamma.shape == (h.m - h.n, h.m), name
        assert np.abs(q.gamma @ a.T).max() < 1e-9, name
        assert np.linalg.matrix_rank(q.gamma) == h.m - h.n, name
        assert np.max(np.abs(q.gamma), axis=1).tolist() == [1.0] * (h.m - h.n)
        # basis independence: a second basis annihilates sampled solutions
        other = null_space(a).T
        rng = np.random.default_rng(3)
        _, coords = enumerate_vertices(h)
        for _ in range(10):
            w = rng.dirichlet(np.ones(len(coords)))
            x = w @ coords
            y = lift_point(h, x, [1] * h.m).y
            assert np.abs(other @ (y * y) - other @ h.b).max() < 1e-9, name


def test_quadrics_json():
    obj = quadrics_to_json(relation_matrix(simplex_hrep(2)))
    assert obj == {"m": 3, "gamma": [[1.0, 1.0, 1.0]], "rhs": [1.0]}


# ---------------------------------------------------------------------------
# lifting


def test_barycenter_lift_lands_on_sphere():
    for n in (1, 2, 3):
        h = simplex_hrep(n)
        x = np.full(n, 1.0 / (n + 1))
        y = lift_point(h, x, [1] * (n + 1))
        assert np.allclose(y.y, 1.0 / math.sqrt(n + 1), atol=1e-12)


def test_vertex_lift_is_coordinate_point():
    h = simplex_hrep(3)
    for signs in ([1, 1, 1, 1], [-1, -1, -1, -1], [1, -1, 1, -1]):
        y = lift_point(h, [0, 0, 0], signs)
        assert np.allclose(np.abs(y.y), [0, 0, 0, 1])
        assert y.y[3] == signs[3]


def test_cube_center_lift():
    h = cube_hrep(3)
    y = lift_point(h, [0.5] * 3, [1, -1, 1, -1, 1, -1])
    assert np.allclose(np.abs(y.y), 1 / math.sqrt(2))
    q = relation_matrix(h)
    assert np.abs(q.residual(y.y)).max() < 1e-12


def test_lift_outside_raises():
    with pytest.raises(OutsidePolytope):
        lift_point(simplex_hrep(3), [2, 2, 2], [1, 1, 1, 1])


def bad_points(n):
    """Points that are not finite vectors of length n: short, NaN, infinite,
    ragged, a string, None and a row matrix."""
    return [[0.5] * (n - 1), [math.nan] + [0.5] * (n - 1), [0.5] * (n - 1) + [math.inf],
            [[0.5], [0.5, 0.5]], "abc", None, [[0.5] * n]]


@pytest.mark.parametrize("x", bad_points(3))
def test_lift_rejects_a_wrong_or_non_finite_point(x):
    # a short point escaped as numpy's ValueError; NaN passed the membership
    # test, whose comparisons are False, and lifted to an all-NaN y
    with pytest.raises(BadParameters):
        lift_point(cube_hrep(3), x, [1] * 6)


@pytest.mark.parametrize("i", range(len(bad_points(3))))
def test_values_and_residual_refuse_a_wrong_or_non_finite_point(i):
    # a short point escaped as numpy's ValueError, and NaN gave NaN values
    h = cube_hrep(3)
    with pytest.raises(BadParameters, match="finite vector of length 3"):
        h.values(bad_points(3)[i])
    with pytest.raises(BadParameters, match="finite vector of length 6"):
        relation_matrix(h).residual(bad_points(6)[i])


def test_lift_square_recovery():
    # lifting then squaring recovers the affine values at the source point
    for name, h in all_hreps():
        rng = np.random.default_rng(11)
        _, coords = enumerate_vertices(h)
        for _ in range(5):
            w = rng.dirichlet(np.ones(len(coords)))
            x = w @ coords
            signs = (1 - 2 * rng.integers(0, 2, h.m)).tolist()
            y = lift_point(h, x, signs)
            assert np.abs(y.y ** 2 - h.values(x)).max() < 1e-12, name


def test_sign_flip_equivariance():
    h = prism_hrep()
    q = relation_matrix(h)
    y = lift_point(h, [0.2, 0.3, 0.6], [1] * 5).y
    for k in range(5):
        flipped = y.copy()
        flipped[k] = -flipped[k]
        assert np.abs(q.residual(flipped)).max() < 1e-12


# ---------------------------------------------------------------------------
# gradient rank and non-degeneracy


def test_sphere_gradient_rank_one():
    q = relation_matrix(simplex_hrep(3))
    for y in ([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0], [0, -1, 0, 0]):
        assert quadric_gradient_rank(q, np.array(y, dtype=float)) == 1


def test_cube_gradient_rank_three():
    h = cube_hrep(3)
    q = relation_matrix(h)
    center = lift_point(h, [0.5] * 3, [1] * 6)
    corner = lift_point(h, [0, 0, 0], [1] * 6)
    # oracle: explicit jacobians
    for point in (center, corner):
        jac = 2.0 * q.gamma * point.y[None, :]
        assert np.linalg.matrix_rank(jac) == 3
        assert quadric_gradient_rank(q, point) == 3


def test_gradient_rank_rejects_off_variety():
    q = relation_matrix(simplex_hrep(3))
    with pytest.raises(NotOnVariety):
        quadric_gradient_rank(q, np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("y", bad_points(4))
def test_gradient_rank_rejects_a_wrong_or_non_finite_point(y):
    # a short y escaped as numpy's ValueError; NaN passed the residual test
    # and stopped in LAPACK's SVD
    with pytest.raises(BadParameters):
        quadric_gradient_rank(relation_matrix(simplex_hrep(3)), y)


def test_nondegeneracy_reports():
    expected = {"simplex3": 1, "cube3": 3, "prism": 2, "dodecahedron": 9}
    for name, h in all_hreps():
        rep = verify_nondegeneracy(h, sample_count=60, seed=5)
        assert rep.passed, name
        assert rep.min_rank == rep.expected_rank == expected[name], name
        assert rep.samples >= 60 and rep.min_margin > 1e-6, name


def test_nondegeneracy_sample_count_bounds():
    # 0 samples the 8 vertices, the 6 facet centroids and the centroid only
    assert verify_nondegeneracy(cube_hrep(3), sample_count=0).samples == 15
    with pytest.raises(BadParameters):
        verify_nondegeneracy(cube_hrep(3), sample_count=-1)


def test_nondegeneracy_refuses_arguments_that_are_not_ints(monkeypatch):
    # refused at entry, before the vertex walk: a float count or seed
    # escaped as TypeError, and True passed as 1
    def past_the_check(h):
        raise LookupError

    monkeypatch.setattr(hrep, "enumerate_vertices", past_the_check)
    h = cube_hrep(3)
    for bad in (20.5, 20.0, "20", None, True, np.int64(20), -1):
        with pytest.raises(BadParameters, match="sample_count"):
            verify_nondegeneracy(h, bad)
    for bad in (1.5, "1", None, True, False, np.int64(1), -1):
        with pytest.raises(BadParameters, match="seed"):
            verify_nondegeneracy(h, 20, bad)
    with pytest.raises(LookupError):
        verify_nondegeneracy(h, 20, 1)


def test_sampling_cap_checked_before_any_point(monkeypatch):
    # the predicted work is checked after the vertex walk, which fixes the
    # point count, and before the relations or any sample point are
    # computed; LookupError marks a call past the check
    def past_the_check(h):
        raise LookupError

    monkeypatch.setattr(hrep, "relation_matrix", past_the_check)
    with pytest.raises(GuardExceeded):
        verify_nondegeneracy(cube_hrep(3), sample_count=10 ** 8)
    # 1000 samples at m = 12 are admitted
    with pytest.raises(LookupError):
        verify_nondegeneracy(dodecahedron_hrep(), 1000)
    # and the cap admits exactly the prediction
    work = 40 * (6 * 6 * (6 - 3) + 20_000)
    monkeypatch.setattr(hrep, "_SAMPLE_CAP", work)
    with pytest.raises(LookupError):
        verify_nondegeneracy(cube_hrep(3), sample_count=40)
    monkeypatch.setattr(hrep, "_SAMPLE_CAP", work - 1)
    with pytest.raises(GuardExceeded):
        verify_nondegeneracy(cube_hrep(3), sample_count=40)
    # below the 8 vertices, 6 facet centroids and the centroid, those 15
    # points are predicted, not the requested count
    work = 15 * (6 * 6 * (6 - 3) + 20_000)
    monkeypatch.setattr(hrep, "_SAMPLE_CAP", work)
    with pytest.raises(LookupError):
        verify_nondegeneracy(cube_hrep(3), sample_count=1)
    monkeypatch.setattr(hrep, "_SAMPLE_CAP", work - 1)
    with pytest.raises(GuardExceeded):
        verify_nondegeneracy(cube_hrep(3), sample_count=1)


def fibonacci_tangent_hrep(m):
    """Planes tangent to the unit sphere at m Fibonacci-spiral points."""
    k = np.arange(m) + 0.5
    z = 1 - 2 * k / m
    phi = np.pi * (1 + 5 ** 0.5) * k
    r = np.sqrt(1 - z * z)
    rows = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    return "\n".join([f"3 {m}", *(" ".join(map(repr, [*map(float, row), 1.0]))
                                   for row in rows)]) + "\n"


def test_sampling_cap_counts_the_vertices_and_centroids(monkeypatch, tmp_path, capsys):
    # 100 requested samples alone would predict 7.9 * 10^8 steps, under the
    # cap, but the 396 vertices, 200 facet centroids and the centroid make
    # 597 points; the call exits 3 before any relation or rank
    from momang.cli import main

    def past_the_check(h):
        raise LookupError

    monkeypatch.setattr(hrep, "relation_matrix", past_the_check)
    path = tmp_path / "tangent200.hrep"
    path.write_text(fibonacci_tangent_hrep(200))
    h = parse_hrep(path.read_text())
    assert enumerate_vertices(h)[0].vertex_count == 396
    with pytest.raises(GuardExceeded, match="597 samples"):
        verify_nondegeneracy(h, sample_count=100)
    assert main(["verify-quadrics", str(path), "--samples", "100"]) == 3
    assert "GuardExceeded" in capsys.readouterr().err


def test_nondegeneracy_deterministic():
    a = verify_nondegeneracy(cube_hrep(3), sample_count=30, seed=9)
    b = verify_nondegeneracy(cube_hrep(3), sample_count=30, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# metamorphic: translation, positive row scaling and row permutation


METAMORPHIC_CORPUS = {"cube3": lambda: cube_hrep(3), "cube4": lambda: cube_hrep(4),
                      "prism": prism_hrep, "simplex3": lambda: simplex_hrep(3),
                      "dodecahedron": dodecahedron_hrep}
SQUARE = ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 1, 1])
REJECTED = {
    "flat_square": (SQUARE, EmptyInterior),
    "duplicate_row": (([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                       [0, 0, 0, 0, 1]), RedundantHalfspace),
    "loose_halfspace": (([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [-1, 0, 0]],
                         [0, 0, 0, 1, 5]), RedundantHalfspace),
    "octahedron": (([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)],
                    [1.0] * 8), NotSimplePresentation),
}


@st.composite
def transforms(draw, m, n):
    """(unit direction, log10 of the shift, log10 row scales, permutation);
    shifts stop at 1e13, inside the range README states, radius / (8(n + 1)
    eps): ~7e13 for the unit cube, whose 1e14 shift raises EmptyInterior.
    Scales stop at 1e+-150, as at 1e300 the shifted offsets overflow."""
    direction = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    return (direction, draw(st.integers(0, 13)),
            draw(st.lists(st.integers(-150, 150), min_size=m, max_size=m)),
            draw(st.permutations(range(m))))


def extremes(m, n):
    """A 1e9 shift, rows scaled by 1e9 and 1e-9 in turn, row order reversed."""
    return ([1.0, 0.5, 0.25, 0.125][:n], 9, [9, -9] * (m // 2) + [0] * (m % 2),
            list(range(m))[::-1])


def transformed(rows, offsets, transform):
    """The presentation translated, row-scaled and row-permuted; row j of the
    result is row ``perm[j]`` of the input."""
    direction, shift_exp, scale_exps, perm = transform
    rows, offsets = np.asarray(rows, float), np.asarray(offsets, float)
    shift = np.asarray(direction, float)
    norm = np.linalg.norm(shift)
    shift = shift * (10.0 ** shift_exp / norm) if norm > 1e-3 else np.zeros_like(shift)
    scales = 10.0 ** np.asarray(scale_exps, float)
    rows, offsets = rows * scales[:, None], (offsets - rows @ shift) * scales
    return rows[list(perm)], offsets[list(perm)]


def vertex_ranks(h, relabel=lambda f: f):
    """Gradient rank at each lifted vertex, keyed by its relabelled facets."""
    p, coords = enumerate_vertices(h)
    q = relation_matrix(h)
    return {tuple(sorted(relabel(f) for f in v)):
            quadric_gradient_rank(q, lift_point(h, x, [1] * h.m))
            for v, x in zip(p.vertices, coords)}


@pytest.mark.parametrize("name", METAMORPHIC_CORPUS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)
def test_verdicts_invariant_under_translation_scaling_permutation(name, data):
    h = METAMORPHIC_CORPUS[name]()
    transform = extremes(h.m, h.n) if data is None else data.draw(transforms(h.m, h.n))
    perm = transform[3]
    moved = make_hrep(*transformed(h.A.T, h.b, transform))
    p, _ = enumerate_vertices(h)
    q, _ = enumerate_vertices(moved)
    assert sorted(tuple(sorted(perm[f] for f in v)) for v in q.vertices) == list(p.vertices)
    report = verify_nondegeneracy(moved, sample_count=40, seed=1)
    assert report.passed and report == stacked_nondegeneracy_oracle(moved, 40, 1)
    assert vertex_ranks(moved, perm.__getitem__) == vertex_ranks(h)
    scaled = make_hrep(*transformed(h.A.T, h.b, ([0.0] * h.n, 0, *transform[2:])))
    assert vertex_ranks(scaled, perm.__getitem__) == vertex_ranks(h)


@pytest.mark.parametrize("name", REJECTED)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)
def test_rejections_invariant_under_translation_scaling_permutation(name, data):
    (rows, offsets), error = REJECTED[name]
    m, n = len(rows), len(rows[0])
    transform = extremes(m, n) if data is None else data.draw(transforms(m, n))
    perm = transform[3]
    with pytest.raises(error) as exc:
        enumerate_vertices(make_hrep(*transformed(rows, offsets, transform)))
    if name == "duplicate_row":  # the first of the two identical rows
        assert exc.value.index == min(perm.index(0), perm.index(1))
    elif name == "loose_halfspace":
        assert perm[exc.value.index] == 4


# ---------------------------------------------------------------------------
# the simplex behind make_hrep's checks, with linprog as the oracle


LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}
# HiGHS stops at reduced costs of 1e-7 by default, which can leave a value
# 1e-8 above the optimum when the costs differ by rounding only (the 1e9
# translations); the comparison is to 1e-9, so the oracle solves tighter.
HIGHS = dict(method="highs", options=dict(dual_feasibility_tolerance=1e-10,
                                          primal_feasibility_tolerance=1e-10))
SLAB = ([[1, 0, 0], [-1, 0, 0]], [0, 1])
HALFSPACE_ONLY = ([[1, 0], [0, 1], [1, 1]], [0, 0, 1])


def tangent_presentation(seed, n):
    """Planes tangent to the unit sphere: plus and minus an orthonormal frame,
    then random normals at least 15 degrees from every other."""
    rng = np.random.default_rng(seed)
    m = 2 * n + int(rng.integers(1, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    rows = [*q.T, *-q.T]
    while len(rows) < m:
        a = rng.standard_normal(n)
        a /= np.linalg.norm(a)
        if max(float(a @ r) for r in rows) < math.cos(math.radians(15)):
            rows.append(a)
    return rng.permutation(rows), np.ones(m)


def frame_lps(rows, offsets):
    """make_hrep's checks in the frame: (name, dual standard form, primal oracle).

    The standard form (M, r, cost) asks for min cost λ with M λ = r, λ >= 0.
    The primal is the form the checks took before, as linprog arguments; for
    the radius and redundancy checks its optimum is minus the dual's."""
    rows, offsets = np.asarray(rows, float), np.asarray(offsets, float)
    m, n = rows.shape
    f = HRep._trusted(n=n, m=m, A=rows.T, b=offsets)._frame
    free = [(None, None)]
    lps = [("span", (f.U.T, -f.U.T @ np.ones(m), np.zeros(m)),
            dict(c=np.zeros(m), A_eq=f.U.T, b_eq=np.zeros(n), bounds=[(1, None)])),
           ("radius", (np.vstack([f.U.T, np.ones(m)]), np.r_[np.zeros(n), 1.0], f.c),
            dict(c=np.r_[np.zeros(n), -1.0], A_ub=np.hstack([-f.U, np.ones((m, 1))]),
                 b_ub=f.c, bounds=free))]
    for i in range(m):
        keep = np.arange(m) != i
        lps.append((f"redundancy {i}", (f.U[keep].T, f.U[i], f.c[keep]),
                    dict(c=f.U[i], A_ub=-f.U[keep], b_ub=f.c[keep], bounds=free)))
    return lps


# accepted inputs with a row whose ray from the Chebyshev centre meets
# another row first, so only its redundancy LP certifies it: a 10 x 1 box
# with the corner (10, 1) cut by x + y <= 10.5, and a 10 x 1 x 1 bar with
# the same cut along its edge
LP_ONLY = {"corner_cut_box": ([[1, 0], [-1, 0], [0, 1], [0, -1], [-1, -1]],
                              [0, 10, 0, 1, 10.5]),
           "edge_cut_bar": ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                             [0, 0, -1], [-1, -1, 0]], [0, 10, 0, 1, 0, 1, 10.5])}
RAW = {**{name: data for name, (data, _) in REJECTED.items()},
       "slab": SLAB, "halfspace_only": HALFSPACE_ONLY, **LP_ONLY}
DIFFERENTIAL = [name + variant for name in [*METAMORPHIC_CORPUS, *RAW]
                for variant in ("", "+1e9", "+scaled")]
DIFFERENTIAL += [f"tangent{seed}" for seed in range(30)]


def differential_input(name):
    """A corpus H-rep or rejected input, its 1e9 translation or its rows
    scaled by 10^±9 in turn; or a seeded tangent presentation, n = 2..5."""
    if name.startswith("tangent"):
        seed = int(name[len("tangent"):])
        return tangent_presentation(seed, 2 + seed % 4)
    name, _, variant = name.partition("+")
    if name in METAMORPHIC_CORPUS:
        h = METAMORPHIC_CORPUS[name]()
        rows, offsets = h.A.T, h.b
    else:
        rows, offsets = RAW[name]
    m, n = len(rows), len(rows[0])
    direction, shift, scales, _ = extremes(m, n)
    if variant == "1e9":
        return transformed(rows, offsets, (direction, shift, [0] * m, range(m)))
    if variant == "scaled":
        return transformed(rows, offsets, (direction, 0, scales, range(m)))
    return rows, offsets


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_simplex_matches_linprog(name):
    rows, offsets = differential_input(name)
    for check, (M, r, cost), primal in frame_lps(rows, offsets):
        status, value, _ = _simplex(M, r, cost)
        res = linprog(cost, A_eq=M, b_eq=r, bounds=[(0, None)], **HIGHS)
        assert status == LINPROG_STATUS[res.status], (check, res.message)
        if status == "optimal":
            assert abs(value - res.fun) <= 1e-9, (check, value, res.fun)
        # by duality: an infeasible dual means an unbounded primal, and the
        # optimal values agree; span's dual is the same LP with w = 1 + v
        res = linprog(**primal, **HIGHS)
        if check == "span":
            assert (status == "optimal") == res.success, check
        elif status == "optimal":
            assert res.status == 0, (check, res.message)
            assert abs(value + res.fun) <= 1e-9, (check, value, res.fun)
        else:
            assert res.status == {"infeasible": 3, "unbounded": 2}[status], check


def test_simplex_statuses():
    # min -λ_1 with λ_1 - λ_2 = 1: unbounded; λ_1 + λ_2 = -1: infeasible
    assert _simplex(np.array([[1.0, -1.0]]), np.array([1.0]), np.array([-1.0, 0.0]))[0] \
        == "unbounded"
    assert _simplex(np.array([[1.0, 1.0]]), np.array([-1.0]), np.zeros(2))[0] \
        == "infeasible"
    # a repeated row stays behind as an artificial at level zero: column 4
    M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    assert _simplex(M, np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])) \
        == ("optimal", 2.0, [1, 4, 2])


def test_simplex_drives_zero_level_artificials_out():
    # with r = 0 phase I pivots column 0 in and leaves the second row's
    # artificial basic at level zero; the drive-out pivots column 1 in for it
    M, r, cost = np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2), np.zeros(2)
    status, value, basis = _simplex(M, r, cost)
    assert (status, value, basis) == ("optimal", 0.0, [0, 1])
    res = linprog(cost, A_eq=M, b_eq=r, bounds=[(0, None)], **HIGHS)
    assert LINPROG_STATUS[res.status] == status and abs(value - res.fun) <= 1e-9


# ---------------------------------------------------------------------------
# the edge walk and the stacked ranks, with the brute force as the oracle


def brute_force_vertices(h):
    """Vertices over all n-subsets of half-spaces, with the walk's checks."""
    f = h._frame
    found = {}
    for subset in itertools.combinations(range(h.m), h.n):
        sub = list(subset)
        if abs(np.linalg.det(f.U[sub])) <= hrep._TOL:
            continue
        vals = f.U @ np.linalg.solve(f.U[sub], -f.c[sub]) + f.c
        vals[sub] = 0.0
        if vals.min() < -f.thr:
            continue
        active = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= f.thr))
        if len(active) > h.n:
            raise NotSimplePresentation(f"point on {len(active)} hyperplanes: {active}")
        found[subset] = np.linalg.solve(h.A.T[sub], -h.b[sub])
    polytope = validate_polytope(h.n, sorted(found))
    return polytope, np.array([found[v] for v in polytope.vertices])


def edge_walk_oracle(h):
    """The edge walk depth first, one vertex at a time, with the same checks."""
    n, m, f = h.n, h.m, h._frame
    status, _, basis = _simplex(f.U.T, f.U[0], f.c)
    todo = [tuple(sorted(basis))] if status == "optimal" and max(basis) < m else []
    seen = set(todo)
    found = {}
    while todo:
        subset = todo.pop()
        sub = list(subset)
        if abs(np.linalg.det(f.U[sub])) <= hrep._TOL:
            continue
        vals = f.U @ np.linalg.solve(f.U[sub], -f.c[sub]) + f.c
        vals[sub] = 0.0
        if vals.min() < -f.thr:
            continue
        active = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= f.thr))
        if len(active) > n:
            raise NotSimplePresentation(f"point on {len(active)} hyperplanes: {active}")
        found[subset] = np.linalg.solve(h.A.T[sub], -h.b[sub])
        rates = -(f.U @ np.linalg.inv(f.U[sub])) / np.where(vals > 0, vals, np.inf)[:, None]
        for k, j in enumerate(rates.argmax(axis=0)):
            if rates[j, k] > 0:
                nxt = tuple(sorted([*sub[:k], *sub[k + 1:], int(j)]))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    polytope = validate_polytope(h.n, sorted(found))
    return polytope, np.array([found[v] for v in polytope.vertices])


def looped_nondegeneracy(h, sample_count, seed, gradients=None):
    """verify_nondegeneracy's report with two SVDs per sample, one at a time;
    each sample's gradients 2 gamma y go to the list ``gradients`` if given."""
    q = relation_matrix(h)
    polytope, coords = brute_force_vertices(h)
    rng = np.random.default_rng(seed)
    pts = list(coords)
    facet_members = [list(polytope.facet_vertices(i)) for i in range(h.m)]
    pts += [coords[members].mean(axis=0) for members in facet_members]
    pts.append(coords.mean(axis=0))
    for k in range(sample_count - len(pts)):
        members = facet_members[int(rng.integers(h.m))] if k % 2 else slice(None)
        pts.append(rng.dirichlet(np.ones(len(coords[members]))) @ coords[members])
    norms = h._frame.norms
    unit_gamma = q.gamma * np.sqrt(norms) / np.abs(q.gamma * norms).max(axis=1)[:, None]
    expected = h.m - h.n
    min_rank, min_margin, failures = expected, math.inf, []
    for idx, x in enumerate(pts):
        signs = 1 - 2 * rng.integers(0, 2, size=h.m)
        y = signs * np.sqrt(np.clip(h.values(x), 0.0, None))
        svals = np.linalg.svd(2.0 * unit_gamma * y, compute_uv=False)
        rank = int(np.sum(svals > hrep._TOL * max(1.0, svals[0])))
        svals = np.linalg.svd(2.0 * q.gamma * y, compute_uv=False)
        if gradients is not None:
            gradients.append(2.0 * q.gamma * y)
        min_margin = min(min_margin, float(svals[expected - 1]))
        min_rank = min(min_rank, rank)
        if rank < expected:
            failures.append((idx, rank))
    return hrep.NondegeneracyReport(expected_rank=expected, min_rank=min_rank,
                                    min_margin=min_margin, samples=len(pts),
                                    failures=tuple(failures))


def outcome(call, *args):
    """The call's result, or the type of the package error it raised."""
    try:
        return call(*args)
    except MomangError as e:
        return type(e)


# every input make_hrep accepts, and the octahedron, which it accepts too
WALKED = [name for name in DIFFERENTIAL if name.partition("+")[0] not in RAW
          or name.startswith(("octahedron", *LP_ONLY))]


@pytest.mark.parametrize("name", WALKED)
def test_walk_equals_brute_force(name, monkeypatch):
    # at _RANK_CHUNK = 2 every layer is expanded one subset per block
    oracle = outcome(brute_force_vertices, make_hrep(*differential_input(name)))
    for chunk in (hrep._RANK_CHUNK, 2):
        monkeypatch.setattr(hrep, "_RANK_CHUNK", chunk)
        walked = outcome(enumerate_vertices, make_hrep(*differential_input(name)))
        if name.startswith("octahedron"):
            assert walked is oracle is NotSimplePresentation
            continue
        (p, coords), (q, expect) = walked, oracle
        assert p.vertices == q.vertices and p == q
        assert coords.tobytes() == expect.tobytes()


def test_layered_walk_equals_the_depth_first_walk():
    # 300 tangent planes: 596 vertices in blocks of 256^2 // 300 = 218 subsets
    h = parse_hrep(fibonacci_tangent_hrep(300))
    (p, coords), (q, expect) = enumerate_vertices(h), edge_walk_oracle(h)
    assert p.vertex_count == 596 and p.vertices == q.vertices
    assert coords.tobytes() == expect.tobytes()


@pytest.mark.parametrize("name", [*(n for n in WALKED if not n.startswith("octahedron")),
                                  "cube9"])
def test_stacked_ranks_equal_the_looped_report(name, monkeypatch):
    # three chunks, the last one short; cube9 has 512 vertices and facets of
    # 256, so its 600 random points draw 230,400 entries, weighted in four
    # blocks of _RANK_CHUNK^2; at _RANK_CHUNK = 2 every chunk and block holds
    # one or two points
    if name == "cube9":
        h, count = cube_hrep(9), 512 + 18 + 1 + 600
    else:
        h, count = make_hrep(*differential_input(name)), 2 * hrep._RANK_CHUNK + 17
    oracle = looped_nondegeneracy(h, count, 7)
    for chunk in (hrep._RANK_CHUNK, 2):
        monkeypatch.setattr(hrep, "_RANK_CHUNK", chunk)
        report = verify_nondegeneracy(h, sample_count=count, seed=7)
        assert report.samples == count and isinstance(report.min_rank, int)
        assert report == oracle


def recording_lifts(monkeypatch):
    """Wrap ``hrep._lifted``; the list returned receives (signs, lifts) per call."""
    lifted, seen = hrep._lifted, []

    def recording(h, pts, signs):
        seen.append((signs, lifted(h, pts, signs)))
        return seen[-1][1]

    monkeypatch.setattr(hrep, "_lifted", recording)
    return seen


@pytest.mark.parametrize("h", [cube_hrep(9), dodecahedron_hrep()], ids=["cube9", "dodecahedron"])
def test_stacked_points_equal_the_looped_points(h, monkeypatch):
    # a report reads minima, which a point off by an ulp seldom moves; every
    # sample's gradients 2 gamma y pin its point's bits.  They are read off
    # the signed lifts, which every sample passes through whether or not its
    # bounds spare it the SVD of G; the unsigned vertex lifts of the bounds
    # (none on the cube, whose Gram matrix is constant) are left out
    expect = []
    looped_nondegeneracy(h, 1131, 7, expect)
    q, seen = relation_matrix(h), recording_lifts(monkeypatch)
    for chunk in (hrep._RANK_CHUNK, 2):
        monkeypatch.setattr(hrep, "_RANK_CHUNK", chunk)
        seen.clear()
        verify_nondegeneracy(h, sample_count=1131, seed=7)
        ys = np.concatenate([y for signs, y in seen if not np.isscalar(signs)])
        assert (2.0 * q.gamma * ys).tobytes() == np.array(expect).tobytes()


def test_stacked_ranks_report_the_loops_failures(monkeypatch):
    # at tolerance 0.2 small singular values count as zero: ranks fail in
    # every chunk; the presentation is validated at 1e-9 first, and
    # _trusted keeps the door from validating it again at 0.2
    g = dodecahedron_hrep()
    monkeypatch.setattr(hrep, "_TOL", 0.2)
    h = HRep._trusted(g.n, g.m, g.A, g.b)
    report = verify_nondegeneracy(h, sample_count=600, seed=3)
    assert len(report.failures) > 200 and report.failures[-1][0] > 2 * hrep._RANK_CHUNK
    assert report == looped_nondegeneracy(h, 600, 3)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_uncertified_samples_take_the_rank_svd(monkeypatch, scale):
    # the cube's row 0 0 -1 1 scaled by 1e200 or 1e-200: the column and row
    # scales spread by 1e100 or more, so no sample's bounds certify its rank
    # and every sample takes the rank SVD; the report is still the loop's
    rows, offsets = cube_hrep(3).A.T.copy(), cube_hrep(3).b.copy()
    rows[5], offsets[5] = rows[5] * scale, offsets[5] * scale
    h = make_hrep(rows, offsets)
    ranked, numeric_rank = [], hrep._numeric_rank
    monkeypatch.setattr(hrep, "_numeric_rank", lambda M: ranked.append(len(M)) or numeric_rank(M))
    report = verify_nondegeneracy(h, sample_count=300, seed=5)
    assert ranked == [256, 44] and report.min_rank == 3
    assert report == looped_nondegeneracy(h, 300, 5)


def test_certified_samples_skip_the_rank_svd(monkeypatch):
    ranked, hreps = [], all_hreps()
    monkeypatch.setattr(hrep, "_numeric_rank", lambda M: ranked.append(len(M)))
    for name, h in hreps:
        assert verify_nondegeneracy(h, sample_count=300, seed=5).passed, name
    assert ranked == []


def cube_with_a_scaled_row(scale):
    """The cube with its row 0 0 -1 1 scaled by ``scale``."""
    rows, offsets = cube_hrep(3).A.T.copy(), cube_hrep(3).b.copy()
    rows[5], offsets[5] = rows[5] * scale, offsets[5] * scale
    return make_hrep(rows, offsets)


BOUNDED = {**{name: (lambda name=name: dict(all_hreps())[name]) for name, _ in all_hreps()},
           **{f"cube{n}": (lambda n=n: cube_hrep(n)) for n in range(4, 10)},
           **{f"{name}+1e9": (lambda name=name: make_hrep(*differential_input(f"{name}+1e9")))
              for name in METAMORPHIC_CORPUS},
           "cube3*1e200": lambda: cube_with_a_scaled_row(1e200),
           "cube3*1e-200": lambda: cube_with_a_scaled_row(1e-200),
           "tangent3x30": lambda: parse_hrep(fibonacci_tangent_hrep(30))}


@pytest.mark.parametrize("name", BOUNDED)
def test_bounded_report_equals_the_stacked_oracle(name, monkeypatch):
    # the vertex bounds spare samples SVDs, never a bit of the report.  On
    # products of simplices (cubes, the simplex, the prism) the Gram matrix
    # is constant, every sample ties and no bound is computed; on 1e9
    # translations the slacks' rounding widens the bounds, and at 1e+-200
    # they are computed but certify no rank
    h = BOUNDED[name]()
    count = max(2 * hrep._RANK_CHUNK + 17, enumerate_vertices(h)[0].vertex_count + h.m + 1)
    constant = name.startswith(("cube", "simplex3", "prism")) and "*" not in name
    assert (hrep._vertex_bounds(h, relation_matrix(h), enumerate_vertices(h)[1], 0.0)
            is None) == constant
    for chunk in (hrep._RANK_CHUNK, 2):
        monkeypatch.setattr(hrep, "_RANK_CHUNK", chunk)
        assert verify_nondegeneracy(h, count, 7) == stacked_nondegeneracy_oracle(h, count, 7)


def test_bounded_failures_equal_the_stacked_oracle(monkeypatch):
    # at tolerance 0.2 many samples fail their rank test; the presentations
    # are validated, walked and reduced at 1e-9 first
    made = [h for _, h in all_hreps()] + [parse_hrep(fibonacci_tangent_hrep(18))]
    for h in made:
        enumerate_vertices(h), relation_matrix(h)
    monkeypatch.setattr(hrep, "_TOL", 0.2)
    failed = 0
    for h in made:
        report = verify_nondegeneracy(h, sample_count=600, seed=3)
        assert report == stacked_nondegeneracy_oracle(h, 600, 3)
        failed += len(report.failures)
    assert failed > 200


def test_dodecahedron_sends_its_least_vertices_alone_to_the_svd(monkeypatch):
    # vertices 12, 15, 18 and 19 tie for the least sigma_9 of G, which
    # min_margin reads; the bounds rule out every other sample, the other 16
    # vertices too, and certify their ranks, so the one SVD of G takes those
    # four rows and no rank SVD runs
    h = dodecahedron_hrep()
    q, (_, coords) = relation_matrix(h), enumerate_vertices(h)
    least = np.linalg.svd(2.0 * q.gamma * hrep._lifted(h, coords, 1.0), compute_uv=False)[:, -1]
    rows = np.flatnonzero(least < least.min() * (1 + 1e-12))
    assert rows.tolist() == [12, 15, 18, 19]
    seen = recording_lifts(monkeypatch)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        report = verify_nondegeneracy(h, sample_count=1131, seed=7)
    (stack,) = [call.args[0] for call in svd.call_args_list]
    ys = np.concatenate([y for signs, y in seen if not np.isscalar(signs)])
    assert len(ys) == 1131
    assert stack.tobytes() == (2.0 * q.gamma * ys[rows]).tobytes()
    assert report == stacked_nondegeneracy_oracle(h, 1131, 7)


def test_numeric_rank_of_a_stack_equals_each_rank():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((5, 3, 6))
    stack[1, 2] = stack[1, 0] + stack[1, 1]      # rank 2
    stack[2] *= 1e-12                            # every value under 1e-9: rank 0
    stack[3, :2] *= 1e6                          # past 1 the threshold is relative:
    stack[3, 2] *= 1e-4                          # 1e-4 is under 1e-9 * 1e6, rank 2
    ranks = hrep._numeric_rank(stack)
    assert ranks.tolist() == [hrep._numeric_rank(a) for a in stack] == [3, 2, 0, 2, 3]
    assert hrep._numeric_rank(np.zeros((0, 4))) == 0


def test_enumeration_is_cached_and_read_only():
    h = dodecahedron_hrep()
    first = enumerate_vertices(h)
    assert enumerate_vertices(h) is first
    with pytest.raises(ValueError):
        first[1][0, 0] = 1.0


# a cube whose top is a hip roof: four planes at 45 degrees to the walls,
# meeting at the apex (0.5, 0.5, 2), the only point on more than 3 planes;
# the roof ridges end at the midpoints of the top edges, the planes at the
# top corners (x, y, 1)
ROOFED_CUBE = ([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
               + [[-sx, -sy, -1] for sx in (1, -1) for sy in (1, -1)],
               [0, 1, 0, 1, 0] + [2 + (sx + sy) / 2 for sx in (1, -1) for sy in (1, -1)])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(perm=st.permutations(range(9)))
@example(perm=list(range(9)))
def test_degenerate_apex_found_from_any_start(perm):
    rows, offsets = (np.asarray(a, float)[list(perm)] for a in ROOFED_CUBE)
    h = make_hrep(rows, offsets)
    if perm == list(range(9)):  # the walk starts at (0, 0, 0), 3 edges from the apex
        f = h._frame
        assert sorted(_simplex(f.U.T, f.U[0], f.c)[2]) == [0, 2, 4]
    with pytest.raises(NotSimplePresentation, match="point on 4 hyperplanes"):
        enumerate_vertices(h)
    with pytest.raises(NotSimplePresentation):
        brute_force_vertices(h)


@pytest.mark.parametrize("name", [f"{n}+1e9" for n in METAMORPHIC_CORPUS])
def test_off_variety_still_raises_on_translated_input(name):
    h = make_hrep(*differential_input(name))
    q = relation_matrix(h)
    _, coords = enumerate_vertices(h)
    for x in (coords[0], coords.mean(axis=0)):
        y = lift_point(h, x, [1] * h.m).y
        assert quadric_gradient_rank(q, y) == h.m - h.n
        off = y * y
        off[int(np.argmax(off))] += 1e-3
        with pytest.raises(NotOnVariety):
            quadric_gradient_rank(q, np.sqrt(off))


# ---------------------------------------------------------------------------
# ray-shot certificates, with the all-rows redundancy loop as the oracle


def redundancy_lp(h, i):
    """Whether row i is redundant, by its LP (the loop make_hrep ran on every row)."""
    f = h._frame
    keep = np.arange(h.m) != i
    status, value, _ = _simplex(f.U[keep].T, f.U[i], f.c[keep])
    if status == "infeasible":
        return False  # unbounded below without row i: certainly irredundant
    if status != "optimal":
        raise ParseError(f"LP solver failed on redundancy check {i}")
    return f.c[i] - value >= -f.thr


def looped_make_hrep(rows, offsets):
    """make_hrep before the ray shots: its checks up to the Chebyshev radius
    (run with every row certified, so no redundancy LP), then the redundancy
    LP on every row in ascending order; the first redundant row raises."""
    with mock.patch.object(hrep, "_ray_certified", lambda f, basis: np.ones(len(f.c), bool)):
        h = make_hrep(rows, offsets)
    for i in range(h.m):
        if redundancy_lp(h, i):
            raise RedundantHalfspace(i)
    return h


def looped_ray_shots(h):
    """``_ray_certified`` of the radius LP's basis, one row and one ray at a time."""
    f, m, n = h._frame, h.m, h.n
    _, _, basis = _simplex(np.vstack([f.U.T, np.ones(m)]), np.r_[np.zeros(n), 1.0], f.c)
    if max(basis) >= m:
        return [False] * m
    system = np.c_[f.U[basis], -np.ones(n + 1)]
    if abs(np.linalg.det(system)) <= hrep._TOL:
        return [False] * m
    slack = f.U @ np.linalg.solve(system, -f.c[basis])[:n] + f.c
    if slack.min() < 0:
        return [False] * m
    certified = []
    for i in range(m):
        hits = [slack[j] / (f.U[j] @ f.U[i]) for j in range(m)
                if j != i and f.U[j] @ f.U[i] > 0]
        certified.append(bool(slack[i] - min(hits, default=math.inf) < -f.thr))
    return certified


def verdict(call, *args):
    """The accepted presentation's A and b, or the error's type, index and message."""
    try:
        h = call(*args)
    except MomangError as e:
        return type(e), getattr(e, "index", None), str(e)
    return h.A.tobytes(), h.b.tobytes()


@pytest.fixture
def simplex_calls(monkeypatch):
    """The right-hand sides of the LPs make_hrep solves, in order."""
    calls = []

    def counting(M, r, cost):
        calls.append(np.array(r))
        return _simplex(M, r, cost)

    monkeypatch.setattr(hrep, "_simplex", counting)
    return calls


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_ray_shots_match_the_all_rows_loop(name, simplex_calls):
    rows, offsets = differential_input(name)
    expected = verdict(looped_make_hrep, rows, offsets)
    simplex_calls.clear()
    assert verdict(make_hrep, rows, offsets) == expected
    if expected[0] in (Unbounded, EmptyInterior):
        return  # refused before any row is shot at
    # the LP fallback ran on the uncertified rows, in order, up to the first
    # redundant one; every certified row is irredundant by its LP
    rows, offsets = np.asarray(rows, float), np.asarray(offsets, float)
    h = HRep._trusted(n=rows.shape[1], m=rows.shape[0], A=rows.T, b=offsets)
    certified = looped_ray_shots(h)
    uncertified = [i for i, ok in enumerate(certified) if not ok]
    if expected[0] is RedundantHalfspace:
        uncertified = uncertified[:uncertified.index(expected[1]) + 1]
    assert [r.tobytes() for r in simplex_calls[2:]] == \
        [h._frame.U[i].tobytes() for i in uncertified]
    assert not any(redundancy_lp(h, i) for i in range(h.m) if certified[i])
    base = name.partition("+")[0]
    if base in (*METAMORPHIC_CORPUS, "octahedron") or base.startswith("tangent"):
        assert len(simplex_calls) == 2 and all(certified)
    if base in LP_ONLY:
        assert certified.count(False) == 1


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_the_constructor_accepts_what_make_hrep_accepts(name):
    # HRep(n, m, A, b) runs make_hrep on A's columns, with its errors, and
    # keeps its bit-equal read-only copies, not the caller's arrays
    rows, offsets = differential_input(name)
    A = np.array(rows, dtype=float).T
    m, n = len(rows), len(rows[0])
    expected = verdict(make_hrep, rows, offsets)
    assert verdict(HRep, n, m, A, offsets) == expected
    if isinstance(expected[0], bytes):
        h = HRep(n, m, A, offsets)
        assert h.A is not A and not h.A.flags.writeable and not h.b.flags.writeable
        A[:] = 0
        assert h.A.tobytes() == expected[0] and repr(h) == repr(make_hrep(rows, offsets))


@pytest.mark.parametrize("name", [*REJECTED, *LP_ONLY])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
@example(data=None)
def test_ray_shots_match_the_all_rows_loop_under_transforms(name, data):
    rows, offsets = RAW[name]
    m, n = len(rows), len(rows[0])
    transform = extremes(m, n) if data is None else data.draw(transforms(m, n))
    moved = transformed(rows, offsets, transform)
    assert verdict(make_hrep, *moved) == verdict(looped_make_hrep, *moved)


@pytest.mark.parametrize("name", [*WALKED, "fibonacci300"])
def test_ray_shots_in_blocks_equal_the_row_loop(name):
    # 300 rows take two blocks of _RANK_CHUNK, the last one short
    h = (parse_hrep(fibonacci_tangent_hrep(300)) if name == "fibonacci300"
         else make_hrep(*differential_input(name)))
    f = h._frame
    basis = _simplex(np.vstack([f.U.T, np.ones(h.m)]), np.r_[np.zeros(h.n), 1.0], f.c)[2]
    assert hrep._ray_certified(f, basis).tolist() == looped_ray_shots(h)


def test_ray_shots_certify_nothing_when_the_basis_fixes_no_centre():
    h = make_hrep(*LP_ONLY["corner_cut_box"])
    f = h._frame
    # the radius LP's basis: y = 0, y = 1 and the cut, 0.5 from the centre
    assert hrep._ray_certified(f, [3, 2, 4]).tolist() == [True, False, True, True, True]
    # an artificial column; a repeated row, which fixes no point; and x = 0,
    # y = 0, x = 10, whose equidistant point (5, 5) violates y <= 1
    for basis in ([3, 2, 5], [2, 2, 4], [0, 2, 1]):
        assert not hrep._ray_certified(f, basis).any(), basis


def test_tangent_planes_parse_with_two_lps(simplex_calls):
    # every row of 300 planes tangent to the sphere is certified by its ray:
    # the span and radius LPs are the only ones (the all-rows loop ran 302)
    h = parse_hrep(fibonacci_tangent_hrep(300))
    assert len(simplex_calls) == 2
    assert enumerate_vertices(h)[0].vertex_count == 2 * 300 - 4


def test_span_and_radius_lps_capped_before_the_first(monkeypatch, simplex_calls):
    # two LPs of (n + 2)(m + n + 2) tableau entries and m pivots each: the
    # cube's 2 * 5 * 11 * 6 = 660 steps, and 12,000 tangent planes, which
    # took 3.0 s to parse, predict 1.44e9 and are refused before any LP
    cube3 = cube_hrep(3)
    simplex_calls.clear()
    monkeypatch.setattr(hrep, "_LP_CAP", 659)
    with pytest.raises(GuardExceeded, match="span and radius LPs .* predicted 660 exceeds"):
        make_hrep(cube3.A.T, cube3.b)
    assert simplex_calls == []
    monkeypatch.setattr(hrep, "_LP_CAP", 10 ** 9)
    with pytest.raises(GuardExceeded, match="predicted 1440600000 exceeds"):
        parse_hrep(fibonacci_tangent_hrep(12_000))
    assert simplex_calls == []


def test_redundancy_lps_capped_before_the_first(monkeypatch, simplex_calls):
    # with no row of the cube certified, 6 LPs of (3 + 1)(6 + 3) tableau
    # entries and 6 pivots each are predicted after the span and radius LPs,
    # whose own 660 predicted steps pass caps down to 660
    cube3 = cube_hrep(3)
    rows, offsets = cube3.A.T, cube3.b
    work = 6 * 4 * 9 * 6
    monkeypatch.setattr(hrep, "_LP_CAP", 660)
    simplex_calls.clear()
    make_hrep(rows, offsets)  # every row certified: no redundancy LP predicted
    assert len(simplex_calls) == 2
    monkeypatch.setattr(hrep, "_ray_certified", lambda f, basis: np.zeros(6, bool))
    monkeypatch.setattr(hrep, "_LP_CAP", work - 1)
    simplex_calls.clear()
    with pytest.raises(GuardExceeded, match=f"6 redundancy LPs .* predicted {work} exceeds"):
        make_hrep(rows, offsets)
    assert len(simplex_calls) == 2
    monkeypatch.setattr(hrep, "_LP_CAP", work)
    simplex_calls.clear()
    make_hrep(rows, offsets)
    assert len(simplex_calls) == 2 + 6
