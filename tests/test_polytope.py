import itertools
import json
import random
import sys
from collections import Counter, defaultdict

import networkx as nx
import pytest

import momang.polytope as polytope
from momang import (
    CombPolytope,
    SimplicialSphere,
    bistellar_flip,
    combinatorial_isomorphic,
    cube,
    dodecahedron,
    dual_sphere,
    face_lattice,
    is_simplex,
    polytope_from_json,
    polytope_to_json,
    prism,
    random_vertexcuts,
    simplex,
    simplex_boundary_sphere,
    validate_polytope,
    validate_sphere,
    vertex_cut,
)
from momang.corpus import cube_hrep, generate, simplex_hrep
from momang.errors import (
    BadParameters,
    DuplicateVertex,
    GuardExceeded,
    InvalidSphere,
    LinkNotStandard,
    NotPolytopal,
    NotSimple,
    ParseError,
    UnusedFacet,
)
from conftest import (
    cover_pairs,
    edge_cut_simplex,
    face_lattice_oracle,
    move_rule_polytopes,
    polar_cyclic,
    ridge_table_oracle,
)

SIMPLEX3_VERTS = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]

GENERATORS = {"simplex": simplex, "cube": cube, "simplex_hrep": simplex_hrep,
              "cube_hrep": cube_hrep, "random_vertexcuts": lambda k: random_vertexcuts(k, 0)}


@pytest.mark.parametrize("value", [3.0, True, "3", None], ids=repr)
@pytest.mark.parametrize("name", GENERATORS)
def test_generators_refuse_arguments_that_are_not_ints(name, value):
    # cube(3.0) escaped as TypeError, and cube(True) returned the 1-cube
    with pytest.raises(BadParameters, match="must be an integer"):
        GENERATORS[name](value)


@pytest.mark.parametrize("name,value,message", [
    ("simplex", 0, "simplex dimension must be >= 1, got 0"),
    ("cube_hrep", -2, "cube dimension must be >= 1, got -2"),
    ("random_vertexcuts", -1, "cut count must be >= 0, got -1"),
])
def test_generators_refuse_arguments_out_of_range(name, value, message):
    with pytest.raises(BadParameters) as info:
        GENERATORS[name](value)
    assert str(info.value) == message


@pytest.mark.parametrize("args,message", [
    (("simplex",), "simplex needs a dimension parameter"),
    (("random-vertexcuts",), "random-vertexcuts needs a cut count"),
    (("torus", 3), "unknown kind 'torus'"),
], ids=["simplex", "random-vertexcuts", "torus"])
def test_generate_refuses_missing_parameters_and_unknown_kinds(args, message):
    with pytest.raises(BadParameters) as info:
        generate(*args)
    assert str(info.value) == message


def generator_ladder():
    out = [(f"simplex{n}", simplex(n)) for n in range(1, 10)]
    out += [(f"cube{n}", cube(n)) for n in range(1, 12)]
    out += [("prism", prism()), ("dodecahedron", dodecahedron())]
    return out + [(f"rvc{k}-{s}", random_vertexcuts(k, s))
                  for k in (0, 1, 2, 5, 40, 400) for s in (0, 1, 2)]


@pytest.mark.parametrize("name,p", generator_ladder())
def test_generators_build_what_validation_accepts(name, p):
    # the generators skip validation; what they build by construction is
    # what validating their incidence gives, vertex order included
    q = validate_polytope(p.dim, p.vertices)
    assert p == q and p.vertices == q.vertices and p.facet_labels is None


def triangles_dual(triangles):
    """Incidence of the map dual to a triangulated surface: one vertex per
    triangle, one facet per surface vertex."""
    return [tuple(sorted(t)) for t in triangles]


# dual of the 7-vertex torus: 14 hexagon corners, 7 facets
HEAWOOD_TORUS = triangles_dual(
    t for i in range(7)
    for t in ({i, (i + 1) % 7, (i + 3) % 7}, {i, (i + 2) % 7, (i + 3) % 7}))
# dual of the 6-vertex hemi-icosahedron: 10 pentagon corners, 6 facets
PETERSEN_PROJECTIVE = triangles_dual([
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)])


def torus_grid(n, k, twist=False):
    """Dual of the n x k grid triangulation of the torus, or with ``twist``
    of the Klein bottle (the wrap in the first direction reflects the
    second)."""
    def label(i, j):
        if i == n:
            i, j = 0, -j if twist else j
        return i * k + j % k
    triangles = []
    for i, j in itertools.product(range(n), range(k)):
        a, b, c, d = label(i, j), label(i + 1, j), label(i + 1, j + 1), label(i, j + 1)
        triangles += [(a, b, c), (a, c, d)]
    return triangles_dual(triangles)


def pinch(verts):
    """Merge the first two facet labels with disjoint closed neighbourhoods
    (a facet boundary becomes two cycles), or ``None`` when no pair has."""
    near = defaultdict(set)
    for v in verts:
        for f in v:
            near[f].update(v)
    pair = next(((a, b) for a, b in itertools.combinations(sorted(near), 2)
                 if not near[a] & near[b]), None)
    if pair is None:
        return None
    a, b = pair
    relabel = {f: a if f == b else f - (f > b) for f in near}
    return [tuple(sorted(relabel[f] for f in v)) for v in verts]


def _has_cut_vertex(adjacency, skip) -> bool:
    """Articulation-point test (Tarjan lowpoints) on the graph minus ``skip``."""
    count = len(adjacency)
    start = 1 if skip == 0 else 0
    num = {start: 0}
    low = {start: 0}
    parent = {start: None}
    stack = [(start, iter(adjacency[start]))]
    counter = 1
    root_children = 0
    articulation = False
    while stack:
        u, it = stack[-1]
        descended = False
        for v in it:
            if v == skip:
                continue
            if v not in num:
                parent[v] = u
                num[v] = low[v] = counter
                counter += 1
                if u == start:
                    root_children += 1
                stack.append((v, iter(adjacency[v])))
                descended = True
                break
            if v != parent[u]:
                low[u] = min(low[u], num[v])
        if not descended:
            stack.pop()
            pu = parent[u]
            if pu is not None:
                low[pu] = min(low[pu], low[u])
                if pu != start and low[u] >= num[pu]:
                    articulation = True
    expected = count - (0 if skip is None else 1)
    return articulation or root_children > 1 or counter < expected


def steinitz_oracle(verts):
    """Reference n = 3 screen for simple incidence with facets 0..m-1: every
    ridge in two vertices, a connected planar vertex-edge graph with no cut
    vertex after any single removal (one Tarjan pass per vertex), and each
    facet boundary one cycle.  Returns the rejecting exception type or
    ``None``."""
    ridges = defaultdict(list)
    for vi, fs in enumerate(verts):
        for f in fs:
            ridges[frozenset(fs) - {f}].append(vi)
    if any(len(ends) != 2 for ends in ridges.values()):
        return NotPolytopal
    count = len(verts)
    adjacency = [[] for _ in verts]
    for a, b in ridges.values():
        adjacency[a].append(b)
        adjacency[b].append(a)
    graph = nx.Graph(list(ridges.values()))
    if count < 4 or not nx.is_connected(graph) or not nx.check_planarity(graph)[0]:
        return NotPolytopal
    if any(_has_cut_vertex(adjacency, skip=u) for u in range(count)):
        return NotPolytopal
    facet_verts = defaultdict(list)
    for vi, fs in enumerate(verts):
        for f in fs:
            facet_verts[f].append(vi)
    for vids in facet_verts.values():
        vset = set(vids)
        if any(sum(w in vset for w in adjacency[v]) != 2 for v in vids):
            return NotPolytopal
        seen = {vids[0]}
        stack = [vids[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w in vset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != vset:
            return NotPolytopal
    return None


def disjoint_union(a, b):
    """Incidence of ``a`` next to ``b`` with ``b``'s facets shifted past ``a``'s."""
    shift = 1 + max(max(v) for v in a)
    return list(a) + [tuple(f + shift for f in v) for v in b]


def steinitz_inputs():
    """Named incidence lists for the differential test of the n = 3 screen."""
    rng = random.Random(3)
    polytopes = [("simplex3", simplex(3)), ("cube3", cube(3)), ("prism", prism()),
                 ("dodecahedron", dodecahedron())]
    polytopes += [(f"rvc{k}s{s}", random_vertexcuts(k, s))
                  for s in range(3) for k in (1, 4, 9, 17, 28, 40)]
    p = dodecahedron()
    for cuts in range(1, 9):
        p = vertex_cut(p, rng.randrange(p.vertex_count))
        polytopes.append((f"dodeca-cut{cuts}", p))
    inputs = []
    for name, q in polytopes:
        inputs.append((name, list(q.vertices)))
        pinched = pinch(q.vertices)
        if pinched is not None:
            inputs.append((f"{name}-pinched", pinched))
    for n, k in itertools.product(range(3, 6), repeat=2):
        inputs += [(f"torus{n}x{k}", torus_grid(n, k)),
                   (f"klein{n}x{k}", torus_grid(n, k, twist=True))]
    # a sphere beside a torus has Euler characteristic 2: only the
    # connectivity check tells it apart
    for name, torus in [("heawood", HEAWOOD_TORUS), ("torus3x4", torus_grid(3, 4))]:
        inputs.append((f"simplex3+{name}", disjoint_union(SIMPLEX3_VERTS, torus)))
    inputs += [("heawood", HEAWOOD_TORUS), ("petersen", PETERSEN_PROJECTIVE),
               ("cube3+cube3", disjoint_union(cube(3).vertices, cube(3).vertices))]
    return inputs


def brute_face_census(dim, verts):
    """Independent face counter: scan every facet subset of every size."""
    m = max(max(v) for v in verts) + 1
    counts = {}
    for k in range(1, dim + 1):
        cnt = 0
        for sub in itertools.combinations(range(m), k):
            if any(set(sub) <= set(v) for v in verts):
                cnt += 1
        counts[dim - k] = cnt
    return counts  # face dimension -> count, proper faces only


# ---------------------------------------------------------------------------
# validation


def test_validate_simplex_and_cube():
    p = validate_polytope(3, SIMPLEX3_VERTS)
    assert p.facet_count == 4 and p.vertex_count == 4
    c = cube(3)
    assert c.facet_count == 6 and c.vertex_count == 8


def test_validate_refuses_negative_indices_and_miscounted_labels():
    with pytest.raises(ParseError, match="negative facet index"):
        validate_polytope(3, [(0, 1, -1)])
    with pytest.raises(ParseError, match="expected 4 facet labels, got 2"):
        validate_polytope(3, simplex(3).vertices, ["a", "b"])


def test_validate_not_simple():
    bad = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2, 3)]
    with pytest.raises(NotSimple):
        validate_polytope(3, bad)


def test_validate_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        validate_polytope(3, SIMPLEX3_VERTS + [(0, 1, 2)])


def test_validate_unused_facet():
    verts = [(1, 2, 4), (0, 2, 4), (0, 1, 4), (0, 1, 2)]
    with pytest.raises(UnusedFacet):
        validate_polytope(3, verts)


@pytest.mark.parametrize("verts", [
    # two tetrahedra sharing facet labels 0..2 but disjoint vertices: the
    # ridge {0,1} (and others) would lie in four vertices.
    SIMPLEX3_VERTS + [(1, 2, 4), (0, 2, 4), (0, 1, 4)],
    HEAWOOD_TORUS,
    PETERSEN_PROJECTIVE,
    pinch(dodecahedron().vertices),
], ids=["shared-ridges", "heawood-torus", "petersen-projective", "pinched-dodecahedron"])
def test_validate_not_polytopal(verts):
    with pytest.raises(NotPolytopal):
        validate_polytope(3, verts)


def test_euler_screen_matches_steinitz_oracle():
    inputs = steinitz_inputs()
    verdicts = []
    for name, verts in inputs:
        expected = steinitz_oracle(verts)
        verdicts.append(expected)
        if expected is None:
            validate_polytope(3, verts)
        else:
            with pytest.raises(expected):
                validate_polytope(3, verts)
    # both verdicts occur often, so neither branch passes vacuously
    assert verdicts.count(None) >= 20 and verdicts.count(NotPolytopal) >= 20


def test_validate_segment_and_polygon():
    seg = validate_polytope(1, [(0,), (1,)])
    assert seg.facet_count == 2
    square = cube(2)
    assert square.facet_count == 4 and square.vertex_count == 4
    with pytest.raises(NotPolytopal):
        validate_polytope(1, [(0,), (1,), (2,)])


# ---------------------------------------------------------------------------
# face lattice


def test_face_counts_simplex_cube():
    assert face_lattice(simplex(3)).f_vector() == (4, 6, 4)
    assert face_lattice(cube(3)).f_vector() == (8, 12, 6)


def test_face_counts_prism_against_census():
    p = prism()
    census = brute_face_census(3, p.vertices)
    assert census == {0: 6, 1: 9, 2: 5}
    assert face_lattice(p).f_vector() == (6, 9, 5)


def test_face_lattice_structure(corpus):
    for name, p in corpus:
        lat = face_lattice(p)
        n = p.dim
        top = lat.faces[0]
        assert top.facets == frozenset() and top.dim == n
        assert len(top.vertices) == p.vertex_count
        for f in lat.faces:
            assert len(f.facets) == n - f.dim, name
            assert f.vertices, name
        # Euler relation over proper faces
        chi = sum((-1) ** f.dim for f in lat.faces if f.dim < n)
        assert chi == 1 + (-1) ** (n - 1), name
        for a, b in cover_pairs(lat):
            fa, fb = lat.faces[a], lat.faces[b]
            assert fa.facets < fb.facets and fb.dim == fa.dim - 1
            assert set(fb.vertices) <= set(fa.vertices)


def test_face_lattice_guard_counts_subsets(monkeypatch):
    # 16 vertices of the 4-cube times 2^4 facet subsets each
    monkeypatch.setattr(polytope, "_WORK_CAP", 256)
    assert face_lattice(cube(4)).f_vector() == (16, 32, 24, 8)
    monkeypatch.setattr(polytope, "_WORK_CAP", 255)
    with pytest.raises(GuardExceeded):
        face_lattice(cube(4))
    # past 64 facets a mask takes two 64-bit words: 126 vertices * 2^3 * 2
    p = random_vertexcuts(61, 0)
    assert (p.facet_count, p.vertex_count) == (65, 126)
    monkeypatch.setattr(polytope, "_WORK_CAP", 2016)
    assert face_lattice(p).f_vector() == (126, 189, 65)
    monkeypatch.setattr(polytope, "_WORK_CAP", 2015)
    with pytest.raises(GuardExceeded):
        face_lattice(p)


def test_face_records_capped_by_vertex_memberships(monkeypatch):
    # simplex(18) is admitted; the polar cyclic 7-polytope with 64 vertices
    # (68,440 vertices, 937 MB peak for its records) is not
    assert 19 << 18 <= polytope._FACES_CAP < 68440 << 7
    # 16 vertices of the 4-cube in 2^4 faces each; the cap is checked on
    # first read, before any record is built, and admits exactly that count
    lat = face_lattice(cube(4))
    with monkeypatch.context() as patch:
        patch.setattr(polytope, "_FACES_CAP", 255)
        patch.setattr(polytope, "Face", None)  # unreachable before the check
        with pytest.raises(GuardExceeded, match="predicted 256 exceeds the cap 255"):
            lat.faces
    monkeypatch.setattr(polytope, "_FACES_CAP", 256)
    assert len(lat.faces) == 81


def lattice_oracle_inputs(corpus):
    return (corpus + [(f"cube{n}", cube(n)) for n in range(1, 9)]
            + [(f"rvc{k}", random_vertexcuts(k, k)) for k in (0, 7, 40)]
            + [("polar_cyclic_10_4", polar_cyclic(10, 4))])


def test_face_lattice_matches_frozenset_oracle(corpus):
    for name, p in lattice_oracle_inputs(corpus):
        lat = face_lattice(p)
        faces = face_lattice_oracle(p)
        assert lat.faces == tuple(faces), name
        assert lat.masks == tuple(sum(1 << i for i in f.facets) for f in faces), name
        assert all(lat.face_index(f.facets) == i for i, f in enumerate(faces)), name
        census = Counter(f.dim for f in faces if f.dim < p.dim)
        assert lat.f_vector() == tuple(census[d] for d in range(p.dim)), name


def test_face_lattice_order_matches_the_bits_key(corpus):
    # the tuple key the lattice was sorted by, facet count then the ascending
    # facet tuple, is the oracle for its bit-reversed int key; masks of
    # random_vertexcuts(61)'s 65 facets take 9 bytes
    duals = [(f"dual-simplex-boundary-{n}", validate_polytope(
        n, sorted(tuple(sorted(f)) for f in simplex_boundary_sphere(n).facets)))
        for n in range(1, 13)]
    cuts = [(f"rvc{k}", random_vertexcuts(k, 0)) for k in (61, 200)]
    for name, p in [*lattice_oracle_inputs(corpus), *duals, *cuts]:
        masks = face_lattice(p).masks
        assert list(masks) == sorted(masks, key=lambda s: (s.bit_count(), polytope._bits(s))), name


def test_ridge_table_matches_frozenset_oracle(corpus):
    for name, p in lattice_oracle_inputs(corpus):
        # a key holds the ridge's n - 1 facets in fields of m.bit_length() bits
        width = p.facet_count.bit_length()
        decoded = [(frozenset(key >> width * i & (1 << width) - 1 for i in range(p.dim - 1)),
                    ends) for key, ends in polytope._edge_pairs(p.vertices, p.facet_count).items()]
        assert decoded == list(ridge_table_oracle(p.vertices).items()), name


def first_bad_ridge_message(verts):
    """The NotPolytopal message the frozenset ridge table gives first."""
    for ridge, ends in ridge_table_oracle(sorted(verts)).items():
        if len(ends) != 2:
            return (f"facet set {tuple(sorted(ridge))} shared by {len(ends)} "
                    "vertices, expected 2")
    return None


def test_ridge_defect_message_matches_oracle(corpus):
    # a ridge in one vertex only; every triple of five facets but (2, 3, 4)
    # puts three vertices on each ridge through facet 0 or 1
    with pytest.raises(NotPolytopal) as info:
        validate_polytope(3, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert str(info.value) == "facet set (1, 2) shared by 1 vertices, expected 2"
    triples = [t for t in itertools.combinations(range(5), 3) if t != (2, 3, 4)]
    with pytest.raises(NotPolytopal) as info:
        validate_polytope(3, triples)
    assert str(info.value) == "facet set (1, 2) shared by 3 vertices, expected 2"
    cases = [(f"{name}-less{vi}", [v for i, v in enumerate(p.vertices) if i != vi])
             for name, p in lattice_oracle_inputs(corpus) if p.dim > 1
             for vi in (0, p.vertex_count // 2)]
    for name, verts in cases:
        with pytest.raises(NotPolytopal) as info:
            validate_polytope(len(verts[0]), verts)
        assert str(info.value) == first_bad_ridge_message(verts), name


def test_minimal_faces_are_vertices(corpus):
    for name, p in corpus:
        lat = face_lattice(p)
        zero = [f for f in lat.faces if f.dim == 0]
        assert sorted(tuple(sorted(f.facets)) for f in zero) == list(p.vertices)


# ---------------------------------------------------------------------------
# duality


def test_dual_simplex_self():
    d = dual_sphere(simplex(3))
    assert d.vertex_count == 4 and len(d.facets) == 4
    assert set(d.facets) == {frozenset(c)
                             for c in itertools.combinations(range(4), 3)}


def test_dual_cube_is_octahedron():
    d = dual_sphere(cube(3))
    assert d.vertex_count == 6 and len(d.facets) == 8
    # opposite facet pairs (i, 3+i) never share a dual triangle
    for f in d.facets:
        assert not any(i in f and i + 3 in f for i in range(3))


def test_dual_prism():
    d = dual_sphere(prism())
    assert d.vertex_count == 5 and len(d.facets) == 6
    validate_sphere(d.facets)


def test_dual_sphere_is_sorted_as_the_constructor_sorts(corpus):
    # dual_sphere skips the sort: the polytope's sorted vertices already give
    # its frozensets in sorted-label order
    polytopes = corpus + move_rule_polytopes()
    for name, p in polytopes:
        d = dual_sphere(p)
        assert d.facets == tuple(sorted(map(frozenset, p.vertices), key=sorted)), name
        assert d.dim == p.dim - 1 and d == SimplicialSphere(p.dim - 1, p.vertices), name


def test_sphere_constructor_validates():
    # a disk: a flip at (0,) once gave a 4-vertex facet in a 2-complex
    disk = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 2, 5)]
    with pytest.raises(InvalidSphere, match=r"facet set \(0, 1\) shared by 1 vertices"):
        SimplicialSphere(dim=2, facets=disk)
    tetrahedron = list(itertools.combinations(range(4), 3))
    with pytest.raises(InvalidSphere, match="make a 2-sphere, not a 3-sphere"):
        SimplicialSphere(3, tetrahedron)
    for dim in ("2", 2.0, True, None):
        with pytest.raises(BadParameters, match="dim must be an integer"):
            SimplicialSphere(dim, tetrahedron)
    with pytest.raises(BadParameters, match="dim must be >= 0"):
        SimplicialSphere(-1, tetrahedron)
    with pytest.raises(InvalidSphere):
        SimplicialSphere(1, [])
    k = SimplicialSphere(2, [(3, 2, 1), [2, 0, 3], (1, 0, 3), {0, 1, 2}])
    assert k == simplex_boundary_sphere(3) == validate_sphere(tetrahedron)
    assert k.facets == tuple(map(frozenset, tetrahedron))
    assert SimplicialSphere(0, [(5,), (7,)]).facets == (frozenset({5}), frozenset({7}))


def test_dual_redualization(corpus):
    for name, p in corpus:
        d = dual_sphere(p)
        back = validate_polytope(p.dim, [tuple(sorted(f)) for f in d.facets])
        assert combinatorial_isomorphic(back, p) is not None, name


@pytest.mark.parametrize("facets", [None, 3, [1, 2], [[[0], [1], [2]]], [{0, "a", 1}],
                                    [{0, 1, 2}, {"a", "b", "c"}]])
def test_validate_sphere_refuses_unusable_facets(facets):
    with pytest.raises(BadParameters):
        validate_sphere(facets)



def test_validate_sphere_rejects_open_disk():
    with pytest.raises(InvalidSphere):
        validate_sphere([(0, 1, 2), (0, 1, 3)])


def test_validate_sphere_leaves_repeated_and_mixed_facets_to_the_dual():
    # the dual polytope's validation refuses a repeated facet as a duplicate
    # vertex and a facet of another size as a vertex that is not simple
    tetrahedron = list(itertools.combinations(range(4), 3))
    with pytest.raises(InvalidSphere, match="no facets"):
        validate_sphere([])
    with pytest.raises(InvalidSphere, match="dual polytope: vertex .* listed twice"):
        validate_sphere(tetrahedron + [(2, 1, 0)])
    with pytest.raises(InvalidSphere, match="dual polytope: vertex .* lies in 4 facets"):
        validate_sphere(tetrahedron + [(0, 1, 2, 4)])


def link_defect(facets):
    """The vertex-link check validate_sphere once ran on triangle lists: the
    vertex whose link is not a single cycle, with the reason, or ``None``."""
    link_edges = defaultdict(list)
    for f in map(frozenset, facets):
        for x in f:
            link_edges[x].append(f - {x})
    for x, pairs in link_edges.items():
        deg = Counter(itertools.chain.from_iterable(pairs))
        if any(d != 2 for d in deg.values()):
            return x, "not a cycle"
        comp = {next(iter(pairs[0]))}
        grow = True
        while grow:
            grow = False
            for e in pairs:
                if e & comp and not e <= comp:
                    comp |= e
                    grow = True
        if comp != set(deg):
            return x, "not a single cycle"
    return None


def sphere_oracle(facets):
    """validate_sphere with the link check added back for triangles."""
    k = validate_sphere(facets)
    if k.dim == 2 and link_defect(k.facets):
        raise InvalidSphere(f"link of vertex {link_defect(k.facets)[0]} is not a cycle")
    return k


def verdict(check, facets):
    try:
        return check(facets)
    except InvalidSphere as e:
        return type(e)


def pinched_spheres(p):
    """Dual sphere of p with two vertices of disjoint closed stars merged,
    for every such pair: one vertex link becomes two cycles."""
    near = defaultdict(set)
    for v in p.vertices:
        for f in v:
            near[f].update(v)
    for a, b in itertools.combinations(range(p.facet_count), 2):
        if not near[a] & near[b]:
            yield [tuple(sorted(a if f == b else f for f in v)) for v in p.vertices]


def flip_results(p):
    d = dual_sphere(p)
    for sigma in sorted({e for f in d.facets for e in itertools.combinations(sorted(f), 2)}
                        | set(map(tuple, map(sorted, d.facets)))):
        try:
            yield sorted(map(sorted, bistellar_flip(d, sigma).facets))
        except LinkNotStandard:
            continue


def validate_sphere_oracle(facets) -> SimplicialSphere:
    """The validate_sphere that kept its own tuple ridge table, facet
    adjacency walk and face set for the Euler characteristic."""
    raw = [frozenset(f) for f in facets]
    fs = sorted(set(raw), key=sorted)
    if len(fs) != len(raw):
        raise InvalidSphere("duplicate facets")
    if not fs:
        raise InvalidSphere("no facets")
    n = len(fs[0])
    if any(len(f) != n for f in fs):
        raise InvalidSphere("facets of mixed dimension")

    by_ridge = defaultdict(list)
    for i, f in enumerate(fs):
        for r in itertools.combinations(sorted(f), n - 1):
            by_ridge[r].append(i)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(fs)))
    for r, pair in by_ridge.items():
        if len(pair) != 2:
            raise InvalidSphere(f"ridge {r} lies in {len(pair)} facets, expected 2")
        graph.add_edge(*pair)
    if not nx.is_connected(graph):
        raise InvalidSphere("facet adjacency is disconnected")

    all_faces = set()
    for f in fs:
        for k in range(1, n + 1):
            all_faces.update(itertools.combinations(sorted(f), k))
    euler = sum((-1) ** (len(s) - 1) for s in all_faces)
    if euler != 1 + (-1) ** (n - 1):
        raise InvalidSphere(f"Euler characteristic {euler} is not spherical")
    return SimplicialSphere._trusted(n - 1, tuple(fs))


def suspension(facets):
    """The join of a facet list with two new apexes."""
    top = max(map(max, facets))
    return [(*f, a) for f in facets for a in (top + 1, top + 2)]


def test_validate_sphere_matches_link_oracle(corpus):
    # the link oracle on triangles, and on every case the old standalone
    # ridge, adjacency and face-set checks; the dual-polytope route agrees
    cases = [("torus7", HEAWOOD_TORUS), ("torus3x3", torus_grid(3, 3)),
             ("klein3x4", torus_grid(3, 4, twist=True)),
             ("projective6", PETERSEN_PROJECTIVE),
             ("wedge", [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                        (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)])]
    pinched = [(f"pinched-{name}-{k}", verts) for name, p in corpus
               for k, verts in enumerate(pinched_spheres(p))]
    assert len([c for c in pinched if "dodecahedron" in c[0]]) == 6
    cases += pinched
    cases += [(f"dual-{name}", list(p.vertices)) for name, p in corpus]
    cases += [(f"flip-{name}-{k}", facets) for name, p in corpus
              for k, facets in enumerate(flip_results(p))]
    cases += [(f"simplex-boundary-{n}", simplex_boundary_sphere(n).facets) for n in (1, 2, 4, 6)]
    cases += [(f"dual-{name}", list(p.vertices)) for name, p in
              [("cube4", cube(4)), ("cube5", cube(5)), ("cut-cube4", vertex_cut(cube(4), 0))]]
    octahedron = list(map(sorted, dual_sphere(cube(3)).facets))
    rejected = [("suspended-torus", suspension(HEAWOOD_TORUS), "Euler"),
                ("two-4-simplex-boundaries", [tuple(x + shift for x in sorted(f))
                                              for shift in (0, 5)
                                              for f in simplex_boundary_sphere(4).facets],
                 "disconnected")]
    cases += [("suspended-octahedron", suspension(octahedron))]
    cases += [(name, facets) for name, facets, _ in rejected]
    for name, facets in cases:
        old = verdict(validate_sphere_oracle, facets)
        assert verdict(validate_sphere, facets) == verdict(sphere_oracle, facets) == old, name
    for name, facets in pinched:
        # the link check alone would flag them; Euler's relation already does
        assert link_defect(facets)[1] == "not a single cycle", name
        with pytest.raises(InvalidSphere, match="Euler"):
            validate_sphere(facets)
    assert validate_sphere(suspension(octahedron)).dim == 3
    for name, facets, reason in rejected:
        with pytest.raises(InvalidSphere, match=reason):
            validate_sphere(facets)


def test_validate_sphere_refuses_empty_facets_and_big_simplices(monkeypatch):
    # a facet with no vertex is a dual polytope of dimension 0; the boundary
    # of the 20-simplex would walk 21 * 2^20 subsets, refused before the walk
    with pytest.raises(InvalidSphere):
        validate_sphere([()])
    k = simplex_boundary_sphere(16)
    assert validate_sphere(k.facets) == k

    def unreachable(*args):
        raise AssertionError("faces enumerated before the face-lattice cap was checked")

    monkeypatch.setattr(polytope, "_submasks", unreachable)
    with pytest.raises(GuardExceeded, match="face-lattice subset words"):
        validate_sphere(simplex_boundary_sphere(20).facets)


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_relabeled_self(corpus):
    rng = random.Random(5)
    for name, p in corpus:
        relabel = list(range(p.facet_count))
        rng.shuffle(relabel)
        q = validate_polytope(
            p.dim, [tuple(sorted(relabel[f] for f in v)) for v in p.vertices])
        perm = combinatorial_isomorphic(p, q)
        assert perm is not None, name
        image = {tuple(sorted(perm[f] for f in v)) for v in p.vertices}
        assert image == set(q.vertices), name


def test_isomorphic_rejects_different():
    assert combinatorial_isomorphic(simplex(3), cube(3)) is None
    assert combinatorial_isomorphic(prism(), cube(3)) is None
    # equal facet and vertex counts, different dimensions
    assert combinatorial_isomorphic(simplex(3), cube(2)) is None


def test_edge_cut_simplex_is_prism():
    perm = combinatorial_isomorphic(edge_cut_simplex(), prism())
    assert perm is not None


def test_isomorphic_reflexive(corpus):
    for name, p in corpus:
        assert combinatorial_isomorphic(p, p) is not None, name


def test_isomorphic_symmetric(corpus):
    for (na, a), (nb, b) in itertools.combinations(corpus, 2):
        ab = combinatorial_isomorphic(a, b)
        ba = combinatorial_isomorphic(b, a)
        assert (ab is None) == (ba is None), (na, nb)


def test_not_isomorphic_same_counts():
    # two combinatorially different 7-facet polytopes with equal f-vectors:
    # cutting different vertices of the prism's cut polytope
    from momang import vertex_cut
    a = vertex_cut(vertex_cut(prism(), 0), 0)
    assert combinatorial_isomorphic(a, a) is not None


def test_facet_graph_simplex_complete():
    # the tetrahedron's facet graph, read off the facet-pair table, is complete
    rows = polytope._pair_sets(4, simplex(3).vertices)
    assert all(sorted(row) == [j for j in range(4) if j != i] for i, row in enumerate(rows))


def test_facet_graph_cube_octahedral():
    # the cube's facet graph is the octahedron: opposite facets i, i + 3 never meet
    rows = polytope._pair_sets(6, cube(3).vertices)
    assert sum(map(len, rows)) == 2 * 12
    for i in range(3):
        assert i + 3 not in rows[i]
        assert len(rows[i]) == len(rows[i + 3]) == 4


def test_facet_graph_prism():
    # quads 0, 1, 2 meet pairwise, triangles 3, 4 only the quads, and every
    # meeting pair shares an edge: two vertices
    p = prism()
    rows = polytope._pair_sets(5, p.vertices)
    for i, j in itertools.combinations(range(3), 2):
        assert j in rows[i]
    for t in (3, 4):
        assert sorted(rows[t]) == [0, 1, 2]
    assert 4 not in rows[3]
    for i, row in enumerate(rows):
        for j, ids in row.items():
            shared = [v for v in p.vertices if {i, j} <= set(v)]
            assert len(ids) == len(shared) == 2


def test_is_simplex():
    assert is_simplex(simplex(3)) and is_simplex(simplex(5))
    assert not is_simplex(cube(3)) and not is_simplex(prism())


# ---------------------------------------------------------------------------
# wire format


def test_json_roundtrip(corpus):
    for name, p in corpus:
        q = polytope_from_json(json.dumps(polytope_to_json(p)))
        assert q == p, name


def test_json_rejects_bad_input():
    good = polytope_to_json(simplex(3))
    with pytest.raises(ParseError):
        polytope_from_json("not json")
    with pytest.raises(ParseError):
        polytope_from_json({"dim": 3, "facets": 4})
    bad = dict(good, vertices=[[2, 1, 0]] + good["vertices"][1:])
    with pytest.raises(ParseError):
        polytope_from_json(bad)
    bad = dict(good, vertices=[[0, 1, 9]] + good["vertices"][1:])
    with pytest.raises(ParseError, match="facet index out of range"):
        polytope_from_json(bad)
    # the range check runs before the constructor, which compares the count
    with pytest.raises(ParseError, match="facet index out of range"):
        polytope_from_json(dict(good, facets=3))
    bad = dict(good, facets=9)
    with pytest.raises(ParseError, match="facet_count is 9, the incidence uses 4 facets"):
        polytope_from_json(bad)


def test_labels_roundtrip():
    labels = ["a", "b", "c", "d"]
    p = validate_polytope(3, SIMPLEX3_VERTS, facet_labels=labels)
    assert p.facet_labels == tuple(labels)
    assert polytope_to_json(p)["facet_labels"] == labels


def test_constructor_validates_the_incidence():
    # the three vertices of a tetrahedron less one: cutting one gave a
    # 5-facet polytope that validation refuses
    with pytest.raises(NotPolytopal):
        vertex_cut(CombPolytope(dim=3, facet_count=5,
                                vertices=((0, 1, 2), (0, 1, 3), (0, 2, 3))), 0)


@pytest.mark.parametrize("dim,vertices,error", [
    (3, [(0, 1), (0, 2, 3)], NotSimple),
    (3, [(0, 1, 2), (2, 1, 0), (0, 1, 3), (0, 2, 3), (1, 2, 3)], DuplicateVertex),
    (3, [(0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)], UnusedFacet),
    (3, [(0, 1, "x")], ParseError),
    (0, [()], ParseError),
])
def test_constructor_raises_what_validation_raises(dim, vertices, error):
    with pytest.raises(error) as direct:
        validate_polytope(dim, vertices)
    with pytest.raises(error) as built:
        CombPolytope(dim, 4, vertices)
    assert str(built.value) == str(direct.value)


@pytest.mark.parametrize("args,error", [
    ((3, SIMPLEX3_VERTS, 5), ParseError),     # scalar labels: TypeError
    ((3, None), ParseError),                  # no incidence: TypeError
    ((3, [[0, 1, 2], 5]), ParseError),        # a vertex that is no collection: TypeError
    (("x", SIMPLEX3_VERTS), BadParameters),   # ValueError
    ((3.5, SIMPLEX3_VERTS), BadParameters),   # read as dim 3
    ((True, [(0,), (1,)]), BadParameters),    # read as dim 1
    ((3, SIMPLEX3_VERTS, "abcd"), ParseError),  # one label per character
    ((3, SIMPLEX3_VERTS, b"abcd"), ParseError),  # one label per byte value
])
def test_validation_refuses_unusable_arguments(args, error):
    # each escaped as the error in its comment, or passed, in the library;
    # the wire path refuses them before validation
    dim, vertices, *labels = args
    with pytest.raises(error) as direct:
        validate_polytope(*args)
    with pytest.raises(error) as built:
        CombPolytope(dim, 4, vertices, *labels)
    assert str(built.value) == str(direct.value)


def test_constructor_checks_the_facet_count_and_sorts():
    verts = simplex(3).vertices
    with pytest.raises(ParseError, match="facet_count is 5, the incidence uses 4 facets"):
        CombPolytope(dim=3, facet_count=5, vertices=verts)
    for count in (4.0, True, "4", None):
        with pytest.raises(BadParameters, match="facet_count must be an integer"):
            CombPolytope(3, count, verts)
    with pytest.raises(ParseError, match="facet_count must be >= 1, got 0"):
        CombPolytope(3, 0, verts)
    p = CombPolytope(3, 4, [tuple(reversed(v)) for v in reversed(verts)], ["a", "b", "c", "d"])
    assert p == validate_polytope(3, verts, ["a", "b", "c", "d"])
    assert p.facet_labels == ("a", "b", "c", "d")
