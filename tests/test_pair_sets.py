"""The facet-pair table against the derivations it replaced.

Each oracle below is the per-module derivation of "which facets meet, and
where" (or of label co-occurrence in a set family) that ``_pair_sets`` now
serves alone; the tests compare them for equality on the corpus, on facet
relabellings and on the spheres a flip search generates.  The colour
refinement and isomorphism oracles are in ``conftest``, shared with the
flip-search oracle.
"""

import itertools
import random
from collections import Counter, defaultdict

import pytest

import momang.moves as moves
from momang import (
    cube,
    dodecahedron,
    dual_sphere,
    face_lattice,
    prism,
    psc_flip_certificate,
    random_vertexcuts,
    simplex,
    validate_polytope,
    vertex_cut,
)
from momang.moves import _sphere_family
from momang.errors import GuardExceeded
from momang.polytope import (
    _family,
    _family_isomorphism,
    _pair_sets,
    _refine,
)
from momang.zcomplex import _facet_stars
from conftest import (
    corpus_3d,
    cut_gon_prism,
    family_isomorphism_oracle,
    flip_certificate_oracle,
    flip_outcomes_agree,
    joint_refinement_oracle,
    refine_oracle,
    search_isomorphism_oracle,
)


# ---------------------------------------------------------------------------
# oracles


def shared_vertices_oracle(p):
    """Ids of the vertices on each meeting facet pair ``(i, j)``, ``i < j``."""
    shared = defaultdict(list)
    for vi, fs in enumerate(p.vertices):
        for i, j in itertools.combinations(fs, 2):
            shared[(i, j)].append(vi)
    return shared


def facet_neighbours_oracle(p):
    """For each facet, the set of facets sharing a vertex with it."""
    nbrs = [set() for _ in range(p.facet_count)]
    for v in p.vertices:
        for f in v:
            nbrs[f].update(x for x in v if x != f)
    return nbrs


def facet_stars_oracle(p):
    """Per facet i, the union of the facet masks of the faces inside it,
    read off the face lattice."""
    lattice = face_lattice(p)
    star = [0] * p.facet_count
    for face in lattice.faces:
        for i in face.facets:
            star[i] |= sum(1 << j for j in face.facets)
    return star


def degrees_oracle(k):
    """Vertex degrees of the 1-skeleton, largest first."""
    nbrs: dict = {}
    for f in k.facets:
        for x in f:
            nbrs.setdefault(x, set()).update(f)
    return sorted((len(s) - 1 for s in nbrs.values()), reverse=True)


# ---------------------------------------------------------------------------
# inputs


def relabelled(p, seed):
    perm = list(range(p.facet_count))
    random.Random(seed).shuffle(perm)
    return validate_polytope(p.dim, [[perm[f] for f in v] for v in p.vertices])


def polytopes():
    return corpus_3d() + [
        ("simplex1", simplex(1)), ("simplex2", simplex(2)), ("simplex4", simplex(4)),
        ("cube4", cube(4)), ("cut_cube4", vertex_cut(cube(4), 0)),
        ("rvc12-0", random_vertexcuts(12, 0)), ("rvc50-1", random_vertexcuts(50, 1))]


def flip_states(p, depth, monkeypatch, search=None):
    """Every sphere the flip search for ``p`` generates within ``depth``:
    the breadth-first search itself, which the public call skips where it
    answers early, or ``search``."""
    states = []
    flip = moves.bistellar_flip

    def recording(k, face):
        states.append(flip(k, face))
        return states[-1]

    with monkeypatch.context() as m:
        m.setattr(moves, "bistellar_flip", recording)
        (search or moves._flip_search)(p, depth)
    return states


@pytest.fixture(scope="module")
def spheres():
    with pytest.MonkeyPatch.context() as monkeypatch:
        states = flip_states(vertex_cut(cube(3), 0), 5, monkeypatch)
        assert len(states) == 18  # the pruned search's flips, start excluded
        # the search without the g-vector prune, which keeps 5 of these 17
        states += flip_states(cube(4), 2, monkeypatch, flip_certificate_oracle)
    return [dual_sphere(p) for _, p in polytopes()] + states


def family_record(num, sets):
    """The ``_family`` record of a ``(num_labels, sets)`` family, with the
    family's pair table."""
    return _family(num, sets, _pair_sets(num, sets))


def vertex_family(p):
    return p.facet_count, [frozenset(v) for v in p.vertices]


def sphere_family(k):
    """The sphere's ``(num_labels, sets)`` as the flip search numbers them."""
    (num, sets, _), _ = _sphere_family(k)
    return num, sets


def dual_polytope(k):
    """The simple polytope whose vertices are the sphere's facets."""
    _, sets = sphere_family(k)
    return validate_polytope(k.dim + 1, [sorted(s) for s in sets])


# ---------------------------------------------------------------------------
# tests


def test_pair_table_matches_adjacency_oracles(spheres):
    inputs = [p for _, p in polytopes()] + [dual_polytope(k) for k in spheres]
    for p in inputs:
        pairs = _pair_sets(p.facet_count, p.vertices)
        shared = {(i, j): vids for i, row in enumerate(pairs)
                  for j, vids in row.items() if i < j}
        assert shared == shared_vertices_oracle(p), p
        assert all(pairs[i][j] == pairs[j][i] for i, j in shared), p
        assert [set(row) for row in pairs] == facet_neighbours_oracle(p), p
        assert _facet_stars(p) == facet_stars_oracle(p), p


def test_degrees_match_oracle(spheres):
    for k in spheres:
        _, degrees = _sphere_family(k)
        assert degrees == tuple(degrees_oracle(k)), k


def partition(colors):
    """The label classes of a colouring (a list, or a dict on 0..n-1)."""
    classes = defaultdict(list)
    for a in range(len(colors)):
        classes[colors[a]].append(a)
    return sorted(classes.values())


def test_refinement_matches_oracle(spheres):
    # colours are hashes, so the partitions they induce are compared: a
    # family refined alone splits as it does in the oracle's joint runs
    families = [vertex_family(p) for _, p in polytopes()]
    families += [sphere_family(k) for k in spheres]
    # mixed set sizes, where a label's set degree and total pair weight differ
    families += [(5, [{0}, {4}, {0, 2}]), (6, [{0}, {1, 2}, {3, 4, 5}, {0, 3}])]
    colors = [family_record(*fam)[3] for fam in families]
    for fam, col in zip(families, colors):
        assert partition(col) == partition(joint_refinement_oracle([fam])[0])
    # jointly only under the isomorphism search's precondition: equal set
    # sizes, so that the initial colors scale alike in both families
    joint = [(a, b) for a, b in itertools.product(range(len(families)), repeat=2)
             if sorted(map(len, families[a][1])) == sorted(map(len, families[b][1]))]
    assert len(joint) > 2 * len(families)
    for a, b in joint:
        col_a, col_b = joint_refinement_oracle([families[a], families[b]])
        assert partition(colors[a]) == partition(col_a)
        assert partition(colors[b]) == partition(col_b)
        # the early rejection never passes a pair the joint colours reject
        if sorted(Counter(col_a.values()).items()) != sorted(Counter(col_b.values()).items()):
            assert sorted(colors[a]) != sorted(colors[b])


def cycle(labels, weights):
    """Pairs around a cycle of labels, the i-th pair repeated weights[i] times."""
    pairs = zip(labels, labels[1:] + labels[:1])
    return [frozenset(pair) for pair, w in zip(pairs, weights) for _ in range(w)]


def test_refinement_separates_classes_by_pair_weights():
    # two 4-cycles, with pair weights 3, 1, 3, 1 and 2, 2, 2, 2: every label
    # has two partners and total weight 4, so the cycles differ only through
    # the weights, which no corpus polytope or flip state needs
    family = (8, cycle([0, 1, 2, 3], [3, 1, 3, 1]) + cycle([4, 5, 6, 7], [2, 2, 2, 2]))
    classes = [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert partition(family_record(*family)[3]) == classes
    assert partition(joint_refinement_oracle([family])[0]) == classes


def test_isomorphisms_carry_colours():
    # a colour depends only on structure and round, not on the labels
    for i, (_, p) in enumerate(polytopes()):
        q = relabelled(p, i)
        mapping = family_isomorphism_oracle(*vertex_family(p), *vertex_family(q))
        col_p, col_q = family_record(*vertex_family(p))[3], family_record(*vertex_family(q))[3]
        assert [col_q[mapping[a]] for a in range(p.facet_count)] == col_p


def test_colour_mismatch_rejects_before_the_search():
    # the cube and the twice-cut tetrahedron both have 6 facets and 8
    # vertices; their stored colours differ, so no pair row is read
    (num, sets, _, colors_a), (_, sets_b, _, colors_b) = (
        family_record(*vertex_family(p)) for p in (cube(3), random_vertexcuts(2, 0)))
    assert sorted(colors_a) != sorted(colors_b)
    unread = [None] * num
    assert _family_isomorphism((num, sets, unread, colors_a),
                               (num, sets_b, unread, colors_b)) is None


@pytest.mark.parametrize("k", [12, 50, 200])
@pytest.mark.parametrize("seed", [0, 1])
def test_isomorphism_matches_recursive_oracle(k, seed):
    p = random_vertexcuts(k, seed)
    q = relabelled(p, seed + 7)
    new = _family_isomorphism(family_record(*vertex_family(p)), family_record(*vertex_family(q)))
    old = family_isomorphism_oracle(*vertex_family(p), *vertex_family(q))
    assert new is not None
    assert list(new.items()) == list(old.items())


def test_isomorphism_matches_oracle_on_corpus_and_spheres(spheres):
    families = [vertex_family(p) for _, p in polytopes()]
    families += [vertex_family(relabelled(p, i)) for i, (_, p) in enumerate(polytopes())]
    families += [sphere_family(k) for k in spheres]
    for fa, fb in itertools.product(families[::3], families[1::4]):
        assert _family_isomorphism(family_record(*fa), family_record(*fb)) == \
            family_isomorphism_oracle(*fa, *fb)
    for fam in families:
        assert _family_isomorphism(family_record(*fam), family_record(*fam)) == \
            family_isomorphism_oracle(*fam, *fam)


def isomorphism_inputs():
    """Cut prisms in both labellings, whose reflection leaves colour classes
    of two, and relabelled cut tetrahedra, whose colours end discrete."""
    out = [(f"cut-{k}-gon-prism-{last}", cut_gon_prism(k, last))
           for k in (20, 200) for last in (False, True)]
    out += [(f"rvc{k}-{s}", relabelled(random_vertexcuts(k, s), k + s))
            for k in (12, 40, 200, 1000) for s in (0, 1)]
    return out


def oracle_record(p):
    """The ``_family`` record of ``p``'s vertex family with the colours of
    :func:`refine_oracle`, which runs until a round splits nothing."""
    num, sets = vertex_family(p)
    return num, sets, p._pairs, refine_oracle(p._pairs)[0]


@pytest.mark.parametrize("name,p", isomorphism_inputs(), ids=[n for n, _ in isomorphism_inputs()])
def test_isomorphism_matches_the_search_oracle(name, p):
    # the same bijection, as a dict in the same key order, whether the
    # colours end discrete and fix it or the search runs
    q = relabelled(p, 3)
    new = _family_isomorphism(family_record(*vertex_family(p)), family_record(*vertex_family(q)))
    old = search_isomorphism_oracle(oracle_record(p), oracle_record(q))
    assert new is not None
    assert list(new.items()) == list(old.items())
    # one more cut, at different vertices of the two copies: no map, by
    # either route
    r = vertex_cut(q, q.vertex_count - 1)
    s = vertex_cut(p, 0)
    assert _family_isomorphism(family_record(*vertex_family(r)), family_record(*vertex_family(s))) \
        is None is search_isomorphism_oracle(oracle_record(r), oracle_record(s))


@pytest.mark.parametrize("s", [0, 1, 2])
def test_refinement_stops_a_round_early_once_discrete(s):
    # the oracle spends one more round confirming that a discrete colouring
    # splits no further; _refine returns the colours of the round before
    pairs = relabelled(random_vertexcuts(40, s), s)._pairs
    old, rounds = refine_oracle(pairs)
    before, _ = refine_oracle(pairs, rounds - 1)
    assert len(set(before)) == len(pairs) == len(set(old))
    assert _refine(pairs) == before
    assert partition(_refine(pairs)) == partition(old)


@pytest.mark.parametrize("k", [12, 40, 200])
def test_discrete_pair_builds_no_candidate_iterator(k):
    # the search's candidate iterators read the pair rows; unread rows
    # refuse to be read, so the forced map must come from the colours alone
    p = random_vertexcuts(k, 1)
    q = relabelled(p, k)
    rec_p, rec_q = family_record(*vertex_family(p)), family_record(*vertex_family(q))
    assert len(set(rec_p[3])) == p.facet_count
    unread = [None] * p.facet_count
    blind = _family_isomorphism(rec_p[:2] + (unread, rec_p[3]), rec_q[:2] + (unread, rec_q[3]))
    assert blind == _family_isomorphism(rec_p, rec_q) is not None
    # a family that is not the image fails the one check that remains
    r = relabelled(random_vertexcuts(k, 2), k)
    rec_r = family_record(*vertex_family(r))
    if sorted(rec_r[3]) == sorted(rec_p[3]):
        assert _family_isomorphism(rec_p[:2] + (unread, rec_p[3]),
                                   rec_r[:2] + (unread, rec_r[3])) is None


OCTAHEDRON_PAIRS = [(0, 1)] * 3 + [(1, 2)] * 2 + [(3, 4)]

# the triangular prism's graph and K3,3 are 3-regular on 6 labels with unit
# pair weights, so refinement splits neither and the search runs dry; one
# triangle and its three edges give every label pair weight 2 in both
EQUAL_COLOURS_NOT_ISOMORPHIC = [
    ("prism-graph-vs-k33",
     (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
     (6, [(a, b) for a in range(3) for b in range(3, 6)])),
    ("triangle-vs-its-edges", (3, [(0, 1, 2)]), (3, [(0, 1), (1, 2), (0, 2)])),
    # the octahedron's two classes of four faces each hold every edge once;
    # with extra pairs that make every colour a single label, the colours
    # force the identity, which carries one class onto itself, not the other
    ("octahedron-face-classes",
     (6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)] + OCTAHEDRON_PAIRS),
     (6, [(1, 2, 5), (0, 2, 4), (0, 1, 3), (3, 4, 5)] + OCTAHEDRON_PAIRS)),
]


@pytest.mark.parametrize("fa,fb", [c[1:] for c in EQUAL_COLOURS_NOT_ISOMORPHIC],
                         ids=[c[0] for c in EQUAL_COLOURS_NOT_ISOMORPHIC])
def test_isomorphism_refuses_families_the_colours_do_not_tell_apart(fa, fb):
    rec_a, rec_b = family_record(*fa), family_record(*fb)
    assert sorted(rec_a[3]) == sorted(rec_b[3])
    assert _family_isomorphism(rec_a, rec_b) is None
    assert _family_isomorphism(rec_b, rec_a) is None
    assert family_isomorphism_oracle(*fa, *fb) is None



def flip_inputs():
    cut_cube = vertex_cut(cube(3), 0)
    return [("prism", prism()), ("cube3", cube(3)), ("cube4", cube(4)),
            ("dodecahedron", dodecahedron()), ("simplex3", simplex(3)), ("simplex4", simplex(4))] + [
        (f"rvc{k}-{s}", random_vertexcuts(k, s)) for k in range(8) for s in range(3)] + [
        ("cut_cube", cut_cube), ("cut_cube_twice", vertex_cut(cut_cube, 0)),
        ("cut_cube4", vertex_cut(cube(4), 0))]


def flip_outcome(search, p, depth):
    try:
        return search(p, depth)
    except GuardExceeded:
        return GuardExceeded


@pytest.mark.parametrize("p", [p for _, p in flip_inputs()], ids=[n for n, _ in flip_inputs()])
def test_flip_search_on_own_labels_matches_relabelling_oracle(p, monkeypatch):
    # the target is p's own family and pair table, the states keep their
    # labels and one registry holds both: certificates, Nones and refusals
    # are the relabelling search's at every depth, under the cap and over
    # it, but that a refusal may be a None where no certificate exists
    deepest = p.facet_count - p.dim
    for cap in (50, moves._STATE_CAP):
        monkeypatch.setattr(moves, "_STATE_CAP", cap)
        for depth in range(deepest + 1):
            assert flip_outcomes_agree(flip_outcome(psc_flip_certificate, p, depth),
                                       flip_outcome(flip_certificate_oracle, p, depth),
                                       p, depth), (cap, depth)
    monkeypatch.undo()
    # so the labels kept are the ones the oracle's renumbering gave
    states = [moves.simplex_boundary_sphere(p.dim)] + flip_states(p, deepest, monkeypatch)
    for k in states:
        assert k.vertex_labels == tuple(range(k.vertex_count)), k
