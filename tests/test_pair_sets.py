"""The facet-pair table against the derivations it replaced.

Each oracle below is the per-module derivation of "which facets meet, and
where" (or of label co-occurrence in a set family) that ``_pair_sets`` now
serves alone; the tests compare them for equality on the corpus, on facet
relabellings and on the spheres a flip search generates.
"""

import itertools
import random
from collections import Counter, defaultdict

import pytest

import momang.moves as moves
from momang import (
    cube,
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
from momang.polytope import (
    _family,
    _family_isomorphism,
    _joint_refinement,
    _pair_sets,
)
from momang.zcomplex import _facet_stars
from conftest import corpus_3d


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


def joint_refinement_oracle(families):
    """Color refinement on ``(num_labels, sets)`` families with its own pair
    weights, set degrees and neighbour maps."""
    weights = []
    degs = []
    for num, sets in families:
        w = Counter()
        for s in sets:
            for a, b in itertools.combinations(sorted(s), 2):
                w[(a, b)] += 1
        weights.append(w)
        deg = Counter()
        for s in sets:
            for a in s:
                deg[a] += 1
        degs.append(deg)

    intern: dict = {}

    def intern_id(sig):
        return intern.setdefault(sig, len(intern))

    colors = []
    for fi, (num, sets) in enumerate(families):
        colors.append({a: intern_id(("init", degs[fi][a])) for a in range(num)})

    neighbors = []
    for fi, (num, sets) in enumerate(families):
        nb = defaultdict(dict)
        for (a, b), c in weights[fi].items():
            nb[a][b] = c
            nb[b][a] = c
        neighbors.append(nb)

    def profile(cols):
        return tuple(tuple(sorted(Counter(c.values()).values())) for c in cols)

    for _ in range(max(num for num, _ in families)):
        stamp = profile(colors)
        new_colors = []
        for fi, (num, sets) in enumerate(families):
            col = colors[fi]
            nxt = {}
            for a in range(num):
                around = tuple(sorted((col[b], w) for b, w in neighbors[fi][a].items()))
                nxt[a] = intern_id((col[a], around))
            new_colors.append(nxt)
        colors = new_colors
        if profile(colors) == stamp:
            break
    return colors


def family_isomorphism_oracle(num_a, sets_a, num_b, sets_b):
    """Recursive backtracking that checks the weight of every mapped pair,
    zero weights included, before taking a candidate."""
    if num_a != num_b or len(sets_a) != len(sets_b):
        return None
    if sorted(map(len, sets_a)) != sorted(map(len, sets_b)):
        return None
    target = Counter(frozenset(s) for s in sets_b)
    colors_a, colors_b = joint_refinement_oracle([(num_a, sets_a), (num_b, sets_b)])
    if sorted(Counter(colors_a.values()).items()) != sorted(Counter(colors_b.values()).items()):
        return None

    w_a, w_b = Counter(), Counter()
    for s in sets_a:
        for pair in itertools.combinations(sorted(s), 2):
            w_a[pair] += 1
    for s in sets_b:
        for pair in itertools.combinations(sorted(s), 2):
            w_b[pair] += 1

    def weight(w, x, y):
        return w[(x, y)] if x < y else w[(y, x)]

    by_color = defaultdict(list)
    for b in range(num_b):
        by_color[colors_b[b]].append(b)
    order = sorted(range(num_a), key=lambda a: (len(by_color[colors_a[a]]), a))

    mapping: dict[int, int] = {}
    used = set()

    def extend(i):
        if i == num_a:
            mapped = Counter(frozenset(mapping[x] for x in s) for s in sets_a)
            return mapped == target
        a = order[i]
        for b in by_color[colors_a[a]]:
            if b in used:
                continue
            ok = all(weight(w_a, a, a2) == weight(w_b, b, b2)
                     for a2, b2 in mapping.items())
            if not ok:
                continue
            mapping[a] = b
            used.add(b)
            if extend(i + 1):
                return True
            del mapping[a]
            used.discard(b)
        return False

    if extend(0):
        return dict(mapping)
    return None


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


def flip_states(p, depth, monkeypatch):
    """Every sphere the flip search for ``p`` generates within ``depth``."""
    states = []
    flip = moves.bistellar_flip

    def recording(k, face):
        states.append(flip(k, face))
        return states[-1]

    with monkeypatch.context() as m:
        m.setattr(moves, "bistellar_flip", recording)
        psc_flip_certificate(p, depth=depth)
    return states


@pytest.fixture(scope="module")
def spheres():
    with pytest.MonkeyPatch.context() as monkeypatch:
        states = flip_states(vertex_cut(cube(3), 0), 5, monkeypatch)
        assert len(states) == 18  # the pruned search's flips, start excluded
        states += flip_states(cube(4), 2, monkeypatch)
    return [dual_sphere(p) for _, p in polytopes()] + states


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


def test_refinement_matches_oracle(spheres):
    # the colors themselves agree, not only the partitions they induce
    families = [vertex_family(p) for _, p in polytopes()]
    families += [sphere_family(k) for k in spheres]
    for fam in families:
        assert _joint_refinement([_pair_sets(*fam)]) == joint_refinement_oracle([fam])
    # jointly only under the isomorphism search's precondition: equal set
    # sizes, so that the initial colors scale alike in both families
    joint = [(fa, fb) for fa, fb in itertools.product(families, repeat=2)
             if sorted(map(len, fa[1])) == sorted(map(len, fb[1]))]
    assert len(joint) > 2 * len(families)
    for fa, fb in joint:
        assert _joint_refinement([_pair_sets(*fa), _pair_sets(*fb)]) == \
            joint_refinement_oracle([fa, fb])


@pytest.mark.parametrize("k", [12, 50, 200])
@pytest.mark.parametrize("seed", [0, 1])
def test_isomorphism_matches_recursive_oracle(k, seed):
    p = random_vertexcuts(k, seed)
    q = relabelled(p, seed + 7)
    new = _family_isomorphism(_family(*vertex_family(p)), _family(*vertex_family(q)))
    old = family_isomorphism_oracle(*vertex_family(p), *vertex_family(q))
    assert new is not None
    assert list(new.items()) == list(old.items())


def test_isomorphism_matches_oracle_on_corpus_and_spheres(spheres):
    families = [vertex_family(p) for _, p in polytopes()]
    families += [vertex_family(relabelled(p, i)) for i, (_, p) in enumerate(polytopes())]
    families += [sphere_family(k) for k in spheres]
    for fa, fb in itertools.product(families[::3], families[1::4]):
        assert _family_isomorphism(_family(*fa), _family(*fb)) == \
            family_isomorphism_oracle(*fa, *fb)
    for fam in families:
        assert _family_isomorphism(_family(*fam), _family(*fam)) == \
            family_isomorphism_oracle(*fam, *fam)

