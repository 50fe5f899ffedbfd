import dataclasses
import itertools
import math
from collections import Counter, defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import pytest

import momang.hrep as hrep
import momang.moves as moves
from momang import cube, dodecahedron, prism, random_vertexcuts, simplex, vertex_cut
from momang.errors import (
    BadParameters,
    DimensionUnsupported,
    GuardExceeded,
    LinkNotStandard,
    NoSuchFacet,
    NotAFace,
    _check_int,
    _check_work,
)
from momang.moves import PrismaticCircuit
from momang.polytope import (
    Face,
    SimplicialSphere,
    _family,
    _family_isomorphism,
    _pair_sets,
    dual_sphere,
    validate_polytope,
)


def cut_cube():
    return vertex_cut(cube(3), 0)


def cut_prism():
    return vertex_cut(prism(), 0)


def edge_cut_simplex():
    """Tetrahedron truncated along one edge, incidence written by hand.

    Facets 0..3 are the original triangles (the cut edge lay on 0 and 1),
    facet 4 is the quadrilateral cut section.
    """
    verts = [(0, 2, 3), (1, 2, 3),
             (0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4)]
    return validate_polytope(3, verts)


def deposit_oracle(k, mask):
    """The k-th submask of ``~mask`` in increasing order, one mask bit at a
    time: k with a zero bit inserted at every set bit of ``mask``, lowest
    first."""
    while mask:
        low = mask & -mask
        k = k & (low - 1) | (k & -low) << 1
        mask ^= low
    return k


def compact_oracle(g, mask):
    """The rank of ``g`` (disjoint from ``mask``) among the submasks of
    ``~mask``, one mask bit at a time: the inverse of
    :func:`deposit_oracle`, dropping the bits of ``mask`` from the highest
    down."""
    while mask:
        high = 1 << mask.bit_length() - 1
        g = g & (high - 1) | g >> 1 & -high
        mask ^= high
    return g


def face_lattice_oracle(p):
    """The faces of ``p`` as frozenset-keyed :class:`Face` records: every
    subset of every vertex's facet set, with the vertices holding it, by
    facet count and then sorted facet tuple."""
    members = defaultdict(set)
    for vi, fs in enumerate(p.vertices):
        for k in range(p.dim + 1):
            for sub in itertools.combinations(fs, k):
                members[frozenset(sub)].add(vi)
    keys = sorted(members, key=lambda s: (len(s), tuple(sorted(s))))
    return [Face(facets=s, dim=p.dim - len(s), vertices=tuple(sorted(members[s])))
            for s in keys]


def ridge_table_oracle(vertices):
    """Ridge (frozenset of n - 1 facets) -> ids of the vertices holding it,
    in first-seen order."""
    ridges = defaultdict(list)
    for vi, fs in enumerate(vertices):
        for f in fs:
            ridges[frozenset(fs) - {f}].append(vi)
    return ridges


def polar_cyclic(m, n):
    """Vertex incidence of the polar of the cyclic n-polytope with m
    vertices: the n-subsets of range(m) obeying Gale's evenness condition
    (any two indices outside the subset enclose an even number of members)."""
    verts = []
    for sub in itertools.combinations(range(m), n):
        out = [i for i in range(m) if i not in sub]
        if all(sum(a < x < b for x in sub) % 2 == 0 for a, b in zip(out, out[1:])):
            verts.append(sub)
    return validate_polytope(n, verts)


def cover_pairs(lattice):
    """Index pairs ``(face, subface)`` of a face lattice where the subface
    lies in exactly one more facet, in face order; every facet met by a
    vertex of the face extends it to a face, the polytope being simple."""
    pairs = []
    for i, f in enumerate(lattice.faces):
        met = set().union(*(lattice.polytope.vertices[v] for v in f.vertices))
        pairs += [(i, lattice.face_index(f.facets | {j})) for j in sorted(met - f.facets)]
    return pairs


def joint_refinement_oracle(families):
    """Color refinement on ``(num_labels, sets)`` families with its own pair
    weights, neighbour maps and start colours, each label's total pair weight."""
    weights = []
    totals = []
    for num, sets in families:
        w = Counter()
        for s in sets:
            for a, b in itertools.combinations(sorted(s), 2):
                w[(a, b)] += 1
        weights.append(w)
        total = Counter()
        for (a, b), c in w.items():
            total[a] += c
            total[b] += c
        totals.append(total)

    intern: dict = {}

    def intern_id(sig):
        return intern.setdefault(sig, len(intern))

    colors = []
    for fi, (num, sets) in enumerate(families):
        colors.append({a: intern_id(("init", totals[fi][a])) for a in range(num)})

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


def refine_oracle(pairs, rounds=None):
    """Colour refinement that stops only at a round splitting no class, as
    ``polytope._refine`` did before it stopped at a discrete colouring, or
    after ``rounds`` rounds.  Returns the colours and the rounds run."""
    colors = [sum(map(len, row.values())) for row in pairs]
    done = 0
    for _ in pairs:
        if done == rounds:
            break
        classes = len(set(colors))
        colors = [hash((c, tuple(sorted([(colors[b], len(ids)) for b, ids in row.items()]))))
                  for c, row in zip(colors, pairs)]
        done += 1
        if len(set(colors)) == classes:
            break
    return colors, done


def search_isomorphism_oracle(fam_a, fam_b):
    """``polytope._family_isomorphism`` without its shortcut for discrete
    colours: the depth-first search on a stack of candidate iterators, in
    the order (class size, label), runs on every pair of family records."""
    (num_a, sets_a, pairs_a, colors_a), (num_b, sets_b, pairs_b, colors_b) = fam_a, fam_b
    if sorted(colors_a) != sorted(colors_b):
        return None
    if sorted(map(len, sets_a)) != sorted(map(len, sets_b)):
        return None
    target = Counter(sets_b)
    by_color = defaultdict(list)
    for b in range(num_b):
        by_color[colors_b[b]].append(b)
    order = sorted(range(num_a), key=lambda a: (len(by_color[colors_a[a]]), a))
    mapping: dict[int, int] = {}
    used = set()

    def candidates(a):
        mapped = [(mapping[x], len(ids)) for x, ids in pairs_a[a].items() if x in mapping]
        return (b for b in by_color[colors_a[a]] if b not in used
                and all(len(pairs_b[b].get(y, ())) == w for y, w in mapped))

    stack = []
    while True:
        if len(mapping) < num_a:
            stack.append(candidates(order[len(mapping)]))
        elif Counter(frozenset(mapping[x] for x in s) for s in sets_a) == target:
            return mapping
        while stack:
            a = order[len(stack) - 1]
            if a in mapping:
                used.discard(mapping.pop(a))
            b = next(stack[-1], None)
            if b is not None:
                mapping[a] = b
                used.add(b)
                break
            stack.pop()
        else:
            return None


def cut_gon_prism(k, caps_last=False):
    """The k-gon prism cut at its first vertex.  Facet 0 is the bottom, 1
    the top and 2..k+1 the sides, or, ``caps_last``, the sides are 0..k-1
    and the caps k and k + 1; either way the cut removes the vertex of the
    bottom and the first two sides, and the new triangle is facet k + 2."""
    bottom, top, first = (k, k + 1, 0) if caps_last else (0, 1, 2)
    verts = [(cap, first + i, first + (i + 1) % k) for i in range(k) for cap in (bottom, top)]
    return vertex_cut(validate_polytope(3, verts), 0)


def corpus_3d():
    """The simple 3-polytopes the property tests loop over."""
    return [
        ("simplex3", simplex(3)),
        ("prism", prism()),
        ("cube", cube(3)),
        ("cut_prism", cut_prism()),
        ("cut_cube", cut_cube()),
        ("rand3", random_vertexcuts(3, seed=11)),
        ("rand5", random_vertexcuts(5, seed=7)),
        ("dodecahedron", dodecahedron()),
    ]


def corpus_small():
    """Sub-corpus with few facets, cheap enough for exhaustive oracles."""
    return [(name, p) for name, p in corpus_3d() if p.facet_count <= 9]


def stacked_nondegeneracy_oracle(h, sample_count, seed):
    """verify_nondegeneracy as it was before the vertex bounds: the same
    points, draws and signs, and one stacked SVD of G per chunk over every
    sample, whose singular values certify the ranks they can; the rest take
    the rank SVD of H.  Reads ``hrep._TOL`` and ``hrep._RANK_CHUNK`` when
    called."""
    polytope, coords = hrep.enumerate_vertices(h)
    count = max(sample_count, polytope.vertex_count + h.m + 1)
    q = hrep.relation_matrix(h)
    rng = np.random.default_rng(seed)
    members = [[] for _ in range(h.m)]
    for v, facets in enumerate(polytope.vertices):
        for i in facets:
            members[i].append(v)
    sets = [coords, *(coords[vs] for vs in members)]
    fixed = len(coords) + h.m + 1
    pts = np.empty((count, h.n))
    pts[:fixed] = [*coords, *(c.mean(axis=0) for c in sets[1:]), coords.mean(axis=0)]
    pending, held, chunk = {}, 0, hrep._RANK_CHUNK
    for k in range(fixed, count):
        j = 1 + int(rng.integers(h.m)) if (k - fixed) % 2 else 0
        at, draws = pending.setdefault(j, ([], []))
        at.append(k)
        draws.append(rng.standard_exponential(len(sets[j])))
        held += len(sets[j])
        if held >= chunk * chunk or k == count - 1:
            for j, (at, draws) in pending.items():
                e = np.array(draws)
                w = e * (1 / np.cumsum(e, axis=1)[:, -1:])
                pts[at] = (w[:, None, :] @ sets[j])[:, 0]
            pending, held = {}, 0

    norms, rowmax, tol = q.norms, q._rowmax, hrep._TOL
    with np.errstate(all="ignore"):
        low = math.sqrt(norms.min()) / rowmax.max()
        high = math.sqrt(norms.max()) / rowmax.min()
    expected = h.m - h.n
    min_rank, min_margin, failures = expected, math.inf, []
    for start in range(0, len(pts), chunk):
        block = pts[start:start + chunk]
        signs = 1 - 2 * rng.integers(0, 2, size=(len(block), h.m))
        values = (h.A.T @ block[..., None])[..., 0] + h.b
        y = (signs * np.sqrt(np.clip(values, 0.0, None)))[:, None, :]
        svals = np.linalg.svd(2.0 * q.gamma * y, compute_uv=False)
        min_margin = min(min_margin, float(svals[:, expected - 1].min()))
        with np.errstate(all="ignore"):
            upper = svals[:, 0] * high
            sure = np.isfinite(upper) & (svals[:, expected - 1] * low
                                         > 2 * tol * np.maximum(1.0, upper))
        ranks = np.full(len(block), expected)
        if not sure.all():
            ranks[~sure] = hrep._numeric_rank(2.0 * q._unit_gamma * y[~sure])
        min_rank = min(min_rank, int(ranks.min()))
        failures += [(start + i, int(r)) for i, r in enumerate(ranks) if r < expected]
    return hrep.NondegeneracyReport(expected_rank=expected, min_rank=min_rank,
                                    min_margin=min_margin, samples=len(pts),
                                    failures=tuple(failures))


@pytest.fixture(scope="session")
def corpus():
    return corpus_3d()


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_small()


# ---------------------------------------------------------------------------
# the records as the frozen dataclasses they were declared as: parity oracles
# for the package's record classes' __init__, repr, == and hash.  They are made
# in a function, so that their names do not shadow the package's; each
# takes its bare name as qualified name, which its repr and its __init__'s
# argument errors print.


def _dataclass_records():
    @dataclass(frozen=True)
    class CombPolytope:
        dim: int
        facet_count: int
        vertices: tuple[tuple[int, ...], ...]
        facet_labels: tuple[str, ...] | None = None

        def __repr__(self):
            return (f"CombPolytope(dim={self.dim}, facets={self.facet_count}, "
                    f"vertices={len(self.vertices)})")

    @dataclass(frozen=True)
    class Face:
        facets: frozenset[int]
        dim: int
        vertices: tuple[int, ...]

    @dataclass(frozen=True)
    class SimplicialSphere:
        dim: int
        facets: tuple[frozenset[int], ...]

    @dataclass(frozen=True, eq=False)
    class FaceLattice:
        polytope: CombPolytope
        masks: tuple[int, ...] = field(repr=False)

    @dataclass(frozen=True, eq=False)
    class FixedPointSet:
        _z: object = field(repr=False)
        facet: int
        count: int

    @dataclass(frozen=True)
    class FlipMove:
        kind: str
        target: tuple[int, ...]
        codim: int

    @dataclass(frozen=True)
    class ReductionTrace:
        reducible: bool
        steps: tuple[int, ...]
        facet_counts: tuple[int, ...]
        start: CombPolytope
        end: CombPolytope

    @dataclass(frozen=True)
    class PrismaticCircuit:
        facets: tuple[int, ...]
        edges: tuple[tuple[int, ...], ...]

    @dataclass(frozen=True)
    class EdgeRecord:
        facet_pair: tuple[int, int]
        rep: int
        kind: str
        pieces: tuple[tuple[int, int], tuple[int, int]]

    @dataclass(frozen=True)
    class EdgeTypeSummary:
        records: Sequence[EdgeRecord]
        type1: int
        type2: int

    @dataclass(frozen=True)
    class FiltrationStage:
        base: CombPolytope
        j: int
        subgroup: Sequence[int]
        facets: Sequence[tuple[int, int]]
        chamber_count: int
        cell_count: int
        boundary_components: int
        edge_types: EdgeTypeSummary = field(repr=False)

    @dataclass(frozen=True, eq=False)
    class HRep:
        n: int
        m: int
        A: np.ndarray
        b: np.ndarray

    @dataclass(frozen=True, eq=False)
    class _Frame:
        norms: np.ndarray
        U: np.ndarray
        c: np.ndarray
        rounding: float
        thr: float

    @dataclass(frozen=True, eq=False)
    class QuadricSystem:
        m: int
        gamma: np.ndarray
        rhs: np.ndarray
        norms: np.ndarray
        rounding: np.ndarray | float = 0.0

    @dataclass(frozen=True, eq=False)
    class EmbeddedPoint:
        y: np.ndarray
        source: tuple[np.ndarray, tuple[int, ...]] | None = None

    @dataclass(frozen=True)
    class NondegeneracyReport:
        expected_rank: int
        min_rank: int
        min_margin: float
        samples: int
        failures: tuple[tuple[int, int], ...]

    records = {cls.__name__: cls for cls in (
        CombPolytope, Face, FaceLattice, SimplicialSphere, FlipMove, ReductionTrace,
        PrismaticCircuit, FixedPointSet, EdgeRecord, EdgeTypeSummary, FiltrationStage,
        HRep, _Frame, QuadricSystem, EmbeddedPoint, NondegeneracyReport)}
    for name, cls in records.items():
        cls.__qualname__ = name
        cls.__init__.__qualname__ = f"{name}.__init__"
    return records


DATACLASS_RECORDS = _dataclass_records()


def dataclass_oracle(record, made=None):
    """``record`` rebuilt as its old dataclass, records in its fields too.
    Pass one dict as ``made`` across calls, so that a record met twice is
    rebuilt once and identity comparisons carry over."""
    made = {} if made is None else made
    if id(record) not in made:
        cls = DATACLASS_RECORDS[type(record).__name__]
        values = {}
        for f in dataclasses.fields(cls):
            value = getattr(record, f.name)
            if type(value).__name__ in DATACLASS_RECORDS:
                value = dataclass_oracle(value, made)
            values[f.name] = value
        made[id(record)] = (record, cls(**values))  # the record pins its id
    return made[id(record)][1]


def _relabelled_sphere_family(k):
    """The sphere's facets on its vertices renumbered 0..V-1, as the
    arguments ``(num_labels, sets, pair table)`` of ``_family``, and the
    1-skeleton degrees, largest first, read off the pair table."""
    labels = k.vertex_labels
    pos = {x: i for i, x in enumerate(labels)}
    sets = [frozenset(pos[x] for x in f) for f in k.facets]
    pairs = _pair_sets(len(labels), sets)
    return (len(labels), sets, pairs), tuple(sorted(map(len, pairs), reverse=True))


def flip_certificate_oracle(p, depth):
    """``psc_flip_certificate`` as it was while it renumbered every state's
    labels and built the target from ``dual_sphere(p)`` and a pair table of
    its own, matching the target and registering states in two lookups.  It
    reads the state cap, the flip and the candidate faces from ``moves``."""
    n = p.dim
    if n < 3:
        raise DimensionUnsupported(
            f"codimension >= 3 flips need dim >= 3, got {n}")
    _check_int("depth", depth, 0)
    shape, bound = _relabelled_sphere_family(dual_sphere(p))
    target = _family(*shape)
    seen: dict = {}

    def matches(family, degrees):
        return degrees == bound and _family_isomorphism(family, target) is not None

    def register(family, degrees) -> bool:
        bucket = seen.setdefault(degrees, [])
        if any(_family_isomorphism(family, other) is not None for other in bucket):
            return False
        bucket.append(family)
        return True

    start = moves.simplex_boundary_sphere(n)
    shape, degrees = _relabelled_sphere_family(start)
    family = _family(*shape)
    if matches(family, degrees):
        return []
    register(family, degrees)
    frontier = deque([(start, [])])
    generated = 1
    for _ in range(depth):
        next_frontier = deque()
        while frontier:
            state, path = frontier.popleft()
            for sigma in moves._candidate_faces(state, n):
                try:
                    new = moves.bistellar_flip(state, sigma)
                except LinkNotStandard:
                    continue
                generated += 1
                _check_work("flip search states", generated, moves._STATE_CAP)
                shape, degrees = _relabelled_sphere_family(new)
                if len(degrees) > len(bound) or any(
                        d > b for d, b in zip(degrees, bound)):
                    continue
                family = _family(*shape)
                kind = "vertex" if len(sigma) == n else "general"
                move = moves.FlipMove(kind=kind, target=tuple(sorted(sigma)),
                                      codim=len(sigma))
                if matches(family, degrees):
                    return path + [move]
                if register(family, degrees):
                    next_frontier.append((new, path + [move]))
        frontier = next_frontier
        if not frontier:
            break
    return None


def g_sum_oracle(p) -> int:
    """g1 + g2 of the dual sphere of ``p``, from its 1-skeleton: f0 - n - 1
    plus f1 - n f0 + C(n + 1, 2)."""
    k, n = dual_sphere(p), p.dim
    f0 = k.vertex_count
    f1 = len({e for f in k.facets for e in itertools.combinations(sorted(f), 2)})
    return f0 - n - 1 + f1 - n * f0 + math.comb(n + 1, 2)


def _stacked_oracle(p) -> bool:
    """Some order of simplex-facet collapses takes ``p`` to the simplex."""
    return is_simplex_oracle(p) or any(
        moves.collapse_admissible(p, f) and _stacked_oracle(moves.simplex_facet_collapse(p, f))
        for f in range(p.facet_count))


def flip_outcomes_agree(got, want, p, depth) -> bool:
    """The flip search's outcome ``got`` is the oracle's ``want``, or a
    ``None`` where the oracle was refused (``want`` is ``GuardExceeded``)
    and no certificate exists: depth below g1 + g2, or n = 3 and ``p`` not
    stacked."""
    if got == want:
        return True
    return want is GuardExceeded and got is None and (
        depth < g_sum_oracle(p) or (p.dim == 3 and not _stacked_oracle(p)))


# ---------------------------------------------------------------------------
# the moves' checks as they were before each was cut to what validated input
# needs: every test they made, in the order they made it


def is_simplex_oracle(p):
    """True when the n-subsets of n + 1 facets are exactly the vertices."""
    n = p.dim
    if p.facet_count != n + 1 or p.vertex_count != n + 1:
        return False
    expected = {tuple(c) for c in itertools.combinations(range(n + 1), n)}
    return set(p.vertices) == expected


def collapse_error_oracle(p, facet_index):
    """The name of the error ``simplex_facet_collapse`` raised for this
    facet, or ``None``, after all four tests: n vertices, not the simplex,
    n neighbours, and neighbours that do not already meet at a vertex.  The
    last two raised ``CollapseInadmissible``."""
    _check_int("facet", facet_index, 0, p.facet_count, NoSuchFacet)
    n = p.dim
    on = p.facet_vertices(facet_index)
    if len(on) != n:
        return "NotSimplexFacet"
    if is_simplex_oracle(p):
        return "IsSimplex"
    neighbors = set().union(*(p.vertices[i] for i in on)) - {facet_index}
    if len(neighbors) != n:
        return "CollapseInadmissible"
    if tuple(sorted(neighbors)) in set(p.vertices):
        return "CollapseInadmissible"
    return None


def bistellar_flip_oracle(k, face):
    """``bistellar_flip`` with the whole link test: the link's vertices and
    the star count are both n + 1 - |face|, and the link is every face of
    the complementary simplex but one; the apex is found by a scan of every
    facet."""
    try:
        sigma = frozenset(face)
    except TypeError as e:
        raise BadParameters(f"a face must be a collection of labels, got {face!r}") from e
    if not sigma:
        raise NotAFace("empty face")
    n = k.dim + 1
    facets = set(k.facets)
    star = [t for t in facets if sigma <= t]
    if not star:
        raise NotAFace(f"{tuple(sorted(sigma))} is not a face")
    if len(sigma) == n:
        apex = max(max(t) for t in facets) + 1
        new = (facets - {sigma}) | {(sigma - {u}) | {apex} for u in sigma}
    else:
        comp = frozenset().union(*(t - sigma for t in star))
        expected = n + 1 - len(sigma)
        if len(comp) != expected or len(star) != expected:
            raise LinkNotStandard(
                f"link of {tuple(sorted(sigma))} is not a simplex boundary")
        if {t - sigma for t in star} != {comp - {x} for x in comp}:
            raise LinkNotStandard(
                f"link of {tuple(sorted(sigma))} is not a simplex boundary")
        if any(comp <= t for t in facets):
            raise LinkNotStandard(
                f"complementary simplex {tuple(sorted(comp))} is already a face")
        new = (facets - set(star)) | {(sigma - {u}) | comp for u in sigma}
    return SimplicialSphere._trusted(k.dim, tuple(sorted(new, key=sorted)))


def pairwise_disjoint_oracle(edges) -> bool:
    seen = set()
    for e in edges:
        for v in e:
            if v in seen:
                return False
            seen.add(v)
    return True


def prismatic_walk_oracle(p, k):
    """``prismatic_circuits``' walk over chordless k-cycles, keeping those
    whose k edges :func:`pairwise_disjoint_oracle` passes, with no path cap."""
    if p.dim != 3:
        raise DimensionUnsupported(f"prismatic circuits need dim 3, got {p.dim}")
    pairs = p._pairs
    nbrs = [set(row) for row in pairs]
    out = []
    for s in range(p.facet_count):
        stack = [((s, x), set()) for x in nbrs[s] if x > s]
        while stack:
            path, blocked = stack.pop()
            end = path[-1]
            last = len(path) == k - 1
            for x in nbrs[end]:
                if x <= s or x in blocked or (x in nbrs[s]) != last:
                    continue
                if not last:
                    stack.append((path + (x,), blocked | nbrs[end] | {end}))
                elif path[1] < x:
                    cycle = path + (x,)
                    edges = [tuple(pairs[a][b])
                             for a, b in zip(cycle, cycle[1:] + cycle[:1])]
                    if pairwise_disjoint_oracle(edges):
                        out.append(PrismaticCircuit(facets=cycle, edges=tuple(edges)))
    out.sort(key=lambda c: sorted(c.facets))
    return out


def move_rule_polytopes():
    """Polytopes of dimension 2..6 for the collapse and link oracles: the
    simplex, the cube and polars of cyclic polytopes, each also cut at its
    first vertex, at its last, and at its first twice."""
    out = []
    for n in range(2, 7):
        bases = [(f"simplex{n}", simplex(n)), (f"cube{n}", cube(n))]
        bases += [(f"polar_cyclic{m}_{n}", polar_cyclic(m, n)) for m in range(n + 2, n + 5)]
        for name, p in bases:
            out += [(name, p), (f"{name}-cut0", vertex_cut(p, 0)),
                    (f"{name}-cut-last", vertex_cut(p, p.vertex_count - 1)),
                    (f"{name}-cut0-twice", vertex_cut(vertex_cut(p, 0), 0))]
    return out
