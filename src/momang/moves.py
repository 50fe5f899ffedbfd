"""Vertex cuts, simplex-facet collapses, flips and prismatic circuits.

The central decision procedure is :func:`recognize_vertexcut_reducible`: a
simple 3-polytope arises from the tetrahedron by iterated vertex truncation
exactly when its dual sphere is stacked, i.e. when greedily removing
degree-3 dual vertices (= collapsing triangular facets) terminates at the
tetrahedron.  Removing any admissible degree-3 vertex of a stacked sphere
leaves a stacked sphere (the planar-3-tree property), so the greedy order
is irrelevant for the verdict; the test suite still cross-checks against an
exhaustive search over collapse orders.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable

from .errors import (
    BadParameters,
    DimensionUnsupported,
    IsSimplex,
    LinkNotStandard,
    NoSuchFacet,
    NoSuchVertex,
    NotAFace,
    NotSimple,
    NotSimplexFacet,
    _check_int,
    _check_type,
    _check_work,
    _Record,
)
from .polytope import (
    _WORK_CAP,
    CombPolytope,
    SimplicialSphere,
    _cut,
    _derived,
    _family,
    _family_isomorphism,
    _pair_sets,
    is_simplex,
)

# Flips the certificate search may produce, pruned ones included.
_STATE_CAP = 100_000
# Paths the prismatic-circuit walk (k >= 5) may take off its stack: ~4 s at the cap.
_PATH_CAP = 1_000_000
# The 3- and 4-circuit listing's predicted work in scan steps, ~2.6-3.4 s and
# ~280-310 MB at the cap, and the steps that forming one circuit costs.
_CYCLE_CAP = 4_000_000
_CYCLE_COST = 4


class FlipMove(_Record):
    """A flip recorded on the dual sphere.

    ``target`` is the flipped face as a set of dual vertices, i.e. facet
    indices of the polytope being built; ``codim`` is its size, which equals
    the codimension of the corresponding polytope face.  ``kind`` is
    ``"vertex"`` for the codimension-n case (a vertex truncation) and
    ``"general"`` otherwise.
    """

    _fields = ("kind", "target", "codim")


class ReductionTrace(_Record):
    """Replayable record of greedy simplex-facet collapses.

    ``steps[k]`` is the collapsed facet index in the polytope existing at
    that moment (facet indices above it shift down by one afterwards).
    When ``reducible`` is true, ``end`` is the tetrahedron and replaying the
    reversed steps as vertex cuts rebuilds ``start`` up to isomorphism; when
    false, ``end`` is the stuck polytope the greedy run halted at.
    """

    _fields = ("reducible", "steps", "facet_counts", "start", "end")


class PrismaticCircuit(_Record):
    """A cycle of facets, consecutive ones adjacent, others not, whose
    consecutive intersection edges are pairwise disjoint."""

    _fields = ("facets", "edges")


# ---------------------------------------------------------------------------
# vertex cuts and collapses


def vertex_cut(p: CombPolytope, vertex_index: int) -> CombPolytope:
    """Truncate a vertex: replace it by a new simplex facet.

    The new facet gets index ``m``; the vertex's n facets each keep n-1 of
    the n new vertices.  Facet count grows by one, vertex count by n-1.
    A non-int or bool index raises :class:`BadParameters`, one out of range
    :class:`NoSuchVertex`.  The result is not re-validated: on the dual
    sphere the cut stacks a facet, which keeps a sphere a sphere.  A
    segment would lose a facet, so n = 1 raises :class:`DimensionUnsupported`.
    """
    _check_type("polytope", p, CombPolytope)
    _check_int("vertex", vertex_index, 0, p.vertex_count, NoSuchVertex)
    if p.dim < 2:
        raise DimensionUnsupported(f"vertex cuts need dim >= 2, got {p.dim}")
    verts = [v for i, v in enumerate(p.vertices) if i != vertex_index]
    return _derived(p.dim, p.facet_count + 1,
                    verts + _cut(p.vertices[vertex_index], p.facet_count))


def _collapse_error(p: CombPolytope, facet_index: int):
    """The error :func:`simplex_facet_collapse` raises for this facet, or
    ``None``; an index that is not a facet raises at once.

    Two tests decide it: the facet has n vertices, and ``p`` is not the
    simplex.  On the dual sphere the facet is a vertex in n facets, so its
    link is the boundary of the simplex on its n neighbours (see
    :func:`bistellar_flip`).  Were that simplex a facet too, the dual would
    close up into the simplex boundary, which the second test refuses."""
    _check_int("facet", facet_index, 0, p.facet_count, NoSuchFacet)
    on = p.facet_vertices(facet_index)
    if len(on) != p.dim:
        return NotSimplexFacet(
            f"facet {facet_index} has {len(on)} vertices, expected {p.dim}")
    if is_simplex(p):
        return IsSimplex("polytope is already the simplex")
    return None


def collapse_admissible(p: CombPolytope, facet_index: int) -> bool:
    """Whether :func:`simplex_facet_collapse` accepts this facet."""
    _check_type("polytope", p, CombPolytope)
    try:
        return _collapse_error(p, facet_index) is None
    except (BadParameters, NoSuchFacet):
        return False


def simplex_facet_collapse(p: CombPolytope, facet_index: int) -> CombPolytope:
    """Undo a vertex cut: merge a simplex facet's vertices into one.

    Admissible when the facet has exactly n vertices and ``p`` is not the
    simplex.  The merged vertex lies in the n facets that surrounded the
    collapsed one; facet indices above the removed facet shift down.
    A non-int or bool index raises :class:`BadParameters`, one out of range
    :class:`NoSuchFacet`.  The result is not re-validated: on the dual
    sphere the collapse swaps a vertex star, the cone over the boundary of
    the simplex on its n neighbours, for that simplex, not yet a face.
    """
    _check_type("polytope", p, CombPolytope)
    err = _collapse_error(p, facet_index)
    if err is not None:
        raise err
    on = [v for v in p.vertices if facet_index in v]
    verts = [v for v in p.vertices if facet_index not in v]
    verts.append(set().union(*on) - {facet_index})
    return _derived(p.dim, p.facet_count - 1,
                    [[f if f < facet_index else f - 1 for f in v] for v in verts])


# ---------------------------------------------------------------------------
# recognition


def recognize_vertexcut_reducible(p: CombPolytope) -> ReductionTrace:
    """Greedy reduction to the tetrahedron by collapsing triangular facets.

    Collapses the lowest-indexed admissible triangle at every step so traces
    are deterministic.  Returns a trace with ``reducible=True`` and
    ``end`` the tetrahedron, or ``reducible=False`` with the stuck polytope.

    The run peels triangles off the start's facet graph, copied from
    ``p``'s cached pair table, in its original labels, and builds ``end``
    without validation.  That repeats the collapses exactly, so ``end`` is
    what the validated collapses would give:

    * a collapse changes no adjacency between surviving facets, because the
      triangle's three neighbours already meet pairwise;
    * on a simple 3-polytope a facet with three neighbours is a triangle;
    * relabelling is monotone, so the lowest admissible current index is
      the rank among the survivors of the lowest admissible original label.
    """
    _check_type("polytope", p, CombPolytope)
    if p.dim != 3:
        raise DimensionUnsupported(f"recognition needs dim 3, got {p.dim}")
    nbrs = [set(row) for row in p._pairs]
    alive = list(range(p.facet_count))
    steps: list[int] = []
    merged: list[set] = []
    while len(alive) > 4:
        rank = next((r for r, f in enumerate(alive) if len(nbrs[f]) == 3), None)
        if rank is None:
            break
        f = alive.pop(rank)
        for g in nbrs[f]:
            nbrs[g].discard(f)
        steps.append(rank)
        merged.append(nbrs[f])
    # a start or merged vertex lasts until one of its facets collapses
    label = {f: r for r, f in enumerate(alive)}
    verts = [[label[f] for f in v] for v in itertools.chain(p.vertices, merged)
             if all(f in label for f in v)]
    end = _derived(3, len(alive), verts, None if steps else p.facet_labels)
    counts = range(p.facet_count - 1, len(alive) - 1, -1)
    return ReductionTrace(len(alive) == 4, tuple(steps), tuple(counts), p, end)


def rebuild_by_cuts(trace: ReductionTrace) -> CombPolytope:
    """Replay a trace backwards as vertex cuts starting from ``trace.end``.

    Peels the start's facet graph, copied from its cached pair table, along
    the steps as recognition does: each collapsed facet merged into the
    vertex of its start neighbours that outlive it.  Those vertices are cut
    back in reverse order on one vertex set, fresh facets numbered on from
    ``trace.end``'s; for a reducible trace the result is isomorphic to
    ``trace.start``.  The result is not re-validated, since every cut is a
    vertex cut of a valid polytope.  A forged trace is refused instead:
    :class:`NotSimple` for an ``end`` of another dimension than ``start``,
    :class:`BadParameters` for steps that are not iterable or a step that
    is not an ``int`` or is a ``bool``, :class:`NoSuchFacet`,
    :class:`NotSimplexFacet` or :class:`IsSimplex` for a step that names no
    collapsible facet, and :class:`NoSuchVertex` when ``end`` lacks a
    vertex to cut.
    """
    _check_type("trace", trace, ReductionTrace)
    _check_type("trace start", trace.start, CombPolytope)
    _check_type("trace end", trace.end, CombPolytope)
    _check_type("trace steps", trace.steps, Iterable)
    n = trace.start.dim
    if trace.end.dim != n:
        raise NotSimple(f"trace end has dim {trace.end.dim}, its start dim {n}")
    nbrs = [set(row) for row in trace.start._pairs]
    alive = list(range(trace.start.facet_count))
    collapsed = []
    for s in trace.steps:
        _check_int("facet", s, 0, len(alive), NoSuchFacet)
        f = alive[s]
        if len(nbrs[f]) != n:
            raise NotSimplexFacet(f"facet {s} is adjacent to {len(nbrs[f])} facets, expected {n}")
        if len(alive) == n + 1:
            raise IsSimplex("polytope is already the simplex")
        del alive[s]
        for g in nbrs[f]:
            nbrs[g].discard(f)
        collapsed.append(f)

    label = {f: r for r, f in enumerate(alive)}
    verts = set(trace.end.vertices)
    for fresh, f in enumerate(reversed(collapsed), trace.end.facet_count):
        v = tuple(sorted(label[g] for g in nbrs[f]))
        if v not in verts:
            raise NoSuchVertex(f"trace end has no vertex {v} to cut")
        verts.remove(v)
        verts.update(_cut(v, fresh))
        label[f] = fresh
    return _derived(n, trace.end.facet_count + len(collapsed), verts,
                    None if collapsed else trace.end.facet_labels)


def trace_to_json(trace: ReductionTrace) -> dict:
    _check_type("trace", trace, ReductionTrace)
    return {
        "verdict": "yes" if trace.reducible else "no",
        "steps": list(trace.steps),
        "intermediate_facet_counts": list(trace.facet_counts),
    }


# ---------------------------------------------------------------------------
# bistellar flips on simplicial spheres


def bistellar_flip(k: SimplicialSphere, face) -> SimplicialSphere:
    """Replace the star of a face by the complementary configuration.

    For a face with ``s`` vertices in a complex with facet size ``n`` the
    move needs the link to be the boundary of an ``(n-s)``-vertex simplex
    that is not yet a face; the star is then swapped for the join of the
    face's boundary with that simplex.  When ``s == n`` the face is a facet
    and the move stacks a new apex onto it.

    ``k`` must be a validated sphere (:func:`validate_sphere` checks outside
    data).  Then the star count decides the link: the link of a face with
    ``s`` vertices is a closed pseudomanifold with facets of size ``n - s``,
    and with ``n + 1 - s`` of them, the fewest it can have, every two share
    a ridge, so it is the boundary of the simplex on their union.  The
    result is not re-checked: a move that passes the link checks replaces a
    ball (the star) by another ball with the same boundary, so a sphere
    stays a sphere.  A face that is not a collection of hashable labels
    raises :class:`BadParameters`, as does a ``k`` that is not a
    :class:`SimplicialSphere`.
    """
    _check_type("sphere", k, SimplicialSphere)
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
        new = (facets - {sigma}) | {(sigma - {u}) | {k._apex} for u in sigma}
    else:
        if len(star) != n + 1 - len(sigma):
            raise LinkNotStandard(
                f"link of {tuple(sorted(sigma))} is not a simplex boundary")
        comp = frozenset().union(*(t - sigma for t in star))
        if any(comp <= t for t in facets):
            raise LinkNotStandard(
                f"complementary simplex {tuple(sorted(comp))} is already a face")
        new = (facets - set(star)) | {(sigma - {u}) | comp for u in sigma}
    return SimplicialSphere._trusted(k.dim, tuple(sorted(new, key=sorted)))


# ---------------------------------------------------------------------------
# prismatic circuits


def prismatic_circuits(p: CombPolytope, k: int) -> list[PrismaticCircuit]:
    """All prismatic k-circuits, one per cyclic order up to rotation/reflection.

    A circuit is a chordless k-cycle of the facet graph, started at its
    smallest facet ``s`` and turned so that ``facets[1] < facets[-1]``,
    whose k consecutive intersection edges share no vertex; the list is
    sorted by facet set.  For k >= 4 that is every chordless cycle: two
    edges meeting at a vertex would put it in three cycle facets, not all
    consecutive, though a vertex's three facets are pairwise adjacent.  A
    triangle's edges meet exactly when its three facets share a vertex, so
    its first two edges decide it.  Raises :class:`BadParameters` for a
    ``k`` that is not an ``int`` >= 3 or is a ``bool``.

    k = 3 and 4 are listed by :func:`_short_circuits` (Σ min-degree <= 6E
    steps on E facet pairs that meet), with its own cap.  Larger k walk the
    chordless paths from ``s``, on ``p``'s cached pair table: each step adds
    a facet above ``s`` that meets the path's end and no earlier interior
    facet, and meets ``s`` exactly when it closes the cycle.  The walk raises
    :class:`GuardExceeded` once more than ``_PATH_CAP`` paths have been
    walked.  Circuits through one facet pair share its edge tuple.
    """
    shared, out = {}, []
    for ring in _circuit_rings(p, k):
        edges = []
        for a, b in zip(ring, ring[1:] + ring[:1]):
            key = (a, b) if a < b else (b, a)
            edges.append(shared.get(key) or shared.setdefault(key, tuple(p._pairs[a][b])))
        out.append(PrismaticCircuit(ring, tuple(edges)))
    return out


def _circuit_rings(p: CombPolytope, k: int) -> list[tuple[int, ...]]:
    """The facets of :func:`prismatic_circuits`, in its order and checks."""
    _check_type("polytope", p, CombPolytope)
    if p.dim != 3:
        raise DimensionUnsupported(f"prismatic circuits need dim 3, got {p.dim}")
    _check_int("circuit length", k, 3)
    if k <= 4:
        rings = _short_circuits(p, k)
    else:
        nbrs = [set(row) for row in p._pairs]
        rings = []
        walked = 0
        for s in range(p.facet_count):
            stack = [((s, x), set()) for x in nbrs[s] if x > s]
            while stack:
                path, blocked = stack.pop()
                walked += 1
                _check_work("prismatic circuit paths", walked, _PATH_CAP)
                end = path[-1]
                last = len(path) == k - 1
                grown = None if last else blocked | nbrs[end] | {end}  # the closing step reads none
                for x in nbrs[end]:
                    if x <= s or x in blocked or (x in nbrs[s]) != last:
                        continue
                    if not last:
                        stack.append((path + (x,), grown))
                    elif path[1] < x:
                        rings.append(path + (x,))
    # no keys tie (a chordless cycle is alone on its facets); gc untracks tuple keys, not lists
    rings.sort(key=None if k == 3 else lambda ring: tuple(sorted(ring)))
    return rings


def _short_circuits(p: CombPolytope, k: int) -> list[tuple[int, ...]]:
    """The facets of the prismatic 3- or 4-circuits, unsorted.

    Each adjacent pair a < b lists the triangles on its common neighbours
    c > b whose edges with a and b share no vertex.  4-cycles follow Chiba
    and Nishizeki (*SIAM J. Comput.* 14, 1985): facets are visited by
    falling degree and deleted once visited; a visit to ``u`` counts the
    live neighbours of its live neighbours, and each ``w`` not adjacent to
    ``u`` and counted twice or more closes a 4-cycle with each pair of its
    middles that are not adjacent, so each 4-cycle is met once.

    Two counts that relabelling cannot change cap the work.  A pair's
    common neighbours take its smaller end degree in steps, and so does
    the scan, reading each edge from its end visited first: Σ min-degree
    <= 2aE = 6E on the E edges of a facet graph of arboricity a <= 3 (it
    is planar), checked before the listing.  After it, the steps and
    ``_CYCLE_COST`` per circuit, triangles found or 4-cycles counted from
    their middles, must stay within ``_CYCLE_CAP`` before any 4-cycle is
    formed.  Either check raises :class:`GuardExceeded`.
    """
    pairs = p._pairs
    steps = 3 * sum(map(len, pairs))
    _check_work(f"prismatic {k}-circuit scan steps", steps, _CYCLE_CAP)
    live = [set(row) for row in pairs]
    if k == 3:
        rings = [(a, b, c) for a, row in enumerate(pairs) for b in row if a < b
                 for c in live[a] & live[b] if c > b and set(row[b]).isdisjoint(row[c])]
        _check_work("prismatic 3-circuit work", steps + _CYCLE_COST * len(rings), _CYCLE_CAP)
        return rings
    found = []
    circuits = 0
    for u in sorted(range(p.facet_count), key=lambda f: len(pairs[f]), reverse=True):
        near = live[u]
        shut = near | {u}
        twice = {}
        for v in near:
            for w in live[v] - shut:
                twice[w] = w in twice
        for w, met in twice.items():
            if met:
                mids = near & live[w]
                # the pairs of middles less the adjacent ones
                chordless = len(mids) * (len(mids) - 1) // 2 - sum(
                    len(live[x] & mids) for x in mids) // 2
                if chordless:
                    found.append((min(u, w), max(u, w), mids))
                    circuits += chordless
        for v in near:
            live[v].discard(u)
    _check_work("prismatic 4-circuit work", steps + _CYCLE_COST * circuits, _CYCLE_CAP)
    return [(lo, x, hi, y) if lo < x else (x, lo, y, hi)
            for lo, hi, mids in found for x in mids for y in mids - pairs[x].keys() if x < y]


# ---------------------------------------------------------------------------
# flip certificates


def _sphere_family(k: SimplicialSphere):
    """The sphere's facets as the arguments ``(num_labels, sets, pair table)``
    of :func:`_family`, and the 1-skeleton degrees, largest first, read off
    the pair table.  The labels are kept, so they must be ``0..V-1``, as on
    every sphere the flip search builds: the start is labelled ``0..n``, a
    flip at a facet adds the apex ``max + 1``, and one at a face of
    ``3..n-1`` vertices adds no vertex and deletes none."""
    num = k.vertex_count
    pairs = _pair_sets(num, k.facets)
    return (num, k.facets, pairs), tuple(sorted(map(len, pairs), reverse=True))


def simplex_boundary_sphere(n: int) -> SimplicialSphere:
    """The boundary of the n-simplex: all n-subsets of n+1 vertices.  An n
    that is not an int >= 1, or is a bool, raises :class:`BadParameters`;
    facets times labels, (n + 1) n, over ``_WORK_CAP`` (n >= 3162; ~0.6 s
    and ~410 MB at the edge) raise :class:`GuardExceeded` first."""
    _check_int("n", n, 1)
    _check_work(f"simplex_boundary_sphere({n}) size", (n + 1) * n, _WORK_CAP)
    facets = tuple(frozenset(c)
                   for c in itertools.combinations(range(n + 1), n))
    return SimplicialSphere._trusted(n - 1, facets)


def _g_vector(n: int, f0: int, f1: int) -> tuple[int, int]:
    """g1 = f0 - n - 1 and g2 = f1 - n f0 + C(n + 1, 2) of a simplicial
    (n - 1)-sphere with f0 vertices and f1 edges."""
    return f0 - n - 1, f1 - n * f0 + n * (n + 1) // 2


def psc_flip_certificate(p: CombPolytope, depth: int):
    """Search for a flip sequence of codimension >= 3 reaching ``p``.

    Breadth-first search over bistellar moves at faces with 3..n vertices,
    starting from the boundary of the n-simplex and deduplicating states up
    to isomorphism.  Returns the move list on success and ``None`` when no
    sequence exists within ``depth`` levels; exhausting the search bound is
    not a proof of impossibility.  Raises :class:`GuardExceeded` once more
    than ``_STATE_CAP`` states (flips produced) have been generated,
    :class:`BadParameters` for a ``p`` that is not a :class:`CombPolytope`
    or a ``depth`` that is not an ``int`` >= 0 or is a ``bool``.

    The g-vector bounds the length: g1 = f0 - n - 1 and g2 = f1 - n f0 +
    C(n + 1, 2) of a sphere with f0 vertices and f1 edges (for the target,
    the dual sphere of ``p``: its m facets and adjacent facet pairs).  A
    flip at a face sigma with link the boundary of tau adds a vertex and n
    edges when |sigma| = n (g1 + 1), the one edge tau when |sigma| = n - 1
    (g2 + 1), and neither when |sigma| <= n - 2.  So g1 and g2 never fall
    along a sequence, each move raises g1 + g2 by at most 1 (exactly 1 at
    n = 3 and n = 4), and a certificate has at least g1(p) + g2(p) moves.
    Two cases are answered before any flip:

    * ``depth < g1(p) + g2(p)`` returns ``None``;
    * at n = 3 every candidate face is a facet, so every move is a stacking
      and the states reached are the stacked 2-spheres, the duals of the
      vertex-cut polytopes: a ``p`` that
      :func:`recognize_vertexcut_reducible` calls irreducible returns
      ``None`` at every depth.

    Otherwise the search runs: only it can tell which certificate, the
    first in its order, is returned.

    States that cannot reach the target are not expanded.  A flip at a face
    sigma with at least 3 vertices deletes no vertex and no edge: every old
    star edge lies in some new facet (sigma - u) | comp, and a vertex is
    only added, when sigma is a facet.  So 1-skeleton degrees never drop
    along a sequence, and a state can reach the dual sphere of ``p`` only if
    its descending degree sequence is no longer than the target's and
    entrywise at most it.  By the g-vector count it also needs a g2 no
    larger than the target's, and a deficit, the target's g1 + g2 less its
    own, no larger than the depth left.  These conditions pass to every
    ancestor (the deficit falls by at most 1 per move), so the surviving
    states are closed under taking parents; they are isomorphism
    invariants, and a state that fails them fails them again at any later
    level, so a pruned state is isomorphic only to pruned states its level
    or later.  The BFS order, the first representative of every class and
    the returned certificate are therefore those of the unpruned search.

    The target is ``p``'s own vertex family on its facets ``0..m-1``, with
    its cached pair table: the dual sphere's facets, in the same order.  The
    degree sequence, an isomorphism invariant, keys the dedup buckets, and
    the target heads its own: a state's first isomorphic twin is the target
    exactly when the state matches it, and a state with no twin is
    registered and expanded.  Each state's pair table is built once, for its
    degrees, its g-vector and every isomorphism test it enters; its colours
    are refined once too, and only when it survives the prune.
    """
    _check_type("polytope", p, CombPolytope)
    n = p.dim
    if n < 3:
        raise DimensionUnsupported(
            f"codimension >= 3 flips need dim >= 3, got {n}")
    _check_int("depth", depth, 0)
    if depth < sum(_g_vector(n, p.facet_count, sum(map(len, p._pairs)) // 2)):
        return None
    if n == 3 and not recognize_vertexcut_reducible(p).reducible:
        return None
    return _flip_search(p, depth)


def _flip_search(p: CombPolytope, depth: int):
    """The breadth-first search of :func:`psc_flip_certificate`, pruned by
    degrees and by the g-vector, for a ``p`` of dimension >= 3."""
    n = p.dim
    bound = tuple(sorted(map(len, p._pairs), reverse=True))
    top1, top2 = _g_vector(n, len(bound), sum(bound) // 2)
    target = _family(p.facet_count, p.vertices, p._pairs)
    seen = {bound: [target]}

    def twin(shape, degrees):
        family = _family(*shape)  # colours only for the states kept
        bucket = seen.setdefault(degrees, [])
        found = next((other for other in bucket
                      if _family_isomorphism(family, other) is not None), None)
        if found is None:
            bucket.append(family)
        return found

    start = simplex_boundary_sphere(n)
    if twin(*_sphere_family(start)) is target:
        return []
    frontier = deque([(start, [])])
    generated = 1
    for left in range(depth - 1, -1, -1):  # the depth left below this level's children
        next_frontier = deque()
        while frontier:
            state, path = frontier.popleft()
            for sigma in _candidate_faces(state, n):
                try:
                    new = bistellar_flip(state, sigma)
                except LinkNotStandard:
                    continue
                generated += 1
                _check_work("flip search states", generated, _STATE_CAP)
                shape, degrees = _sphere_family(new)
                if len(degrees) > len(bound) or any(
                        d > b for d, b in zip(degrees, bound)):
                    continue
                g1, g2 = _g_vector(n, len(degrees), sum(degrees) // 2)
                if g2 > top2 or top1 + top2 - g1 - g2 > left:
                    continue
                kind = "vertex" if len(sigma) == n else "general"
                move = FlipMove(kind=kind, target=tuple(sorted(sigma)),
                                codim=len(sigma))
                found = twin(shape, degrees)
                if found is target:
                    return path + [move]
                if found is None:
                    next_frontier.append((new, path + [move]))
        frontier = next_frontier
        if not frontier:
            break
    return None


def _candidate_faces(k: SimplicialSphere, n: int):
    faces = set()
    for f in k.facets:
        for s in range(3, n + 1):
            faces.update(itertools.combinations(sorted(f), s))
    return sorted(faces)


def _certificate_moves(moves):
    """A certificate's moves; a move list that is not iterable, or a move
    that is not a :class:`FlipMove`, raises :class:`BadParameters`."""
    _check_type("certificate", moves, Iterable)
    for mv in moves:
        if not isinstance(mv, FlipMove):
            raise BadParameters(f"a certificate move must be a FlipMove, got {mv!r}")
        yield mv


def certificate_to_json(moves) -> dict:
    if moves is None:
        return {"moves": None}
    return {"moves": [{"kind": mv.kind, "face": list(mv.target),
                       "codim": mv.codim} for mv in _certificate_moves(moves)]}


def replay_flip_certificate(n: int, moves) -> SimplicialSphere:
    """Apply a certificate to the n-simplex boundary and return the result;
    moves are refused as :func:`_certificate_moves` refuses them."""
    state = simplex_boundary_sphere(n)
    for mv in _certificate_moves(moves):
        state = bistellar_flip(state, mv.target)
    return state
