import itertools
import random
import time
from collections import Counter, deque

import networkx as nx
import pytest

import momang.corpus as corpus
import momang.moves as moves
import momang.polytope as polytope
from momang import (
    bistellar_flip,
    collapse_admissible,
    combinatorial_isomorphic,
    cube,
    dodecahedron,
    dual_sphere,
    is_simplex,
    prism,
    prismatic_circuits,
    psc_flip_certificate,
    random_vertexcuts,
    rebuild_by_cuts,
    recognize_vertexcut_reducible,
    replay_flip_certificate,
    simplex,
    simplex_boundary_sphere,
    simplex_facet_collapse,
    trace_to_json,
    vertex_cut,
)
from momang.errors import (
    BadParameters,
    DimensionUnsupported,
    GuardExceeded,
    IsSimplex,
    LinkNotStandard,
    MomangError,
    NoSuchFacet,
    NoSuchVertex,
    NotAFace,
    NotSimple,
    NotSimplexFacet,
)
from momang.moves import (
    FlipMove,
    PrismaticCircuit,
    ReductionTrace,
    _candidate_faces,
)
from momang.polytope import (
    polytope_from_json,
    polytope_to_json,
    validate_polytope,
    validate_sphere,
)
from conftest import (
    bistellar_flip_oracle,
    collapse_error_oracle,
    corpus_3d,
    cut_cube,
    cut_gon_prism,
    cut_prism,
    family_isomorphism_oracle,
    flip_certificate_oracle,
    flip_outcomes_agree,
    g_sum_oracle,
    is_simplex_oracle,
    joint_refinement_oracle,
    move_rule_polytopes,
    prismatic_walk_oracle,
)


# ---------------------------------------------------------------------------
# oracles


def reducible_exhaustive(p):
    """Search every collapse order; True when some order reaches the simplex."""
    if is_simplex(p):
        return True
    for f in range(p.facet_count):
        if collapse_admissible(p, f) and reducible_exhaustive(
                simplex_facet_collapse(p, f)):
            return True
    return False


def recognize_oracle(p):
    """Greedy recognition on whole polytopes: each step scans the current
    facets from 0 for the first admissible collapse and validates the
    collapsed polytope."""
    if p.dim != 3:
        raise DimensionUnsupported(f"recognition needs dim 3, got {p.dim}")
    steps: list[int] = []
    counts: list[int] = []
    cur = p
    while not is_simplex(cur):
        for f in range(cur.facet_count):
            if collapse_admissible(cur, f):
                cur = simplex_facet_collapse(cur, f)
                steps.append(f)
                counts.append(cur.facet_count)
                break
        else:
            return ReductionTrace(False, tuple(steps), tuple(counts), p, cur)
    return ReductionTrace(True, tuple(steps), tuple(counts), p, cur)


def replay_collapses(start, steps):
    """Apply recorded collapse steps to ``start`` and return the result."""
    cur = start
    for f in steps:
        cur = simplex_facet_collapse(cur, f)
    return cur


def rebuild_oracle(trace):
    """Rebuild by replaying every collapse to recover the merged vertices,
    then cutting them back one validated polytope at a time while tracking
    the facet relabelling of each collapse."""
    stages = [trace.start]
    merged_sets = []
    cur = trace.start
    for f in trace.steps:
        neighbors = set().union(*(v for v in cur.vertices if f in v)) - {f}
        merged = tuple(sorted(x if x < f else x - 1 for x in neighbors))
        cur = simplex_facet_collapse(cur, f)
        stages.append(cur)
        merged_sets.append(merged)

    q = trace.end
    # pi maps facet labels of stages[k] to facet labels of q.
    pi = list(range(trace.end.facet_count))
    for k in range(len(trace.steps) - 1, -1, -1):
        want = frozenset(pi[f] for f in merged_sets[k])
        (v_idx,) = [i for i, v in enumerate(q.vertices) if frozenset(v) == want]
        fresh = q.facet_count
        q = vertex_cut(q, v_idx)
        t = trace.steps[k]
        pi = [pi[i] if i < t else (fresh if i == t else pi[i - 1])
              for i in range(stages[k].facet_count)]
    return q


def prismatic_oracle(p, k):
    """The networkx search over all k-subsets of facets: keep those whose
    induced facet graph is one cycle, walked from the smallest facet
    towards its smaller neighbour, with pairwise disjoint edges.  The
    degree test runs on plain sets first, so that only candidate cycles
    pay for a networkx subgraph.  Each edge of the facet graph carries the
    ids of the vertices where its two facets meet."""
    shared = {}
    for vi, fs in enumerate(p.vertices):
        for i, j in itertools.combinations(fs, 2):
            shared.setdefault((i, j), []).append(vi)
    g = nx.Graph()
    g.add_nodes_from(range(p.facet_count))
    g.add_edges_from((i, j, {"vertices": tuple(vids)}) for (i, j), vids in shared.items())
    adj = [set(g[f]) for f in range(p.facet_count)]
    out = []
    for combo in itertools.combinations(range(p.facet_count), k):
        if any(len(adj[f].intersection(combo)) != 2 for f in combo):
            continue
        sub = g.subgraph(combo)
        if sub.number_of_edges() != k or any(d != 2 for _, d in sub.degree):
            continue
        order = _cycle_order(sub, combo)
        if order is None:
            continue
        edges = [tuple(g.edges[order[i], order[(i + 1) % k]]["vertices"])
                 for i in range(k)]
        flat = [v for e in edges for v in e]
        if len(flat) == len(set(flat)):
            out.append(PrismaticCircuit(facets=tuple(order), edges=tuple(edges)))
    return out


def _cycle_order(sub, combo):
    """Walk the 2-regular subgraph; canonical start/direction; None if split."""
    start = min(combo)
    prev, cur = None, start
    order = [start]
    while True:
        nbrs = sorted(x for x in sub.neighbors(cur) if x != prev)
        if not nbrs:
            return None
        prev, cur = cur, nbrs[0]
        if cur == start:
            break
        order.append(cur)
        if len(order) > len(combo):
            return None
    return order if len(order) == len(combo) else None


def _sphere_key(k):
    labels = k.vertex_labels
    pos = {x: i for i, x in enumerate(labels)}
    sets = [frozenset(pos[x] for x in f) for f in k.facets]
    return len(labels), sets


def _family_fingerprint(num_labels, sets):
    """Isomorphism-invariant fingerprint for bucketing set families."""
    (colors,) = joint_refinement_oracle([(num_labels, sets)])
    hist = tuple(sorted(Counter(colors.values()).items()))
    set_sigs = tuple(sorted(tuple(sorted(colors[a] for a in s)) for s in sets))
    # Colors are local intern ids; only their partition structure is
    # invariant, so fingerprint the histogram shape and signature multiset.
    shape = tuple(sorted(c for _, c in hist))
    sig_shape = tuple(sorted(Counter(set_sigs).values()))
    sizes = tuple(sorted(len(s) for s in sets))
    return (num_labels, len(sets), sizes, shape, sig_shape)


def _spheres_isomorphic(a, b) -> bool:
    return family_isomorphism_oracle(*_sphere_key(a), *_sphere_key(b)) is not None


def flip_oracle(p, depth: int, state_cap: int = 100_000):
    """The flip search without degree pruning: breadth-first over every
    codimension >= 3 flip from the n-simplex boundary, deduplicating up to
    isomorphism within buckets keyed by the color-refinement fingerprint."""
    n = p.dim
    if n < 3:
        raise DimensionUnsupported(
            f"codimension >= 3 flips need dim >= 3, got {n}")
    if depth < 0:
        raise BadParameters(f"depth must be >= 0, got {depth}")
    target = dual_sphere(p)
    target_fp = _family_fingerprint(*_sphere_key(target))
    seen: dict = {}

    def matches(state, fp):
        return fp == target_fp and _spheres_isomorphic(state, target)

    def register(state, fp) -> bool:
        bucket = seen.setdefault(fp, [])
        if any(_spheres_isomorphic(state, other) for other in bucket):
            return False
        bucket.append(state)
        return True

    # every state is fingerprinted once, for both the match and the dedup
    start = simplex_boundary_sphere(n)
    fp = _family_fingerprint(*_sphere_key(start))
    if matches(start, fp):
        return []
    register(start, fp)
    frontier = deque([(start, [])])
    generated = 1
    for _ in range(depth):
        next_frontier = deque()
        while frontier:
            state, path = frontier.popleft()
            for sigma in _candidate_faces(state, n):
                try:
                    new = bistellar_flip(state, sigma)
                except LinkNotStandard:
                    continue
                generated += 1
                if generated > state_cap:
                    raise GuardExceeded(
                        f"flip search generated more than {state_cap} states")
                kind = "vertex" if len(sigma) == n else "general"
                move = FlipMove(kind=kind, target=tuple(sorted(sigma)),
                                codim=len(sigma))
                fp = _family_fingerprint(*_sphere_key(new))
                if matches(new, fp):
                    return path + [move]
                if register(new, fp):
                    next_frontier.append((new, path + [move]))
        frontier = next_frontier
        if not frontier:
            break
    return None


def brute_prismatic(p, k):
    """Circuit count straight from the incidence, no facet-graph machinery."""
    def shared(i, j):
        return {v for v in range(p.vertex_count)
                if {i, j} <= set(p.vertices[v])}

    found = set()
    for perm in itertools.permutations(range(p.facet_count), k):
        if perm[0] != min(perm):
            continue
        pairs = [(perm[i], perm[(i + 1) % k]) for i in range(k)]
        if not all(shared(a, b) for a, b in pairs):
            continue
        nonconsec = [(perm[i], perm[j])
                     for i, j in itertools.combinations(range(k), 2)
                     if (j - i) % k not in (1, k - 1)]
        if any(shared(a, b) for a, b in nonconsec):
            continue
        edge_sets = [shared(a, b) for a, b in pairs]
        if any(x & y for x, y in itertools.combinations(edge_sets, 2)):
            continue
        canon = min(tuple(perm[(s + d * t) % k] for t in range(k))
                    for s in range(k) for d in (1, -1))
        found.add(canon)
    return len(found)


# ---------------------------------------------------------------------------
# vertex cut


def test_cut_simplex_gives_prism():
    for v in range(4):
        p = vertex_cut(simplex(3), v)
        assert p.facet_count == 5 and p.vertex_count == 6
        assert combinatorial_isomorphic(p, prism()) is not None


def test_cut_prism_counts():
    p = cut_prism()
    assert p.facet_count == 6 and p.vertex_count == 8


def test_cut_cube_counts_and_unique_triangle():
    p = cut_cube()
    assert p.facet_count == 7 and p.vertex_count == 10
    sizes = [sum(1 for v in p.vertices if f in v) for f in range(7)]
    assert sizes.count(3) == 1


def test_cut_bad_vertex():
    with pytest.raises(NoSuchVertex):
        vertex_cut(simplex(3), 99)


ARGUMENTS_THAT_ARE_NOT_INTS = [1.0, 3.5, True, False, "1", None]


@pytest.mark.parametrize("value", ARGUMENTS_THAT_ARE_NOT_INTS, ids=repr)
@pytest.mark.parametrize("call", [
    lambda x: vertex_cut(cube(3), x),
    lambda x: simplex_facet_collapse(prism(), x),
    lambda x: prismatic_circuits(cube(3), x),
    lambda x: psc_flip_certificate(prism(), x),
], ids=["vertex_cut", "collapse", "prismatic_circuits", "psc_flip_certificate"])
def test_move_arguments_must_be_ints(call, value):
    # a float escaped as TypeError, 3.5 circuits returned [] and True read as 1
    with pytest.raises(BadParameters, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("value", ARGUMENTS_THAT_ARE_NOT_INTS, ids=repr)
def test_collapse_admissible_refuses_what_collapse_refuses(value):
    assert collapse_admissible(prism(), value) is False


@pytest.mark.parametrize("call,error,message", [
    (lambda: vertex_cut(cube(3), 8), NoSuchVertex, "vertex 8 of 8"),
    (lambda: vertex_cut(cube(3), -1), NoSuchVertex, "vertex -1 of 8"),
    (lambda: simplex_facet_collapse(prism(), 5), NoSuchFacet, "facet 5 of 5"),
    (lambda: simplex_facet_collapse(prism(), -1), NoSuchFacet, "facet -1 of 5"),
    (lambda: prismatic_circuits(cube(3), 2), BadParameters, "circuit length must be >= 3, got 2"),
    (lambda: psc_flip_certificate(prism(), -1), BadParameters, "depth must be >= 0, got -1"),
], ids=["cut-past-end", "cut-negative", "collapse-past-end", "collapse-negative",
        "circuit-length-2", "depth-negative"])
def test_move_arguments_out_of_range(call, error, message):
    with pytest.raises(MomangError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def test_cut_count_deltas(corpus):
    for name, p in corpus:
        for v in range(p.vertex_count):
            q = vertex_cut(p, v)
            assert q.facet_count == p.facet_count + 1, name
            assert q.vertex_count == p.vertex_count + p.dim - 1, name


def test_cut_higher_dimension():
    q = vertex_cut(simplex(4), 0)
    assert q.facet_count == 6 and q.vertex_count == 5 + 3


# ---------------------------------------------------------------------------
# collapse


def test_collapse_prism_triangle_gives_simplex():
    p = simplex_facet_collapse(prism(), 3)
    assert is_simplex(p)
    p = simplex_facet_collapse(prism(), 4)
    assert is_simplex(p)


def test_collapse_cube_rejects_squares():
    for f in range(6):
        with pytest.raises(NotSimplexFacet):
            simplex_facet_collapse(cube(3), f)


def test_collapse_cut_cube_restores_cube():
    p = cut_cube()
    triangle = next(f for f in range(p.facet_count)
                    if sum(1 for v in p.vertices if f in v) == 3)
    back = simplex_facet_collapse(p, triangle)
    assert combinatorial_isomorphic(back, cube(3)) is not None


def test_collapse_simplex_refused():
    with pytest.raises(IsSimplex):
        simplex_facet_collapse(simplex(3), 0)


def test_collapse_admissible_iff_collapse_succeeds(corpus):
    inputs = list(corpus) + [("simplex4", simplex(4)),
                             ("cut_cube4", vertex_cut(cube(4), 0))]
    for name, p in inputs:
        for f in (-1, *range(p.facet_count), p.facet_count):
            try:
                simplex_facet_collapse(p, f)
                accepted = True
            except MomangError:
                accepted = False
            assert collapse_admissible(p, f) == accepted, (name, f)


def test_collapse_rule_matches_the_four_test_oracle():
    # on validated input the neighbour count and the neighbours-meet test
    # never fire, and n + 1 facets make the simplex
    inputs = move_rule_polytopes() + corpus_3d()
    inputs += [(f"rvc{k}-{s}", random_vertexcuts(k, s)) for k in (4, 12, 40) for s in (0, 1)]
    for name, p in inputs:
        assert is_simplex(p) == is_simplex_oracle(p), name
        for f in range(p.facet_count):
            err = moves._collapse_error(p, f)
            assert (None if err is None else type(err).__name__) == \
                collapse_error_oracle(p, f), (name, f)


def test_roundtrip_cut_then_collapse(corpus):
    # collapsing the fresh facet undoes the cut exactly (canonical ordering)
    for name, p in corpus:
        for v in range(p.vertex_count):
            q = vertex_cut(p, v)
            back = simplex_facet_collapse(q, p.facet_count)
            assert back == p, (name, v)


def test_roundtrip_higher_dim():
    p = cube(4)
    for v in range(p.vertex_count):
        q = vertex_cut(p, v)
        assert simplex_facet_collapse(q, p.facet_count) == p


# ---------------------------------------------------------------------------
# recognition


def test_recognize_simplex_empty_trace():
    tr = recognize_vertexcut_reducible(simplex(3))
    assert tr.reducible and tr.steps == ()


def test_recognize_prism_one_step():
    tr = recognize_vertexcut_reducible(prism())
    assert tr.reducible and len(tr.steps) == 1
    assert trace_to_json(tr) == {"verdict": "yes", "steps": [3],
                                 "intermediate_facet_counts": [4]}


def test_recognize_cube_no():
    tr = recognize_vertexcut_reducible(cube(3))
    assert not tr.reducible and tr.steps == ()
    assert tr.end == cube(3)


def test_recognize_cut_cube_no_after_one_collapse():
    tr = recognize_vertexcut_reducible(cut_cube())
    assert not tr.reducible
    assert len(tr.steps) == 1
    assert combinatorial_isomorphic(tr.end, cube(3)) is not None


def test_recognize_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        recognize_vertexcut_reducible(simplex(2))


def test_recognize_traces_replay(corpus):
    for name, p in corpus:
        tr = recognize_vertexcut_reducible(p)
        assert replay_collapses(tr.start, tr.steps) == tr.end, name
        if tr.reducible:
            if not is_simplex(p):
                # a reducible non-simplex must expose a triangular facet
                assert any(sum(1 for v in p.vertices if f in v) == 3
                           for f in range(p.facet_count)), name
            rebuilt = rebuild_by_cuts(tr)
            assert combinatorial_isomorphic(rebuilt, p) is not None, name


def test_random_vertexcuts_sizes():
    p = random_vertexcuts(5, seed=42)
    assert p.facet_count == 9
    assert recognize_vertexcut_reducible(p).reducible


def test_recognize_random_cut_polytopes_yes():
    for seed in range(12):
        p = random_vertexcuts(seed % 6 + 1, seed)
        assert recognize_vertexcut_reducible(p).reducible


def test_greedy_matches_exhaustive(small_corpus):
    for name, p in small_corpus:
        greedy = recognize_vertexcut_reducible(p).reducible
        assert greedy == reducible_exhaustive(p), name


def relabelled(p, seed):
    perm = list(range(p.facet_count))
    random.Random(seed).shuffle(perm)
    return validate_polytope(p.dim, [[perm[f] for f in v] for v in p.vertices])


def peel_oracle_inputs():
    inputs = [(f"rvc{k}-{s}", random_vertexcuts(k, s))
              for k in (0, 1, 2, 3, 4, 8, 12, 24, 40, 100) for s in range(4)]
    inputs.append(("rvc200-0", random_vertexcuts(200, 0)))
    inputs += [(f"{name}-cut{c}", seeded_cuts(make(), c, c))
               for name, make in (("cube", lambda: cube(3)),
                                  ("dodecahedron", dodecahedron), ("prism", prism))
               for c in range(1, 9)]
    # k <= 40 cuts means at most 44 facets
    inputs += [(f"{name}-relabelled", relabelled(p, i))
               for i, (name, p) in enumerate(inputs) if p.facet_count <= 44]
    for name, p in (("simplex", simplex(3)), ("prism", prism()), ("cube", cube(3))):
        labels = [f"F{i}" for i in range(p.facet_count)]
        inputs.append((f"{name}-labelled", validate_polytope(3, p.vertices, labels)))
    return inputs


def test_peel_matches_oracles():
    for name, p in peel_oracle_inputs():
        tr = recognize_vertexcut_reducible(p)
        assert tr == recognize_oracle(p), name
        assert rebuild_by_cuts(tr) == rebuild_oracle(tr), name


def test_rebuild_matches_oracle_in_dim_4():
    # collapsing the newest cut facet first undoes the cuts one by one
    start = seeded_cuts(simplex(4), 3, 1)
    steps = (7, 6, 5)
    tr = ReductionTrace(True, steps, steps, start, replay_collapses(start, steps))
    assert is_simplex(tr.end)
    assert rebuild_by_cuts(tr) == rebuild_oracle(tr)


def test_validation_once_per_call(monkeypatch):
    # the moves and the generators build their results by construction and
    # never validate; test_generators_build_what_validation_accepts in
    # test_polytope.py checks the generators' outputs against validation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return validate_polytope(*args, **kwargs)

    inputs = [random_vertexcuts(12, 0), seeded_cuts(dodecahedron(), 3, 3), simplex(3),
              prism(), cube(4)]
    for module in (polytope, moves, corpus):
        monkeypatch.setattr(module, "validate_polytope", counting, raising=False)
    for p in inputs:
        calls.clear()
        if p.dim == 3:
            rebuild_by_cuts(recognize_vertexcut_reducible(p))
        vertex_cut(p, 0)
        for f in range(p.facet_count):
            if collapse_admissible(p, f):
                simplex_facet_collapse(p, f)
        assert calls == []
    calls.clear()
    for k in (0, 1, 12, 200):
        random_vertexcuts(k, 0)
        simplex(k + 1)
        cube(k % 11 + 1)
    prism()
    dodecahedron()
    assert calls == []


def validation_oracle_inputs():
    inputs = corpus_3d()
    inputs += [(f"rvc{k}-{s}", random_vertexcuts(k, s)) for k in (0, 1, 12, 200) for s in (0, 1)]
    return inputs


def revalidated(out):
    return validate_polytope(out.dim, out.vertices, out.facet_labels)


@pytest.mark.parametrize("p", [pytest.param(p, id=name) for name, p in validation_oracle_inputs()])
def test_moves_build_what_validation_accepts(p):
    tr = recognize_vertexcut_reducible(p)
    assert tr.end == revalidated(tr.end)
    rebuilt = rebuild_by_cuts(tr)
    assert rebuilt == revalidated(rebuilt)
    for v in range(p.vertex_count):
        cut = vertex_cut(p, v)
        assert cut == revalidated(cut), v
    for f in range(p.facet_count):
        if collapse_admissible(p, f):
            back = simplex_facet_collapse(p, f)
            assert back == revalidated(back), f


def test_moves_build_what_validation_accepts_off_dim_3():
    hexagon = validate_polytope(2, [(i, (i + 1) % 6) for i in range(6)])
    for p in (hexagon, cube(4), vertex_cut(cube(4), 0), simplex(4), simplex(2)):
        for v in range(p.vertex_count):
            cut = vertex_cut(p, v)
            assert cut == revalidated(cut), (p, v)
            back = simplex_facet_collapse(cut, p.facet_count)
            assert back == revalidated(back) == p, (p, v)
        for f in range(p.facet_count):
            if collapse_admissible(p, f):
                back = simplex_facet_collapse(p, f)
                assert back == revalidated(back), (p, f)


@pytest.mark.parametrize("p", [simplex(1), cube(1)], ids=["simplex1", "cube1"])
def test_cut_refuses_a_segment(p):
    # the cut endpoint's facet would lie on no vertex
    with pytest.raises(DimensionUnsupported, match="dim >= 2"):
        vertex_cut(p, 0)


def test_pair_table_is_cached_and_never_mutated(monkeypatch):
    built = []

    def counting(num_labels, sets):
        built.append(num_labels)
        return pair_sets(num_labels, sets)

    pair_sets = polytope._pair_sets
    monkeypatch.setattr(polytope, "_pair_sets", counting)
    for name, p in validation_oracle_inputs():
        # the recognize benchmark job, on a fresh parse of the input
        p = polytope_from_json(polytope_to_json(p))
        built.clear()
        table = p._pairs
        tr = recognize_vertexcut_reducible(p)
        if tr.reducible:
            assert combinatorial_isomorphic(rebuild_by_cuts(tr), p) is not None, name
        for k in (3, 4):
            prismatic_circuits(p, k)
        assert p._pairs is table, name
        assert table == pair_sets(p.facet_count, p.vertices), name
        # one table for p, one for the rebuilt polytope
        assert len(built) == 1 + tr.reducible, name


@pytest.mark.parametrize("k,seed", [(0, 0), (1, 0), (12, 5), (50, 1), (200, 0), (200, 3)])
def test_random_vertexcuts_matches_per_cut_oracle(k, seed):
    # the old generator: cut the tetrahedron k times through vertex_cut
    assert random_vertexcuts(k, seed) == seeded_cuts(simplex(3), k, seed)


def _forged(make, **changes):
    # the trace's fields are its whole __dict__: it caches no property
    return lambda: ReductionTrace(**{**vars(recognize_vertexcut_reducible(make())), **changes})


FORGED_TRACES = [
    ("step-minus-one", _forged(prism, steps=(-1,)), NoSuchFacet, "facet -1 of 5"),
    # after one collapse of the cut prism five facets survive
    ("step-past-survivors", _forged(cut_prism, steps=(5, 5)), NoSuchFacet, "facet 5 of 5"),
    ("step-past-tetrahedron", _forged(prism, steps=(3, 0)), IsSimplex, "already the simplex"),
    ("step-on-square", _forged(prism, steps=(0,)), NotSimplexFacet,
     "facet 0 is adjacent to 4 facets, expected 3"),
    # a 4-cube facet has 8 vertices and 6 neighbours; the trace checks neighbours
    ("step-on-4-cube", lambda: ReductionTrace(True, (0,), (7,), cube(4), cube(4)),
     NotSimplexFacet, "facet 0 is adjacent to 6 facets, expected 4"),
    ("end-lacks-merged-vertex", _forged(cut_cube, end=cut_prism()), NoSuchVertex,
     "trace end has no vertex"),
    ("step-bool", _forged(prism, steps=(True,)), BadParameters, "facet must be an integer"),
    ("step-float", _forged(prism, steps=(3.0,)), BadParameters, "facet must be an integer"),
    # only the rebuild's own check refuses these now that its result is not validated
    ("end-of-other-dimension", _forged(prism, end=cube(4)), NotSimple,
     "trace end has dim 4, its start dim 3"),
    ("end-of-other-dimension-no-steps", _forged(lambda: simplex(3), end=simplex(4)), NotSimple,
     "trace end has dim 4, its start dim 3"),
]


@pytest.mark.parametrize("make,error,message", [c[1:] for c in FORGED_TRACES],
                         ids=[c[0] for c in FORGED_TRACES])
def test_rebuild_rejects_forged_traces(make, error, message):
    with pytest.raises(MomangError) as info:
        rebuild_by_cuts(make())
    assert type(info.value) is error
    assert message in str(info.value)


def test_recognize_and_rebuild_big_input():
    p = random_vertexcuts(800, 0)
    assert p.facet_count == 804
    t0 = time.perf_counter()
    tr = recognize_vertexcut_reducible(p)
    rebuilt = rebuild_by_cuts(tr)
    elapsed = time.perf_counter() - t0
    assert tr.reducible and len(tr.steps) == 800
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    assert combinatorial_isomorphic(rebuilt, p) is not None


# ---------------------------------------------------------------------------
# bistellar flips


def test_stacking_matches_dual_of_cut():
    base = dual_sphere(simplex(3))
    stacked = bistellar_flip(base, (1, 2, 3))
    v = simplex(3).vertices.index((1, 2, 3))
    expect = dual_sphere(vertex_cut(simplex(3), v))
    assert set(stacked.facets) == set(expect.facets)


def test_flip_involution():
    octa = validate_sphere([f for f in itertools.combinations(range(6), 3)
                            if not any(a + b == 5 for a, b in
                                       itertools.combinations(f, 2))])
    flipped = bistellar_flip(octa, (0, 1))
    assert set(flipped.facets) != set(octa.facets)
    back = bistellar_flip(flipped, (2, 3))
    assert set(back.facets) == set(octa.facets)


def test_flip_link_not_standard():
    with pytest.raises(LinkNotStandard):
        bistellar_flip(simplex_boundary_sphere(3), (0, 1))


def test_flip_not_a_face():
    octa = validate_sphere([f for f in itertools.combinations(range(6), 3)
                            if not any(a + b == 5 for a, b in
                                       itertools.combinations(f, 2))])
    with pytest.raises(NotAFace):
        bistellar_flip(octa, (0, 5))
    with pytest.raises(NotAFace):
        bistellar_flip(octa, (0, 1, 5))
    with pytest.raises(NotAFace, match="empty face"):
        bistellar_flip(simplex_boundary_sphere(3), ())


def _flip_or_error(flip, k, face):
    try:
        return flip(k, face)
    except MomangError as e:
        return type(e), str(e)


def rule_spheres():
    """The dual spheres of the oracle polytopes of dimension 3..6, and each
    after a flip at its first facet, which adds the apex."""
    spheres = [(name, dual_sphere(p)) for name, p in move_rule_polytopes() if p.dim >= 3]
    return spheres + [(f"{name}-stacked", bistellar_flip(k, k.facets[0])) for name, k in spheres]


def test_link_rule_matches_the_whole_link_oracle():
    # on a validated sphere the star count alone decides the link, at every
    # face of 1..n vertices, refusals and their messages included
    for name, k in rule_spheres():
        n = k.dim + 1
        faces = {c for t in k.facets for s in range(1, n + 1)
                 for c in itertools.combinations(sorted(t), s)}
        for face in sorted(faces):
            assert _flip_or_error(bistellar_flip, k, face) == \
                _flip_or_error(bistellar_flip_oracle, k, face), (name, face)


def test_facet_flip_reads_the_apex_once_per_sphere():
    k = validate_sphere([(0, 5, 7), (0, 5, 9), (0, 7, 9), (5, 7, 9)])
    assert "_apex" not in vars(k)
    stacked = [bistellar_flip(k, t) for t in k.facets]
    assert vars(k)["_apex"] == 10
    assert stacked == [bistellar_flip_oracle(k, t) for t in k.facets]
    assert all(s.vertex_labels == (0, 5, 7, 9, 10) for s in stacked)


def test_flip_general_move_dim4():
    # stack the 4-simplex boundary, then trade star of a triangle for the
    # complementary edge (a 2-3 style move one dimension up) and undo it
    k1 = bistellar_flip(simplex_boundary_sphere(4), (0, 1, 2, 3))
    k2 = bistellar_flip(k1, (0, 1, 2))
    assert len(k2.facets) == len(k1.facets) + 1
    back = bistellar_flip(k2, (4, 5))
    assert set(back.facets) == set(k1.facets)


# ---------------------------------------------------------------------------
# prismatic circuits


def test_prismatic_simplex_empty():
    assert prismatic_circuits(simplex(3), 3) == []
    assert prismatic_circuits(simplex(3), 4) == []


def test_prismatic_prism_single():
    circuits = prismatic_circuits(prism(), 3)
    assert len(circuits) == 1
    assert circuits[0].facets == (0, 1, 2)
    assert brute_prismatic(prism(), 3) == 1
    assert prismatic_circuits(prism(), 4) == []


def test_prismatic_cube_three_belts():
    circuits = prismatic_circuits(cube(3), 4)
    assert len(circuits) == 3 == brute_prismatic(cube(3), 4)
    assert prismatic_circuits(cube(3), 3) == []


def test_prismatic_counts_match_bruteforce(small_corpus):
    for name, p in small_corpus:
        for k in (3, 4):
            assert len(prismatic_circuits(p, k)) == brute_prismatic(p, k), (name, k)


def seeded_cuts(p, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        p = vertex_cut(p, rng.randrange(p.vertex_count))
    return p


def test_prismatic_circuits_match_oracle(corpus):
    inputs = list(corpus)
    inputs += [(f"rvc{k}-{s}", random_vertexcuts(k, s))
               for k in (3, 8, 16) for s in (0, 1, 2)]
    inputs += [(f"dodecahedron-cut{c}", seeded_cuts(dodecahedron(), c, c)) for c in (1, 3)]
    inputs += [(f"cube-cut{c}", seeded_cuts(cube(3), c, c)) for c in (2, 4, 6)]
    for name, p in inputs:
        for k in range(3, 7):
            found = prismatic_circuits(p, k)
            assert found == prismatic_oracle(p, k), (name, k)
            # no two edges of a chordless cycle of four or more facets meet,
            # and a triangle's first two edges meet exactly when all three do
            assert found == prismatic_walk_oracle(p, k), (name, k)


def test_prismatic_circuits_revalidate(corpus):
    for name, p in corpus:
        for k in (3, 4):
            for c in prismatic_circuits(p, k):
                for i in range(k):
                    a, b = c.facets[i], c.facets[(i + 1) % k]
                    assert {v for v in p.vertices if {a, b} <= set(v)}, name
                for i, j in itertools.combinations(range(k), 2):
                    if (j - i) % k in (1, k - 1):
                        continue
                    a, b = c.facets[i], c.facets[j]
                    assert not any({a, b} <= set(v) for v in p.vertices), name
                flat = [v for e in c.edges for v in e]
                assert len(flat) == len(set(flat)), name


def geodesic(freq):
    """The simple 3-polytope dual to the icosahedron with each triangle cut
    into freq^2: its facet graph is mostly a triangular grid, with
    exponentially many chordless paths in their length."""
    ids = {}

    def point(weights):
        key = tuple(sorted((v, w) for v, w in weights.items() if w))
        return ids.setdefault(key, len(ids))

    triangles = []
    for face in dual_sphere(dodecahedron()).facets:
        a, b, c = sorted(face)
        grid = {(i, j): point({a: freq - i - j, b: i, c: j})
                for i in range(freq + 1) for j in range(freq + 1 - i)}
        for i, j in grid:
            if i + j < freq:
                triangles.append((grid[i, j], grid[i + 1, j], grid[i, j + 1]))
            if i + j < freq - 1:
                triangles.append((grid[i + 1, j], grid[i + 1, j + 1], grid[i, j + 1]))
    return validate_polytope(3, triangles)


def test_prismatic_path_cap_admits_exactly_the_walk(monkeypatch):
    # the walk lists k >= 5: the dodecahedron's twelve 5-belts take 141
    # paths off its stack
    found = prismatic_circuits(dodecahedron(), 5)
    assert len(found) == 12
    monkeypatch.setattr(moves, "_PATH_CAP", 141)
    assert prismatic_circuits(dodecahedron(), 5) == found
    monkeypatch.setattr(moves, "_PATH_CAP", 140)
    with pytest.raises(GuardExceeded, match="prismatic circuit paths"):
        prismatic_circuits(dodecahedron(), 5)


@pytest.mark.parametrize("p,k,work", [
    # 3 * 2E = 252 scan steps (m = 16, E = 42) and 12 triangles at 4 steps each
    (random_vertexcuts(12, 0), 3, 252 + 4 * 12),
    # 378 scan steps (m = 23, E = 63) and C(20, 2) - 20 = 170 belts through both caps
    (cut_gon_prism(20), 4, 378 + 4 * 170),
], ids=["rvc12-0", "cut-20-gon-prism"])
def test_prismatic_cycle_cap_admits_exactly_the_count(p, k, work, monkeypatch):
    found = prismatic_circuits(p, k)
    assert found == prismatic_walk_oracle(p, k)
    monkeypatch.setattr(moves, "_CYCLE_CAP", work)
    assert prismatic_circuits(p, k) == found
    monkeypatch.setattr(moves, "_CYCLE_CAP", work - 1)
    with pytest.raises(GuardExceeded, match=f"prismatic {k}-circuit work"):
        prismatic_circuits(p, k)
    # the scan steps alone are checked before the scan
    steps = 3 * sum(map(len, p._pairs))
    monkeypatch.setattr(moves, "_CYCLE_CAP", steps - 1)
    with pytest.raises(GuardExceeded, match=f"prismatic {k}-circuit scan steps"):
        prismatic_circuits(p, k)


def gon_prism_relabelling(k):
    """The facet map from ``cut_gon_prism(k)`` onto its caps-last copy."""
    return [k, k + 1] + list(range(k)) + [k + 2]


@pytest.mark.parametrize("k", [20, 200, 400])
def test_prismatic_circuits_ignore_the_facet_labels(k):
    # the copies differ in their labels only, so their circuits, and the
    # cap's verdict, must correspond under the relabelling
    first, last = cut_gon_prism(k), cut_gon_prism(k, caps_last=True)
    relabel = gon_prism_relabelling(k)
    for size in (3, 4):
        on_first, on_last = prismatic_circuits(first, size), prismatic_circuits(last, size)
        assert sorted(frozenset(relabel[f] for f in c.facets) for c in on_first) == \
            sorted(frozenset(c.facets) for c in on_last)
        assert len(on_first) == (1 if size == 3 else k * (k - 1) // 2 - k)
    assert len(on_last) == {20: 170, 200: 19_700, 400: 79_400}[k]


@pytest.mark.parametrize("caps_last", [False, True])
def test_prismatic_cap_refuses_the_cut_1600_gon_prism_on_either_labelling(caps_last):
    # 1,277,600 4-circuits on either labelling: refused from the count,
    # before any is formed
    p = cut_gon_prism(1600, caps_last)
    p._pairs
    started = time.perf_counter()
    with pytest.raises(GuardExceeded, match="prismatic 4-circuit work"):
        prismatic_circuits(p, 4)
    assert time.perf_counter() - started < 1.0
    assert len(prismatic_circuits(p, 3)) == 1


def relabelled_cuts():
    out = []
    for k in (12, 40, 200, 1000):
        for s in (0, 1):
            p = random_vertexcuts(k, s)
            perm = list(range(p.facet_count))
            random.Random(k + s).shuffle(perm)
            out.append((f"rvc{k}-{s}", validate_polytope(3, [[perm[f] for f in v] for v in p.vertices])))
    return out


def test_short_circuits_match_the_walk():
    # whole ordered outputs, facets and edges, on both prism labellings
    # and on relabelled cut tetrahedra
    inputs = [(f"cut-{k}-gon-prism-{last}", cut_gon_prism(k, last))
              for k in (20, 200) for last in (False, True)] + relabelled_cuts()
    for name, p in inputs:
        for k in (3, 4):
            found = prismatic_circuits(p, k)
            want = prismatic_walk_oracle(p, k)
            assert [(c.facets, c.edges) for c in found] == [(c.facets, c.edges) for c in want], (name, k)


def test_circuit_rings_are_the_circuits_facets():
    # the facets-only listing behind andreev, on the inputs above, and the
    # one edge tuple that all circuits through a facet pair share
    inputs = [(f"cut-{k}-gon-prism-{last}", cut_gon_prism(k, last))
              for k in (20, 200) for last in (False, True)] + relabelled_cuts()
    inputs.append(("dodecahedron", dodecahedron()))
    for name, p in inputs:
        for k in (3, 4, 5) if name == "dodecahedron" else (3, 4):
            found = prismatic_circuits(p, k)
            assert moves._circuit_rings(p, k) == [c.facets for c in found], (name, k)
            shared = {}
            for c in found:
                for a, b, edge in zip(c.facets, c.facets[1:] + c.facets[:1], c.edges):
                    assert shared.setdefault(frozenset((a, b)), edge) is edge, (name, k)


def test_prismatic_large_k_stops_at_the_cap():
    p = geodesic(3)
    assert (p.facet_count, p.vertex_count) == (92, 180)
    started = time.perf_counter()
    with pytest.raises(GuardExceeded, match="prismatic circuit paths"):
        prismatic_circuits(p, 16)
    assert time.perf_counter() - started < 10.0


def test_prismatic_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        prismatic_circuits(simplex(2), 3)


# ---------------------------------------------------------------------------
# flip certificates


def test_certificate_simplex_empty():
    assert psc_flip_certificate(simplex(3), depth=2) == []
    assert psc_flip_certificate(simplex(4), depth=2) == []


def test_certificate_prism_one_vertex_flip():
    moves = psc_flip_certificate(prism(), depth=3)
    assert moves is not None and len(moves) == 1
    assert moves[0].kind == "vertex" and moves[0].codim == 3
    replayed = replay_flip_certificate(3, moves)
    target = dual_sphere(prism())
    assert _spheres_isomorphic(replayed, target)


def test_certificate_cube_none_within_depth():
    assert psc_flip_certificate(cube(3), depth=3) is None


def test_certificate_guard(monkeypatch):
    monkeypatch.setattr(moves, "_STATE_CAP", 1)
    with pytest.raises(GuardExceeded):
        psc_flip_certificate(prism(), depth=3)


def test_certificate_two_cuts():
    p = random_vertexcuts(2, seed=4)
    moves = psc_flip_certificate(p, depth=3)
    assert moves is not None and len(moves) == 2
    assert all(mv.kind == "vertex" for mv in moves)


def test_certificate_cut_simplex4():
    p = vertex_cut(simplex(4), 0)
    moves = psc_flip_certificate(p, depth=2)
    assert moves is not None and len(moves) == 1
    assert moves[0].kind == "vertex" and moves[0].codim == 4


def _flip_outcome(search, *args):
    try:
        return search(*args)
    except GuardExceeded:
        return GuardExceeded


FLIP_ORACLE_CASES = [
    ("prism", prism, 3, 100_000),
    ("prism-guard", prism, 3, 1),
    ("cube", lambda: cube(3), 4, 100_000),
    ("cube-guard", lambda: cube(3), 4, 10),
    ("cut-cube", lambda: vertex_cut(cube(3), 0), 5, 100_000),
    ("rvc-1-0", lambda: random_vertexcuts(1, seed=0), 2, 100_000),
    ("rvc-2-4", lambda: random_vertexcuts(2, seed=4), 3, 100_000),
    ("rvc-3-1", lambda: random_vertexcuts(3, seed=1), 4, 100_000),
    ("rvc-4-2", lambda: random_vertexcuts(4, seed=2), 5, 100_000),
    ("rvc-5-3", lambda: random_vertexcuts(5, seed=3), 5, 100_000),
    ("rvc-6-1-deep", lambda: random_vertexcuts(6, seed=1), 6, 100_000),
    ("simplex4-cut", lambda: vertex_cut(simplex(4), 0), 3, 100_000),
    ("simplex4-cut-twice", lambda: vertex_cut(vertex_cut(simplex(4), 0), 3), 3, 100_000),
    ("cube4", lambda: cube(4), 3, 100_000),
    ("cube4-depth2", lambda: cube(4), 2, 100_000),
    ("cube4-guard", lambda: cube(4), 3, 30),
]


@pytest.mark.parametrize("make,depth,cap", [c[1:] for c in FLIP_ORACLE_CASES],
                         ids=[c[0] for c in FLIP_ORACLE_CASES])
def test_flip_search_matches_unpruned_oracle(monkeypatch, make, depth, cap):
    # the oracle's refusal may only become a None that needs no search
    p = make()
    monkeypatch.setattr(moves, "_STATE_CAP", cap)
    assert flip_outcomes_agree(_flip_outcome(psc_flip_certificate, p, depth),
                               _flip_outcome(flip_oracle, p, depth, cap), p, depth)


def g_bound_targets():
    cut_simplex4 = [simplex(4)]
    for _ in range(3):
        cut_simplex4.append(vertex_cut(cut_simplex4[-1], 0))
    return [(f"simplex4-cut{c}", p) for c, p in enumerate(cut_simplex4)] + [
        ("cube4", cube(4))] + [
        (f"rvc{k}-{s}", random_vertexcuts(k, s)) for k in range(8) for s in range(2)] + [
        ("cut-cube", vertex_cut(cube(3), 0)), ("cube", cube(3)), ("dodecahedron", dodecahedron())]


@pytest.mark.parametrize("p", [p for _, p in g_bound_targets()],
                         ids=[name for name, _ in g_bound_targets()])
def test_g_bound_matches_unpruned_oracle(p):
    # below g1 + g2 moves no certificate exists; at and above it the early
    # answers and the g-vector prune keep the degree-pruned search's
    # outcome, and the unpruned search's where its 400 states reach one
    # (at m <= 10: past that, 1000 states took 13-15 s and reached none)
    g = g_sum_oracle(p)
    for depth in (g - 1, g, g + 1):
        if depth < 0:
            continue
        got = psc_flip_certificate(p, depth)
        assert got == flip_certificate_oracle(p, depth), depth
        if p.facet_count <= 10:
            want = _flip_outcome(flip_oracle, p, depth, 400)
            assert want is GuardExceeded or got == want, depth
        if depth < g:
            assert got is None, depth
        elif got is not None:
            assert len(got) == g
            assert _spheres_isomorphic(replay_flip_certificate(p.dim, got), dual_sphere(p))


def test_early_answers_build_no_sphere(monkeypatch):
    # below the bound, and for a 3-polytope that is not a vertex-cut one,
    # the answer comes before the start sphere; random_vertexcuts(12, 0) at
    # depth 11 used to exhaust the state cap
    def unreachable(n):
        raise AssertionError("the flip search built its start sphere")

    monkeypatch.setattr(moves, "simplex_boundary_sphere", unreachable)
    assert psc_flip_certificate(random_vertexcuts(12, 0), 11) is None
    assert psc_flip_certificate(random_vertexcuts(10, 0), 9) is None
    assert psc_flip_certificate(cube(4), 4) is None
    for p in (cube(3), vertex_cut(cube(3), 0), dodecahedron()):
        assert psc_flip_certificate(p, 40) is None
    with pytest.raises(AssertionError, match="start sphere"):
        psc_flip_certificate(random_vertexcuts(12, 0), 12)


def _skeleton(k):
    """Each vertex label with its set of 1-skeleton neighbours."""
    nbrs: dict = {}
    for f in k.facets:
        for x in f:
            nbrs.setdefault(x, set()).update(f - {x})
    return nbrs


def _g_vector(nbrs, n):
    """g1 and g2 of a sphere with facets of size n, from its 1-skeleton."""
    f0, f1 = len(nbrs), sum(map(len, nbrs.values())) // 2
    return f0 - n - 1, f1 - n * f0 + n * (n + 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flips_never_lower_degrees(n):
    # the degree prune in psc_flip_certificate rests on this: the faces it
    # flips (codimension >= 3) delete no vertex and no edge; its g-vector
    # bound on this: g1 and g2 never fall, and g1 + g2 rises by at most 1,
    # by exactly 1 at n = 3 and n = 4
    for seed in range(3):
        rng = random.Random(seed)
        state = simplex_boundary_sphere(n)
        kinds = set()
        for _ in range(10):
            faces = _candidate_faces(state, n)
            rng.shuffle(faces)
            for sigma in faces:
                try:
                    new = bistellar_flip(state, sigma)
                except LinkNotStandard:
                    continue
                break
            # bistellar_flip does not re-check its result; the validator does
            assert validate_sphere(new.facets) == new
            before, after = _skeleton(state), _skeleton(new)
            assert set(before) <= set(after)
            assert all(before[x] <= after[x] for x in before)
            (b1, b2), (a1, a2) = _g_vector(before, n), _g_vector(after, n)
            assert a1 >= b1 and a2 >= b2
            assert a1 + a2 - b1 - b2 == 1 if n <= 4 else a1 + a2 <= b1 + b2 + 1
            kinds.add(len(sigma))
            state = new
        assert min(kinds) >= 3


def test_pruned_search_generates_few_states(monkeypatch):
    # with the degree prune the cut cube's search dies out after 19 flips,
    # at any depth; the unpruned search needs 133 at depth 5 alone
    # (the search itself: the public call answers this target without one)
    monkeypatch.setattr(moves, "_STATE_CAP", 19)
    assert moves._flip_search(vertex_cut(cube(3), 0), depth=8) is None
    monkeypatch.setattr(moves, "_STATE_CAP", 18)
    with pytest.raises(GuardExceeded):
        moves._flip_search(vertex_cut(cube(3), 0), depth=8)


def test_g_prune_generates_fewer_states(monkeypatch):
    # at n = 4 a flip at a 3-vertex face raises g2, and no state past the
    # target's g2 = 2 can reach it: cube(4)'s search at depth 6 ends after
    # 101 flips, where the degree prune alone makes 115
    monkeypatch.setattr(moves, "_STATE_CAP", 102)
    assert psc_flip_certificate(cube(4), 6) is None
    with pytest.raises(GuardExceeded):
        flip_certificate_oracle(cube(4), 6)
    monkeypatch.setattr(moves, "_STATE_CAP", 101)
    with pytest.raises(GuardExceeded):
        psc_flip_certificate(cube(4), 6)


def test_flip_search_builds_one_pair_table_per_state(monkeypatch):
    # 19 generated states and the target: each table serves the state's
    # degrees and every isomorphism test it enters
    built = []
    pair_sets = polytope._pair_sets

    def counting(num_labels, sets):
        built.append(num_labels)
        return pair_sets(num_labels, sets)

    monkeypatch.setattr(polytope, "_pair_sets", counting)
    monkeypatch.setattr(moves, "_pair_sets", counting)
    assert moves._flip_search(vertex_cut(cube(3), 0), depth=5) is None
    assert len(built) == 20


def test_flip_search_refines_each_family_once(monkeypatch):
    # every record's colours are refined in _family and only read by the
    # isomorphism test: the target, the start and the 192 flips the degree
    # prune keeps of 463 (the 271 pruned ones get no colours), and 235 tests
    refined, records, tests = [], [], []
    refine, family, isomorphism = polytope._refine, polytope._family, polytope._family_isomorphism

    def counting_refine(pairs):
        refined.append(len(pairs))
        return refine(pairs)

    def counting_family(num_labels, sets, pairs):
        records.append(num_labels)
        return family(num_labels, sets, pairs)

    def refining_nothing(fam_a, fam_b):
        before = len(refined)
        result = isomorphism(fam_a, fam_b)
        tests.append(len(refined) - before)
        return result

    monkeypatch.setattr(polytope, "_refine", counting_refine)
    monkeypatch.setattr(moves, "_family", counting_family)
    monkeypatch.setattr(moves, "_family_isomorphism", refining_nothing)
    psc_flip_certificate(random_vertexcuts(7, 0), 7)
    assert refined == records and len(records) == 465 - 271
    assert tests == [0] * 235
