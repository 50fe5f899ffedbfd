"""Acceptance suite.

Each criterion runs inside its stated time bound, checks exact values or the
stated numeric tolerance, and prints one PASS/FAIL line (run with ``-s`` to
see them live).
"""

import itertools
import math
import time

import numpy as np

from momang import (
    build_chamber_complex,
    classify_edge_types,
    collapse_admissible,
    combinatorial_isomorphic,
    connected_components,
    cube,
    dodecahedron,
    doubling_filtration,
    euler_characteristic,
    face_lattice,
    fixed_point_components,
    is_simplex,
    lift_point,
    orientability,
    prism,
    prismatic_circuits,
    psc_flip_certificate,
    random_vertexcuts,
    rebuild_by_cuts,
    recognize_vertexcut_reducible,
    relation_matrix,
    simplex,
    simplex_facet_collapse,
    verify_nondegeneracy,
    vertex_cut,
)
import momang.hrep as hrep
from momang.corpus import cube_hrep, simplex_hrep
from conftest import cut_cube, cut_prism

TOL = 1e-9


def criterion(num, bound_s, desc):
    def deco(fn):
        def wrapper():
            start = time.perf_counter()
            failures = []
            try:
                fn(failures)
            except Exception as exc:  # surface as a FAIL line, then re-raise
                failures.append(f"exception {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            ok = not failures and elapsed < bound_s
            print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
                  f"({elapsed:.2f}s / limit {bound_s:g}s) {desc}")
            assert not failures, f"criterion {num}: {failures[:5]}"
            assert elapsed < bound_s, \
                f"criterion {num}: {elapsed:.2f}s over {bound_s}s"
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = desc
        return wrapper
    return deco


def check(failures, cond, msg):
    if not cond:
        failures.append(msg)


@criterion(1, 10.0, "100 random vertex-cut polytopes recognize YES and replay")
def test_criterion_01(failures):
    for seed in range(100):
        k = seed % 12 + 1
        p = random_vertexcuts(k, seed)
        tr = recognize_vertexcut_reducible(p)
        check(failures, tr.reducible, f"seed {seed}: not recognized")
        if not tr.reducible:
            continue
        check(failures, is_simplex(tr.end), f"seed {seed}: end not simplex")
        check(failures, len(tr.steps) == k, f"seed {seed}: trace length")
        rebuilt = rebuild_by_cuts(tr)
        check(failures, combinatorial_isomorphic(rebuilt, p) is not None,
              f"seed {seed}: reversed replay not isomorphic")


@criterion(2, 1.0, "cube, vertex-cut cube and dodecahedron recognize NO")
def test_criterion_02(failures):
    for name, p in [("cube", cube(3)), ("cut-cube", cut_cube()),
                    ("dodecahedron", dodecahedron())]:
        tr = recognize_vertexcut_reducible(p)
        check(failures, not tr.reducible, f"{name}: expected NO")


@criterion(3, 60.0, "greedy verdict equals exhaustive collapse-order search")
def test_criterion_03(failures):
    def exhaustive(p):
        if is_simplex(p):
            return True
        return any(exhaustive(simplex_facet_collapse(p, f))
                   for f in range(p.facet_count) if collapse_admissible(p, f))

    corpus = [("simplex3", simplex(3)), ("prism", prism()), ("cube", cube(3)),
              ("cut_prism", cut_prism()), ("cut_cube", cut_cube()),
              ("cut2_cube", vertex_cut(cut_cube(), 0)),
              ("rand3", random_vertexcuts(3, 1)),
              ("rand4", random_vertexcuts(4, 2)),
              ("rand5", random_vertexcuts(5, 3))]
    for name, p in corpus:
        check(failures, p.facet_count <= 9, f"{name}: corpus budget")
        greedy = recognize_vertexcut_reducible(p).reducible
        check(failures, greedy == exhaustive(p), f"{name}: greedy != exhaustive")


@criterion(4, 1.0, "prismatic circuit census: dodecahedron 0+0, prism 1, cube 3")
def test_criterion_04(failures):
    def brute(p, k):
        def shared(i, j):
            return any({i, j} <= set(v) for v in p.vertices)

        def edge(i, j):
            return frozenset(v for v in p.vertices if {i, j} <= set(v))

        hits = set()
        for perm in itertools.permutations(range(p.facet_count), k):
            if perm[0] != min(perm):
                continue
            pairs = [(perm[t], perm[(t + 1) % k]) for t in range(k)]
            if not all(shared(a, b) for a, b in pairs):
                continue
            if any(shared(perm[i], perm[j])
                   for i, j in itertools.combinations(range(k), 2)
                   if (j - i) % k not in (1, k - 1)):
                continue
            cells = [edge(a, b) for a, b in pairs]
            if any(x & y for x, y in itertools.combinations(cells, 2)):
                continue
            hits.add(min(tuple(perm[(s + d * t) % k] for t in range(k))
                         for s in range(k) for d in (1, -1)))
        return len(hits)

    d = dodecahedron()
    for k in (3, 4):
        got = len(prismatic_circuits(d, k))
        check(failures, got == 0 == brute(d, k), f"dodecahedron k={k}: {got}")
    check(failures, not recognize_vertexcut_reducible(d).reducible,
          "dodecahedron: expected recognize NO")
    got = len(prismatic_circuits(prism(), 3))
    check(failures, got == 1 == brute(prism(), 3), f"prism 3-circuits: {got}")
    got = len(prismatic_circuits(cube(3), 4))
    check(failures, got == 3 == brute(cube(3), 4), f"cube 4-circuits: {got}")


@criterion(5, 1.0, "simplex models: single sphere quadric, chi, barycenter lift")
def test_criterion_05(failures):
    assert hrep._TOL == TOL
    for n in (1, 2, 3):
        h = simplex_hrep(n)
        q = relation_matrix(h)
        check(failures, q.gamma.shape == (1, n + 1)
              and np.array_equal(q.gamma, np.ones((1, n + 1)))
              and np.array_equal(q.rhs, [1.0]),
              f"n={n}: quadric is not sum of squares = 1")
        z = build_chamber_complex(simplex(n))
        check(failures, euler_characteristic(z) == 1 + (-1) ** n,
              f"n={n}: euler characteristic")
        check(failures, connected_components(z) == 1, f"n={n}: components")
        y = lift_point(h, np.full(n, 1.0 / (n + 1)), [1] * (n + 1))
        check(failures,
              np.abs(y.y - 1.0 / math.sqrt(n + 1)).max() <= TOL,
              f"n={n}: barycenter lift off by "
              f"{np.abs(y.y - 1.0 / math.sqrt(n + 1)).max():g}")


@criterion(6, 5.0, "cube torus model: paired quadrics, ranks, chi, fixed sets")
def test_criterion_06(failures):
    assert hrep._TOL == TOL
    h = cube_hrep(3)
    q = relation_matrix(h)
    expect = np.zeros((3, 6))
    for i in range(3):
        expect[i, i] = expect[i, i + 3] = 1.0
    check(failures, np.allclose(q.gamma, expect, atol=TOL)
          and np.allclose(q.rhs, [1, 1, 1], atol=TOL),
          "cube quadrics are not y_i^2 + y_{i+3}^2 = 1")
    rep = verify_nondegeneracy(h, sample_count=1000, seed=0)
    check(failures, rep.samples >= 1000, f"only {rep.samples} samples")
    check(failures, rep.passed and rep.min_rank == 3 == rep.expected_rank,
          f"gradient rank dropped to {rep.min_rank}")
    z = build_chamber_complex(cube(3))
    check(failures, euler_characteristic(z) == 0, "chi of cube model")
    for i in range(6):
        got = fixed_point_components(z, i).count
        check(failures, got == 2, f"facet {i}: {got} fixed components")


@criterion(7, 5.0, "cell-count and filtration laws on simplex, cube, prism")
def test_criterion_07(failures):
    for name, p in [("simplex3", simplex(3)), ("cube", cube(3)),
                    ("prism", prism())]:
        m = p.facet_count
        z = build_chamber_complex(p)
        per_face = {}
        for fidx, _ in z.cells:
            per_face[fidx] = per_face.get(fidx, 0) + 1
        for fidx, face in enumerate(z.lattice.faces):
            k = len(face.facets)
            check(failures, per_face[fidx] == 2 ** (m - k),
                  f"{name}: face {sorted(face.facets)} has {per_face[fidx]} cells")
        stages = doubling_filtration(p)
        lat = face_lattice(p)
        for st in stages:
            check(failures, len(st.facets) == (m - st.j) * 2 ** st.j,
                  f"{name}: stage {st.j} facet count")
        check(failures, tuple(stages[m].facets) == () and
              stages[m].boundary_components == 0,
              f"{name}: final stage boundary not empty")
        for j in range(m):
            check(failures,
                  stages[j + 1].chamber_count == 2 * stages[j].chamber_count,
                  f"{name}: chambers at stage {j + 1}")
            locus = 0
            for f in lat.faces:
                if j in f.facets:
                    below = sum(1 for x in range(j) if x not in f.facets)
                    locus += 1 << below
            check(failures,
                  stages[j + 1].cell_count == 2 * stages[j].cell_count - locus,
                  f"{name}: stage {j + 1} is not the double glued along "
                  f"facet {j}")


@criterion(8, 5.0, "edge typing at every stage of simplex and cube")
def test_criterion_08(failures):
    for name, p in [("simplex3", simplex(3)), ("cube", cube(3))]:
        edges = sorted({pair for v in p.vertices
                        for pair in itertools.combinations(v, 2)})
        for st in doubling_filtration(p):
            j = st.j
            if j < 1:
                continue
            summary = classify_edge_types(st)
            expected_cells = set()
            for a, b in edges:
                if b < j:
                    continue
                mask = (1 << a) | (1 << b)
                for r in range(1 << j):
                    if r & mask == 0:
                        expected_cells.add(((a, b), r))
            got = {(r.facet_pair, r.rep) for r in summary.records}
            check(failures, len(got) == len(summary.records),
                  f"{name} j={j}: duplicate tags")
            check(failures, got == expected_cells,
                  f"{name} j={j}: tagged cells differ from enumeration")
            for r in summary.records:
                a, b = r.facet_pair
                if r.kind == "II":
                    check(failures, a < j <= b,
                          f"{name} j={j}: type-II over wrong facet pair")
                else:
                    check(failures, a >= j,
                          f"{name} j={j}: type-I over doubled pair")
            type1 = sum(2 ** j for a, b in edges if a >= j)
            type2 = sum(2 ** (j - 1) for a, b in edges if a < j <= b)
            check(failures, (summary.type1, summary.type2) == (type1, type2),
                  f"{name} j={j}: counts {summary.type1},{summary.type2} "
                  f"!= {type1},{type2}")


@criterion(9, 5.0, "parity signs orient every corpus chamber complex")
def test_criterion_09(failures):
    for name, p in [("simplex1", simplex(1)), ("simplex2", simplex(2)),
                    ("simplex3", simplex(3)), ("prism", prism()),
                    ("cube", cube(3)), ("cut_cube", cut_cube())]:
        z = build_chamber_complex(p)
        ok, signs = orientability(z)
        check(failures, ok, f"{name}: parity assignment rejected")
        for g in range(1 << p.facet_count):
            for i in range(p.facet_count):
                if signs[g] == signs[g ^ (1 << i)]:
                    check(failures, False, f"{name}: signs agree across facet")
                    break


@criterion(10, 30.0, "flip certificates: prism 1 vertex flip, simplices empty, "
                     "cube none within depth 3")
def test_criterion_10(failures):
    moves = psc_flip_certificate(prism(), depth=3)
    check(failures, moves is not None and len(moves) == 1
          and moves[0].kind == "vertex" and moves[0].codim == 3,
          f"prism certificate: {moves}")
    for n in (3, 4):
        got = psc_flip_certificate(simplex(n), depth=2)
        check(failures, got == [], f"simplex({n}) certificate: {got}")
    check(failures, psc_flip_certificate(cube(3), depth=3) is None,
          "cube: expected none within depth 3")


@criterion(11, 5.0, "vertex cut then collapse is the identity on every vertex")
def test_criterion_11(failures):
    corpus = [("simplex3", simplex(3)), ("prism", prism()), ("cube", cube(3)),
              ("cut_prism", cut_prism()), ("cut_cube", cut_cube()),
              ("rand4", random_vertexcuts(4, 13)),
              ("dodecahedron", dodecahedron())]
    for name, p in corpus:
        for v in range(p.vertex_count):
            back = simplex_facet_collapse(vertex_cut(p, v), p.facet_count)
            if back != p:
                check(failures,
                      combinatorial_isomorphic(back, p) is not None,
                      f"{name} vertex {v}: round trip broke")
