import functools
import itertools
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import momang.polytope as polytope
import momang.zcomplex as zcomplex
from momang import (
    EdgeRecord,
    EdgeTypeSummary,
    FiltrationStage,
    build_chamber_complex,
    classify_edge_types,
    complex_summary,
    connected_components,
    cube,
    dodecahedron,
    doubling_filtration,
    euler_characteristic,
    face_lattice,
    fixed_point_components,
    orientability,
    prism,
    random_vertexcuts,
    simplex,
    validate_polytope,
    vertex_cut,
)
from momang.errors import BadParameters, GuardExceeded, NoSuchFacet
from momang.polytope import _bits, _submasks
from momang.zcomplex import _cell_counts, _filtration_rows, _stage_rows, _stars_pairs
from conftest import (
    compact_oracle,
    cover_pairs,
    cut_cube,
    deposit_oracle,
    face_lattice_oracle,
    polar_cyclic,
)


def zcomplex_corpus():
    return [("simplex1", simplex(1)), ("simplex2", simplex(2)),
            ("simplex3", simplex(3)), ("prism", prism()),
            ("cube", cube(3)), ("cut_cube", cut_cube())]


def facet_adjacency_count(p, i):
    """Number of facets sharing an edge (codim-2 face) with facet i."""
    return len({j for v in p.vertices if i in v for j in v if j != i})


def lattice_euler_oracle(p):
    """Alternating cell count, 2^(m-k) cells over each face of codimension
    k, summed over the frozenset face lattice; never builds any cells."""
    m = p.facet_count
    return sum((-1) ** f.dim * (1 << (m - len(f.facets)))
               for f in face_lattice_oracle(p))


def edge_pairs(p):
    """All codimension-2 faces as sorted facet pairs."""
    return sorted({pair for v in p.vertices
                   for pair in itertools.combinations(v, 2)})


# ---------------------------------------------------------------------------
# cells


def test_circle_from_segment():
    z = build_chamber_complex(simplex(1))
    assert z.cells_by_dim == (4, 4)
    assert euler_characteristic(z) == 0
    assert connected_components(z) == 1


def test_sphere_from_triangle():
    z = build_chamber_complex(simplex(2))
    assert z.cells_by_dim == (6, 12, 8)
    assert euler_characteristic(z) == 2
    assert connected_components(z) == 1


def test_torus_from_cube():
    z = build_chamber_complex(cube(3))
    assert z.cells_by_dim == (64, 192, 192, 64)
    assert euler_characteristic(z) == 0


def test_cell_count_law(corpus):
    for name, p in corpus:
        if p.facet_count > 8:
            continue
        z = build_chamber_complex(p)
        per_face = Counter(fidx for fidx, _ in z.cells)
        for fidx, face in enumerate(z.lattice.faces):
            expected = 1 << (z.m - len(face.facets))
            assert per_face[fidx] == expected, (name, sorted(face.facets))


def test_cells_by_dim_against_lattice_oracle():
    # oracle: counts derived only from the face lattice
    for name, p in zcomplex_corpus():
        z = build_chamber_complex(p)
        lat = face_lattice(p)
        expect = [0] * (p.dim + 1)
        for f in lat.faces:
            expect[f.dim] += 1 << (p.facet_count - len(f.facets))
        assert list(z.cells_by_dim) == expect, name


def test_euler_matches_lattice_form():
    for name, p in zcomplex_corpus():
        z = build_chamber_complex(p)
        assert euler_characteristic(z) == lattice_euler_oracle(p), name
        assert _cell_counts(face_lattice(p)) == (list(z.cells_by_dim),
                                                 lattice_euler_oracle(p)), name


def test_euler_values():
    assert lattice_euler_oracle(simplex(1)) == 0
    assert lattice_euler_oracle(simplex(2)) == 2
    for p in (simplex(3), cube(3), prism(), cut_cube()):
        assert lattice_euler_oracle(p) == 0
    # 4-dimensional check: chi of the glued manifold over the 4-simplex is 2
    assert lattice_euler_oracle(simplex(4)) == 2
    for p in (simplex(1), simplex(2), cube(3), simplex(4)):
        assert _cell_counts(face_lattice(p))[1] == lattice_euler_oracle(p)


def test_components_single(corpus):
    for name, p in corpus:
        if p.facet_count > 8:
            continue
        assert connected_components(build_chamber_complex(p)) == 1, name


def test_guard(monkeypatch):
    # cube(3): 7 count rows over its 6 facets and 12 edges
    monkeypatch.setattr(zcomplex, "_WORK_CAP", 7 * (6 + 12) - 1)
    for call in (build_chamber_complex, doubling_filtration, complex_summary):
        with pytest.raises(GuardExceeded):
            call(cube(3))


def test_object_cap_from_closed_forms(monkeypatch):
    # the cap fires when a view materialises, before its first object, and
    # admits exactly the view's closed-form length
    def unreachable(*args):
        raise AssertionError("an object built before the object cap was checked")

    q = cube(3)
    z = build_chamber_complex(q)
    stage = doubling_filtration(q)[2]
    reads = [(len(z.cells), lambda: len(tuple(z.cells))),
             (len(z.cells), lambda: len(z.cells[:])),
             (len(z.cells), lambda: len(dict(z.cell_ids))),
             (1 << z.m, lambda: len(list(orientability(z)[1]))),
             (len(stage.subgroup), lambda: len(tuple(stage.subgroup))),
             (len(stage.facets), lambda: len(tuple(stage.facets))),
             (len(stage.edge_types.records), lambda: len(tuple(stage.edge_types.records))),
             # the cells over facet 0: the facet, its 4 edges and 4 vertices
             (32 + 4 * 16 + 4 * 8,
              lambda: sum(map(len, fixed_point_components(z, 0).components)))]
    for count, read in reads:
        monkeypatch.setattr(zcomplex, "_OBJECT_CAP", count - 1)
        with monkeypatch.context() as patch:
            for name in ("_submasks", "_run_table", "_deposit", "_parity_sign"):
                patch.setattr(zcomplex, name, unreachable)
            with pytest.raises(GuardExceeded):
                read()
        monkeypatch.setattr(zcomplex, "_OBJECT_CAP", count)
        assert read() == count
    # random access is never capped
    monkeypatch.setattr(zcomplex, "_OBJECT_CAP", 0)
    assert z.cell_ids[z.cells[-1]] == len(z.cells) - 1
    assert stage.facets[-1] == (5, 3) and stage.subgroup[3] == 3
    assert stage.edge_types.records[0].facet_pair == (0, 2)


def test_views_of_a_complex_over_the_cap(monkeypatch):
    # m = 20: ~3 * 10^7 cells, over the object cap, yet the complex and its
    # filtration are built and their view lengths are the closed forms
    def unreachable(*args):
        raise AssertionError("an object built before the object cap was checked")

    p = random_vertexcuts(16, 0)
    monkeypatch.setattr(zcomplex, "_submasks", unreachable)
    z = build_chamber_complex(p)
    summary = complex_summary(p)
    assert z.m == 20 and len(z.cells) == sum(summary["cells_by_dim"]) > zcomplex._OBJECT_CAP
    assert len(z.cell_ids) == len(z.cells)
    assert len(orientability(z)[1]) == 1 << 20
    for row in summary["fixed_sets"]:
        assert fixed_point_components(z, row["facet"]).count == row["components"]
    stages = doubling_filtration(p)
    for st, row in zip(stages, _stage_rows(*_stars_pairs(p)), strict=True):
        assert len(st.subgroup) == row["chambers"] == st.chamber_count
        assert len(st.facets) == row["facets"]
        assert len(st.edge_types.records) == row["type1_edges"] + row["type2_edges"]
    for read in (lambda: tuple(z.cells), lambda: list(z.cell_ids),
                 lambda: z.cells[:], lambda: list(reversed(z.cells)),
                 lambda: z.cell_ids == {}):
        with pytest.raises(GuardExceeded):
            read()


def test_views_longer_than_maxsize_are_refused():
    # m = 63 and 64: len() of a view this long would raise OverflowError, so
    # the builders refuse with GuardExceeded; at m = 62 only the cells do
    for n in (59, 60):
        p = random_vertexcuts(n, 0)
        assert p.facet_count == n + 4
        for call in (build_chamber_complex, doubling_filtration):
            with pytest.raises(GuardExceeded, match=f"exceeds the cap {sys.maxsize}"):
                call(p)
    q = random_vertexcuts(58, 0)
    with pytest.raises(GuardExceeded, match="chamber cells"):
        build_chamber_complex(q)
    stages = doubling_filtration(q)
    assert len(stages[62].subgroup) == 1 << 62
    assert len(stages[61].facets) == 1 << 61


def test_orientability_builds_no_sign_list():
    z = build_chamber_complex(random_vertexcuts(36, 0))
    assert z.m == 40
    tracemalloc.start()
    try:
        ok, signs = orientability(z)
        assert ok and len(signs) == 1 << 40
        assert (signs[0], signs[1], signs[-1], signs[-2]) == (1, -1, 1, -1)
        assert tracemalloc.get_traced_memory()[1] < 10_000
    finally:
        tracemalloc.stop()


def test_chamber_counts_refuse_without_the_pair_table(monkeypatch):
    # a cube(14) incidence passes the row cap but not the face-lattice cap;
    # the facet stars come from one vertex pass, not from the pair table
    def unreachable(*args):
        raise AssertionError("facet-pair table built before the face-lattice cap")

    p = cube(14)
    monkeypatch.setattr(polytope, "_pair_sets", unreachable)
    for call in (complex_summary, build_chamber_complex, doubling_filtration):
        with pytest.raises(GuardExceeded, match="face-lattice subset words"):
            call(p)


def test_counts_cap_from_closed_forms(monkeypatch):
    # m + 1 rows over the m facets and the codimension-two faces: the cap
    # admits exactly the prediction, and fires before any row is computed
    def unreachable(*args):
        raise AssertionError("a filtration row computed before the counts cap")

    p = random_vertexcuts(40, 0)
    m = p.facet_count
    predicted = (m + 1) * (m + len(edge_pairs(p)))
    monkeypatch.setattr(zcomplex, "_WORK_CAP", predicted)
    assert complex_summary(p)["m"] == 44
    monkeypatch.setattr(zcomplex, "_WORK_CAP", predicted - 1)
    for name in ("_filtration_rows", "_fixed_set_rows", "_boundary_counts"):
        monkeypatch.setattr(zcomplex, name, unreachable)
    for call in (complex_summary, build_chamber_complex, doubling_filtration):
        with pytest.raises(GuardExceeded):
            call(p)


def test_face_masks_are_walked_once_per_polytope(monkeypatch):
    # the chamber job builds the complex and then the filtration of one
    # polytope: one submask walk over its vertices serves both
    p = cube(5)
    walked = []
    submasks = polytope._submasks
    monkeypatch.setattr(polytope, "_submasks", lambda fs: walked.append(fs) or submasks(fs))
    z = build_chamber_complex(p)
    stages = doubling_filtration(p)
    assert len(walked) == p.vertex_count
    assert face_lattice(p).masks is z.lattice.masks is p._face_masks
    counts = [(st.chamber_count, st.cell_count, st.boundary_components) for st in stages]
    assert counts == [(st.chamber_count, st.cell_count, st.boundary_components)
                      for st in doubling_filtration(cube(5))]
    # the polytope keeps the masks, a tuple of ints, and no lattice, which
    # would point back at it
    assert all(type(mask) is int for mask in p._face_masks)
    assert not any(isinstance(value, polytope.FaceLattice) for value in vars(p).values())


def test_face_lattice_guard_runs_before_and_after_the_cached_walk(monkeypatch):
    p = cube(4)  # 16 vertices times 2^4 subsets
    monkeypatch.setattr(polytope, "_WORK_CAP", 255)
    monkeypatch.setattr(polytope, "_submasks", None)  # the walk must not start
    with pytest.raises(GuardExceeded, match="face-lattice subset words"):
        face_lattice(p)
    assert "_face_masks" not in vars(p)
    monkeypatch.undo()
    face_lattice(p)
    monkeypatch.setattr(polytope, "_WORK_CAP", 255)
    with pytest.raises(GuardExceeded, match="face-lattice subset words"):
        face_lattice(p)


def test_counts_cap_refuses_before_the_face_lattice(monkeypatch):
    # the codimension-two faces come from the facet stars, so a cut
    # tetrahedron over the row cap is refused without a lattice
    def unreachable(*args):
        raise AssertionError("face lattice built before the counts cap")

    monkeypatch.setattr(zcomplex, "face_lattice", unreachable)
    p = random_vertexcuts(1600, 0)
    for call in (complex_summary, build_chamber_complex, doubling_filtration):
        with pytest.raises(GuardExceeded, match="chamber count rows"):
            call(p)


def test_group_action_on_cells():
    for name, p in [("prism", prism()), ("simplex2", simplex(2))]:
        z = build_chamber_complex(p)
        m = p.facet_count
        top = z.lattice.face_index(())
        # free and transitive on chambers
        for g in (0, 1, (1 << m) - 1, 5 % (1 << m)):
            images = {z.translate(g, (top, c))[1] for c in z.chambers()}
            assert images == set(z.chambers()), name
            if g:
                assert all(z.translate(g, (top, c))[1] != c
                           for c in z.chambers()), name
        # translation lands on cells and composes like the group law
        for cell in z.cells:
            for g1, g2 in [(1, 2), (3, 5 % (1 << m))]:
                once = z.translate(g2, z.translate(g1, cell))
                both = z.translate(g1 ^ g2, cell)
                assert once == both, name
                assert once in z.cell_ids, name


@pytest.mark.parametrize("g", [-1, 1 << 6, 1 << 40, -(1 << 40)])
def test_group_elements_outside_the_group_are_refused(g):
    # translate(1 << 40, (0, 0)) returned (0, 1 << 40), which is no cell
    z = build_chamber_complex(cube(3))
    with pytest.raises(BadParameters, match=r"outside \[0, 2\^6\)"):
        z.translate(g, (0, 0))
    with pytest.raises(BadParameters, match=r"outside \[0, 2\^6\)"):
        z.canonical(0, g)


def test_canonical_is_the_translate_of_the_face_cell():
    z = build_chamber_complex(cube(3))
    for f, mask in enumerate(z.face_masks):
        for g in z.chambers():
            assert z.canonical(f, g) == z.translate(g, (f, 0)) == (f, g & ~mask)


# ---------------------------------------------------------------------------
# fixed point sets


def test_fixed_sets_counts():
    z = build_chamber_complex(simplex(3))
    for i in range(4):
        assert fixed_point_components(z, i).count == 1
    z = build_chamber_complex(cube(3))
    for i in range(6):
        assert fixed_point_components(z, i).count == 2
    z = build_chamber_complex(prism())
    assert fixed_point_components(z, 3).count == 2
    assert fixed_point_components(z, 4).count == 2
    with pytest.raises(NoSuchFacet):
        fixed_point_components(z, 9)


def test_fixed_sets_refuse_a_facet_that_is_not_an_int():
    # floats, strings and bools were compared with 0 and m, or passed as 0/1;
    # they are unusable arguments, an int out of range names no facet
    z = build_chamber_complex(prism())
    for i in (-1, 5):
        with pytest.raises(NoSuchFacet, match=f"facet {i} of 5"):
            fixed_point_components(z, i)
    for i in (1.5, 1.0, "1", None, True, False, np.int64(1)):
        with pytest.raises(BadParameters, match="facet must be an integer"):
            fixed_point_components(z, i)


def test_fixed_sets_formula():
    # a_i is the facet adjacency degree: a connected facet's cells glue along
    # the cosets of the span of itself and its a_i neighbours, 2^(m-1-a_i)
    for name, p in zcomplex_corpus():
        z = build_chamber_complex(p)
        for i in range(p.facet_count):
            if p.dim < 2:
                continue
            a_i = facet_adjacency_count(p, i)
            got = fixed_point_components(z, i).count
            assert got == 1 << (p.facet_count - 1 - a_i), (name, i)


def test_fixed_set_cells_cover_facet():
    p = prism()
    z = build_chamber_complex(p)
    fs = fixed_point_components(z, 3)
    for comp in fs.components:
        assert comp
        for fidx, _ in comp:
            assert 3 in z.lattice.faces[fidx].facets


# ---------------------------------------------------------------------------
# orientability


def test_orientability(corpus):
    for name, p in corpus:
        if p.facet_count > 8:
            continue
        ok, signs = orientability(build_chamber_complex(p))
        assert ok, name
        assert signs[0] == 1
        for g in range(1 << p.facet_count):
            assert signs[g] == (1 if bin(g).count("1") % 2 == 0 else -1)


# ---------------------------------------------------------------------------
# filtration


def test_filtration_facet_law():
    for name, p in zcomplex_corpus():
        m = p.facet_count
        stages = doubling_filtration(p)
        assert len(stages) == m + 1
        for st in stages:
            assert len(st.facets) == (m - st.j) * (1 << st.j), (name, st.j)
            assert st.chamber_count == 1 << st.j
        assert tuple(stages[m].facets) == ()
        assert stages[m].boundary_components == 0


def test_filtration_triangle_matches_known_values():
    stages = doubling_filtration(simplex(2))
    assert [len(st.facets) for st in stages] == [3, 4, 4, 0]


def test_filtration_simplex3_stage2():
    stages = doubling_filtration(simplex(3))
    assert len(stages[2].facets) == 8


def test_filtration_doubling_law():
    for name, p in zcomplex_corpus():
        stages = doubling_filtration(p)
        lat = face_lattice(p)
        for j in range(p.facet_count):
            assert stages[j + 1].chamber_count == 2 * stages[j].chamber_count
            # independent locus count: cells of stage j over faces through
            # facet j (bits below j and outside the face, hence one factor
            # of 2 per doubled generator off the face)
            locus = 0
            for f in lat.faces:
                if j in f.facets:
                    below = sum(1 for x in range(j) if x not in f.facets)
                    locus += 1 << below
            assert stages[j + 1].cell_count == 2 * stages[j].cell_count - locus, name


def test_boundary_component_counts():
    # double of a triangle along one edge is a disk: connected boundary
    stages = doubling_filtration(simplex(2))
    assert [st.boundary_components for st in stages] == [1, 1, 1, 0]
    # doubling a segment along one endpoint gives a longer segment; only
    # the second doubling closes the circle
    stages = doubling_filtration(simplex(1))
    assert [st.boundary_components for st in stages] == [2, 2, 0]


# ---------------------------------------------------------------------------
# edge typing


def expected_edge_type_counts(p, j):
    """Closed-form oracle: count boundary codim-2 cells by type."""
    type1 = type2 = 0
    for a, b in edge_pairs(p):
        if a >= j:
            type1 += 1 << j
        elif b >= j:
            type2 += 1 << max(j - 1, 0)
    return type1, type2


def test_edge_types_stage_zero_all_type1():
    st = doubling_filtration(simplex(3))[0]
    summary = classify_edge_types(st)
    assert summary.type2 == 0 and summary.type1 == 6
    assert all(r.kind == "I" for r in summary.records)


def test_edge_types_simplex3_stage1():
    st = doubling_filtration(simplex(3))[1]
    summary = classify_edge_types(st)
    type2_faces = {r.facet_pair for r in summary.records if r.kind == "II"}
    assert type2_faces == {(0, 1), (0, 2), (0, 3)}
    assert summary.type2 == 3 and summary.type1 == 6
    for r in summary.records:
        if r.kind == "II":
            (i1, g1), (i2, g2) = r.pieces
            assert i1 == i2 and g1 ^ g2 == 1 << r.facet_pair[0]
        else:
            (i1, g1), (i2, g2) = r.pieces
            assert i1 != i2 and g1 == g2


def test_edge_types_cube_stage1():
    st = doubling_filtration(cube(3))[1]
    summary = classify_edge_types(st)
    expect1, expect2 = expected_edge_type_counts(cube(3), 1)
    assert (summary.type1, summary.type2) == (expect1, expect2)
    assert summary.type2 == 4  # one cell per edge of the doubled facet


def test_edge_types_match_oracle_all_stages():
    for name, p in zcomplex_corpus():
        if p.dim < 2:
            continue
        for st in doubling_filtration(p):
            summary = classify_edge_types(st)
            assert (summary.type1, summary.type2) == \
                expected_edge_type_counts(p, st.j), (name, st.j)


def test_edge_records_unique_and_boundary_only():
    for p in (simplex(3), cube(3)):
        m = p.facet_count
        for st in doubling_filtration(p):
            seen = set()
            for r in st.edge_types.records:
                a, b = r.facet_pair
                assert a < b and b >= st.j
                assert r.rep < (1 << st.j) and not r.rep & ((1 << a) | (1 << b))
                key = (r.facet_pair, r.rep)
                assert key not in seen
                seen.add(key)
                if r.kind == "II":
                    assert a < st.j <= b


# ---------------------------------------------------------------------------
# summary


def test_complex_summary_cube():
    s = complex_summary(cube(3))
    assert s["m"] == 6
    assert s["cells_by_dim"] == [64, 192, 192, 64]
    assert s["euler"] == 0
    assert s["components"] == 1
    assert s["orientable"] is True
    assert s["fixed_sets"] == [{"facet": i, "components": 2} for i in range(6)]
    assert [st["facets"] for st in s["filtration"]] == \
        [(6 - j) * (1 << j) for j in range(7)]


# ---------------------------------------------------------------------------
# oracles: the cell-level union-finds that the library replaced by closed
# forms, kept as brute-force references at small sizes (m <= 10)


class UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def roots(self):
        return {self.find(x) for x in range(len(self.parent))}


def mask_of(face):
    return sum(1 << i for i in face.facets)


def oracle_face_cells(j, mask):
    """The 2^j copies of a face merged along its facet generators; one
    canonical (minimal) representative per class, in increasing order."""
    uf = UnionFind(1 << j)
    for g in range(1 << j):
        low = g & mask
        if low:
            uf.union(g, g & ~(low & -low))
    reps = sorted(uf.roots())
    assert all(not g & mask for g in reps)
    return reps


def oracle_cells(lattice, j):
    return [(fidx, g) for fidx, f in enumerate(lattice.faces)
            for g in oracle_face_cells(j, mask_of(f))]


def oracle_fixed_components(lattice, m, cells, i):
    """Cells over faces in facet i, glued along every cover for all 2^m
    group elements; components ordered by their first cell id."""
    faces = lattice.faces
    ids = {cell: k for k, cell in enumerate(cells)}
    sub = [cid for cid, (fidx, _) in enumerate(cells) if i in faces[fidx].facets]
    local = {cid: k for k, cid in enumerate(sub)}
    uf = UnionFind(len(sub))
    for parent, child in cover_pairs(lattice):
        if i not in faces[parent].facets:
            continue
        for g in range(1 << m):
            if g & mask_of(faces[parent]):
                continue
            a = ids[(parent, g)]
            b = ids[(child, g & ~mask_of(faces[child]))]
            uf.union(local[a], local[b])
    groups = {}
    for cid in sub:
        groups.setdefault(uf.find(local[cid]), []).append(cells[cid])
    return tuple(tuple(grp) for _, grp in sorted(groups.items()))


def oracle_chamber_components(m):
    uf = UnionFind(1 << m)
    for g in range(1 << m):
        for i in range(m):
            uf.union(g, g ^ (1 << i))
    return len(uf.roots())


def oracle_orientability(m):
    signs = [1 - 2 * (bin(g).count("1") & 1) for g in range(1 << m)]
    ok = all(signs[g] != signs[g ^ (1 << i)]
             for g in range(1 << m) for i in range(m))
    return ok, signs


def oracle_boundary_pieces(m, j):
    """Codimension-one stage cells touching exactly one stage chamber; every
    other one must touch exactly two (the boundary identity)."""
    pieces = []
    for i in range(m):
        touched = Counter(g & ~(1 << i) for g in range(1 << j))
        for rep, count in touched.items():
            if count == 1:
                pieces.append((i, rep))
            else:
                assert count == 2, (i, rep, count)
    return tuple(pieces)


def oracle_boundary_components(lattice, j):
    faces = lattice.faces
    boundary = [(fidx, r) for fidx, f in enumerate(faces)
                if f.facets and max(f.facets) >= j
                for r in oracle_face_cells(j, mask_of(f))]
    if not boundary:
        return 0
    ids = {cell: k for k, cell in enumerate(boundary)}
    uf = UnionFind(len(boundary))
    for parent, child in cover_pairs(lattice):
        if not faces[parent].facets or max(faces[parent].facets) < j:
            continue
        for r in oracle_face_cells(j, mask_of(faces[parent])):
            uf.union(ids[(parent, r)], ids[(child, r & ~mask_of(faces[child]))])
    return len(uf.roots())


def oracle_edge_types(lattice, j, pieces):
    """Every stage cell over a codimension-two face with the boundary pieces
    through it: a piece (i, g) contains (face, r) when i is a facet of the
    face and g projects to r.  Two pieces over different facets is Type-I,
    over the same facet Type-II."""
    records = []
    for f in lattice.faces:
        if len(f.facets) != 2:
            continue
        mask = mask_of(f)
        through = {}
        for i, g in pieces:
            if i in f.facets:
                through.setdefault(g & ~mask, []).append((i, g))
        for r in oracle_face_cells(j, mask):
            pair = through.get(r)
            if pair is None:
                continue
            assert len(pair) == 2, (sorted(f.facets), r, pair)
            kind = "I" if pair[0][0] != pair[1][0] else "II"
            records.append(EdgeRecord(facet_pair=tuple(sorted(f.facets)), rep=r,
                                      kind=kind, pieces=tuple(pair)))
    type1 = sum(1 for r in records if r.kind == "I")
    return EdgeTypeSummary(records=tuple(records), type1=type1,
                           type2=len(records) - type1)


def oracle_filtration(p):
    lattice = face_lattice(p)
    m = p.facet_count
    stages = []
    for j in range(m + 1):
        pieces = oracle_boundary_pieces(m, j)
        stages.append(FiltrationStage(
            base=p, j=j, subgroup=tuple(range(1 << j)), facets=pieces,
            chamber_count=1 << j, cell_count=len(oracle_cells(lattice, j)),
            boundary_components=oracle_boundary_components(lattice, j),
            edge_types=oracle_edge_types(lattice, j, pieces)))
    # doubling law: stage j+1 is two copies of stage j glued along the
    # stage-j cells over faces through facet j
    for j in range(m):
        locus = sum(len(oracle_face_cells(j, mask_of(f)))
                    for f in lattice.faces if j in f.facets)
        assert stages[j + 1].cell_count == 2 * stages[j].cell_count - locus, j
    return stages


@functools.lru_cache(maxsize=None)
def oracle_complexes():
    """The zcomplex corpus plus larger and non-stacked inputs (cut cubes are
    not reducible to the simplex), each with its union-find cell list."""
    polytopes = zcomplex_corpus() + [
        ("cube4", cube(4)), ("simplex4", simplex(4)),
        ("cut2_cube", vertex_cut(cut_cube(), 3)),
        ("cut_cube4", vertex_cut(cube(4), 0))]
    out = []
    for name, p in polytopes:
        assert p.facet_count <= 10, name
        z = build_chamber_complex(p)
        out.append((name, p, z, oracle_cells(z.lattice, z.m)))
    return tuple(out)


def test_cells_match_union_find_oracle():
    for name, p, z, cells in oracle_complexes():
        assert tuple(z.cells) == tuple(cells), name
        assert dict(z.cell_ids) == {cell: k for k, cell in enumerate(cells)}, name
        dims = [0] * (p.dim + 1)
        for fidx, _ in cells:
            dims[z.lattice.faces[fidx].dim] += 1
        assert z.cells_by_dim == tuple(dims), name
        chi = sum((-1) ** d * c for d, c in enumerate(dims))
        assert euler_characteristic(z) == chi == lattice_euler_oracle(p)


def test_fixed_sets_match_cover_oracle():
    for name, p, z, cells in oracle_complexes():
        for i in range(z.m):
            expect = oracle_fixed_components(z.lattice, z.m, cells, i)
            assert fixed_point_components(z, i).components == expect, (name, i)


def test_connectivity_and_orientation_match_oracle():
    for name, p, z, _ in oracle_complexes():
        assert connected_components(z) == oracle_chamber_components(z.m), name
        ok, signs = orientability(z)
        assert (ok, list(signs)) == oracle_orientability(z.m), name


def test_filtration_matches_oracle():
    for name, p, _, _ in oracle_complexes():
        assert list(map(stage_values, doubling_filtration(p))) == \
            list(map(stage_values, oracle_filtration(p))), name


# ---------------------------------------------------------------------------
# oracles: the report assembly from the materialised complex and filtration,
# and the union-find over lattice faces, that the counts replaced


def oracle_summary(p):
    z = build_chamber_complex(p)
    ok, _ = orientability(z)
    fixed = [{"facet": i, "components": fixed_point_components(z, i).count}
             for i in range(z.m)]
    filtration = [{"j": st.j, "facets": len(st.facets),
                   "type1_edges": st.edge_types.type1,
                   "type2_edges": st.edge_types.type2}
                  for st in doubling_filtration(p)]
    return {
        "m": z.m,
        "cells_by_dim": list(z.cells_by_dim),
        "euler": euler_characteristic(z),
        "components": connected_components(z),
        "orientable": ok,
        "fixed_sets": fixed,
        "filtration": filtration,
    }


def oracle_filtration_rows(p):
    return [{"j": st.j, "facets": len(st.facets),
             "chambers": st.chamber_count,
             "boundary_components": st.boundary_components,
             "type1_edges": st.edge_types.type1,
             "type2_edges": st.edge_types.type2}
            for st in doubling_filtration(p)]


def oracle_scanned_rows(p):
    """Per stage j, the edge types from a scan of every codimension-two
    face F_a, F_b: Type-I when a >= j, Type-II when a < j <= b, the
    per-stage scan that the running counts replaced."""
    m = p.facet_count
    pairs = [1 << a | 1 << b for a, b in edge_pairs(p)]
    rows = []
    for j in range(m + 1):
        low = (1 << j) - 1
        rows.append({"j": j, "facets": (m - j) << j,
                     "type1_edges": sum(not pair & low for pair in pairs) << j,
                     "type2_edges": sum(bool(pair & low and pair >> j)
                                        for pair in pairs) << j >> 1})
    return rows


def row_ladder():
    ladder = [(f"rvc{k}_{seed}", random_vertexcuts(k, seed))
              for k in (0, 1, 2, 5, 20, 60, 200) for seed in (0, 1)]
    ladder += [(f"cube{n}", cube(n)) for n in range(2, 9)]
    ladder += [(f"simplex{n}", simplex(n)) for n in range(2, 7)]
    return ladder + [("cut_cube5", vertex_cut(cube(5), 0)), ("dodecahedron", dodecahedron())]


def test_running_counts_match_the_scan():
    for name, p in row_ladder():
        star, pairs = _stars_pairs(p)
        rows = list(_filtration_rows(p.facet_count, pairs))
        assert rows == oracle_scanned_rows(p), name
        assert [{key: row[key] for key in rows[0]}
                for row in _stage_rows(star, pairs)] == rows, name


def boundary_walk_oracle(star, j):
    """Components of the stage-j boundary, walked afresh: each component C
    of the facet graph on the facets >= j, grown from its lowest unreached
    facet through the stars, adds 2^(j - |span C below j|)."""
    left, total = ((1 << len(star)) - 1) >> j << j, 0  # unreached facets >= j
    while left:
        span = todo = left & -left
        while todo:
            x = todo.bit_length() - 1
            left ^= 1 << x
            span |= star[x]
            todo = span & left
        total += 1 << (j - (span & ((1 << j) - 1)).bit_count())
    return total


def test_one_pass_boundaries_match_the_per_stage_walk():
    inputs = count_inputs() + row_ladder() + [("rvc1577", random_vertexcuts(1577, 0))]
    for name, p in inputs:
        star, pairs = _stars_pairs(p)
        assert [row["boundary_components"] for row in _stage_rows(star, pairs)] == \
            [boundary_walk_oracle(star, j) for j in range(len(star) + 1)], name


def test_summary_counts_no_stage_boundary(monkeypatch):
    # complex_summary reports no boundary components, so it counts none
    def unreachable(*args):
        raise AssertionError("complex_summary counted a stage boundary")

    p = random_vertexcuts(40, 0)
    expected = complex_summary(p)
    monkeypatch.setattr(zcomplex, "_boundary_counts", unreachable)
    assert complex_summary(p) == expected
    with pytest.raises(AssertionError, match="stage boundary"):
        doubling_filtration(p)


def oracle_face_spans(lattice, keep):
    """Facet spans of the cover-connected components of the faces whose
    mask passes ``keep`` (a set closed under taking subfaces)."""
    masks = [mask_of(f) for f in lattice.faces]
    uf = UnionFind(len(masks))
    for parent, child in cover_pairs(lattice):
        if keep(masks[parent]):
            uf.union(parent, child)
    spans = {}
    for f, mask in enumerate(masks):
        if keep(mask):
            root = uf.find(f)
            spans[root] = spans.get(root, 0) | mask
    return list(spans.values())


def count_inputs():
    pentagon = validate_polytope(2, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    return [(name, p) for name, p, _, _ in oracle_complexes()] + [
        ("dodecahedron", dodecahedron()), ("pentagon", pentagon)] + [
        (f"rvc8_{seed}", random_vertexcuts(8, seed)) for seed in range(3)]


def test_counts_match_materialised_oracle():
    for name, p in count_inputs():
        assert complex_summary(p) == oracle_summary(p), name
        assert _stage_rows(*_stars_pairs(p)) == oracle_filtration_rows(p), name


def test_stars_and_boundaries_match_lattice_union_find():
    split = 0
    for name, p in count_inputs() + [("rvc16", random_vertexcuts(16, 0)),
                                     ("rvc40", random_vertexcuts(40, 0))]:
        m = p.facet_count
        lattice = face_lattice(p)
        for i, row in enumerate(complex_summary(p)["fixed_sets"]):
            spans = oracle_face_spans(lattice, lambda mask: mask >> i & 1)
            assert len(spans) == 1, (name, i)
            assert row["components"] == 1 << (m - spans[0].bit_count()), (name, i)
        for row in _stage_rows(*_stars_pairs(p)):
            j = row["j"]
            spans = oracle_face_spans(lattice, lambda mask: mask >> j)
            split += len(spans) > 1
            assert row["boundary_components"] == sum(
                1 << (j - (s & ((1 << j) - 1)).bit_count()) for s in spans), (name, j)
    assert split  # some stage boundary lies over several facet-graph components


# ---------------------------------------------------------------------------
# oracles: the materialising builders that the views replaced


def oracle_reps(j, mask):
    """Submasks of the low j bits outside ``mask``, in increasing order."""
    free = ((1 << j) - 1) & ~mask
    return [g for g in range(1 << j) if not g & ~free]


def stage_cell_reps_oracle(j, mask):
    """Canonical reps of stage-j cells over a face with facet bitmask
    ``mask``, doubled bit by bit: the list the cells iteration and the
    fixed-set components walked before they took ``_submasks``."""
    low = ((1 << j) - 1) & ~mask
    reps = [0]
    bit = 1
    while bit <= low:
        if bit & low:
            reps += [r | bit for r in reps]
        bit <<= 1
    return reps


def test_submasks_of_the_complement_match_stage_cell_reps():
    for p in (cube(5), dodecahedron()):
        m = p.facet_count
        for mask in face_lattice(p).masks:
            for j in range(m + 1):
                low = ((1 << j) - 1) & ~mask
                assert _submasks(_bits(low)) == stage_cell_reps_oracle(j, mask), (m, mask, j)


def materialised_cells(z):
    cells = tuple((f, g) for f, mask in enumerate(z.face_masks)
                  for g in oracle_reps(z.m, mask))
    return cells, {cell: k for k, cell in enumerate(cells)}


def materialised_components(z, i):
    span = 1 << i
    for v in z.base.vertices:
        if i in v:
            span |= sum(1 << x for x in v)
    groups = {}
    for f, mask in enumerate(z.face_masks):
        if mask >> i & 1:
            for g in oracle_reps(z.m, mask):
                groups.setdefault(g & ~span, []).append((f, g))
    return tuple(tuple(grp) for grp in groups.values())


def materialised_stage_facets(m, j):
    return tuple((i, g) for i in range(j, m) for g in range(1 << j))


def materialised_records(z, j):
    records = []
    for mask in z.face_masks:
        if mask.bit_count() != 2:
            continue
        a, b = sorted(i for i in range(z.m) if mask >> i & 1)
        if b < j:
            continue
        for r in oracle_reps(j, mask):
            if a >= j:
                records.append(EdgeRecord((a, b), r, "I", ((a, r), (b, r))))
            else:
                records.append(EdgeRecord((a, b), r, "II", ((b, r), (b, r | 1 << a))))
    return tuple(records)


def stage_values(st):
    """A stage with its views listed, for comparison with a listed stage."""
    return (st.base, st.j, tuple(st.subgroup), tuple(st.facets), st.chamber_count,
            st.cell_count, st.boundary_components,
            tuple(st.edge_types.records), st.edge_types.type1, st.edge_types.type2)


def check_view(view, listed):
    """``view`` equals ``listed`` by iteration, index, negative index and
    slice, and is out of range exactly past both ends."""
    n = len(listed)
    assert len(view) == n and tuple(view) == listed
    assert all(view[k] == listed[k] == view[k - n] for k in range(n))
    assert view[1::3] == listed[1::3] and tuple(reversed(view)) == listed[::-1]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            view[k]


def view_inputs():
    seen = {}
    for name, p in count_inputs():
        if p.facet_count <= 12:
            seen.setdefault(name, p)
    return seen.items()


def test_views_match_materialising_oracles():
    for name, p in view_inputs():
        z = build_chamber_complex(p)
        m = z.m
        cells, ids = materialised_cells(z)
        check_view(z.cells, cells)
        assert dict(z.cell_ids) == ids and list(z.cell_ids) == list(cells), name
        assert len(z.cell_ids) == len(cells), name
        assert all(z.cell_ids[cells[k]] == k for k in range(len(cells))), name
        bad = [(len(z.face_masks), 0), (-1, 0), (0, -1), (0, 1 << m), (0, -(1 << m))]
        bad += [(f, g | (mask & -mask)) for f, mask in enumerate(z.face_masks) if mask
                for g in (0, (1 << m) - 1 & ~mask)]
        for key in bad + [0, (0,), (0, 0, 0), ("a", 0), (0, None)]:
            with pytest.raises(KeyError):
                z.cell_ids[key]
            assert key not in z.cell_ids, (name, key)
        ok, signs = orientability(z)
        check_view(signs, tuple(1 - 2 * (bin(g).count("1") % 2) for g in range(1 << m)))
        for i in range(m):
            fs = fixed_point_components(z, i)
            assert fs.components == materialised_components(z, i), (name, i)
            assert fs.count == len(fs.components), (name, i)
        for st in doubling_filtration(p):
            check_view(st.subgroup, tuple(range(1 << st.j)))
            check_view(st.facets, materialised_stage_facets(m, st.j))
            check_view(st.edge_types.records, materialised_records(z, st.j))


# ---------------------------------------------------------------------------
# oracles: the bit-at-a-time deposit and compact that the run tables replaced


def run_table_inputs():
    return [("cube3", cube(3)), ("cube4", cube(4)), ("cube5", cube(5)),
            ("prism", prism()), ("dodecahedron", dodecahedron())] + [
        (f"rvc{k}_{seed}", random_vertexcuts(k, seed)) for k, seed in ((3, 1), (6, 2), (8, 5))]


def test_random_access_matches_bit_loop_oracles():
    for name, p in run_table_inputs():
        z = build_chamber_complex(p)
        assert z._runs == [None] * len(z.face_masks), name  # one empty slot per face
        k = 0
        for f, mask in enumerate(z.face_masks):
            for r in range(1 << z.m - mask.bit_count()):
                g = deposit_oracle(r, mask)
                assert compact_oracle(g, mask) == r
                assert z.cells[k] == (f, g), (name, k)
                assert z.cell_ids[(f, g)] == k, (name, k)
                k += 1
        assert k == len(z.cells), name
        assert None not in z._runs and len(z._runs) == len(z.face_masks), name


def test_run_tables_are_filled_per_face_read():
    z = build_chamber_complex(dodecahedron())
    top = z.lattice.face_index(())
    vertex = len(z.face_masks) - 1
    assert z.cells[z._starts[vertex]] == (vertex, 0)
    assert z.cell_ids[(top, 5)] == 5
    assert [f for f, runs in enumerate(z._runs) if runs is not None] == [top, vertex]
    assert z._runs[top] == (((1 << 12) - 1, 0),)
    # a vertex's three facets split the twelve free bits into at most four runs
    assert 1 <= len(z._runs[vertex]) <= 4


def test_edge_records_match_bit_loop_oracle():
    for name, p in run_table_inputs():
        pairs = [mask for mask in face_lattice(p).masks if mask.bit_count() == 2]
        for st in doubling_filtration(p):
            j = st.j
            low = (1 << j) - 1
            want = []
            for mask in pairs:
                a, b = _bits(mask)
                if b < j:
                    continue
                for r in range(1 << j - (mask & low).bit_count()):
                    rep = deposit_oracle(r, mask & low)
                    pieces = ((a, rep), (b, rep)) if a >= j else ((b, rep), (b, rep | 1 << a))
                    want.append(EdgeRecord((a, b), rep, "I" if a >= j else "II", pieces))
            records = st.edge_types.records
            assert len(records) == len(want), (name, j)
            assert all(records[k] == rec for k, rec in enumerate(want)), (name, j)


def test_random_access_keys_off_the_fast_path(monkeypatch):
    # only an in-range plain int skips range indexing; every other key reads
    # as before
    z = build_chamber_complex(cube(3))
    stage = doubling_filtration(cube(3))[2]
    for view in (z.cells, orientability(z)[1], stage.subgroup, stage.facets,
                 stage.edge_types.records):
        n = len(view)
        assert view[-1] == view[n - 1] and view[-n] == view[0]
        assert view[True] == view[1] and view[False] == view[0]
        assert view[np.int64(3)] == view[3] == view[np.int64(3 - n)]
        for k in (n, -n - 1, np.int64(n), 1 << 70):
            with pytest.raises(IndexError):
                view[k]
        for k in (1.0, "1", None, (1,)):
            with pytest.raises(TypeError):
                view[k]
        assert view[1:4] == (view[1], view[2], view[3])
        monkeypatch.setattr(zcomplex, "_OBJECT_CAP", 2)
        with pytest.raises(GuardExceeded):
            view[1:4]
        assert view[1:3] == (view[1], view[2])
        monkeypatch.undo()


def stage_cell_count_oracle(masks, j):
    """Stage-j cells: 2^(j - c) per face, c its facets below j."""
    return sum(1 << j - (mask & (1 << j) - 1).bit_count() for mask in masks)


def test_stage_cell_counts_match_the_per_face_sum():
    for name, p in run_table_inputs() + [
            ("simplex1", simplex(1)), ("simplex4", simplex(4)),
            ("polar_cyclic7_4", polar_cyclic(7, 4)), ("rvc40", random_vertexcuts(40, 0))]:
        masks = face_lattice(p).masks
        assert [st.cell_count for st in doubling_filtration(p)] == \
            [stage_cell_count_oracle(masks, j) for j in range(p.facet_count + 1)], name
