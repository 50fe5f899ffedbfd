import itertools
from collections import defaultdict

import pytest

from momang import cube, dodecahedron, prism, random_vertexcuts, simplex, vertex_cut
from momang.polytope import Face, validate_polytope


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


@pytest.fixture(scope="session")
def corpus():
    return corpus_3d()


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_small()
