import pytest

from momang import cube, dodecahedron, prism, random_vertexcuts, simplex, vertex_cut
from momang.polytope import validate_polytope


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
