"""Output checks that never call into ``momang``.

Every oracle works from the incidence lists and half-space rows the
benchmark generated itself, with plain Python and numpy.  An oracle raises
:class:`OracleError` when an output is wrong; the runner counts that job as
failed.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np


class OracleError(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


def expect(cond: bool, message: str):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# incidence combinatorics


def relabel(vertices, perm):
    """Vertex list with facet ``f`` renamed ``perm[f]``, sorted as on the wire."""
    return sorted(tuple(sorted(perm[f] for f in v)) for v in vertices)


def adjacency(vertices, m):
    """Facet neighbours: two facets are adjacent when a vertex lies on both."""
    nbrs = [set() for _ in range(m)]
    for v in vertices:
        for a, b in itertools.combinations(v, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def face_counts(vertices, n):
    """Number of faces of each codimension 0..n of a simple polytope.

    In a simple polytope every subset of a vertex's facet set is the facet
    set of a face, and the empty set is the polytope itself.
    """
    faces = set()
    for v in vertices:
        for k in range(n + 1):
            faces.update(itertools.combinations(v, k))
    counts = [0] * (n + 1)
    for f in faces:
        counts[len(f)] += 1
    return counts


def face_masks(vertices, n):
    """Facet bitmasks of all faces (the empty mask is the polytope)."""
    masks = set()
    for v in vertices:
        for k in range(n + 1):
            for sub in itertools.combinations(v, k):
                masks.add(sum(1 << f for f in sub))
    return masks


def prismatic_sets(vertices, m, k):
    """Facet sets of all prismatic k-circuits of a simple 3-polytope.

    A k-subset qualifies when its induced facet graph is one k-cycle and the
    k edges where consecutive facets meet share no vertex.
    """
    edge = defaultdict(set)
    for vi, v in enumerate(vertices):
        for a, b in itertools.combinations(v, 2):
            edge[(a, b)].add(vi)
    nbrs = adjacency(vertices, m)
    found = set()
    for combo in itertools.combinations(range(m), k):
        inside = set(combo)
        if any(len(nbrs[f] & inside) != 2 for f in combo):
            continue
        order = [combo[0]]
        prev = None
        while True:
            nxt = min(x for x in nbrs[order[-1]] & inside if x != prev)
            if nxt == combo[0]:
                break
            prev = order[-1]
            order.append(nxt)
        if len(order) != k:
            continue  # two disjoint cycles, not one
        seen = set()
        disjoint = True
        for i in range(k):
            a, b = sorted((order[i], order[(i + 1) % k]))
            if seen & edge[(a, b)]:
                disjoint = False
                break
            seen |= edge[(a, b)]
        if disjoint:
            found.add(frozenset(combo))
    return found


def check_bijection(perm, src_vertices, dst_vertices, m):
    """``perm`` must be a facet permutation carrying one incidence onto the other."""
    expect(perm is not None, "isomorphic polytopes reported as non-isomorphic")
    expect(sorted(perm) == list(range(m)), "returned map is not a permutation")
    expect(set(relabel(src_vertices, perm)) == set(map(tuple, dst_vertices)),
           "returned bijection does not carry the incidence onto the target")


def is_tetrahedron(vertices):
    return sorted(map(tuple, vertices)) == list(itertools.combinations(range(4), 3))


# ---------------------------------------------------------------------------
# half-space presentations


def brute_vertices(rows, offsets, tol=1e-9):
    """Facet sets of the vertices of ``{x : rows x + offsets >= 0}``.

    Solves every n-subset of the hyperplanes at once with numpy.  Returns
    the sorted facet sets and the smallest slack of an inactive row at any
    vertex, which tells the input generator how far from degenerate the
    presentation is.
    """
    rows = np.asarray(rows, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    m, n = rows.shape
    combos = np.array(list(itertools.combinations(range(m), n)))
    sub = rows[combos]
    det = np.linalg.det(sub)
    ok = np.abs(det) > 1e-9
    combos, sub = combos[ok], sub[ok]
    x = np.linalg.solve(sub, -offsets[combos][..., None])[..., 0]
    vals = x @ rows.T + offsets
    scale = max(1.0, float(np.abs(offsets).max()))
    feasible = vals.min(axis=1) >= -tol * scale
    vals = vals[feasible]
    active = np.abs(vals) <= tol * scale
    sets = sorted({tuple(np.flatnonzero(a).tolist()) for a in active})
    inactive = np.where(active, np.inf, vals)
    margin = float(inactive.min()) if inactive.size else math.inf
    return sets, margin


def check_relations(gamma, rows, m, n):
    """Relation rows annihilate the normals and have full rank m - n."""
    gamma = np.asarray(gamma, dtype=float)
    rows = np.asarray(rows, dtype=float)
    expect(gamma.shape == (m - n, m), f"relation matrix shape {gamma.shape}")
    scale = max(1.0, float(np.abs(rows).max()))
    worst = float(np.abs(gamma @ rows).max()) if gamma.size else 0.0
    expect(worst <= 1e-9 * scale, f"gamma @ A^T residual {worst:g}")
    rank = int(np.linalg.matrix_rank(gamma)) if gamma.size else 0
    expect(rank == m - n, f"relation rank {rank}, expected {m - n}")
