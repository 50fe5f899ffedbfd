"""Generators for the standard test polytopes.

The combinatorial generators build facet-vertex incidences valid by
construction and, like the moves, skip validation; the dodecahedron's is
the fixed incidence that vertex enumeration of :func:`dodecahedron_hrep`
yields.  The ``*_hrep`` generators give half-space presentations and are
the only ones that load :mod:`momang.hrep` (and with it numpy).  Dimensions
and cut counts are ``int``s that are not ``bool``s, else
:class:`BadParameters`.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import TYPE_CHECKING

from .errors import BadParameters, _check_int, _check_work
from .polytope import _WORK_CAP, CombPolytope, _cut, _derived

if TYPE_CHECKING:
    from .hrep import HRep


def simplex(n: int) -> CombPolytope:
    """The n-simplex: n+1 facets, one vertex per n-subset."""
    _check_int("simplex dimension", n, 1)
    _check_work(f"simplex({n}) size", (n + 1) * n * n, _WORK_CAP)
    return _derived(n, n + 1, itertools.combinations(range(n + 1), n))


def cube(n: int) -> CombPolytope:
    """The n-cube: facet i is {x_i = 0}, facet n+i is {x_i = 1}."""
    _check_int("cube dimension", n, 1)
    # 2^n alone exceeds the cap past its bit length, so the shift stops there
    _check_work(f"cube({n}) size", n * n << min(n, _WORK_CAP.bit_length()), _WORK_CAP)
    verts = []
    for corner in itertools.product((0, 1), repeat=n):
        verts.append(tuple(sorted(i if bit == 0 else n + i
                                  for i, bit in enumerate(corner))))
    return _derived(n, 2 * n, verts)


def prism() -> CombPolytope:
    """The triangular prism: three quadrilaterals 0..2, two triangles 3, 4."""
    verts = [(0, 1, 3), (1, 2, 3), (0, 2, 3),
             (0, 1, 4), (1, 2, 4), (0, 2, 4)]
    return _derived(3, 5, verts)


def prism_hrep() -> HRep:
    """The product of the standard triangle with [0, 1]."""
    from .hrep import make_hrep

    rows = [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
    return make_hrep(rows, [0, 0, 1, 0, 1])


def simplex_hrep(n: int) -> HRep:
    """x_i >= 0 and x_1 + ... + x_n <= 1, in that row order."""
    from .hrep import make_hrep

    _check_int("simplex dimension", n, 1)
    rows = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    rows.append([-1.0] * n)
    return make_hrep(rows, [0.0] * n + [1.0])


def cube_hrep(n: int) -> HRep:
    """[0, 1]^n with rows x_i >= 0 first, then 1 - x_i >= 0."""
    from .hrep import make_hrep

    _check_int("cube dimension", n, 1)
    rows = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    rows += [[-1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    return make_hrep(rows, [0.0] * n + [1.0] * n)


def dodecahedron_hrep() -> HRep:
    """Regular dodecahedron: one facet per icosahedron vertex direction."""
    from .hrep import make_hrep

    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rows = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        rows.append([0.0, a, b * phi])
        rows.append([a, b * phi, 0.0])
        rows.append([b * phi, 0.0, a])
    return make_hrep(rows, [1.0] * 12)


def dodecahedron() -> CombPolytope:
    """Combinatorial dodecahedron: 12 pentagons, 20 vertices, labelled as
    in the vertex enumeration of :func:`dodecahedron_hrep`."""
    return _derived(3, 12, [
        (0, 1, 2), (0, 1, 7), (0, 2, 6), (0, 5, 6), (0, 5, 7),
        (1, 2, 8), (1, 3, 7), (1, 3, 8), (2, 4, 6), (2, 4, 8),
        (3, 7, 11), (3, 8, 9), (3, 9, 11), (4, 6, 10), (4, 8, 9),
        (4, 9, 10), (5, 6, 10), (5, 7, 11), (5, 10, 11), (9, 10, 11)])


def random_vertexcuts(k: int, seed: int) -> CombPolytope:
    """Apply k vertex cuts at seeded-random vertices of the tetrahedron.

    Every output is reducible back to the tetrahedron by construction.  The
    cuts run on one sorted vertex list, the order a validated polytope keeps,
    so each draw indexes the vertices as :func:`vertex_cut` would; cut s
    adds facet 4 + s.  A seed that ``random.Random`` cannot take (not an
    int, float, str, bytes, bytearray or None) raises :class:`BadParameters`.
    """
    _check_int("cut count", k, 0)
    _check_work(f"random_vertexcuts({k}) size", (4 + 2 * k) * 9, _WORK_CAP)
    try:
        rng = random.Random(seed)
    except TypeError as e:
        raise BadParameters(f"unusable seed {seed!r}: {e}") from e
    verts = list(itertools.combinations(range(4), 3))
    for step in range(k):
        for w in _cut(verts.pop(rng.randrange(len(verts))), 4 + step):
            bisect.insort(verts, w)
    return _derived(3, 4 + k, verts)


def generate(kind: str, param: int | None = None, seed: int = 0) -> CombPolytope:
    """Dispatch for the CLI generator command."""
    if kind == "simplex":
        if param is None:
            raise BadParameters("simplex needs a dimension parameter")
        return simplex(param)
    if kind == "cube":
        if param is None:
            raise BadParameters("cube needs a dimension parameter")
        return cube(param)
    if kind == "prism":
        if param is not None:
            raise BadParameters("prism takes no parameter")
        return prism()
    if kind == "dodecahedron":
        if param is not None:
            raise BadParameters("dodecahedron takes no parameter")
        return dodecahedron()
    if kind == "random-vertexcuts":
        if param is None:
            raise BadParameters("random-vertexcuts needs a cut count")
        return random_vertexcuts(param, seed)
    raise BadParameters(f"unknown kind {kind!r}")
