"""Simple convex polytopes given combinatorially by facet-vertex incidence.

A polytope of dimension ``n`` with ``m`` facets is stored as the list of its
vertices, each vertex being the sorted tuple of the ``n`` facet indices that
contain it.  All faces, the dual simplicial sphere, facet adjacency and
combinatorial isomorphism are derived from this incidence alone; coordinates
never enter (see :mod:`momang.hrep` for numeric presentations).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from functools import cached_property

from .errors import (
    BadParameters,
    DuplicateVertex,
    InvalidPolytope,
    InvalidSphere,
    NotPolytopal,
    NotSimple,
    ParseError,
    UnusedFacet,
    _check_int,
    _check_type,
    _check_work,
    _Record,
)

# Cap on predicted enumeration work, checked before anything is listed: the
# face lattice's V * 2^n subsets, in 64-bit words of their m-bit masks, the
# V * n^2 size of generated simplices, cubes and cut tetrahedra, and the
# chamber counts' m + 1 rows over the m facets and the codimension-two faces.
_WORK_CAP = 10 ** 7

_FACES_CAP = 5 * 10 ** 6  # FaceLattice.faces' V * 2^n memberships, ~130 B each: < 1 GB

_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # each byte, bits reversed

class CombPolytope(_Record):
    """A simple n-polytope: every vertex lies in exactly ``dim`` facets.

    ``vertices`` is a lexicographically sorted tuple of sorted facet-index
    tuples, so equal polytopes compare equal regardless of input order.
    The constructor runs :func:`validate_polytope` on the incidence, with
    its errors, and raises :class:`ParseError` when ``facet_count`` is not
    the number of facets the incidence uses, :class:`BadParameters` when it
    is not an int (or is a bool).  What the package builds skips these checks.
    """

    _fields = ("dim", "facet_count", "vertices", "facet_labels")
    facet_labels = None

    def __init__(self, dim: int, facet_count: int, vertices: tuple[tuple[int, ...], ...],
                 facet_labels: tuple[str, ...] | None = None):
        _check_int("facet_count", facet_count, 1, error=ParseError)
        p = validate_polytope(dim, vertices, facet_labels)
        if p.facet_count != facet_count:
            raise ParseError(f"facet_count is {facet_count!r}, the incidence uses "
                             f"{p.facet_count} facets")
        for name in self._fields:
            object.__setattr__(self, name, getattr(p, name))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def facet_vertices(self, i: int) -> tuple[int, ...]:
        """Indices of the vertices lying on facet ``i``."""
        return tuple(v for v, fs in enumerate(self.vertices) if i in fs)

    @cached_property
    def _pairs(self) -> list[dict]:
        """The :func:`_pair_sets` table of the facets over the vertices, built
        on first read and kept for the polytope's lifetime.  Read-only:
        callers that peel the graph copy rows into fresh sets."""
        return _pair_sets(self.facet_count, self.vertices)

    @cached_property
    def _face_masks(self) -> tuple[int, ...]:
        """The :class:`FaceLattice` masks, in its order, built on first read
        and kept for the polytope's lifetime.  Only :func:`face_lattice`
        reads them, after its work guard; the lattice it returns points
        back at the polytope, so the polytope keeps the masks, not it."""
        masks = set()
        for fs in self.vertices:
            masks.update(_submasks(fs))
        # Within a bit count, sorted facet tuples put the mask holding the lowest
        # differing bit first: facet f is bit 8 width - 1 - f of the reversed int.
        width = -(-self.facet_count // 8)
        return tuple(sorted(masks, key=lambda s: (s.bit_count(), -int.from_bytes(
            s.to_bytes(width, "big").translate(_REV8), "little"))))

    def __repr__(self):
        return (f"CombPolytope(dim={self.dim}, facets={self.facet_count}, "
                f"vertices={self.vertex_count})")


class Face(_Record):
    """A face recorded by the facets containing it; ``dim = n - len(facets)``."""

    _fields = ("facets", "dim", "vertices")


class FaceLattice(_Record, eq=False):
    """All faces of a simple polytope, keyed by facet bitmask.

    ``masks`` holds one bitmask per face (bit i set when facet i contains
    it), ordered by facet count and then by sorted facet tuple, so
    ``masks[0] == 0`` is the whole polytope.  ``faces`` lists the matching
    :class:`Face` records, built on first read; over ``_FACES_CAP`` vertex
    memberships it raises :class:`GuardExceeded` before any is built.
    The constructor checks nothing: only :func:`face_lattice` builds one.
    """

    _fields = ("polytope", "masks")
    _hidden = ("masks",)

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        p = self.polytope
        _check_work("face-record vertex memberships", p.vertex_count << p.dim, _FACES_CAP)
        members = {mask: [] for mask in self.masks}
        for vi, fs in enumerate(p.vertices):
            for mask in _submasks(fs):
                members[mask].append(vi)
        return tuple(Face(facets=frozenset(_bits(mask)), dim=p.dim - mask.bit_count(),
                          vertices=tuple(members[mask])) for mask in self.masks)

    @cached_property
    def _by_mask(self) -> dict[int, int]:
        return {mask: i for i, mask in enumerate(self.masks)}

    def face_index(self, facets) -> int:
        return self._by_mask[sum({1 << f for f in facets})]

    def f_vector(self) -> tuple[int, ...]:
        """Counts of proper faces by dimension 0..n-1."""
        n = self.polytope.dim
        counts = Counter(n - mask.bit_count() for mask in self.masks)
        return tuple(counts[d] for d in range(n))


class SimplicialSphere(_Record):
    """A pure simplicial complex whose facets have ``dim + 1`` vertices.

    Used for boundaries of dual simplicial polytopes; vertex labels are
    arbitrary ints (facet indices of the primal polytope, or labels created
    by stacking moves).  The constructor runs :func:`validate_sphere`, with
    its errors, keeps its sorted frozensets, and raises :class:`InvalidSphere`
    when their dimension is not ``dim``; what the package builds skips it.
    """

    _fields = ("dim", "facets")

    def __init__(self, dim: int, facets):
        _check_int("dim", dim, 0)
        k = validate_sphere(facets)
        if k.dim != dim:
            raise InvalidSphere(f"facets of {k.dim + 1} vertices make a {k.dim}-sphere, "
                                f"not a {dim}-sphere")
        for name in self._fields:
            object.__setattr__(self, name, getattr(k, name))

    @property
    def vertex_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.facets)))

    @property
    def vertex_count(self) -> int:
        return len(set().union(*self.facets))

    @cached_property
    def _apex(self) -> int:
        """The label a flip at a facet gives its new vertex: one more than
        the largest label, found in one scan on first read."""
        return max(map(max, self.facets)) + 1


# ---------------------------------------------------------------------------
# validation


def _edge_pairs(vertices, m):
    """Vertex index pairs sharing n-1 facets, via the ridge -> endpoints map.

    A ridge is keyed by one int holding its facet indices, ascending, in
    fields of ``m.bit_length()`` bits from the low end: n - 1 fields however
    many facets there are, where a facet bitmask would grow to m bits.
    """
    width = m.bit_length()
    ridges = defaultdict(list)
    for vi, fs in enumerate(vertices):
        key = 0
        for f in reversed(fs):
            key = key << width | f
        for i in range(len(fs)):
            low = (1 << width * i) - 1
            ridges[key >> width & ~low | key & low].append(vi)
    return ridges


def validate_polytope(dim, incidence, facet_labels=None) -> CombPolytope:
    """Check raw incidence data and return a :class:`CombPolytope`.

    ``incidence`` is an iterable of vertex facet-index collections.  Raises
    :class:`NotSimple`, :class:`DuplicateVertex`, :class:`UnusedFacet` or
    :class:`NotPolytopal` on defects; index/shape problems, a ``dim`` below
    1, an incidence, vertex or label list that is not iterable, and labels
    given as one ``str`` or ``bytes`` raise :class:`ParseError`, and a
    ``dim`` that is not an int (or is a bool) :class:`BadParameters`.

    For ``dim == 3`` the counts must obey Euler's relation ``2m = V + 4``;
    after the ridge and connectivity checks that is exact.  Facet boundaries
    are then unions of cycles, and a disk on each cycle gives a connected
    closed surface with ``m - V/2 <= V - 3V/2 + #cycles <= 2``, so equality
    means a sphere tiled by one cycle per facet, two facets meeting in at
    most one edge: a polyhedral map, planar and 3-connected (Steinitz).
    In higher dimensions only simplicity and consistency of the dual
    pseudo-sphere are checked; genuine polytopality is then the caller's
    responsibility.
    """
    _check_int("dim", dim, 1, error=ParseError)
    n = dim
    try:
        raw = [tuple(v) for v in incidence]
    except TypeError as e:
        raise ParseError(f"incidence must be an iterable of vertex facet sets: {e}") from e
    if not raw:
        raise ParseError("empty vertex list")
    for v in raw:
        if not all(isinstance(f, int) and not isinstance(f, bool) for f in v):
            raise ParseError(f"non-integer facet index in vertex {v}")
        if any(f < 0 for f in v):
            raise ParseError(f"negative facet index in vertex {v}")

    verts = []
    for v in raw:
        s = tuple(sorted(set(v)))
        if len(s) != n or len(v) != n:
            raise NotSimple(f"vertex {v} lies in {len(set(v))} facets, expected {n}")
        verts.append(s)

    seen = set()
    for v in verts:
        if v in seen:
            raise DuplicateVertex(f"vertex {v} listed twice")
        seen.add(v)

    used = set(itertools.chain.from_iterable(verts))
    m = max(used) + 1
    for i in range(m):
        if i not in used:
            raise UnusedFacet(f"facet {i} appears in no vertex")
    if isinstance(facet_labels, (str, bytes)):
        raise ParseError(f"facet labels must be a collection of labels, got {facet_labels!r}")
    if facet_labels is not None:
        try:
            labels = tuple(str(x) for x in facet_labels)
        except TypeError as e:
            raise ParseError(f"facet labels must be an iterable: {e}") from e
        if len(labels) != m:
            raise ParseError(f"expected {m} facet labels, got {len(labels)}")
    else:
        labels = None

    verts = tuple(sorted(verts))

    # Dual pseudo-sphere consistency: every ridge (an (n-1)-subset of some
    # vertex's facet set) must belong to exactly two vertices.
    ridges = _edge_pairs(verts, m)
    for ridge, ends in ridges.items():
        if len(ends) != 2:
            width = m.bit_length()
            facets = tuple(ridge >> width * i & (1 << width) - 1 for i in range(n - 1))
            raise NotPolytopal(f"facet set {facets} shared by {len(ends)} vertices, "
                               "expected 2")

    if n >= 2:
        adjacency = [[] for _ in verts]
        for a, b in ridges.values():
            adjacency[a].append(b)
            adjacency[b].append(a)
        if _reach_count(adjacency, 0) != len(verts):
            raise NotPolytopal("vertex-edge graph is disconnected")
        if n == 3 and 2 * m != len(verts) + 4:
            raise NotPolytopal(
                f"{m} facets and {len(verts)} vertices break Euler's relation "
                "2m = V + 4: the facets do not tile a sphere by single cycles")

    return CombPolytope._trusted(n, m, verts, labels)


def _derived(dim, facet_count, incidence, facet_labels=None) -> CombPolytope:
    """A polytope valid by construction, a move's result or a generator's
    incidence: the incidence is only sorted, the facet count is taken as
    given, and :func:`validate_polytope` does not run."""
    return CombPolytope._trusted(dim, facet_count,
                                 tuple(sorted(tuple(sorted(v)) for v in incidence)),
                                 facet_labels)


def _reach_count(adjacency, start):
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _cut(vertex, new_facet) -> list:
    """The vertices that replace ``vertex`` when facet ``new_facet`` cuts it."""
    return [tuple(sorted((set(vertex) - {f}) | {new_facet})) for f in vertex]


# ---------------------------------------------------------------------------
# faces and duality


def _submasks(facets) -> list[int]:
    """Bitmasks of all subsets of ``facets``, by doubling."""
    subs = [0]
    for f in facets:
        bit = 1 << f
        subs += [s | bit for s in subs]
    return subs


def _bits(mask) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def face_lattice(p: CombPolytope) -> FaceLattice:
    """Enumerate all faces as nonempty intersections of facet subsets.

    In a simple polytope every subset of a vertex's facet set is the full
    facet set of a face, so the faces are the submasks of the vertices'
    facet masks.  The empty set is the top face (the polytope itself).
    Raises :class:`GuardExceeded` before the walk when its V * 2^n subsets,
    counted in 64-bit words of mask, exceed ``_WORK_CAP``.  The walk runs
    once per polytope: its sorted masks are cached on ``p``.
    """
    _check_type("polytope", p, CombPolytope)
    words = -(-p.facet_count // 64)
    _check_work("face-lattice subset words", (p.vertex_count << p.dim) * words, _WORK_CAP)
    return FaceLattice(p, p._face_masks)


def dual_sphere(p: CombPolytope) -> SimplicialSphere:
    """Boundary of the dual simplicial polytope.

    One sphere vertex per facet of ``p``; one top simplex per vertex of ``p``
    (its containing facets), already in sorted order as ``p.vertices`` is.
    """
    _check_type("polytope", p, CombPolytope)
    return SimplicialSphere._trusted(p.dim - 1, tuple(map(frozenset, p.vertices)))


def validate_sphere(facets) -> SimplicialSphere:
    """Check a facet list for closed-sphere consistency.

    Enforced: purity, every ridge in exactly two facets, connected facet
    adjacency, and the Euler characteristic of a sphere of the facets'
    dimension.  These checks certify spheres in dimension two; in higher
    dimensions they are a pseudo-manifold screen, not a sphere proof.

    The facets, with the vertex labels renumbered 0..V-1 in sorted order,
    are the vertices of the dual pseudo-polytope, so :func:`validate_polytope`
    refuses repeated and mixed-size facets and runs the ridge and
    connectivity checks, and for triangles Euler's relation 2m = V + 4,
    which is chi = 2.  For larger facets chi is read from the nonzero masks
    of that polytope's :func:`face_lattice`, under its cap;
    :class:`GuardExceeded` passes through, every other defect is
    :class:`InvalidSphere`.  Facets that are not collections of hashable,
    mutually comparable labels raise :class:`BadParameters`.

    In dimension two vertex links need no check of their own.  Once every
    edge lies in two triangles, each vertex link is 2-regular, so a disjoint
    union of c_v cycles.  Splitting each vertex into one copy per cycle
    gives a connected closed surface S with chi(S) = chi(K) + sum(c_v - 1),
    and chi(S) <= 2, so chi(K) = 2 forces every link to be a single cycle.
    """
    try:
        fs = sorted(map(frozenset, facets), key=sorted)
        labels = sorted(set().union(*fs))
    except TypeError as e:
        raise BadParameters(f"facets must be collections of comparable labels: {e}") from e
    if not fs:
        raise InvalidSphere("no facets")
    n = len(fs[0])

    label = {x: i for i, x in enumerate(labels)}
    try:
        dual = validate_polytope(n, [[label[x] for x in f] for f in fs])
    except (InvalidPolytope, ParseError) as e:
        raise InvalidSphere(f"dual polytope: {e}") from e
    if n >= 4:
        euler = sum((-1) ** (mask.bit_count() - 1) for mask in face_lattice(dual).masks if mask)
        if euler != 1 + (-1) ** (n - 1):
            raise InvalidSphere(f"Euler characteristic {euler} is not spherical")
    return SimplicialSphere._trusted(n - 1, tuple(fs))


def is_simplex(p: CombPolytope) -> bool:
    """True when ``p`` is the n-simplex.  Its n + 1 facets decide it: a
    validated polytope's ridge graph is connected, and with n + 1 facets
    that forces every n-subset of them to be a vertex."""
    _check_type("polytope", p, CombPolytope)
    return p.facet_count == p.dim + 1


def _pair_sets(num_labels, sets) -> list[dict]:
    """Per label a, each label b sharing a set with a, mapped to the ascending
    ids of the sets holding both: for a polytope's vertices, the facets
    meeting facet a and the vertices where they meet."""
    pairs: list[dict] = [{} for _ in range(num_labels)]
    for k, s in enumerate(sets):
        for a in s:
            row = pairs[a]
            for b in s:
                if b != a:
                    row.setdefault(b, []).append(k)
    return pairs


# ---------------------------------------------------------------------------
# isomorphism of labelled set families

def _refine(pairs):
    """Iterated colour refinement of one :func:`_pair_sets` table.

    A label starts with its total pair weight, the weight of a pair being
    the number of sets holding both; each round hashes its colour with the
    sorted (partner colour, weight) pairs around it.  Rounds stop when one
    splits no class, or once every class is a single label, which no
    further round can split.  A colour depends only on the structure and
    the round, and so does the round it stops at, so isomorphic families
    get equal colours.
    """
    colors = [sum(map(len, row.values())) for row in pairs]
    classes = len(set(colors))
    while classes < len(pairs):
        colors = [hash((c, tuple(sorted([(colors[b], len(ids)) for b, ids in row.items()]))))
                  for c, row in zip(colors, pairs)]
        split = len(set(colors))
        if split == classes:
            break
        classes = split
    return colors


def _family(num_labels, sets, pairs):
    """A set family on labels ``0..num_labels-1``, with its :func:`_pair_sets`
    table, as the record ``(num_labels, sets, pair table, colours)`` that
    :func:`_family_isomorphism` takes; colours are refined once, here."""
    return num_labels, [frozenset(s) for s in sets], pairs, _refine(pairs)


def _family_isomorphism(fam_a, fam_b):
    """Label bijection carrying one family record onto the other, or ``None``.

    The records' colours narrow the candidates.  Where every colour class
    is a single label they allow one map, which is checked and returned
    without search.  Otherwise a depth-first search on a stack of candidate
    iterators finds a bijection.  Either way the result is verified by
    direct comparison of the mapped family before being returned.  b may
    take a when a's mapped partners go to b's partners with equal counts.
    """
    (num_a, sets_a, pairs_a, colors_a), (num_b, sets_b, pairs_b, colors_b) = fam_a, fam_b
    if sorted(colors_a) != sorted(colors_b):
        return None
    if sorted(map(len, sets_a)) != sorted(map(len, sets_b)):
        return None
    target = Counter(sets_b)

    by_color = defaultdict(list)
    for b in range(num_b):
        by_color[colors_b[b]].append(b)
    def carries(mapping):
        return Counter(frozenset(mapping[x] for x in s) for s in sets_a) == target

    if len(by_color) == num_b:  # discrete colours allow one map, the search's first
        mapping = {a: by_color[c][0] for a, c in enumerate(colors_a)}
        return mapping if carries(mapping) else None
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
        elif carries(mapping):
            return mapping
        # advance the deepest iterator, backtracking past exhausted ones
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


def combinatorial_isomorphic(p: CombPolytope, q: CombPolytope):
    """Facet bijection inducing a vertex bijection, or ``None``.

    The bijection is returned as a list ``perm`` with ``perm[i]`` the facet
    of ``q`` matching facet ``i`` of ``p``; the search returns it only once
    the mapped vertex family equals ``q``'s.
    """
    _check_type("polytope", p, CombPolytope)
    _check_type("polytope", q, CombPolytope)
    mapping = _family_isomorphism(_family(p.facet_count, p.vertices, p._pairs),
                                  _family(q.facet_count, q.vertices, q._pairs))
    return None if mapping is None else [mapping[i] for i in range(p.facet_count)]


# ---------------------------------------------------------------------------
# wire format


def polytope_to_json(p: CombPolytope) -> dict:
    _check_type("polytope", p, CombPolytope)
    obj = {"dim": p.dim, "facets": p.facet_count,
           "vertices": [list(v) for v in p.vertices]}
    if p.facet_labels is not None:
        obj["facet_labels"] = list(p.facet_labels)
    return obj


def polytope_from_json(data) -> CombPolytope:
    """Load the JSON wire format; inner lists must be strictly increasing."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ParseError(f"invalid JSON: {e}") from e
        except RecursionError as e:
            raise ParseError("JSON nested too deeply") from e
    if not isinstance(data, dict):
        raise ParseError("polytope JSON must be an object")
    for key in ("dim", "facets", "vertices"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    for key in ("dim", "facets"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise ParseError(f"{key!r} must be an integer, got {data[key]!r}")
    labels = data.get("facet_labels")
    if labels is not None and not isinstance(labels, list):
        raise ParseError(f"'facet_labels' must be a list, got {labels!r}")
    verts = data["vertices"]
    if not isinstance(verts, list) or not all(isinstance(v, list) for v in verts):
        raise ParseError("'vertices' must be a list of lists")
    for v in verts:
        if any(not isinstance(f, int) or isinstance(f, bool) for f in v):
            raise ParseError(f"non-integer facet index in {v}")
        if any(b <= a for a, b in zip(v, v[1:])):
            raise ParseError(f"vertex {v} is not strictly increasing")
        if any(f < 0 or f >= data["facets"] for f in v):
            raise ParseError(f"facet index out of range in {v}")
    return CombPolytope(data["dim"], data["facets"], verts, labels)
