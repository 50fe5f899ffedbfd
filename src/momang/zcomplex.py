"""Chamber complex glued from 2^m reflected copies of a simple polytope.

The manifold is the quotient of (polytope) x (Z2)^m that identifies two
copies of a point exactly when they differ by the subgroup generated by the
facets through the point.  Group elements are plain ints: bit ``i`` is the
generator attached to facet ``i`` and the group law is XOR.

A cell is a pair ``(face, g)``.  Canonical representatives clear the bits
of the face's facet set, so a codimension-k face carries exactly 2^(m-k)
cells; the top-dimensional cells (chambers) are indexed by all of (Z2)^m,
and the neighbour of chamber ``g`` across facet ``i`` is ``g ^ (1 << i)``.

Closed forms replace search: the copies of a face glue along the cosets
of its facet span, and so do the cells over one cover-connected set of
faces (those inside a facet; those over a facet-graph component of a stage
boundary); the chamber graph is the m-cube, hence connected; chamber parity
orients, as a facet crossing flips one bit.

The doubling filtration truncates the group to its first j generators:
stage j is the union of the 2^j chambers with group element < 2^j, whose
boundary consists of one piece per (facet i >= j, group element in the
stage).  Stage j+1 is two copies of stage j glued along the pieces of
facet j.

Nothing is listed per cell: the cells, cell ids, chamber signs, stage
groups, stage pieces and edge records are read-only views whose lengths are
closed forms and whose k-th object is computed on demand.  A cell, its id
or an edge record costs a bisection over per-face offsets plus one masked
shift per run of free bits in the face's facet mask, at most n + 1 runs;
a face's run table is built on its first read, into one slot per face.
Iterating a view builds its objects in turn, so it is capped by
``_OBJECT_CAP`` before the first; the components of a fixed set are built,
under the same cap, on first read.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import accumulate

from .errors import BadParameters, NoSuchFacet, _check_int, _check_type, _check_work, _Record
from .polytope import _WORK_CAP, CombPolytope, FaceLattice, _bits, _submasks, face_lattice


# Objects (cells, components' cells, group elements, signs, filtration
# pieces or edge records) one materialising read of a view may build.  Peak
# RSS grows by ~210 B per cell (m = 16) and ~300 B per piece or record
# (m = 18), so an admitted read stays under 1 GB.
_OBJECT_CAP = 3_000_000


def _facet_stars(p: CombPolytope) -> list[int]:
    """Per facet i, the mask of i and every facet sharing a vertex with it:
    each vertex ORs its facet mask into the stars of its facets."""
    star = [1 << i for i in range(p.facet_count)]
    for fs in p.vertices:
        mask = sum(1 << i for i in fs)
        for i in fs:
            star[i] |= mask
    return star


def _run_table(mask: int, width: int) -> tuple[tuple[int, int], ...]:
    """The runs of zero bits of ``mask`` below bit ``width``, lowest first,
    each as (its bits in rank space, the number of ``mask`` bits below it):
    the k-th submask of the complement is ``(k & bits) << shift`` summed
    over the runs, and its rank ``g >> shift & bits`` summed back."""
    runs, free = [], ~mask & (1 << width) - 1
    while free:
        low = free & -free
        run = free & ~(free + low)  # the carry clears the lowest run
        shift = (mask & low - 1).bit_count()
        runs.append((run >> shift, shift))
        free ^= run
    return tuple(runs)


def _deposit(k: int, runs) -> int:
    """The k-th submask of the complement a run table describes."""
    g = 0
    for bits, shift in runs:
        g |= (k & bits) << shift
    return g


class _View(Sequence):
    """``length`` objects, the k-th computed by ``item(k)``; ``items()``,
    when given, lists them all in order faster.

    ``len`` and random access never build the others.  Iterating, or
    slicing, builds the objects in turn and raises ``GuardExceeded`` before
    the first when they exceed ``_OBJECT_CAP``.  A view longer than
    ``sys.maxsize``, which ``len`` could not return, is refused at
    construction.
    """

    def __init__(self, what: str, length: int, item, items=None):
        _check_work(what, length, sys.maxsize)
        self._what, self._len, self._item, self._items = what, length, item, items

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if type(k) is int and 0 <= k < self._len:
            return self._item(k)
        k = range(self._len)[k]  # an index in range, or a range for a slice
        if isinstance(k, range):
            return tuple(map(self._item, self._admit(k)))
        return self._item(k)

    def __iter__(self):
        ks = self._admit(range(self._len))
        return self._items() if self._items else map(self._item, ks)

    def __reversed__(self):
        return map(self._item, self._admit(range(self._len)[::-1]))

    def __repr__(self) -> str:
        return f"<{self._what}: {self._len}>"

    def _admit(self, ks: range) -> range:
        _check_work(self._what, len(ks), _OBJECT_CAP)
        return ks


class _CellIds(Mapping):
    """Cell -> cell id over the cells view of a :class:`ChamberComplex`:
    the face's offset plus the rank of the representative among the
    submasks of the face's complement.  Any key that is not a canonical cell
    raises ``KeyError``."""

    def __init__(self, z: ChamberComplex):
        self._z = z

    def __getitem__(self, cell) -> int:
        z = self._z
        try:
            f, g = cell
            if f < 0 or g < 0 or g >> z.m:
                raise KeyError(cell)
            mask = z.face_masks[f]
        except (TypeError, ValueError, IndexError):
            raise KeyError(cell) from None
        if g & mask:
            raise KeyError(cell)
        k = z._starts[f]
        for bits, shift in z._runs[f] or z._run_slot(f):
            k += g >> shift & bits  # disjoint bits: adding is OR
        return k

    def __iter__(self):
        return iter(self._z.cells)

    def __len__(self) -> int:
        return len(self._z.cells)


class ChamberComplex:
    """Cell model of the glued manifold over ``base``; see
    :func:`build_chamber_complex`.

    The constructor works out the facet stars, the face lattice and the cell
    counts from ``base``, under their caps.  ``cells`` is a sequence view of
    ``(face_index, representative)`` pairs, face by face in lattice order and
    by increasing representative within a face; ``cell_ids`` maps each cell
    back to its index.
    """

    def __init__(self, base: CombPolytope):
        self._stars, _ = _stars_pairs(base)
        self.base = base
        self.lattice = lattice = face_lattice(base)
        self.m = base.facet_count
        self.n = base.dim
        self.cells_by_dim = tuple(_cell_counts(lattice)[0])
        self.face_masks = lattice.masks
        self._starts = list(accumulate((_coset_count(self.m, mask) for mask in self.face_masks),
                                       initial=0))
        self._runs = [None] * len(self.face_masks)  # run tables, filled on first read
        self.cells = _View("chamber cells", self._starts[-1], self._cell, lambda: (
            (f, g) for f, mask in enumerate(self.face_masks)
            for g in _submasks(_bits(~mask & (1 << self.m) - 1))))
        self.cell_ids = _CellIds(self)

    def _run_slot(self, f: int):
        runs = self._runs[f] = _run_table(self.face_masks[f], self.m)
        return runs

    def _cell(self, k: int) -> tuple[int, int]:
        starts = self._starts
        f = bisect_right(starts, k) - 1
        k -= starts[f]
        g = 0
        for bits, shift in self._runs[f] or self._run_slot(f):
            g |= (k & bits) << shift
        return f, g

    def canonical(self, face_index: int, g: int) -> tuple[int, int]:
        """The cell containing the copies of a face point indexed by ``g``;
        arguments are refused as :meth:`translate` refuses them."""
        return self.translate(g, (face_index, 0))

    def chambers(self) -> range:
        return range(1 << self.m)

    def translate(self, g: int, cell: tuple[int, int]) -> tuple[int, int]:
        """Action of group element ``g`` on a cell ``(face index,
        representative)``.  Raises :class:`BadParameters` unless ``g`` and
        the representative lie in [0, 2^m), the face index in
        ``range(len(face_masks))``, and all three are of type ``int``, which
        a bool is not."""
        m = self.m
        try:
            f, rep = cell
            # of two ints, (g | rep) >> m is 0 exactly when both lie in [0, 2^m)
            if (type(g) is int and type(f) is int and type(rep) is int
                    and f >= 0 and not (g | rep) >> m):
                return f, (rep ^ g) & ~self.face_masks[f]
        except (TypeError, ValueError, IndexError):
            pass
        if type(g) is not int:
            raise BadParameters(f"group element must be an integer, got {g!r}")
        if g < 0 or g >> m:
            raise BadParameters(f"group element {g} is outside [0, 2^{m})")
        raise BadParameters(f"a cell is a pair of a face index below {len(self.face_masks)} "
                            f"and a representative in [0, 2^{m}), got {cell!r}")


def build_chamber_complex(p: CombPolytope) -> ChamberComplex:
    """The chamber complex over ``p``, with its cells as a view.

    The 2^m copies of a face glue along the cosets of the subgroup spanned
    by its facets, so its cells are the submasks of the complement of its
    facet mask, listed in increasing order: 2^(m-k) in codimension k.  No
    cell or run table is built here: ``cells[k]`` deposits the bits of k's
    rank within its face into that complement, run by run, and ``cell_ids``
    compacts them back.
    Iterating ``cells`` or ``cell_ids`` over ``_OBJECT_CAP`` cells raises
    ``GuardExceeded`` before any is built; over ``sys.maxsize`` cells the
    call itself does.
    """
    return ChamberComplex(p)


def euler_characteristic(z: ChamberComplex) -> int:
    """Alternating sum of cell counts."""
    _check_type("complex", z, ChamberComplex)
    return sum((-1) ** d * c for d, c in enumerate(z.cells_by_dim))


def connected_components(z: ChamberComplex) -> int:
    """Always one: chamber ``g`` meets ``g ^ (1 << i)`` across facet ``i``,
    so the chamber graph is the m-cube, which is connected."""
    _check_type("complex", z, ChamberComplex)
    return 1


class FixedPointSet(_Record, eq=False):
    """Components of the subcomplex over one facet (fixed set of its
    generator under the group action).

    ``count`` is the closed form 2^(m - |star|); ``components``, tuples of
    cells, is built on first read, and over ``_OBJECT_CAP`` cells raises
    ``GuardExceeded`` before any is built.  The constructor checks nothing:
    only :func:`fixed_point_components` builds one.
    """

    _fields = ("_z", "facet", "count")
    _hidden = ("_z",)

    @cached_property
    def components(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        z, i = self._z, self.facet
        cells = sum(_coset_count(z.m, mask) for mask in z.face_masks if mask >> i & 1)
        _check_work("fixed-set cells", cells, _OBJECT_CAP)
        span = z._stars[i]
        groups: dict[int, list] = {}
        for f, mask in enumerate(z.face_masks):  # reps ascending: cell-id order
            if mask >> i & 1:
                for g in _submasks(_bits(~mask & (1 << z.m) - 1)):
                    groups.setdefault(g & ~span, []).append((f, g))
        return tuple(tuple(grp) for grp in groups.values())


def fixed_point_components(z: ChamberComplex, i: int) -> FixedPointSet:
    """Cells over faces contained in facet ``i``, grouped by gluing.

    Those faces are cover-connected through the face {i}, so their cells
    glue along the cosets of the star of i: one component per coset.
    Components come in order of their first cell id, with their cells in
    id order.  A facet that is not an int (or is a bool) raises
    :class:`BadParameters`, one outside ``range(z.m)`` :class:`NoSuchFacet`.
    """
    _check_type("complex", z, ChamberComplex)
    _check_int("facet", i, 0, z.m, error=NoSuchFacet)
    return FixedPointSet(z, i, _coset_count(z.m, z._stars[i]))


def _parity_sign(g: int) -> int:
    return 1 - 2 * (g.bit_count() & 1)


def orientability(z: ChamberComplex):
    """Orient chambers by group-element parity.

    Adjacent chambers differ by one generator, hence get opposite signs, so
    the parity orientation is always consistent.  Returns the verdict
    together with a view of the sign of each chamber.
    """
    _check_type("complex", z, ChamberComplex)
    return True, _View("chamber signs", 1 << z.m, _parity_sign)


# ---------------------------------------------------------------------------
# doubling filtration


class EdgeRecord(_Record):
    """A boundary codimension-two cell of a filtration stage.

    ``facet_pair`` is the codimension-two face of the base polytope the cell
    lies over; ``pieces`` are the two stage facets meeting there.  Kind "I"
    means the pieces project to different facets of the base, kind "II" that
    they project to the same facet and differ by one doubled generator.
    """

    _fields = ("facet_pair", "rep", "kind", "pieces")


class EdgeTypeSummary(_Record):
    _fields = ("records", "type1", "type2")


class FiltrationStage(_Record):
    """Stage j of the doubling filtration: 2^j chambers, boundary made of
    one piece per (facet >= j, group element below 2^j).  ``subgroup`` and
    ``facets`` are views in increasing order (pieces by facet, then by
    group element).  ``repr`` leaves out ``edge_types``."""

    _fields = ("base", "j", "subgroup", "facets", "chamber_count", "cell_count",
               "boundary_components", "edge_types")
    _hidden = ("edge_types",)


def _coset_count(j: int, mask: int) -> int:
    """Cosets of the span of ``mask`` in the stage-j group of order 2^j."""
    return 1 << (j - (mask & ((1 << j) - 1)).bit_count())


def classify_edge_types(stage: FiltrationStage) -> EdgeTypeSummary:
    """Tag every boundary codimension-two cell of the stage.

    The cell over base face F_a of F_b (a < b) with representative r lies on
    the stage boundary exactly when b >= j.  If also a >= j the two stage
    facets through it are (a, r) and (b, r): different base facets, Type-I.
    If a < j they are (b, r) and (b, r ^ bit_a): the same base facet on both
    sides of the doubled generator a, Type-II.
    """
    _check_type("stage", stage, FiltrationStage)
    return stage.edge_types


def _edge_records(pairs: list[int], j: int) -> _View:
    """The stage-j edge records as a view: the boundary facet pairs (b >= j)
    in lattice order, each with its stage cells in increasing order."""
    kept = [pair for pair in pairs if pair >> j]
    starts = list(accumulate((_coset_count(j, pair) for pair in kept), initial=0))
    tables = [None] * len(kept)

    def record(k: int) -> EdgeRecord:
        t = bisect_right(starts, k) - 1
        a, b = _bits(kept[t])
        runs = tables[t]
        if runs is None:
            runs = tables[t] = _run_table(kept[t], j)
        r = _deposit(k - starts[t], runs)
        if a >= j:
            return EdgeRecord(facet_pair=(a, b), rep=r, kind="I", pieces=((a, r), (b, r)))
        return EdgeRecord(facet_pair=(a, b), rep=r, kind="II",
                          pieces=((b, r), (b, r | (1 << a))))

    return _View("filtration edge records", starts[-1], record)


def _stage_cell_counts(lattice: FaceLattice) -> list[int]:
    """Cells of stages 0..m by the doubling law, from one pass over the
    faces: stage j + 1 is two copies of stage j less one copy of the
    stage-j cells over the faces in facet j, 2^(j - c) over each such face
    with c of its facets below j."""
    m, n = lattice.polytope.facet_count, lattice.polytope.dim
    through = [[0] * n for _ in range(m)]  # [j][c]: faces in facet j, c facets below it
    for mask in lattice.masks:
        for c, j in enumerate(_bits(mask)):
            through[j][c] += 1
    counts = [len(lattice.masks)]
    for j, faces in enumerate(through):
        counts.append(2 * counts[-1] - sum(x << j - c for c, x in enumerate(faces[:j + 1])))
    return counts


def _boundary_counts(star: list[int]) -> list[int]:
    """Components of the stage-j boundary for j = 0..m, in one pass.

    The stage-j boundary's faces (those meeting a facet >= j) cover-connect
    along the components C of the facet graph on the facets >= j, and the
    cells over C glue along the union of C's stars: C adds
    2^(j - |span C below j|).  Going down from j = m, where the boundary is
    empty, facet j joins, in one union-find, the components holding a
    neighbour above it.  Every other component's span misses bit j, else
    it would hold a neighbour of j, so its term halves exactly: the running
    total loses the merged terms, halves and gains the new component's."""
    m = len(star)
    parent, span = list(range(m)), list(star)
    total, counts = 0, [0]
    for j in range(m - 1, -1, -1):
        roots = set()
        for x in _bits(star[j] >> j + 1):
            x += j + 1
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            roots.add(x)
        total -= sum(_coset_count(j + 1, span[r]) for r in roots)
        for r in roots:
            parent[r] = j
            span[j] |= span[r]
        total = (total >> 1) + _coset_count(j, span[j])
        counts.append(total)
    return counts[::-1]


def doubling_filtration(p: CombPolytope) -> list[FiltrationStage]:
    """All stages 0..m of the doubling filtration.

    Stage j keeps the first j generators: a face's stage cells are the
    cosets of its facet span in that group; for the boundary see
    :func:`_boundary_counts`.  Each stage's group, pieces and edge
    records are views: no piece or record is built until one is read, and
    iterating a view over ``_OBJECT_CAP`` objects raises ``GuardExceeded``
    before the first; over ``sys.maxsize`` the call itself does.
    """
    star, pairs = _stars_pairs(p)
    cell_counts = _stage_cell_counts(face_lattice(p))
    stages = []
    for j, row in enumerate(_stage_rows(star, pairs)):
        low = (1 << j) - 1
        stages.append(FiltrationStage(
            base=p, j=j, subgroup=_View("stage group elements", 1 << j, int),
            facets=_View("filtration pieces", row["facets"],
                         lambda k, j=j, low=low: (j + (k >> j), k & low)),
            chamber_count=row["chambers"],
            cell_count=cell_counts[j],
            boundary_components=row["boundary_components"],
            edge_types=EdgeTypeSummary(
                records=_edge_records(pairs, j),
                type1=row["type1_edges"], type2=row["type2_edges"])))
    return stages


# ---------------------------------------------------------------------------
# summary


def _cell_counts(lattice: FaceLattice) -> tuple[list[int], int]:
    """Cells per dimension, 2^(m-k) over each face of codimension k, and
    their alternating sum, the Euler characteristic; no cell is built."""
    m, n = lattice.polytope.facet_count, lattice.polytope.dim
    cells_by_dim = [0] * (n + 1)
    for mask in lattice.masks:
        cells_by_dim[n - mask.bit_count()] += _coset_count(m, mask)
    return cells_by_dim, sum((-1) ** d * c for d, c in enumerate(cells_by_dim))


def _stars_pairs(p: CombPolytope) -> tuple[list[int], list[int]]:
    """The facet stars and the codimension-two faces (the facet pairs in a
    star, in lattice order), with the count rows' work capped (see
    ``_WORK_CAP``): a caller that needs the face lattice builds it after."""
    _check_type("polytope", p, CombPolytope)
    m = p.facet_count
    star = _facet_stars(p)
    pairs = [1 << a | 1 << b for a, s in enumerate(star) for b in _bits(s) if b > a]
    _check_work("chamber count rows", (m + 1) * (m + len(pairs)), _WORK_CAP)
    return star, pairs


def _filtration_rows(m: int, pairs: list[int]):
    """Per stage j, in turn, its piece and edge-type counts (edge types: see
    :func:`classify_edge_types`).  One pass over the codimension-two faces
    F_a, F_b (a < b) counts them by a and by b; with A(j) and B(j) those
    with a < j and with b < j, Type-I are (E - A(j)) << j and Type-II
    (A(j) - B(j)) << j >> 1."""
    a_at, b_at = [0] * (m + 1), [0] * (m + 1)  # [k]: faces with a, b = k - 1
    for pair in pairs:
        a_at[(pair & -pair).bit_length()] += 1
        b_at[pair.bit_length()] += 1
    for j, a_below, b_below in zip(range(m + 1), accumulate(a_at), accumulate(b_at)):
        yield {"j": j, "facets": (m - j) << j,
               "type1_edges": (len(pairs) - a_below) << j,
               "type2_edges": (a_below - b_below) << j >> 1}


def _stage_rows(star: list[int], pairs: list[int]) -> list[dict]:
    """The filtration rows with each stage's chamber and boundary-component
    counts: the ``filtration`` command's rows and the stage fields of
    :func:`doubling_filtration`."""
    return [{**row, "chambers": 1 << row["j"], "boundary_components": count}
            for row, count in zip(_filtration_rows(len(star), pairs), _boundary_counts(star))]


def _fixed_set_rows(star: list[int]) -> list[dict]:
    """Per facet, its fixed set's component count, 2^(m - |star|)."""
    return [{"facet": i, "components": _coset_count(len(star), s)} for i, s in enumerate(star)]


def complex_summary(p: CombPolytope) -> dict:
    """Everything the moment-angle report needs, as one JSON-ready dict:
    rows from the facet stars and the codimension-two faces, their work
    capped first, then the cell counts from the face lattice.  No cell,
    piece or record is built."""
    star, pairs = _stars_pairs(p)
    m = len(star)
    cells_by_dim, euler = _cell_counts(face_lattice(p))
    return {"m": m, "components": 1, "orientable": True,
            "fixed_sets": _fixed_set_rows(star),
            "filtration": list(_filtration_rows(m, pairs)),
            "cells_by_dim": cells_by_dim, "euler": euler}
