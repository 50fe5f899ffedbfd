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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoSuchFacet, _check_work
from .polytope import _WORK_CAP, CombPolytope, FaceLattice, _bits, _pair_sets, face_lattice


# Objects (cells, or filtration pieces plus edge records) a materialising
# call may build.  Peak RSS grows by ~210 B per cell (m = 16) and ~300 B per
# piece or record (m = 18), so an admitted call stays under 1 GB.
_OBJECT_CAP = 3_000_000


def _facet_stars(p: CombPolytope) -> list[int]:
    """Per facet i, the mask of i and every facet sharing a vertex with it."""
    return [sum(1 << j for j in row) | 1 << i
            for i, row in enumerate(_pair_sets(p.facet_count, p.vertices))]


class ChamberComplex:
    """Cell model of the glued manifold, built by :func:`build_chamber_complex`."""

    def __init__(self, base: CombPolytope, lattice: FaceLattice,
                 cells, cell_ids, cells_by_dim):
        self.base = base
        self.lattice = lattice
        self.m = base.facet_count
        self.n = base.dim
        self.cells = cells              # tuple of (face_index, representative)
        self.cell_ids = cell_ids        # (face_index, representative) -> cell id
        self.cells_by_dim = cells_by_dim
        self.face_masks = lattice.masks

    def canonical(self, face_index: int, g: int) -> tuple[int, int]:
        """The cell containing the copies of a face point indexed by ``g``."""
        return face_index, g & ~self.face_masks[face_index]

    def chambers(self) -> range:
        return range(1 << self.m)

    def translate(self, g: int, cell: tuple[int, int]) -> tuple[int, int]:
        """Action of group element ``g`` on a cell."""
        face_index, rep = cell
        return self.canonical(face_index, rep ^ g)


def build_chamber_complex(p: CombPolytope) -> ChamberComplex:
    """Enumerate all cells, face by face.

    The 2^m copies of a face glue along the cosets of the subgroup spanned
    by its facets, so its cells are the submasks of the complement of its
    facet mask, listed in increasing order: 2^(m-k) in codimension k.
    Over ``_OBJECT_CAP`` cells raise ``GuardExceeded`` before any is built.
    """
    lattice, counts = _chamber_counts(p)
    _check_work("chamber cells", sum(counts["cells_by_dim"]), _OBJECT_CAP)
    cells = tuple((face_index, g) for face_index, mask in enumerate(lattice.masks)
                  for g in _stage_cell_reps(p.facet_count, mask))
    cell_ids = {cell: k for k, cell in enumerate(cells)}
    return ChamberComplex(p, lattice, cells, cell_ids,
                          tuple(counts["cells_by_dim"]))


def euler_characteristic(z: ChamberComplex) -> int:
    """Alternating sum of cell counts."""
    return sum((-1) ** d * c for d, c in enumerate(z.cells_by_dim))


def connected_components(z: ChamberComplex) -> int:
    """Always one: chamber ``g`` meets ``g ^ (1 << i)`` across facet ``i``,
    so the chamber graph is the m-cube, which is connected."""
    return 1


@dataclass(frozen=True)
class FixedPointSet:
    """Components of the subcomplex over one facet (fixed set of its
    generator under the group action)."""

    facet: int
    components: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def count(self) -> int:
        return len(self.components)


def fixed_point_components(z: ChamberComplex, i: int) -> FixedPointSet:
    """Cells over faces contained in facet ``i``, grouped by gluing.

    Those faces are cover-connected through the face {i}, so their cells
    glue along the cosets of the star of i: one component per coset.
    Components come in order of their first cell id, with their cells in
    id order.
    """
    if not 0 <= i < z.m:
        raise NoSuchFacet(f"facet {i} of {z.m}")
    span = _facet_stars(z.base)[i]
    groups: dict[int, list] = {}
    for f, mask in enumerate(z.face_masks):  # reps ascending: cell-id order
        if mask >> i & 1:
            for g in _stage_cell_reps(z.m, mask):
                groups.setdefault(g & ~span, []).append((f, g))
    components = tuple(tuple(grp) for grp in groups.values())
    return FixedPointSet(facet=i, components=components)


def orientability(z: ChamberComplex):
    """Orient chambers by group-element parity.

    Adjacent chambers differ by one generator, hence get opposite signs, so
    the parity orientation is always consistent.  Returns the verdict
    together with the sign of each chamber.
    """
    return True, [1 - 2 * (g.bit_count() & 1) for g in z.chambers()]


# ---------------------------------------------------------------------------
# doubling filtration


@dataclass(frozen=True)
class EdgeRecord:
    """A boundary codimension-two cell of a filtration stage.

    ``facet_pair`` is the codimension-two face of the base polytope the cell
    lies over; ``pieces`` are the two stage facets meeting there.  Kind "I"
    means the pieces project to different facets of the base, kind "II" that
    they project to the same facet and differ by one doubled generator.
    """

    facet_pair: tuple[int, int]
    rep: int
    kind: str
    pieces: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class EdgeTypeSummary:
    records: tuple[EdgeRecord, ...]
    type1: int
    type2: int


@dataclass(frozen=True)
class FiltrationStage:
    """Stage j of the doubling filtration: 2^j chambers, boundary made of
    one piece per (facet >= j, group element below 2^j)."""

    base: CombPolytope
    j: int
    subgroup: tuple[int, ...]
    facets: tuple[tuple[int, int], ...]
    chamber_count: int
    cell_count: int
    boundary_components: int
    edge_types: EdgeTypeSummary = field(repr=False)


def _coset_count(j: int, mask: int) -> int:
    """Cosets of the span of ``mask`` in the stage-j group of order 2^j."""
    return 1 << (j - (mask & ((1 << j) - 1)).bit_count())


def _stage_cell_reps(j: int, mask: int):
    """Canonical reps of stage-j cells over a face with facet bitmask ``mask``."""
    low = ((1 << j) - 1) & ~mask
    reps = [0]
    bit = 1
    while bit <= low:
        if bit & low:
            reps += [r | bit for r in reps]
        bit <<= 1
    return reps


def classify_edge_types(stage: FiltrationStage) -> EdgeTypeSummary:
    """Tag every boundary codimension-two cell of the stage.

    The cell over base face F_a of F_b (a < b) with representative r lies on
    the stage boundary exactly when b >= j.  If also a >= j the two stage
    facets through it are (a, r) and (b, r): different base facets, Type-I.
    If a < j they are (b, r) and (b, r ^ bit_a): the same base facet on both
    sides of the doubled generator a, Type-II.
    """
    return stage.edge_types


def _build_edge_types(lattice: FaceLattice, j: int, row: dict) -> EdgeTypeSummary:
    records = []
    for mask in lattice.masks:
        if mask.bit_count() != 2:
            continue
        a, b = _bits(mask)
        if b < j:
            continue  # fully doubled: interior to the stage
        for r in _stage_cell_reps(j, mask):
            if a >= j:
                rec = EdgeRecord(facet_pair=(a, b), rep=r, kind="I",
                                 pieces=((a, r), (b, r)))
            else:
                rec = EdgeRecord(facet_pair=(a, b), rep=r, kind="II",
                                 pieces=((b, r), (b, r | (1 << a))))
            records.append(rec)
    return EdgeTypeSummary(records=tuple(records), type1=row["type1_edges"],
                           type2=row["type2_edges"])


def _boundary_components(star: list[int], j: int) -> int:
    """Components of the stage-j boundary.  Its faces (those meeting a
    facet >= j) cover-connect along the components C of the facet graph on
    the facets >= j; the cells over C glue along the union of C's stars."""
    left, total = ((1 << len(star)) - 1) >> j << j, 0  # unreached facets >= j
    while left:
        span = todo = left & -left
        while todo:
            x = todo.bit_length() - 1
            left ^= 1 << x
            span |= star[x]
            todo = span & left
        total += _coset_count(j, span)
    return total


def doubling_filtration(p: CombPolytope) -> list[FiltrationStage]:
    """All stages 0..m of the doubling filtration.

    Stage j keeps the first j generators: a face's stage cells are the
    cosets of its facet span in that group; for the boundary see
    :func:`_boundary_components`.  Over ``_OBJECT_CAP`` pieces plus edge
    records raise ``GuardExceeded`` before any is built.
    """
    m = p.facet_count
    lattice, counts = _chamber_counts(p)
    _check_work("filtration pieces and edge records",
                sum(row["facets"] + row["type1_edges"] + row["type2_edges"]
                    for row in counts["filtration"]), _OBJECT_CAP)
    stages = []
    for j, row in enumerate(counts["filtration"]):
        subgroup = tuple(range(1 << j))
        stages.append(FiltrationStage(
            base=p, j=j, subgroup=subgroup,
            facets=tuple((i, g) for i in range(j, m) for g in subgroup),
            chamber_count=1 << j,
            cell_count=sum(_coset_count(j, mask) for mask in lattice.masks),
            boundary_components=row["boundary_components"],
            edge_types=_build_edge_types(lattice, j, row)))
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


def _chamber_counts(p: CombPolytope) -> tuple[FaceLattice, dict]:
    """The face lattice and every number the chamber commands report, from
    its facet masks and the facet stars alone (edge types: see
    :func:`classify_edge_types`); no cell, piece or record is built, and the
    rows' work is capped (see ``_WORK_CAP``) before the lattice is built: the
    codimension-two faces are the facet pairs in a star."""
    m = p.facet_count
    star = _facet_stars(p)
    pairs = [1 << a | 1 << b for a, s in enumerate(star) for b in _bits(s) if b > a]
    _check_work("chamber count rows", (m + 1) * (m + len(pairs)), _WORK_CAP)
    lattice = face_lattice(p)
    cells_by_dim, euler = _cell_counts(lattice)
    filtration = []
    for j in range(m + 1):
        low = (1 << j) - 1
        filtration.append({
            "j": j, "facets": (m - j) << j, "chambers": 1 << j,
            "boundary_components": _boundary_components(star, j),
            "type1_edges": sum(not pair & low for pair in pairs) << j,
            "type2_edges": sum(bool(pair & low and pair >> j)
                               for pair in pairs) << j >> 1})
    return lattice, {
        "m": m,
        "cells_by_dim": cells_by_dim,
        "euler": euler,
        "components": 1,
        "orientable": True,
        "fixed_sets": [{"facet": i, "components": _coset_count(m, s)}
                       for i, s in enumerate(star)],
        "filtration": filtration,
    }


def complex_summary(p: CombPolytope) -> dict:
    """Everything the moment-angle report needs, as one JSON-ready dict."""
    _, summary = _chamber_counts(p)
    summary["filtration"] = [
        {key: row[key] for key in ("j", "facets", "type1_edges", "type2_edges")}
        for row in summary["filtration"]]
    return summary
