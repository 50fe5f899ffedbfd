"""Half-space presentations and the quadric intersection model.

A presentation keeps the inward normals as columns of an n x m matrix A and
an offset vector b, so the region is { x : A^t x + b >= 0 }.  The rows of
the relation matrix span the linear relations among the normals; replacing
each affine coordinate by a square turns those relations into the m - n
quadrics whose common zero set is the glued manifold embedded in R^m, with
the sign-flip action of (Z2)^m restricted from the ambient space.

Every accept/reject decision reads one frame, ``HRep._frame``, so verdicts
do not change under translation, positive row scaling or row permutation;
payload numbers are still computed from the input's A and b.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    BadParameters,
    EmptyInterior,
    NotOnVariety,
    NotSimplePresentation,
    OutsidePolytope,
    ParseError,
    RankDeficient,
    RedundantHalfspace,
    Unbounded,
    _check_int,
    _check_type,
    _check_work,
    _Record,
)
from .polytope import validate_polytope

# Caps: vertex walk steps, the upper-bound-theorem vertex count times m n
# (for m <= 54 the former cap of 10^6 n-subsets admitted at most 1.24e8, at
# m = 43, n = 38), and sampling steps; a nondegeneracy sample takes at most
# one SVD of its (m - n) x m gradients, ~m^2 (m - n) steps, plus numpy call
# overhead worth ~20 000 steps (a second, rank SVD runs only for the samples
# left uncertified, and the vertex bounds spare most samples the first).
# Stacked point draws made a sample cheaper than that allowance, which
# stays: a smaller one would admit inputs the cap refuses.  Samples are
# taken in stacks of
# _RANK_CHUNK, which bounds the stacked gradients' memory; ray shots are
# taken in blocks of as many rows, and the walk expands blocks of
# _RANK_CHUNK^2 / max(m, n^2) subsets, whose stacked slacks and n x n
# matrices then hold at most _RANK_CHUNK^2 entries and rates n times that.
# LP steps: each LP pivots a tableau of (n + 1)(m + n) entries (the span
# and radius LPs (n + 2)(m + n + 2)), and Bland's rule took ~m/4 pivots per
# LP on tangent presentations, so m pivots are predicted (~4 ns a step on a
# 2-vCPU Xeon VM).
_VERTEX_CAP = 125 * 10 ** 6
_SAMPLE_CAP = 10 ** 9
_LP_CAP = 10 ** 9
_RANK_CHUNK = 256
_TOL = 1e-9  # the one tolerance of every accept/reject decision, see HRep._frame


class HRep(_Record, eq=False):
    """Validated bounded full-dimensional presentation with m half-spaces:
    ``A`` is n x m, its column i the inward normal a_i, and ``b`` holds the
    m offsets.

    The constructor runs :func:`make_hrep` on the columns of ``A`` and on
    ``b``, with its errors, keeps its read-only copies, and raises
    :class:`ParseError` when ``A`` is not n x m or ``n`` or ``m`` is below 1,
    :class:`BadParameters` when either is not an int (or is a bool).  What the
    package builds skips these checks.
    """

    _fields = ("n", "m", "A", "b")

    def __init__(self, n: int, m: int, A, b):
        _check_int("n", n, 1, error=ParseError)
        _check_int("m", m, 1, error=ParseError)
        try:
            rows = np.asarray(A, dtype=float).T
        except (TypeError, ValueError, OverflowError) as e:
            raise ParseError(f"normals must be an array of numbers: {e}") from e
        if rows.shape != (m, n):
            raise ParseError(f"normals of shape {rows.T.shape}, not {n} x {m}")
        h = make_hrep(rows, b)
        for name in self._fields:
            object.__setattr__(self, name, getattr(h, name))

    def values(self, x) -> np.ndarray:
        """The m affine forms <a_i, x> + b_i at a point, which must be a
        finite vector of length n (else :class:`BadParameters`)."""
        return self.A.T @ _finite_vector(x, self.n) + self.b

    @cached_property
    def _frame(self) -> _Frame:
        """The numeric policy: unit rows u_i = a_i/|a_i|, offsets c_i = b_i/|a_i|.

        Seen from the least-squares solution of U x = -c, which moves with
        every translation, the offsets c' = U x + c ignore translation and
        row scaling.  Lengths are decided against 1e-9 * max(1, max|c'|) plus
        8 (n + 1) eps max|c|: each c'_i sums n + 1 terms of size about max|c|
        (the centre lies that far out), and a vertex solved from n of them is
        off by a few times that.  Determinants, singular values and pivots of
        unit rows are dimensionless and are decided against 1e-9 itself.
        """
        norms = self._norms
        unit, c = self.A.T / norms[:, None], self.b / norms
        offsets = unit @ np.linalg.lstsq(unit, -c, rcond=None)[0] + c
        scale = max(1.0, float(np.abs(offsets).max()))
        rounding = 8 * (self.n + 1) * np.finfo(float).eps * float(np.abs(c).max())
        return _Frame(norms=norms, U=unit, c=offsets, rounding=rounding,
                      thr=_TOL * scale + rounding)

    @cached_property
    def _norms(self) -> np.ndarray:
        """The row lengths |a_i|, each within rounding wherever it is a float."""
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(self.A, axis=0)
        # squares over- or underflowed (|a| > ~1e154, < ~1e-154): |a| = s |a/s|, s = max|a|
        far = np.isinf(norms) | (norms < math.sqrt(np.finfo(float).tiny))
        if far.any():
            s = np.abs(self.A[:, far]).max(axis=0)
            with np.errstate(over="ignore"):
                norms[far] = s * np.linalg.norm(self.A[:, far] / s, axis=0)
        return norms

    @cached_property
    def _vertices(self):
        """``enumerate_vertices``' result, walked once per presentation."""
        return _walk_vertices(self)

    @cached_property
    def _relations(self) -> QuadricSystem:
        """``relation_matrix``' result, reduced once per presentation."""
        return _reduce_relations(self)


class _Frame(_Record, eq=False):
    """``norms`` |a_i|, ``U`` the m x n unit rows, ``c`` the offsets c' seen
    from the recentring point, ``rounding`` the length lost to rounding in
    <a_i, x> + b_i, over |a_i|, and ``thr`` the one length threshold."""

    _fields = ("norms", "U", "c", "rounding", "thr")


def _finite_vector(x, length: int) -> np.ndarray:
    """``x`` as a float vector, or :class:`BadParameters` unless it is a
    finite vector of ``length`` entries."""
    try:
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or x.shape != (length,) or not np.isfinite(x).all():
        raise BadParameters(f"the point must be a finite vector of length {length}")
    return x


def _numeric_rank(matrix):
    """Singular values above 1e-9, relative to the largest once it passes 1;
    of a stack of matrices, one rank per matrix."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    return np.sum(svals > _TOL * np.maximum(1.0, svals[..., :1]), axis=-1)


class QuadricSystem(_Record, eq=False):
    """Coefficients of the m - n equations sum_k gamma_jk y_k^2 = rhs_j:
    ``gamma`` is (m - n) x m, of full row rank, with gamma @ A^t = 0;
    ``norms`` are the frame's row lengths |a_k| (see ``HRep._norms``) and
    ``rounding`` the allowance per equation (see :func:`relation_matrix`)."""

    _fields = ("m", "gamma", "rhs", "norms", "rounding")
    rounding = 0.0

    def residual(self, y) -> np.ndarray:
        """The m - n equations' residuals at a point, which must be a finite
        vector of length m (else :class:`BadParameters`)."""
        y = _finite_vector(y, self.m)
        return self.gamma @ (y * y) - self.rhs

    @cached_property
    def _rowmax(self) -> np.ndarray:
        """max_k |gamma_jk a_k| per equation: the row scales of ``_unit_gamma``."""
        return np.abs(self.gamma * self.norms).max(axis=1)

    @cached_property
    def _unit_gamma(self) -> np.ndarray:
        """gamma diag(sqrt|a_k|) / max_k |gamma_jk a_k|; every rank is decided
        on the gradients H = 2 (this) y.

        They are the gradients of the relations among unit rows at
        y_k / sqrt|a_k|, each scaled to max coefficient 1: scaling half-space
        k by lambda > 0 divides column k of gamma by lambda, multiplies |a_k|
        by lambda and y_k by sqrt(lambda), so H does not move with it.
        """
        return self.gamma * np.sqrt(self.norms) / self._rowmax[:, None]


class EmbeddedPoint(_Record, eq=False):
    """A point of the quadric variety, optionally with its polytope source."""

    _fields = ("y", "source")
    source = None


# ---------------------------------------------------------------------------
# construction


def _simplex(M, r, cost):
    """min cost·λ subject to M λ = r and λ >= 0, by a dense two-phase tableau.

    Returns ``("optimal", value, basis)``, ``("infeasible", nan, basis)`` or
    ``("unbounded", nan, basis)``, where basis lists the column basic in each
    row, artificials numbered from ``M.shape[1]``.  Bland's rule picks the
    lowest entering index and, among ratio-test ties, the lowest basic index,
    so it cannot cycle.  Phase I starts from one artificial column per row and
    minimises their sum.
    """
    k, N = M.shape
    sign = np.where(r < 0, -1.0, 1.0)
    T = np.zeros((k + 1, N + k + 1))
    T[:k, :N], T[:k, N:-1], T[:k, -1] = M * sign[:, None], np.eye(k), r * sign
    T[k] = -T[:k].sum(axis=0)
    T[k, N:-1] = 0.0
    basis = list(range(N, N + k))

    def pivot(i, j):
        T[i] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        T[:] -= np.outer(col, T[i])
        basis[i] = int(j)

    def optimise(eps):  # only the N real columns enter; False when unbounded
        while (enter := np.flatnonzero(T[k, :N] < -eps)).size:
            rows = np.flatnonzero(T[:k, enter[0]] > _TOL)
            if not rows.size:
                return False
            ratios = T[rows, -1] / T[rows, enter[0]]
            pivot(min(rows[ratios <= ratios.min() + _TOL], key=basis.__getitem__),
                  enter[0])
        return True

    optimise(_TOL)
    if -T[k, -1] > _TOL * max(1.0, float(np.abs(r).sum())):
        return "infeasible", math.nan, basis
    for i in range(k):  # drive the artificials left at level zero out of the basis
        if basis[i] >= N and (cols := np.flatnonzero(np.abs(T[i, :N]) > _TOL)).size:
            pivot(i, cols[0])
    costs = np.r_[cost, np.zeros(k)][basis]
    T[k, :N], T[k, -1] = cost - costs @ T[:k, :N], -costs @ T[:k, -1]
    if not optimise(_TOL * max(1.0, float(np.abs(cost).max(initial=0.0)))):
        return "unbounded", math.nan, basis
    return "optimal", float(-T[k, -1]), basis


def make_hrep(rows, offsets) -> HRep:
    """Validate m raw normals (rows) and offsets; see :func:`parse_hrep`.

    Boundedness and the Chebyshev radius are one LP each, run after their
    predicted work is checked against ``_LP_CAP``.  A row's irredundancy is
    certified by a ray shot from the Chebyshev centre (see
    :func:`_ray_certified`); only the rows left uncertified run their
    redundancy LP, in ascending order, after their predicted work is checked
    against ``_LP_CAP`` too.  The first redundant row raises.  So does,
    before any LP, the first row whose numbers the float frame cannot hold,
    as a :class:`ParseError` naming it, and first of all rows or offsets
    that numpy cannot read as float arrays.
    """
    try:
        arows = np.asarray(rows, dtype=float)
        b = np.asarray(offsets, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"normals and offsets must be arrays of numbers: {e}") from e
    if arows.ndim != 2 or b.ndim != 1 or arows.shape[0] != b.shape[0]:
        raise ParseError("need an m x n matrix of normals and m offsets")
    m, n = arows.shape
    if m == 0 or n == 0:
        raise ParseError("empty presentation")
    if not (np.isfinite(arows).all() and np.isfinite(b).all()):
        raise ParseError("non-finite entries")

    if not arows.any(axis=1).all():
        raise ParseError(f"row {int(np.argmin(arows.any(axis=1)))} has a zero normal")
    A, b = arows.T.copy(), b.copy()
    A.setflags(write=False)
    b.setflags(write=False)
    h = HRep._trusted(n, m, A, b)
    # rows the float frame cannot hold: subnormal entries alone solve to NaN
    # coordinates, and a relation's coefficients are ratios of lengths and
    # its terms sum up to the lengths' sum
    norms, tiny = h._norms, np.finfo(float).tiny
    with np.errstate(over="ignore"):
        out_of_range = [
            (np.abs(A).max(axis=0) < tiny, "its largest entry is subnormal"),
            (~np.isfinite(norms), "its length overflows"),
            (~np.isfinite(b / norms), "its offset over its length overflows"),
            (norms < norms.max() * tiny, "its length over the longest row's is subnormal"),
            (np.isinf(norms.sum()) & (norms == norms.max()), "the lengths' sum overflows"),
        ]
    for lost, why in out_of_range:
        if lost.any():
            raise ParseError(f"row {int(np.argmax(lost))} is out of float range: {why}")
    f = h._frame

    # Bounded iff the normals positively span R^n: full rank plus weights
    # w = 1 + v >= 1 with U^t w = 0.
    if _numeric_rank(f.U) < n:
        raise Unbounded("inward normals do not span the space")
    _check_work(f"span and radius LPs of {m} half-spaces in dimension {n}, times "
                "(n + 2)(m + n + 2) m pivot steps", 2 * (n + 2) * (m + n + 2) * m, _LP_CAP)
    ones = np.ones(m)
    if _simplex(f.U.T, -f.U.T @ ones, np.zeros(m))[0] != "optimal":
        raise Unbounded("inward normals do not positively span the space")

    # Full-dimensional iff the Chebyshev radius max{t : U x + c' >= t 1} is
    # positive; it equals min{c' λ : U^t λ = 0, 1 λ = 1, λ >= 0}.
    status, radius, basis = _simplex(np.vstack([f.U.T, ones]), np.r_[np.zeros(n), 1.0], f.c)
    if status != "optimal" or radius <= f.thr:
        raise EmptyInterior("no interior point within tolerance")

    # Irredundant iff dropping the inequality exposes points violating it:
    # min{u_i x + c'_i : U_keep x + c'_keep >= 0} = c'_i - min{c'_keep λ :
    # U_keep^t λ = u_i, λ >= 0}, and an infeasible dual means no minimum.
    todo = [int(i) for i in np.flatnonzero(~_ray_certified(f, basis))]
    _check_work(f"{len(todo)} redundancy LPs of {m} half-spaces in dimension {n}, "
                "times (n + 1)(m + n) m pivot steps", len(todo) * (n + 1) * (m + n) * m,
                _LP_CAP)
    for i in todo:
        keep = np.arange(m) != i
        status, value, _ = _simplex(f.U[keep].T, f.U[i], f.c[keep])
        if status == "infeasible":
            continue  # unbounded below without row i: certainly irredundant
        if status != "optimal":
            raise ParseError(f"LP solver failed on redundancy check {i}")
        if f.c[i] - value >= -f.thr:
            raise RedundantHalfspace(i)
    return h


def _ray_certified(f: _Frame, basis) -> np.ndarray:
    """Rows certified irredundant by ray shots (Clarkson, FOCS 1994).

    The radius LP's optimal basis names n + 1 rows at one distance t from
    the Chebyshev centre x0: u_j x0 - t = -c'_j.  From x0 the ray along
    -u_i reaches row j, where u_j u_i > 0, at time slack_j / (u_j u_i), and
    moves away from every other row.  At the first such time over j != i the
    point keeps every row but i, where it reads slack_i minus that time;
    below -thr it is a point the redundancy LP, with its own margin, finds
    too.  A ray that reaches no other row certifies row i as well.  No row is
    certified when the basis does not fix x0 or a recomputed slack
    U x0 + c' is negative.
    """
    m, n = f.U.shape
    certified = np.zeros(m, dtype=bool)
    if max(basis) >= m:  # an artificial column left in the basis
        return certified
    system = np.c_[f.U[basis], -np.ones(n + 1)]
    if abs(np.linalg.det(system)) <= _TOL:
        return certified
    slack = f.U @ np.linalg.solve(system, -f.c[basis])[:n] + f.c
    if slack.min() < 0:
        return certified
    for lo in range(0, m, _RANK_CHUNK):
        block = slice(lo, lo + _RANK_CHUNK)
        dots = f.U[block] @ f.U.T
        np.fill_diagonal(dots[:, block], 0.0)  # row i does not stop its own ray
        with np.errstate(over="ignore"):  # an infinite hit time: never reached
            hits = np.divide(slack, dots, out=np.full_like(dots, np.inf), where=dots > 0)
        certified[block] = slack[block] - hits.min(axis=1) < -f.thr
    return certified


def parse_hrep(text: str) -> HRep:
    """Parse the wire format: first line ``n m``, then m rows ``a_1 .. a_n b``.

    Raises :class:`Unbounded` when the normals do not positively span,
    :class:`EmptyInterior` when the region has no interior, and
    :class:`RedundantHalfspace` for the first row that does not bound a
    facet, and :class:`GuardExceeded` when the span and radius LPs, or the
    redundancy LPs left after the ray shots, would pass ``_LP_CAP`` (see
    :func:`make_hrep`).  Text that is not a ``str`` raises :class:`ParseError`.
    """
    if not isinstance(text, str):
        raise ParseError(f"half-space text must be a str, got {type(text).__name__}")
    lines = [ln for ln in (s.strip() for s in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty half-space file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as e:
        raise ParseError(f"bad header {lines[0]!r}") from e
    if len(lines) - 1 != m:
        raise ParseError(f"expected {m} rows, got {len(lines) - 1}")
    rows, offs = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n + 1:
            raise ParseError(f"expected {n + 1} numbers per row, got {ln!r}")
        try:
            vals = [float(x) for x in parts]
        except ValueError as e:
            raise ParseError(f"bad number in row {ln!r}") from e
        rows.append(vals[:n])
        offs.append(vals[n])
    return make_hrep(rows, offs)


def hrep_to_text(h: HRep) -> str:
    lines = [f"{h.n} {h.m}"]
    for i in range(h.m):
        entries = [repr(float(v)) for v in h.A[:, i]] + [repr(float(h.b[i]))]
        lines.append(" ".join(entries))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# vertex enumeration


def enumerate_vertices(h: HRep):
    """Vertices of the region, by an edge walk, computed once per presentation.

    Returns the validated incidence polytope together with the read-only
    coordinate array aligned with its vertex order.  Raises
    :class:`NotSimplePresentation` when some point lies on more than n
    hyperplanes within tolerance.
    """
    _check_type("presentation", h, HRep)
    return h._vertices


def _walk_vertices(h: HRep):
    """The edge walk (Avis & Fukuda, 1992) in the unit-row frame, one
    breadth-first layer at a time.

    Its predicted work, the upper-bound-theorem vertex count times m n, is
    checked against ``_VERTEX_CAP`` before any LP.  The start is an optimal
    basis of one LP, min u_0 z over the region as its dual min{c' λ :
    U^t λ = u_0, λ >= 0}: the simplex multipliers of any optimal basis solve
    it at a vertex.  Each visited n-subset passes the checks that decide a
    vertex: a determinant above 1e-9, no row violated by more than the frame's
    threshold, and no more than its own n rows within it, else
    :class:`NotSimplePresentation`.  From a vertex, column k of U_sub^-1
    leaves row k and runs along the other n - 1; the first row it reaches
    replaces row k, which gives the neighbour on that edge.  Coordinates are
    solved from the input's A and b on the sorted subset.  A layer is
    expanded in blocks of ``_RANK_CHUNK^2 / max(m, n^2)`` subsets with stacked
    ``det``, ``solve`` and ``inv``, which give each subset the bits of a
    call on it alone.

    Why a degenerate point is never missed: the vertex-edge graph of a
    polytope is connected, and at a vertex that passed the checks the n edges
    leaving it are exactly these n directions, each walked to its other end.
    So on a graph path from the start to a degenerate point, the walk visits
    every vertex up to the first degenerate one, layer by layer, and raises
    there; which degenerate point it names depends on the visiting order.
    """
    n, m = h.n, h.m
    bound = math.comb(m - (n + 1) // 2, n // 2) + math.comb(m - n // 2 - 1, (n + 1) // 2 - 1)
    _check_work(f"{bound} vertices of {m} half-spaces in dimension {n}, "
                "times m n walk steps", bound * m * n, _VERTEX_CAP)
    f = h._frame
    status, _, basis = _simplex(f.U.T, f.U[0], f.c)
    layer = [tuple(sorted(basis))] if status == "optimal" and max(basis) < m else []
    seen = set(layer)
    found: dict[tuple[int, ...], np.ndarray] = {}
    block, diag = max(1, _RANK_CHUNK * _RANK_CHUNK // max(m, n * n)), np.arange(n)
    while layer:
        ahead = []
        for lo in range(0, len(layer), block):
            subs = np.array(layer[lo:lo + block])
            Us = f.U[subs]
            keep = np.abs(np.linalg.det(Us)) > _TOL  # unit rows: Hadamard bound 1
            subs, Us = subs[keep], Us[keep]
            vals = (f.U @ np.linalg.solve(Us, -f.c[subs][..., None]))[..., 0] + f.c
            vals[np.arange(len(subs))[:, None], subs] = 0.0  # a subset's own rows hold
            keep = vals.min(axis=1, initial=np.inf) >= -f.thr
            subs, Us, vals = subs[keep], Us[keep], vals[keep]
            tight = np.abs(vals) <= f.thr
            if (over := np.flatnonzero(tight.sum(axis=1) > n)).size:
                active = tuple(int(i) for i in np.flatnonzero(tight[over[0]]))
                raise NotSimplePresentation(f"point on {len(active)} hyperplanes: {active}")
            coords = np.linalg.solve(h.A.T[subs], -h.b[subs][..., None])[..., 0]
            found.update(zip(map(tuple, subs.tolist()), coords))
            # every other row has vals > thr > 0; edge k reaches first the row j
            # whose slack it closes fastest per unit of slack, rates laid out
            # (vertex, edge, row) so that the argmax reads contiguous rows
            rates = np.linalg.inv(Us).transpose(0, 2, 1) @ -f.U.T
            rates /= np.where(vals > 0, vals, np.inf)[:, None, :]
            first = rates.argmax(axis=2)
            reached = np.take_along_axis(rates, first[..., None], axis=2)[..., 0] > 0
            nbrs = np.repeat(subs[:, None, :], n, axis=1)
            nbrs[:, diag, diag] = first
            nbrs.sort(axis=2)
            for nxt in map(tuple, nbrs[reached].tolist()):
                if nxt not in seen:
                    seen.add(nxt)
                    ahead.append(nxt)
        layer = ahead
    polytope = validate_polytope(h.n, sorted(found))
    coords = np.array([found[v] for v in polytope.vertices])
    coords.setflags(write=False)
    return polytope, coords


# ---------------------------------------------------------------------------
# relation matrix and quadrics


def relation_matrix(h: HRep) -> QuadricSystem:
    """Null-space basis of the normals, in row-reduced canonical form,
    reduced once per presentation and cached (``HRep._relations``).

    Row reduction of A identifies pivot columns; each free column yields one
    relation with unit coefficient there.  Rows are rescaled so their
    largest-magnitude entry is 1, making the output reproducible.  Equation j
    carries the rounding allowance sum_k |gamma_jk| |a_k| times the frame's
    length rounding 8 (n + 1) eps max|c|: rhs and every lifted square
    <a_k, x> + b_k sum terms as far out as the region lies, and far out
    (a 1e9 translation) that rounding exceeds 1e-9 times what is left.
    """
    _check_type("presentation", h, HRep)
    return h._relations


def _reduce_relations(h: HRep) -> QuadricSystem:
    """The row reduction behind :func:`relation_matrix`."""
    n, m, norms = h.n, h.m, h._frame.norms
    R = np.array(h.A, dtype=float)
    pivots: list[int] = []
    r = 0
    for c in range(m):
        if r == n:
            break
        lead = r + int(np.argmax(np.abs(R[r:, c])))
        if abs(R[lead, c]) <= _TOL * norms[c]:
            continue
        R[[r, lead]] = R[[lead, r]]
        R[r] = R[r] / R[r, c]
        for k in range(n):
            if k != r:
                R[k] = R[k] - R[k, c] * R[r]
        pivots.append(c)
        r += 1
    if r < n:
        raise RankDeficient(f"normal matrix has rank {r}, expected {n}")
    free = [c for c in range(m) if c not in pivots]
    gamma = np.zeros((len(free), m))
    for row, j in enumerate(free):
        gamma[row, j] = 1.0
        for k, c in enumerate(pivots):
            gamma[row, c] = -R[k, j]
    for row in range(gamma.shape[0]):
        lead = int(np.argmax(np.abs(gamma[row])))
        gamma[row] = gamma[row] / gamma[row, lead] + 0.0  # +0.0 clears -0.0
    if np.abs(gamma @ h.A.T).max() > 100 * _TOL * (np.abs(gamma) @ norms).max():
        raise AssertionError("relation rows do not annihilate the normals")
    rhs = gamma @ h.b
    rounding = np.abs(gamma) @ norms * h._frame.rounding
    for array in (gamma, rhs, rounding):
        array.setflags(write=False)
    return QuadricSystem(m=m, gamma=gamma, rhs=rhs, norms=norms, rounding=rounding)


def lift_point(h: HRep, x, signs) -> EmbeddedPoint:
    """Lift a polytope point to the variety: y_k = sign_k sqrt(<a_k,x> + b_k).

    Raises :class:`BadParameters` for signs other than a ±1 vector of length m
    or, through :meth:`HRep.values`, a point other than a finite vector of
    length n, and :class:`OutsidePolytope` for a point outside the region.
    """
    _check_type("presentation", h, HRep)
    try:
        signs = tuple(signs)
        ok = len(signs) == h.m and all(s == 1 or s == -1 for s in signs)
        signs = tuple(map(int, signs)) if ok else None
    except (TypeError, ValueError):
        signs = None
    if signs is None:
        raise BadParameters(f"signs must be a ±1 vector of length {h.m}")
    vals = h.values(x)
    x = np.asarray(x, dtype=float)
    dist = vals / h._frame.norms
    if dist.min() < -h._frame.thr:
        raise OutsidePolytope(f"inequality {dist.argmin()} violated by {-dist.min():g}")
    y = np.array(signs, dtype=float) * np.sqrt(np.clip(vals, 0.0, None))
    y.setflags(write=False)
    return EmbeddedPoint(y=y, source=(x, signs))


def quadric_gradient_rank(q: QuadricSystem, point) -> int:
    """Rank of the quadric gradients (rows 2 gamma_jk y_k) at a point.

    Each equation's residual is measured against its own terms, plus its
    rounding allowance from :func:`relation_matrix`.  The rank is decided, as
    in :func:`verify_nondegeneracy`, on the gradients H of
    ``QuadricSystem._unit_gamma``, which positive row scaling does not move.
    A point other than a finite vector of length m raises
    :class:`BadParameters`, through :meth:`QuadricSystem.residual`.
    """
    _check_type("quadric system", q, QuadricSystem)
    y = point.y if isinstance(point, EmbeddedPoint) else point
    res = np.abs(q.residual(y))
    y = np.asarray(y, dtype=float)
    if (res > _TOL * (np.abs(q.gamma) @ (y * y) + np.abs(q.rhs)) + q.rounding).any():
        raise NotOnVariety(f"max residual {res.max():g}")
    return int(_numeric_rank(2.0 * q._unit_gamma * y))


class NondegeneracyReport(_Record):
    """Observed gradient ranks over a deterministic sample of lifted points;
    ``failures`` holds (sample index, observed rank) pairs."""

    _fields = ("expected_rank", "min_rank", "min_margin", "samples", "failures")

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_nondegeneracy(h: HRep, sample_count: int = 200,
                         seed: int = 0) -> NondegeneracyReport:
    """Sample the polytope, lift with random signs, check gradient ranks.

    Samples every vertex, the relative-interior centroid of every facet and
    the global centroid, then fills up to ``sample_count`` (an int, not a
    bool, >= 0, as is ``seed``, else ``BadParameters``; a count below those
    points adds none) with seeded random points (see :func:`_sample_points`).
    Ranks are decided on the gradients H of ``QuadricSystem._unit_gamma``,
    unchanged by row scaling; ``min_margin`` reads the gradients G of
    :func:`relation_matrix`.  Samples go in chunks of ``_RANK_CHUNK``, with
    the signs drawn per chunk from the same stream, and each chunk takes one
    stacked SVD of G over the samples that need it, whose bits are those of
    a call on each sample alone.  Since H = D_r^-1 G D_c with D_r the rows'
    largest |gamma_jk a_k| and D_c = diag(sqrt|a_k|), sigma_{m-n}(H) is at
    least sigma_{m-n}(G) sqrt(min|a_k|) / max D_r and sigma_1(H) at most
    sigma_1(G) sqrt(max|a_k|) / min D_r; a sample whose lower bound exceeds
    twice 1e-9 max(1, upper bound), far above SVD rounding, has full rank.
    Only the samples left uncertified, including any whose bounds over- or
    underflow, take the rank SVD of H.

    Most samples need no SVD of G either.  G G^t = 4 gamma diag(s) gamma^t
    with s = A^t x + b, which is affine in the point and ignores the signs,
    so lambda_min(G G^t) = sigma_{m-n}(G)^2 is concave and lambda_max =
    sigma_1(G)^2 convex on the polytope (Lewis & Overton, Acta Numerica 5,
    1996): at x = sum_v w_v v with w >= 0 they lie above sum_v w_v
    lambda_min(v) and below sum_v w_v lambda_max(v).  The vertex values
    come from one stacked ``eigvalsh`` (:func:`_vertex_bounds`), and the
    product per vertex set that builds a point also sums its bounds.  Both
    are widened by:

    - the lifted slacks' rounding: the sample's and its vertices' slacks,
      the point's sum and its weights' sum (which need not be 1) move the
      combination by at most d_k = 16 (n + V) eps (sum_i |A_ik| max_v |v_i|
      + |b_k|), so the Gram matrix by at most ||4 gamma diag(d) gamma^t||;
    - the backward errors of the vertex eigenvalues (see there) and of the
      sample's SVD, 4 m^2 eps sigma_1, a generous multiple of LAPACK's
      m eps sigma_1;
    - the rounding of the weighted sums, (2 V + 8) eps of their size.

    A sample, vertex or not, whose widened lower bound on its computed
    sigma_{m-n}(G) lies strictly above an upper bound on some vertex's
    cannot hold ``min_margin`` and takes no SVD of G; it counts as certified
    when its widened bounds pass the test above, and takes the rank SVD of
    H otherwise.  Every other sample, among them the one that holds the
    minimum, joins the chunk's SVD of G, as does any sample whose bounds are
    not finite, so ``min_margin`` keeps its bits.  Where the Gram matrix
    does not vary, as on a cube (4 I), no sample can be ruled out and no
    bound is computed.  Failures are reported, not raised; the sampling
    work, predicted from the point count the vertex walk fixes, is checked
    against ``_SAMPLE_CAP`` before the relations or any point are computed.
    """
    _check_type("presentation", h, HRep)
    _check_int("sample_count", sample_count, 0)
    _check_int("seed", seed, 0)
    polytope, coords = enumerate_vertices(h)
    count = max(sample_count, polytope.vertex_count + h.m + 1)
    _check_work(f"{count} samples", count * (h.m * h.m * (h.m - h.n) + 20_000),
                _SAMPLE_CAP)
    q = relation_matrix(h)  # the cached relations, see HRep._relations
    eps = np.finfo(float).eps
    err = 4 * h.m * h.m * eps  # an SVD's backward error over sigma_1
    bounds = _vertex_bounds(h, q, coords, err)
    rng = np.random.default_rng(seed)
    pts, sums = _sample_points(h, polytope, coords, count, rng,
                               None if bounds is None else bounds[3])

    norms, rowmax = q.norms, q._rowmax
    with np.errstate(all="ignore"):  # H = D_r^-1 G D_c, see the docstring
        low = math.sqrt(norms.min()) / rowmax.max()
        high = math.sqrt(norms.max()) / rowmax.min()

    def certified(least, most):  # sigma_{m-n}(G) >= least and sigma_1(G) <= most
        with np.errstate(all="ignore"):
            upper = most * high
            return np.isfinite(upper) & (least * low > 2 * _TOL * np.maximum(1.0, upper))

    skip = sure = np.zeros(count, dtype=bool)
    if bounds is not None:
        t, cap, shift, _ = bounds
        rho = (2 * len(coords) + 8) * eps
        with np.errstate(all="ignore"):  # NaN and inf bounds pass no test
            lo = np.sqrt((1 - rho) * sums[:, 0] - shift)  # sigma_{m-n}(G) / t, at least
            hi = np.sqrt((1 + rho) * sums[:, 1] + shift)  # sigma_1(G) / t, at most
            above = (1 - rho) * lo - err * hi  # its computed sigma_{m-n}(G) / t, at least
            skip = np.isfinite(above) & (above > cap) & np.isfinite(t * hi)
            sure = certified(t * lo, t * hi)
    expected = h.m - h.n
    min_rank, min_margin, failures = expected, math.inf, []
    for start in range(0, count, _RANK_CHUNK):
        chunk = pts[start:start + _RANK_CHUNK]
        y = _lifted(h, chunk, 1 - 2 * rng.integers(0, 2, size=(len(chunk), h.m)))
        todo, unsure = ~skip[start:start + len(chunk)], ~sure[start:start + len(chunk)]
        if todo.any():
            svals = np.linalg.svd(2.0 * q.gamma * (y if todo.all() else y[todo]),
                                  compute_uv=False)
            min_margin = min(min_margin, float(svals[:, expected - 1].min()))
            unsure[todo] = ~certified(svals[:, expected - 1], svals[:, 0])
        ranks = np.full(len(chunk), expected)
        if unsure.any():
            ranks[unsure] = _numeric_rank(2.0 * q._unit_gamma * y[unsure])
        min_rank = min(min_rank, int(ranks.min()))
        failures += [(start + i, int(r)) for i, r in enumerate(ranks) if r < expected]
    return NondegeneracyReport(expected_rank=expected, min_rank=min_rank,
                               min_margin=min_margin, samples=count,
                               failures=tuple(failures))


def _lifted(h: HRep, pts: np.ndarray, signs) -> np.ndarray:
    """The lifts y_k = sign_k sqrt(<a_k, x> + b_k) of a stack of points, as a
    (K, 1, m) stack; the affine forms take the bits of :meth:`HRep.values`."""
    values = (h.A.T @ pts[..., None])[..., 0] + h.b  # h.values' bits; pts @ A is not
    return (signs * np.sqrt(np.clip(values, 0.0, None)))[:, None, :]


def _vertex_bounds(h: HRep, q: QuadricSystem, coords: np.ndarray, err: float):
    """The vertex side of :func:`verify_nondegeneracy`'s bounds, or None
    where the Gram matrix does not vary.

    That is where its linear part gamma diag(A_i) gamma^t, coordinate i,
    vanishes within the rounding of its m terms.  Otherwise returns ``(t,
    cap, shift, gram)``.  t is the largest entry of the unsigned vertex
    gradients G, which are divided by it before the Gram matrices are
    formed, so nothing near 1e+-200 over- or underflows.  gram holds per
    vertex a lower bound on lambda_min and an upper bound on lambda_max of
    G G^t / t^2: the stacked ``eigvalsh`` of the normalised Gram matrices,
    whose entries are at most m, is off by at most 16 m^3 eps from its
    entries' rounding, the products' and its own backward error.  shift
    bounds ||4 gamma diag(d) gamma^t|| / t^2 the same way, from the rounding
    allowance d of the docstring there, and cap every vertex's computed
    sigma_{m-n}(G) / t, with ``err`` its SVD's backward error over
    sigma_1.  Gradients that are not finite, or all zero, give None too.
    """
    eps, m, V = np.finfo(float).eps, h.m, len(coords)
    gamma = q.gamma
    with np.errstate(all="ignore"):
        linear = (gamma * h.A[:, None, :]) @ gamma.T
        size = (np.abs(gamma) * np.abs(h.A)[:, None, :]) @ np.abs(gamma).T
        if (np.abs(linear) <= 4 * m * eps * size).all():
            return None
        d = 16 * (h.n + V) * eps * (np.abs(h.A).T @ np.abs(coords).max(axis=0)
                                    + np.abs(h.b))
        G = 2.0 * gamma * np.vstack([_lifted(h, coords, 1.0), np.sqrt(d)[None, None]])
        t = float(np.abs(G[:V]).max())
        if t == 0 or not np.isfinite(G).all():
            return None
        G /= t
    try:
        lam = np.linalg.eigvalsh(G @ G.transpose(0, 2, 1))
    except np.linalg.LinAlgError:  # no convergence: the samples take their SVDs
        return None
    off = 16 * m ** 3 * eps
    gram = np.column_stack([np.maximum(lam[:V, 0] - off, 0.0), lam[:V, -1] + off])
    with np.errstate(invalid="ignore"):  # a NaN cap rules out no sample
        cap = float((np.sqrt(lam[:V, 0] + off) + err * np.sqrt(gram[:, 1])).min())
    return t, cap, float(lam[V, -1] + off), gram


def _sample_points(h: HRep, polytope, coords: np.ndarray, count: int, rng, gram):
    """The ``count`` points of :func:`verify_nondegeneracy` in order and,
    given the V x 2 vertex bounds ``gram``, each point's weighted sums of
    them, else None.

    The vertices, the facet centroids and the global centroid come first;
    the random points alternate interior and facet points, lifted without a
    membership test as convex combinations of vertices.  For alpha = 1,
    numpy's Dirichlet draws L standard exponentials and scales them by 1 /
    their sum taken in order; a random point draws
    ``rng.standard_exponential(L)`` and scales it the same way, so its
    weights are the bits ``rng.dirichlet(np.ones(L))`` gives from the same
    stream.  The draws are made one point at a time, in point order, and
    turned into points, and sums, by one product per vertex set (all
    vertices, or facet i) whenever they hold ``_RANK_CHUNK^2`` entries, so
    their memory does not grow with the sample count.
    """
    members = [[] for _ in range(h.m)]
    for v, facets in enumerate(polytope.vertices):
        for i in facets:
            members[i].append(v)
    sets = [coords, *(coords[vs] for vs in members)]  # all vertices, then facet i
    fixed = len(coords) + h.m + 1
    pts, sums = np.empty((count, h.n)), None
    pts[:fixed] = [*coords, *(c.mean(axis=0) for c in sets[1:]), coords.mean(axis=0)]
    if gram is not None:
        grams = [gram, *(gram[vs] for vs in members)]
        sums = np.empty((count, 2))
        sums[:fixed] = [*gram, *(g.mean(axis=0) for g in grams[1:]), gram.mean(axis=0)]
    pending: dict[int, tuple[list, list]] = {}  # vertex set -> sample indices, draws
    held = 0
    for k in range(fixed, count):
        j = 1 + int(rng.integers(h.m)) if (k - fixed) % 2 else 0
        at, draws = pending.setdefault(j, ([], []))
        at.append(k)
        draws.append(rng.standard_exponential(len(sets[j])))
        held += len(sets[j])
        if held >= _RANK_CHUNK * _RANK_CHUNK or k == count - 1:
            for j, (at, draws) in pending.items():
                e = np.array(draws)
                w = e * (1 / np.cumsum(e, axis=1)[:, -1:])  # the sum in order, as dirichlet's
                # (K, 1, L) @ (L, n) runs the vector-matrix product of a lone
                # draw once per point; a 2-D product is another kernel
                pts[at] = (w[:, None, :] @ sets[j])[:, 0]
                if gram is not None:
                    sums[at] = w @ grams[j]
            pending, held = {}, 0
    return pts, sums


def quadrics_to_json(q: QuadricSystem) -> dict:
    _check_type("quadric system", q, QuadricSystem)
    return {"m": q.m, "gamma": [[float(v) for v in row] for row in q.gamma],
            "rhs": [float(v) for v in q.rhs]}
