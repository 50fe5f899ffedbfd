"""The four benchmark workloads.

A workload builds one *round* of cases from the seed: a fixed mix of inputs
along its size ladder, each with the answer its oracle expects.  The runner
repeats whole rounds, so every run sees the same mix and the failure share
is exact.  ``job`` is the timed part and returns what ``check`` inspects;
``check`` runs outside the timed span and never calls into ``momang``.

Every call into a public ``momang`` function goes through ``tr.call`` so
that the traced run can time it per module and function.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from momang import cli, corpus, hrep, moves, polytope, zcomplex
from momang.errors import MomangError
from oracles import (
    OracleError,
    adjacency,
    brute_vertices,
    check_bijection,
    check_relations,
    expect,
    face_counts,
    face_masks,
    is_tetrahedron,
    prismatic_sets,
    relabel,
)


@dataclass
class Case:
    """One input of a round with everything its oracle needs."""

    name: str
    kind: str
    payload: object
    expected: dict = field(default_factory=dict)
    known_defect: str | None = None


def _wire(dim, m, vertices):
    return json.dumps({"dim": dim, "facets": m, "vertices": [list(v) for v in vertices]})


def _shuffled_wire(tr, p, rng):
    """Polytope JSON with seeded facet labels, and its incidence as lists."""
    wire = tr.call(polytope.polytope_to_json, p)
    perm = list(range(wire["facets"]))
    rng.shuffle(perm)
    verts = relabel(wire["vertices"], perm)
    return _wire(wire["dim"], wire["facets"], verts), verts


# ---------------------------------------------------------------------------
# recognize: moves + polytope


class Recognize:
    name = "recognize"
    tail_pct = 90
    trace_rounds = 3
    # Cut counts of the yes-instances in one round (m = k + 4).  With the
    # two no-instances and the certificate job a round has 9 jobs, so the
    # median job is a k=12 instance and the 90th percentile the k=40 one.
    ladder = (40, 24, 12, 12, 4, 4)
    no_cuts = 2              # vertex cuts applied to the cube and dodecahedron
    circuit_max_m = 24
    cert_depth = 5

    def build(self, seed, tr):
        rng = random.Random(f"recognize:{seed}")
        cases = []
        for i, k in enumerate(self.ladder):
            p = tr.call(corpus.random_vertexcuts, k, rng.randrange(1 << 30))
            text, verts = _shuffled_wire(tr, p, rng)
            cases.append(self._case(f"yes-k{k}-{i}", "yes", text, verts,
                                    {"cuts": k, "start_vertices": verts}))
        for base_name, base in (("cube", tr.call(corpus.cube, 3)),
                                ("dodecahedron", tr.call(corpus.dodecahedron))):
            p = base
            for _ in range(self.no_cuts):
                p = tr.call(moves.vertex_cut, p, rng.randrange(p.vertex_count))
            text, verts = _shuffled_wire(tr, p, rng)
            cases.append(self._case(f"no-{base_name}", "no", text, verts,
                                    {"cuts": self.no_cuts,
                                     "core_facets": base.facet_count}))
        cut_cube = tr.call(moves.vertex_cut, tr.call(corpus.cube, 3),
                           rng.randrange(8))
        text, _ = _shuffled_wire(tr, cut_cube, rng)
        # The dual of the cut cube is not stacked, and for n = 3 the only
        # flips of codimension >= 3 are stackings: no certificate exists.
        cases.append(Case("cert-cut-cube", "cert", text))
        return cases

    def _case(self, name, kind, text, verts, expected):
        m = 1 + max(max(v) for v in verts)
        if m <= self.circuit_max_m:
            expected["circuits"] = {k: prismatic_sets(verts, m, k) for k in (3, 4)}
        return Case(name, kind, text, expected)

    def job(self, case, tr):
        p = tr.call(polytope.polytope_from_json, case.payload)
        if case.kind == "cert":
            cert = tr.call(moves.psc_flip_certificate, p, self.cert_depth)
            tr.count("moves.cert_moves", len(cert) if cert else 0)
            return {"cert": cert}
        trace = tr.call(moves.recognize_vertexcut_reducible, p)
        tr.count("moves.collapse_steps", len(trace.steps))
        out = {"trace": trace}
        if trace.reducible:
            rebuilt = tr.call(moves.rebuild_by_cuts, trace)
            out["rebuilt"] = rebuilt
            out["perm"] = tr.call(polytope.combinatorial_isomorphic, rebuilt, p)
        if p.facet_count <= self.circuit_max_m:
            out["circuits"] = {}
            for k in (3, 4):
                found = tr.call(moves.prismatic_circuits, p, k)
                tr.count("moves.circuits_found", len(found))
                out["circuits"][k] = found
        return out

    def check(self, case, out):
        if case.kind == "cert":
            expect(out["cert"] is None, "certificate found for a non-stacked sphere")
            return
        exp = case.expected
        trace = out["trace"]
        expect(len(trace.steps) == exp["cuts"],
               f"{len(trace.steps)} collapses, expected {exp['cuts']}")
        if case.kind == "yes":
            expect(trace.reducible, "vertex-cut polytope reported irreducible")
            expect(is_tetrahedron(trace.end.vertices), "reduction did not end at the tetrahedron")
            rebuilt = out["rebuilt"]
            check_bijection(out["perm"], rebuilt.vertices, exp["start_vertices"],
                            rebuilt.facet_count)
        else:
            expect(not trace.reducible, "non-stacked polytope reported reducible")
            expect(trace.end.facet_count == exp["core_facets"],
                   f"reduction stuck at {trace.end.facet_count} facets, "
                   f"expected {exp['core_facets']}")
        if "circuits" in exp:
            for k in (3, 4):
                got = [frozenset(c.facets) for c in out["circuits"][k]]
                expect(len(got) == len(set(got)), f"duplicate prismatic {k}-circuits")
                expect(set(got) == exp["circuits"][k],
                       f"prismatic {k}-circuits differ: {len(got)} vs "
                       f"{len(exp['circuits'][k])}")


# ---------------------------------------------------------------------------
# chamber: zcomplex


class Chamber:
    name = "chamber"
    tail_pct = 90
    trace_rounds = 1
    lookups = 2000

    def build(self, seed, tr):
        rng = random.Random(f"chamber:{seed}")
        inputs = [("cube3", tr.call(corpus.cube, 3)), ("cube4", tr.call(corpus.cube, 4)),
                  ("cube5", tr.call(corpus.cube, 5))]
        inputs.append(("cuts6", tr.call(corpus.random_vertexcuts, 6, rng.randrange(1 << 30))))
        inputs.append(("dodecahedron", tr.call(corpus.dodecahedron)))
        cases = []
        for name, p in inputs:
            text, verts = _shuffled_wire(tr, p, rng)
            n, m = p.dim, p.facet_count
            nbrs = adjacency(verts, m)
            counts = face_counts(verts, n)
            masks = face_masks(verts, n)
            edges = {pair for v in verts for pair in itertools.combinations(v, 2)}
            cells_by_dim = [0] * (n + 1)
            for codim, c in enumerate(counts):
                cells_by_dim[n - codim] = c << (m - codim)
            euler = sum((-1) ** d * c for d, c in enumerate(cells_by_dim))
            # odd-dimensional closed manifolds and tori have Euler number 0
            expect(euler == 0, f"{name}: generated input has Euler number {euler}")
            stages = []
            for j in range(m + 1):
                low = (1 << j) - 1
                stages.append({
                    "pieces": (m - j) << j,
                    "cells": sum(1 << (j - bin(mk & low).count("1")) for mk in masks),
                    "type1": sum(1 << j for a, b in edges if a >= j),
                    "type2": sum(1 << (j - 1) for a, b in edges if a < j <= b),
                })
            sample = [(rng.randrange(1 << 30), rng.randrange(1 << m))
                      for _ in range(self.lookups)]
            cases.append(Case(name, "chamber", text, {
                "m": m, "cells_by_dim": cells_by_dim,
                "fixed": [1 << (m - 1 - len(nbrs[i])) for i in range(m)],
                "masks": masks, "stages": stages, "sample": sample}))
        return cases

    def job(self, case, tr):
        p = tr.call(polytope.polytope_from_json, case.payload)
        z = tr.call(zcomplex.build_chamber_complex, p)
        tr.count("zcomplex.cells", len(z.cells))
        out = {
            "chambers": len(z.chambers()),
            "cells": len(z.cells),
            "cells_by_dim": list(z.cells_by_dim),
            "euler": tr.call(zcomplex.euler_characteristic, z),
            "components": tr.call(zcomplex.connected_components, z),
            "orientable": tr.call(zcomplex.orientability, z)[0],
            "fixed": [tr.call(zcomplex.fixed_point_components, z, i).count
                      for i in range(z.m)],
        }
        stages = tr.call(zcomplex.doubling_filtration, p)
        out["stages"] = [(st.chamber_count, len(st.facets), st.cell_count,
                          st.edge_types.type1, st.edge_types.type2,
                          len(tr.call(zcomplex.classify_edge_types, st).records))
                         for st in stages]
        faces = z.lattice.faces
        looked = []
        with tr.span("zcomplex.cell_lookup", len(case.expected["sample"])):
            for r, g in case.expected["sample"]:
                fi = r % len(faces)
                cell = z.translate(g, (fi, 0))
                looked.append((fi, g, cell, z.cells[z.cell_ids[cell]]))
        out["lookups"] = [(fi, g, cell, back, faces[fi].facets)
                          for fi, g, cell, back in looked]
        return out

    def check(self, case, out):
        exp = case.expected
        m = exp["m"]
        expect(out["chambers"] == 1 << m, f"{out['chambers']} chambers, expected 2^{m}")
        expect(out["cells_by_dim"] == exp["cells_by_dim"],
               f"cells by dimension {out['cells_by_dim']} != {exp['cells_by_dim']}")
        expect(out["cells"] == sum(exp["cells_by_dim"]), "cell list length")
        expect(out["euler"] == 0, f"Euler characteristic {out['euler']}, expected 0")
        expect(out["components"] == 1, f"{out['components']} components, expected 1")
        expect(out["orientable"] is True, "reported non-orientable")
        expect(out["fixed"] == exp["fixed"],
               f"fixed-set components {out['fixed']} != 2^(m-1-a_i) {exp['fixed']}")
        expect(len(out["stages"]) == m + 1, "filtration length")
        for j, (st, want) in enumerate(zip(out["stages"], exp["stages"])):
            got = dict(zip(("chambers", "pieces", "cells", "type1", "type2", "records"), st))
            expect(got["chambers"] == 1 << j, f"stage {j}: {got['chambers']} chambers")
            for key in ("pieces", "cells", "type1", "type2"):
                expect(got[key] == want[key], f"stage {j}: {key} {got[key]} != {want[key]}")
            expect(got["records"] == want["type1"] + want["type2"],
                   f"stage {j}: {got['records']} edge records")
        for fi, g, cell, back, facets in out["lookups"]:
            mask = sum(1 << f for f in facets)
            expect(mask in exp["masks"], f"face {sorted(facets)} is not a face")
            expect(cell == (fi, g & ~mask), f"translate({g}, ({fi}, 0)) gave {cell}")
            expect(back == cell, f"cell id of {cell} points at {back}")


# ---------------------------------------------------------------------------
# quadrics: hrep


def _hrep_text(rows, offsets):
    n = len(rows[0])
    lines = [f"{n} {len(rows)}"]
    lines += [" ".join(repr(float(v)) for v in [*row, off])
              for row, off in zip(rows, offsets)]
    return "\n".join(lines) + "\n"


def _tangent_rows(rng, n, m, min_angle_deg=15.0, min_margin=1e-3):
    """Unit normals of m planes tangent to the unit sphere (offsets 1).

    The first 2n normals are plus and minus an orthonormal frame, so the
    region is bounded; the rest are random directions kept apart by a
    minimum angle.  Configurations with a vertex closer than ``min_margin``
    to an inactive plane are drawn again, so every input is clearly simple.
    """
    cos_max = math.cos(math.radians(min_angle_deg))
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rows = [q[:, i] for i in range(n)] + [-q[:, i] for i in range(n)]
        while len(rows) < m:
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            if max(float(a @ r) for r in rows) < cos_max:
                rows.append(a)
        rows = np.array(rows)
        rng.shuffle(rows)
        sets, margin = brute_vertices(rows, np.ones(m))
        if margin > min_margin:
            return rows, sets
    raise RuntimeError(f"no well-separated tangent presentation for n={n}, m={m}")


def _cube_rows(n):
    rows = np.vstack([np.eye(n), -np.eye(n)])
    return rows, np.r_[np.zeros(n), np.ones(n)]


def _dodecahedron_rows():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rows = []
    for a, b in itertools.product((1.0, -1.0), repeat=2):
        rows += [[0.0, a, b * phi], [a, b * phi, 0.0], [b * phi, 0.0, a]]
    return np.array(rows), np.ones(12)


class Quadrics:
    name = "quadrics"
    tail_pct = 95
    trace_rounds = 4
    samples = 200
    tangent_sizes = ((3, 12), (3, 18), (3, 24), (3, 30), (4, 12), (4, 14), (4, 16), (5, 14))
    # (input, offset magnitude) of the translated copies in one round
    translations = (("dodecahedron", 1e9), ("cube3", 1e9), ("cube4", 1e3),
                    ("tangent3x12", 1e6), ("tangent4x12", 1e6))
    # Known defect: the Chebyshev-radius and redundancy thresholds scale
    # with |b|, so a presentation translated by 1e9 is rejected.
    defect_offset = 1e9

    def build(self, seed, tr):
        rng = np.random.default_rng(seed)
        base = {f"cube{n}": _cube_rows(n) for n in range(3, 9)}
        base["dodecahedron"] = _dodecahedron_rows()
        for n, m in self.tangent_sizes:
            rows, _ = _tangent_rows(rng, n, m)
            base[f"tangent{n}x{m}"] = (rows, np.ones(m))
        cases = {name: self._case(name, rows, offsets, brute_vertices(rows, offsets)[0])
                 for name, (rows, offsets) in base.items()}
        for name, mag in self.translations:
            rows, offsets = base[name]
            shift = rng.standard_normal(rows.shape[1])
            shift *= mag / np.linalg.norm(shift)
            # A translated copy has the same vertex facet sets as the original.
            case = self._case(f"{name}+{mag:g}", rows, offsets - rows @ shift,
                              cases[name].expected["vertices"])
            if mag >= self.defect_offset:
                case.known_defect = "1e9 translation rejected: tolerances scale with |b|"
            cases[case.name] = case
        return list(cases.values())

    def _case(self, name, rows, offsets, sets):
        m, n = rows.shape
        if name.startswith("cube"):
            expect(len(sets) == 1 << n, f"{name}: {len(sets)} vertices")
        elif n == 3:
            expect(len(sets) == 2 * m - 4, f"{name}: {len(sets)} vertices")
        return Case(name, "hrep", _hrep_text(rows, offsets),
                    {"n": n, "m": m, "rows": rows, "vertices": sets})

    def job(self, case, tr):
        try:
            h = tr.call(hrep.parse_hrep, case.payload)
        except MomangError:
            tr.count("hrep.rejected", 1)
            raise
        q = tr.call(hrep.relation_matrix, h)
        p, _ = tr.call(hrep.enumerate_vertices, h)
        tr.count("hrep.vertices", p.vertex_count)
        rep = tr.call(hrep.verify_nondegeneracy, h, self.samples, 0)
        tr.count("hrep.samples", rep.samples)
        return {"gamma": np.array(q.gamma), "vertices": sorted(p.vertices),
                "passed": rep.passed, "samples": rep.samples,
                "expected_rank": rep.expected_rank}

    def check(self, case, out):
        exp = case.expected
        n, m = exp["n"], exp["m"]
        check_relations(out["gamma"], exp["rows"], m, n)
        expect(out["vertices"] == exp["vertices"],
               f"{len(out['vertices'])} vertices with other facet sets than the "
               f"{len(exp['vertices'])} expected")
        expect(out["expected_rank"] == m - n, "nondegeneracy expected rank")
        expect(out["samples"] >= self.samples, f"{out['samples']} samples")
        expect(out["passed"], "nondegeneracy check failed")


# ---------------------------------------------------------------------------
# cli: whole momang processes


_MALFORMED = (
    # (document, the known defect that makes it exit 1 instead of 2)
    ('{"dim": 3, "facets": "x", "vertices": [[0, 1, 2]]}',
     "non-integer 'facets' escapes as TypeError"),
    ('{"dim": "abc", "facets": 4, "vertices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}',
     "non-integer 'dim' escapes as ValueError"),
    ('{"dim": 3, "facets": 4, "vertices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], '
     '"facet_labels": 5}',
     "scalar 'facet_labels' escapes as TypeError"),
)


class Cli:
    name = "cli"
    tail_pct = 90
    trace_rounds = 1

    workdir = None           # set by the worker: where the input files go

    def build(self, seed, tr):
        rng = random.Random(f"cli:{seed}")
        files = {}

        def put(name, text):
            path = os.path.join(self.workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            files[name] = path
            return path

        rv_seed = rng.randrange(1 << 30)
        rv = tr.call(corpus.random_vertexcuts, 12, rv_seed)
        put("cuts12.json", _shuffled_wire(tr, rv, rng)[0])
        put("cuts12b.json", _shuffled_wire(tr, rv, rng)[0])
        put("cube.json", _shuffled_wire(tr, tr.call(corpus.cube, 3), rng)[0])
        put("prism.json", _shuffled_wire(tr, tr.call(corpus.prism), rng)[0])
        put("dodecahedron.json", _shuffled_wire(tr, tr.call(corpus.dodecahedron), rng)[0])
        rows, offsets = _cube_rows(3)
        put("cube.hrep", _hrep_text(rows, offsets))
        q_seed = rng.randrange(1000)
        # (argv, exit code, payload facts known without running momang)
        commands = [
            (["validate", files["dodecahedron.json"]], 0, {"valid": True, "facets": 12}),
            (["recognize", files["cube.json"], "--strict"], 1, {"verdict": "no"}),
            (["andreev", files["prism.json"], "--strict"], 1, {"prismatic_3": 1}),
            (["euler", files["cuts12.json"]], 0, {"euler": 0}),
            (["moment-angle", files["cube.json"]], 0, {"m": 6, "euler": 0, "components": 1}),
            (["quadrics", files["cube.hrep"]], 0, {"m": 6}),
            (["verify-quadrics", files["cube.hrep"], "--seed", str(q_seed)], 0,
             {"passed": True}),
            (["isomorphic", files["cuts12.json"], files["cuts12b.json"]], 0,
             {"isomorphic": True}),
            (["generate", "random-vertexcuts", "12", "--seed", str(rv_seed)], 0,
             {"facets": 16}),
        ]
        cases = [Case(f"{argv[0]}-{i}", "cli", argv,
                      {"code": code, "facts": facts, "payload": self._inprocess(tr, argv)})
                 for i, (argv, code, facts) in enumerate(commands)]
        # One malformed file per round, always one of the known defects, so
        # the failure share is the same in every round.
        doc, defect = rng.choice(_MALFORMED)
        cases.append(Case("malformed", "cli", ["validate", put("malformed.json", doc)],
                          {"code": 2}, known_defect=defect))
        return cases

    def reference(self):
        """The speed reference for whole processes: wall time of a fresh
        interpreter that imports numpy, a cost of the same kind as a
        ``momang`` process's start-up, which a pure-Python loop in this
        process tracks less well."""
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                       cwd=self.workdir, capture_output=True)
        return time.perf_counter() - t

    def _inprocess(self, tr, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            tr.call(cli.main, argv)
        return json.dumps(json.loads(buf.getvalue())["payload"], sort_keys=True)

    def job(self, case, tr):
        proc = subprocess.run(momang_argv() + case.payload, cwd=self.workdir,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != case.expected["code"]:
            tr.count("cli.exit_mismatch", 1)
        if proc.returncode in (0, 1):
            with contextlib.suppress(ValueError, KeyError):
                tr.count("cli.dispatch_ms", json.loads(proc.stdout)["elapsed_ms"])
        return {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, case, out):
        exp = case.expected
        expect(out["code"] == exp["code"],
               f"exit code {out['code']}, expected {exp['code']}")
        if exp["code"] == 2:
            return
        try:
            report = json.loads(out["stdout"])
        except ValueError:
            raise OracleError("standard output is not a JSON report") from None
        payload = json.dumps(report["payload"], sort_keys=True)
        expect(payload == exp["payload"], "payload differs from the in-process call")
        for key, want in exp["facts"].items():
            expect(report["payload"].get(key) == want,
                   f"payload {key}={report['payload'].get(key)!r}, expected {want!r}")


def momang_argv():
    """The ``momang`` console script, spelled so that it runs from a checkout."""
    return [sys.executable, "-c", "import sys; from momang.cli import main; sys.exit(main())"]


WORKLOADS = {w.name: w for w in (Recognize, Chamber, Quadrics, Cli)}
