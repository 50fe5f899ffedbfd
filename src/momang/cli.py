"""Command-line front end.

Every invocation runs one command and emits a report (JSON by default).
With ``--out`` the bare payload (the wire-format JSON of the command's
result) is additionally written to the given path, so generated polytopes,
traces and quadric systems can be piped into further invocations.

Exit codes: 0 ok, 1 negative verdict under ``--strict`` (recognize,
andreev), 2 input error, 3 guard exceeded.

Only the H-rep commands (``quadrics``, ``verify-quadrics``) import
:mod:`momang.hrep`, and with it numpy; the combinatorial commands start
without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .corpus import generate
from .errors import GuardExceeded, MomangError, ParseError
from .moves import (
    certificate_to_json,
    prismatic_circuits,
    psc_flip_certificate,
    recognize_vertexcut_reducible,
    simplex_facet_collapse,
    trace_to_json,
    vertex_cut,
)
from .polytope import (
    combinatorial_isomorphic,
    face_lattice,
    polytope_from_json,
    polytope_to_json,
)
from .zcomplex import (
    _chamber_counts,
    complex_summary,
    euler_characteristic_from_lattice,
)

EXIT_OK = 0
EXIT_VERDICT_NO = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


@dataclass
class Report:
    command: str
    inputs: dict
    flags: dict
    payload: dict
    elapsed_ms: float
    version: str

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command, "inputs": self.inputs,
            "flags": self.flags, "payload": self.payload,
            "elapsed_ms": round(self.elapsed_ms, 3), "version": self.version,
        }, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"version: {self.version}"]
        for k, v in sorted(self.inputs.items()):
            lines.append(f"input {k}: sha256:{v}")
        for k, v in sorted(self.flags.items()):
            lines.append(f"flag {k}: {v}")
        lines.append(f"elapsed_ms: {self.elapsed_ms:.3f}")
        lines.append("payload:")
        lines.append(json.dumps(self.payload, indent=2, sort_keys=True))
        return "\n".join(lines)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_text(path: str) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e


def _load_polytope(path: str):
    return polytope_from_json(_read_text(path))


def _load_hrep(path: str, tol: float):
    from .hrep import parse_hrep

    return parse_hrep(_read_text(path), tol=tol)


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--out", default=None, help="write the bare payload JSON here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="momang",
                                 description="simple-polytope recognition and "
                                             "moment-angle manifold toolkit")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="validate a polytope file")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("recognize", help="decide vertex-cut reducibility")
    sp.add_argument("polytope")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 on a negative verdict")
    _add_common(sp)

    sp = sub.add_parser("vertex-cut", help="truncate a vertex")
    sp.add_argument("polytope")
    sp.add_argument("--vertex", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("collapse", help="collapse a simplex facet")
    sp.add_argument("polytope")
    sp.add_argument("--facet", type=int, required=True)
    _add_common(sp)

    sp = sub.add_parser("flip-cert", help="search a codim>=3 flip certificate")
    sp.add_argument("polytope")
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--guard", type=int, default=100_000,
                    help="cap on generated search states")
    _add_common(sp)

    sp = sub.add_parser("andreev", help="count prismatic 3- and 4-circuits")
    sp.add_argument("polytope")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 when prismatic circuits exist")
    _add_common(sp)

    sp = sub.add_parser("moment-angle", help="full chamber-complex summary")
    sp.add_argument("polytope")
    sp.add_argument("--guard", type=int, default=20, help="cap on facet count")
    _add_common(sp)

    sp = sub.add_parser("euler", help="Euler characteristic (lattice form)")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("fixed-sets", help="components of facet preimages")
    sp.add_argument("polytope")
    sp.add_argument("--guard", type=int, default=20)
    _add_common(sp)

    sp = sub.add_parser("filtration", help="doubling filtration stages")
    sp.add_argument("polytope")
    sp.add_argument("--guard", type=int, default=20)
    _add_common(sp)

    sp = sub.add_parser("quadrics", help="relation matrix of an H-rep file")
    sp.add_argument("hrep")
    sp.add_argument("--tol", type=float, default=1e-9)
    _add_common(sp)

    sp = sub.add_parser("verify-quadrics", help="sampled non-degeneracy report")
    sp.add_argument("hrep")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    sp = sub.add_parser("isomorphic", help="compare two polytope files")
    sp.add_argument("polytope_a")
    sp.add_argument("polytope_b")
    _add_common(sp)

    sp = sub.add_parser("generate", help="emit a corpus polytope")
    sp.add_argument("kind", choices=("simplex", "cube", "prism",
                                     "random-vertexcuts", "dodecahedron"))
    sp.add_argument("param", type=int, nargs="?", default=None)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    return ap


def dispatch(args) -> tuple[dict, dict, dict, int]:
    """Run one command; returns (inputs, flags, payload, exit_code)."""
    cmd = args.command
    inputs: dict = {}
    flags: dict = {}
    code = EXIT_OK

    if cmd == "validate":
        inputs[args.polytope] = _digest(args.polytope)
        p = _load_polytope(args.polytope)
        payload = {"valid": True, **polytope_to_json(p)}

    elif cmd == "recognize":
        inputs[args.polytope] = _digest(args.polytope)
        flags["strict"] = args.strict
        trace = recognize_vertexcut_reducible(_load_polytope(args.polytope))
        payload = trace_to_json(trace)
        if args.strict and not trace.reducible:
            code = EXIT_VERDICT_NO

    elif cmd == "vertex-cut":
        inputs[args.polytope] = _digest(args.polytope)
        flags["vertex"] = args.vertex
        p = vertex_cut(_load_polytope(args.polytope), args.vertex)
        payload = polytope_to_json(p)

    elif cmd == "collapse":
        inputs[args.polytope] = _digest(args.polytope)
        flags["facet"] = args.facet
        p = simplex_facet_collapse(_load_polytope(args.polytope), args.facet)
        payload = polytope_to_json(p)

    elif cmd == "flip-cert":
        inputs[args.polytope] = _digest(args.polytope)
        flags["depth"] = args.depth
        flags["guard"] = args.guard
        moves = psc_flip_certificate(_load_polytope(args.polytope),
                                     depth=args.depth, state_cap=args.guard)
        payload = {"found": moves is not None, "depth": args.depth,
                   **certificate_to_json(moves)}

    elif cmd == "andreev":
        inputs[args.polytope] = _digest(args.polytope)
        flags["strict"] = args.strict
        p = _load_polytope(args.polytope)
        c3 = prismatic_circuits(p, 3)
        c4 = prismatic_circuits(p, 4)
        ok = not c3 and not c4
        payload = {
            "prismatic_3": len(c3), "prismatic_4": len(c4),
            "circuits_3": [list(c.facets) for c in c3],
            "circuits_4": [list(c.facets) for c in c4],
            "no_prismatic_circuits": ok,
        }
        if args.strict and not ok:
            code = EXIT_VERDICT_NO

    elif cmd == "euler":
        inputs[args.polytope] = _digest(args.polytope)
        p = _load_polytope(args.polytope)
        payload = {"euler": euler_characteristic_from_lattice(p, face_lattice(p))}

    elif cmd in ("moment-angle", "fixed-sets", "filtration"):
        inputs[args.polytope] = _digest(args.polytope)
        flags["guard"] = args.guard
        p = _load_polytope(args.polytope)
        if cmd == "moment-angle":
            payload = complex_summary(p, guard=args.guard)
        else:
            key = cmd.replace("-", "_")
            payload = {key: _chamber_counts(p, args.guard)[2][key]}

    elif cmd == "quadrics":
        from .hrep import quadrics_to_json, relation_matrix

        inputs[args.hrep] = _digest(args.hrep)
        flags["tol"] = args.tol
        payload = quadrics_to_json(relation_matrix(_load_hrep(args.hrep, args.tol)))

    elif cmd == "verify-quadrics":
        from .hrep import verify_nondegeneracy

        inputs[args.hrep] = _digest(args.hrep)
        flags.update(tol=args.tol, samples=args.samples, seed=args.seed)
        rep = verify_nondegeneracy(_load_hrep(args.hrep, args.tol),
                                   sample_count=args.samples, seed=args.seed)
        payload = {"expected_rank": rep.expected_rank, "min_rank": rep.min_rank,
                   "min_margin": rep.min_margin, "samples": rep.samples,
                   "failures": [list(f) for f in rep.failures],
                   "passed": rep.passed}

    elif cmd == "isomorphic":
        inputs[args.polytope_a] = _digest(args.polytope_a)
        inputs[args.polytope_b] = _digest(args.polytope_b)
        perm = combinatorial_isomorphic(_load_polytope(args.polytope_a),
                                        _load_polytope(args.polytope_b))
        payload = {"isomorphic": perm is not None,
                   "facet_bijection": list(perm) if perm is not None else None}

    elif cmd == "generate":
        flags.update(kind=args.kind, param=args.param, seed=args.seed)
        payload = polytope_to_json(generate(args.kind, args.param, args.seed))

    else:  # pragma: no cover - argparse enforces the choices
        raise MomangError(f"unknown command {cmd}")

    return inputs, flags, payload, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        inputs, flags, payload, code = dispatch(args)
        elapsed = (time.perf_counter() - started) * 1000.0
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except GuardExceeded as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_GUARD
    except (MomangError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_INPUT
    report = Report(command=args.command, inputs=inputs, flags=flags,
                    payload=payload, elapsed_ms=elapsed, version=__version__)
    print(report.to_json() if args.format == "json" else report.to_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
