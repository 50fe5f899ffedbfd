"""Command-line front end.

Every invocation runs one command and emits a report (JSON by default).
The report's ``inputs`` map each input path to the sha256 of the bytes
that were parsed: every input file is read once, in argument order, and
hashed before any is decoded.  ``flags`` echoes every option of the
subcommand, unchanged, apart from ``--format``, ``--out`` and the input
paths.  With ``--out`` the bare payload (the wire-format JSON of the
command's result) is additionally written to the given path, so generated
polytopes, traces and quadric systems can be piped into further
invocations.

Exit codes: 0 ok, 1 negative verdict under ``--strict`` (recognize,
andreev), 2 input error, 3 size cap exceeded (every cap is a module
constant checked against the work predicted from the input; no option sets one).

Each command imports the modules it runs, in its branch of
:func:`dispatch`; only :mod:`momang.errors` and :mod:`momang.polytope`, which
decode and encode polytopes, load with the CLI.  So ``validate`` and
``isomorphic`` load no other module, ``generate`` loads
:mod:`momang.corpus`, the move commands :mod:`momang.moves`, the chamber
commands :mod:`momang.zcomplex`, and only the H-rep commands
(``quadrics``, ``verify-quadrics``) load :mod:`momang.hrep` and, with it,
numpy.  The package's records are plain classes, so no command loads
``dataclasses``, and only numpy loads ``inspect``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import __version__
from .errors import GuardExceeded, MomangError, ParseError
from .polytope import (
    combinatorial_isomorphic,
    face_lattice,
    polytope_from_json,
    polytope_to_json,
)

EXIT_OK = 0
EXIT_VERDICT_NO = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

_INPUTS = ("polytope", "polytope_a", "polytope_b", "hrep")
_NOT_FLAGS = {"command", "format", "out", *_INPUTS}


def _read_inputs(args) -> tuple[dict, list]:
    """Read every input file once, in argument order, and hash its bytes.

    Returns ``path -> sha256`` and one ``(path, bytes)`` per input argument;
    nothing is decoded yet, so a missing file fails before any parse.
    """
    paths = [getattr(args, name) for name in _INPUTS if name in vars(args)]
    data = {}
    for path in dict.fromkeys(paths):
        with open(path, "rb") as fh:
            data[path] = fh.read()
    return ({path: hashlib.sha256(raw).hexdigest() for path, raw in data.items()},
            [(path, data[path]) for path in paths])


def _decode(path: str, raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e


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
    _add_common(sp)

    sp = sub.add_parser("andreev", help="count prismatic 3- and 4-circuits")
    sp.add_argument("polytope")
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 when prismatic circuits exist")
    _add_common(sp)

    sp = sub.add_parser("moment-angle", help="full chamber-complex summary")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("euler", help="Euler characteristic (lattice form)")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("fixed-sets", help="components of facet preimages")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("filtration", help="doubling filtration stages")
    sp.add_argument("polytope")
    _add_common(sp)

    sp = sub.add_parser("quadrics", help="relation matrix of an H-rep file")
    sp.add_argument("hrep")
    _add_common(sp)

    sp = sub.add_parser("verify-quadrics", help="sampled non-degeneracy report")
    sp.add_argument("hrep")
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


def dispatch(args, sources: list) -> tuple[dict, int]:
    """Run one command on its ``(path, bytes)`` inputs; returns
    (payload, exit_code).  Each input is decoded just before it is parsed."""
    cmd = args.command
    code = EXIT_OK
    texts = (_decode(path, raw) for path, raw in sources)
    p = polytope_from_json(next(texts)) if "polytope" in vars(args) else None

    if cmd == "validate":
        payload = {"valid": True, **polytope_to_json(p)}

    elif cmd == "recognize":
        from .moves import recognize_vertexcut_reducible, trace_to_json

        trace = recognize_vertexcut_reducible(p)
        payload = trace_to_json(trace)
        if args.strict and not trace.reducible:
            code = EXIT_VERDICT_NO

    elif cmd == "vertex-cut":
        from .moves import vertex_cut

        payload = polytope_to_json(vertex_cut(p, args.vertex))

    elif cmd == "collapse":
        from .moves import simplex_facet_collapse

        payload = polytope_to_json(simplex_facet_collapse(p, args.facet))

    elif cmd == "flip-cert":
        from .moves import certificate_to_json, psc_flip_certificate

        moves = psc_flip_certificate(p, depth=args.depth)
        payload = {"found": moves is not None, "depth": args.depth,
                   **certificate_to_json(moves)}

    elif cmd == "andreev":
        from .moves import _circuit_rings  # the facets alone, no records

        c3, c4 = _circuit_rings(p, 3), _circuit_rings(p, 4)
        ok = not c3 and not c4
        payload = {"prismatic_3": len(c3), "prismatic_4": len(c4), "circuits_3": c3,
                   "circuits_4": c4, "no_prismatic_circuits": ok}
        if args.strict and not ok:
            code = EXIT_VERDICT_NO

    elif cmd == "euler":
        from .zcomplex import _cell_counts

        payload = {"euler": _cell_counts(face_lattice(p))[1]}

    elif cmd == "moment-angle":
        from .zcomplex import complex_summary

        payload = complex_summary(p)

    elif cmd == "fixed-sets":
        from .zcomplex import _fixed_set_rows, _stars_pairs

        payload = {"fixed_sets": _fixed_set_rows(_stars_pairs(p)[0])}

    elif cmd == "filtration":
        from .zcomplex import _stage_rows, _stars_pairs

        payload = {"filtration": _stage_rows(*_stars_pairs(p))}

    elif cmd == "quadrics":
        from .hrep import parse_hrep, quadrics_to_json, relation_matrix

        payload = quadrics_to_json(relation_matrix(parse_hrep(next(texts))))

    elif cmd == "verify-quadrics":
        from .hrep import parse_hrep, verify_nondegeneracy

        rep = verify_nondegeneracy(parse_hrep(next(texts)),
                                   sample_count=args.samples, seed=args.seed)
        payload = {"expected_rank": rep.expected_rank, "min_rank": rep.min_rank,
                   "min_margin": rep.min_margin, "samples": rep.samples,
                   "failures": [list(f) for f in rep.failures],
                   "passed": rep.passed}

    elif cmd == "isomorphic":
        perm = combinatorial_isomorphic(*map(polytope_from_json, texts))
        payload = {"isomorphic": perm is not None,
                   "facet_bijection": list(perm) if perm is not None else None}

    elif cmd == "generate":
        from .corpus import generate

        payload = polytope_to_json(generate(args.kind, args.param, args.seed))

    else:  # pragma: no cover - argparse enforces the choices
        raise MomangError(f"unknown command {cmd}")

    return payload, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS}
    started = time.perf_counter()
    try:
        inputs, sources = _read_inputs(args)
        payload, code = dispatch(args, sources)
        elapsed = (time.perf_counter() - started) * 1000.0
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except (MomangError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_GUARD if isinstance(e, GuardExceeded) else EXIT_INPUT
    if args.format == "json":
        print(json.dumps({"command": args.command, "inputs": inputs, "flags": flags,
                          "payload": payload, "elapsed_ms": round(elapsed, 3),
                          "version": __version__}, indent=2, sort_keys=True))
    else:
        print("\n".join([f"command: {args.command}", f"version: {__version__}",
                         *(f"input {k}: sha256:{v}" for k, v in sorted(inputs.items())),
                         *(f"flag {k}: {v}" for k, v in sorted(flags.items())),
                         f"elapsed_ms: {elapsed:.3f}", "payload:",
                         json.dumps(payload, indent=2, sort_keys=True)]))
    return code


if __name__ == "__main__":
    sys.exit(main())
