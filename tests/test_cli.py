import argparse
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import momang
import momang.cli
from momang import (complex_summary, cube, polytope_from_json, polytope_to_json, prism,
                    random_vertexcuts, simplex)
from momang.cli import main
from momang.corpus import cube_hrep, dodecahedron_hrep, prism_hrep, simplex_hrep
from momang.hrep import HRep, hrep_to_text
from momang.moves import ReductionTrace, rebuild_by_cuts
from momang.polytope import validate_polytope


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip().startswith("{") else out.out
    return code, report, out.err


def write_polytope(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(json.dumps(polytope_to_json(p)))
    return str(path)


def test_generate_all_kinds(tmp_path, capsys):
    cases = [("simplex", "3"), ("cube", "3"), ("prism", None),
             ("random-vertexcuts", "4"), ("dodecahedron", None)]
    for kind, param in cases:
        argv = ["generate", kind] + ([param] if param else []) + \
            ["--seed", "3", "--out", str(tmp_path / f"{kind}.json")]
        code, report, _ = run(capsys, *argv)
        assert code == 0
        saved = json.loads((tmp_path / f"{kind}.json").read_text())
        polytope_from_json(saved)  # must load cleanly
        assert saved == report["payload"]


def test_generate_bad_parameters(capsys):
    code, _, err = run(capsys, "generate", "prism", "7")
    assert code == 2 and "BadParameters" in err


def test_recognize_prism_yes(tmp_path, capsys):
    path = write_polytope(tmp_path, "prism.json", prism())
    code, report, _ = run(capsys, "recognize", path)
    assert code == 0
    assert report["payload"]["verdict"] == "yes"
    assert len(report["payload"]["steps"]) == 1


def test_recognize_cube_no_and_strict(tmp_path, capsys):
    from momang import cube
    path = write_polytope(tmp_path, "cube.json", cube(3))
    code, report, _ = run(capsys, "recognize", path)
    assert code == 0 and report["payload"]["verdict"] == "no"
    code, report, _ = run(capsys, "recognize", path, "--strict")
    assert code == 1 and report["payload"]["verdict"] == "no"


def test_euler_triangle(tmp_path, capsys):
    path = write_polytope(tmp_path, "simplex2.json", simplex(2))
    code, report, _ = run(capsys, "euler", path)
    assert code == 0 and report["payload"]["euler"] == 2


def test_validate_and_errors(tmp_path, capsys):
    path = write_polytope(tmp_path, "s3.json", simplex(3))
    code, report, _ = run(capsys, "validate", path)
    assert code == 0 and report["payload"]["valid"] is True
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3, "facets": 4, "vertices": [[0,1,2],[0,1,2,3]]}')
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "NotSimple" in err
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("doc", [
    '{"dim": 3, "facets": "x", "vertices": [[0, 1, 2]]}',
    '{"dim": "abc", "facets": 4, "vertices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]}',
    '{"dim": 3, "facets": 4, "vertices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], '
    '"facet_labels": 5}',
    '{"dim": true, "facets": 2, "vertices": [[0], [1]]}',
], ids=["facets-string", "dim-string", "labels-scalar", "dim-bool"])
def test_validate_malformed_json_is_input_error(tmp_path, capsys, doc):
    path = tmp_path / "malformed.json"
    path.write_text(doc)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "ParseError" in err


def test_generate_cube_over_guard(capsys):
    # the guard fires before a single vertex of the 2^25 is listed
    code, _, err = run(capsys, "generate", "cube", "25")
    assert code == 3 and "GuardExceeded" in err


def test_generate_random_vertexcuts_over_guard(capsys):
    # 2 * 10^7 + 4 vertices: the guard fires before the first cut
    started = time.perf_counter()
    code, _, err = run(capsys, "generate", "random-vertexcuts", "10000000")
    assert code == 3 and "GuardExceeded" in err
    assert time.perf_counter() - started < 1.0


def test_euler_over_face_lattice_cap(tmp_path, capsys):
    # cube 13 passes the generator's cap, but its face lattice would walk
    # 2^13 subsets at each of 2^13 vertices; the guard fires before the walk
    src = str(tmp_path / "cube13.json")
    assert main(["generate", "cube", "13", "--out", src]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    code, _, err = run(capsys, "euler", src)
    assert code == 3 and "GuardExceeded" in err
    assert time.perf_counter() - started < 2.0


def test_row_commands_build_no_face_lattice(tmp_path, monkeypatch, capsys):
    # fixed-sets and filtration read only the facet stars and the facet
    # pairs, so cube 12 passes them; its face lattice (2^12 subsets at each
    # of 2^12 vertices) is over the cap for moment-angle and euler
    src = str(tmp_path / "cube12.json")
    assert main(["generate", "cube", "12", "--out", src]) == 0
    capsys.readouterr()

    def unreachable(*args):
        raise AssertionError("a row command built the face lattice")

    with monkeypatch.context() as patch:
        patch.setattr("momang.zcomplex.face_lattice", unreachable)
        code, report, _ = run(capsys, "fixed-sets", src)
        assert code == 0
        assert report["payload"]["fixed_sets"] == [{"facet": i, "components": 2}
                                                   for i in range(24)]
        code, report, _ = run(capsys, "filtration", src)
        assert code == 0
        rows = report["payload"]["filtration"]
        assert [(row["j"], row["facets"], row["chambers"]) for row in rows] == [
            (j, (24 - j) << j, 1 << j) for j in range(25)]
    for command in ("moment-angle", "euler"):
        code, _, err = run(capsys, command, src)
        assert code == 3 and "face-lattice subset words" in err, command


def test_fixed_sets_builds_no_filtration_row(tmp_path, monkeypatch, capsys):
    p = random_vertexcuts(40, 0)
    src = write_polytope(tmp_path, "rvc40.json", p)
    expected = complex_summary(p)["fixed_sets"]

    def unreachable(*args):
        raise AssertionError("fixed-sets built a filtration row")

    monkeypatch.setattr("momang.zcomplex._boundary_counts", unreachable)
    code, report, err = run(capsys, "fixed-sets", src)
    assert code == 0, err
    assert report["payload"]["fixed_sets"] == expected


def test_cut_collapse_pipeline(tmp_path, capsys):
    path = write_polytope(tmp_path, "s3.json", simplex(3))
    out = str(tmp_path / "cut.json")
    code, _, _ = run(capsys, "vertex-cut", path, "--vertex", "0", "--out", out)
    assert code == 0
    code, report, _ = run(capsys, "collapse", out, "--facet", "4")
    assert code == 0
    assert polytope_from_json(report["payload"]) == simplex(3)


def test_isomorphic_command(tmp_path, capsys):
    a = write_polytope(tmp_path, "a.json", prism())
    cut = str(tmp_path / "cut.json")
    s3 = write_polytope(tmp_path, "s3.json", simplex(3))
    run(capsys, "vertex-cut", s3, "--vertex", "1", "--out", cut)
    code, report, _ = run(capsys, "isomorphic", a, cut)
    assert code == 0 and report["payload"]["isomorphic"] is True
    assert len(report["payload"]["facet_bijection"]) == 5
    code, report, _ = run(capsys, "isomorphic", a, s3)
    assert report["payload"]["isomorphic"] is False


def test_andreev_counts(tmp_path, capsys):
    from momang import cube, dodecahedron
    path = write_polytope(tmp_path, "cube.json", cube(3))
    code, report, _ = run(capsys, "andreev", path)
    assert report["payload"]["prismatic_3"] == 0
    assert report["payload"]["prismatic_4"] == 3
    assert report["payload"]["no_prismatic_circuits"] is False
    code, report, _ = run(capsys, "andreev", path, "--strict")
    assert code == 1
    path = write_polytope(tmp_path, "dodeca.json", dodecahedron())
    code, report, _ = run(capsys, "andreev", path, "--strict")
    assert code == 0
    assert report["payload"]["no_prismatic_circuits"] is True


def test_andreev_builds_no_circuit_record(tmp_path, monkeypatch, capsys):
    # the command prints facets only, so it lists them without records
    import momang.moves as moves
    from conftest import cut_gon_prism

    def refuse(self, *args, **kwargs):
        raise AssertionError("andreev built a PrismaticCircuit")

    monkeypatch.setattr(moves.PrismaticCircuit, "__init__", refuse)
    with pytest.raises(AssertionError):
        moves.prismatic_circuits(cube(3), 4)
    for p, counts in [(cube(3), (0, 3)), (prism(), (1, 0)), (cut_gon_prism(20), (1, 170))]:
        code, report, _ = run(capsys, "andreev", write_polytope(tmp_path, "p.json", p))
        payload = report["payload"]
        assert (code, payload["prismatic_3"], payload["prismatic_4"]) == (0, *counts)
        assert len(payload["circuits_4"]) == counts[1]


def test_flip_cert_command(tmp_path, monkeypatch, capsys):
    path = write_polytope(tmp_path, "prism.json", prism())
    code, report, _ = run(capsys, "flip-cert", path, "--depth", "2")
    assert code == 0 and report["payload"]["found"] is True
    assert report["payload"]["moves"] == [
        {"kind": "vertex", "face": [0, 1, 2], "codim": 3}]
    monkeypatch.setattr("momang.moves._STATE_CAP", 1)
    code, _, err = run(capsys, "flip-cert", path, "--depth", "2")
    assert code == 3 and "GuardExceeded" in err


def test_moment_angle_summary(tmp_path, monkeypatch, capsys):
    from momang import cube
    path = write_polytope(tmp_path, "cube.json", cube(3))
    code, report, _ = run(capsys, "moment-angle", path)
    payload = report["payload"]
    assert payload["cells_by_dim"] == [64, 192, 192, 64]
    assert payload["euler"] == 0 and payload["orientable"] is True
    # 7 count rows over the cube's 6 facets and 12 edges
    monkeypatch.setattr("momang.zcomplex._WORK_CAP", 7 * (6 + 12) - 1)
    code, _, err = run(capsys, "moment-angle", path)
    assert code == 3 and "GuardExceeded" in err


def test_chamber_commands_past_twenty_facets(tmp_path, capsys):
    # m = 44: the counts cap predicts 45 * (44 + 126) row steps, far below it
    src = str(tmp_path / "rvc40.json")
    assert main(["generate", "random-vertexcuts", "40", "--out", src]) == 0
    capsys.readouterr()
    for command in ("moment-angle", "fixed-sets", "filtration"):
        code, report, err = run(capsys, command, src)
        assert code == 0, (command, err)
    assert len(report["payload"]["filtration"]) == 45


def test_fixed_sets_and_filtration_commands(tmp_path, capsys):
    path = write_polytope(tmp_path, "prism.json", prism())
    code, report, _ = run(capsys, "fixed-sets", path)
    counts = {e["facet"]: e["components"] for e in report["payload"]["fixed_sets"]}
    assert counts == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2}
    code, report, _ = run(capsys, "filtration", path)
    stages = report["payload"]["filtration"]
    assert [st["facets"] for st in stages] == [(5 - j) * 2 ** j for j in range(6)]
    assert stages[-1]["type1_edges"] == 0


def test_quadrics_commands(tmp_path, capsys):
    hpath = tmp_path / "simplex3.hrep"
    hpath.write_text(hrep_to_text(simplex_hrep(3)))
    code, report, _ = run(capsys, "quadrics", str(hpath))
    assert code == 0
    assert report["payload"] == {"m": 4, "gamma": [[1.0, 1.0, 1.0, 1.0]],
                                 "rhs": [1.0]}
    cpath = tmp_path / "cube.hrep"
    cpath.write_text(hrep_to_text(cube_hrep(3)))
    code, report, _ = run(capsys, "verify-quadrics", str(cpath),
                          "--samples", "120", "--seed", "7")
    assert code == 0
    payload = report["payload"]
    assert payload["passed"] is True and payload["min_rank"] == 3
    assert payload["samples"] >= 120


@pytest.mark.parametrize("shift,scales", [
    (1e9, None), (0.0, (1e9, 1e-9)), (0.0, (1e-12, 1e12)), (1e9, (1e-9, 1e9))],
    ids=["translated", "scaled", "scaled-1e12", "translated-scaled"])
@pytest.mark.parametrize("name", ["cube3", "dodecahedron"])
def test_quadrics_commands_on_moved_presentations(tmp_path, capsys, name, shift, scales):
    # the same polytope, translated and with rows rescaled, is accepted
    h = GOLDEN_HREPS[name]()
    rows, offsets = np.asarray(h.A.T), np.asarray(h.b)
    direction = np.arange(1.0, h.n + 1)
    offsets = offsets - rows @ (shift * direction / np.linalg.norm(direction))
    if scales is not None:
        factors = np.resize(scales, h.m)
        rows, offsets = rows * factors[:, None], offsets * factors
    src = tmp_path / "moved.hrep"
    src.write_text(hrep_to_text(HRep._trusted(n=h.n, m=h.m, A=rows.T, b=offsets)))
    for argv in (["quadrics"], ["verify-quadrics", "--samples", "60"]):
        code, report, err = run(capsys, argv[0], str(src), *argv[1:])
        assert code == 0, err
    assert report["payload"]["passed"] is True


def test_payload_deterministic(tmp_path, capsys):
    path = write_polytope(tmp_path, "p.json", prism())
    _, first, _ = run(capsys, "recognize", path)
    _, second, _ = run(capsys, "recognize", path)
    assert first["payload"] == second["payload"]
    assert first["inputs"] == second["inputs"]


def test_text_format(tmp_path, capsys):
    path = write_polytope(tmp_path, "p.json", prism())
    code = main(["recognize", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "verdict" in out and "command: recognize" in out


CUBE_SHA = "9784b015364cadb0944745d40ab9bfbb21d03b1388e1c88fac04ff7fe64801a4"
PRISM_SHA = "45eb1a3136c0279000510f4816ea0592771bd6e5a37746be698e8fcb79e14aa9"
HREP_SHA = "7a614c7836768d6b22b975d808ce727820d55dd0538f091e5ffc43193edd8c2e"
CUBE_VERTICES = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 3], [1, 3, 5],
                 [2, 3, 4], [3, 4, 5]]
PRISM_VERTICES = [[0, 1, 3], [0, 1, 4], [0, 2, 3], [0, 2, 4], [1, 2, 3], [1, 2, 4]]
# (argv, exit code, report without elapsed_ms and version, text header lines);
# cube.json is `generate cube 3`, a.json is `generate prism`, cube.hrep is
# cube_hrep(3)
WHOLE_REPORTS = [
    (["validate", "cube.json"], 0,
     {"command": "validate", "flags": {}, "inputs": {"cube.json": CUBE_SHA},
      "payload": {"dim": 3, "facets": 6, "valid": True, "vertices": CUBE_VERTICES}},
     ["command: validate", f"input cube.json: sha256:{CUBE_SHA}"]),
    (["recognize", "cube.json", "--strict"], 1,
     {"command": "recognize", "flags": {"strict": True}, "inputs": {"cube.json": CUBE_SHA},
      "payload": {"intermediate_facet_counts": [], "steps": [], "verdict": "no"}},
     ["command: recognize", f"input cube.json: sha256:{CUBE_SHA}", "flag strict: True"]),
    (["moment-angle", "a.json"], 0,
     {"command": "moment-angle", "flags": {}, "inputs": {"a.json": PRISM_SHA},
      "payload": {
          "cells_by_dim": [24, 72, 80, 32], "components": 1, "euler": 0,
          "filtration": [{"facets": 5, "j": 0, "type1_edges": 9, "type2_edges": 0},
                         {"facets": 8, "j": 1, "type1_edges": 10, "type2_edges": 4},
                         {"facets": 12, "j": 2, "type1_edges": 8, "type2_edges": 12},
                         {"facets": 16, "j": 3, "type1_edges": 0, "type2_edges": 24},
                         {"facets": 16, "j": 4, "type1_edges": 0, "type2_edges": 24},
                         {"facets": 0, "j": 5, "type1_edges": 0, "type2_edges": 0}],
          "fixed_sets": [{"components": 1, "facet": 0}, {"components": 1, "facet": 1},
                         {"components": 1, "facet": 2}, {"components": 2, "facet": 3},
                         {"components": 2, "facet": 4}],
          "m": 5, "orientable": True}},
     ["command: moment-angle", f"input a.json: sha256:{PRISM_SHA}"]),
    (["verify-quadrics", "cube.hrep", "--samples", "40", "--seed", "3"], 0,
     {"command": "verify-quadrics", "flags": {"samples": 40, "seed": 3},
      "inputs": {"cube.hrep": HREP_SHA},
      "payload": {"expected_rank": 3, "failures": [], "min_margin": 1.9999999999999998,
                  "min_rank": 3, "passed": True, "samples": 40}},
     ["command: verify-quadrics", f"input cube.hrep: sha256:{HREP_SHA}",
      "flag samples: 40", "flag seed: 3"]),
    (["generate", "prism"], 0,
     {"command": "generate", "flags": {"kind": "prism", "param": None, "seed": 0},
      "inputs": {}, "payload": {"dim": 3, "facets": 5, "vertices": PRISM_VERTICES}},
     ["command: generate", "flag kind: prism", "flag param: None", "flag seed: 0"]),
    (["isomorphic", "a.json", "a.json"], 0,
     {"command": "isomorphic", "flags": {}, "inputs": {"a.json": PRISM_SHA},
      "payload": {"facet_bijection": [0, 1, 2, 3, 4], "isomorphic": True}},
     ["command: isomorphic", f"input a.json: sha256:{PRISM_SHA}"]),
]


@pytest.mark.parametrize("argv,code,report,head", WHOLE_REPORTS,
                         ids=[" ".join(case[0]) for case in WHOLE_REPORTS])
def test_whole_reports(tmp_path, monkeypatch, capsys, argv, code, report, head):
    # every key and value of both renderings, elapsed_ms set to 0
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "cube", "3", "--out", "cube.json"]) == 0
    assert main(["generate", "prism", "--out", "a.json"]) == 0
    Path("cube.hrep").write_text(hrep_to_text(cube_hrep(3)))
    capsys.readouterr()

    def rendered(fmt):
        assert main([*argv, "--format", fmt]) == code
        out = capsys.readouterr().out
        return re.sub(r'("?elapsed_ms"?): [0-9.]+', r"\1: 0", out)

    report = {**report, "elapsed_ms": 0, "version": momang.__version__}
    assert rendered("json") == json.dumps(report, indent=2, sort_keys=True) + "\n"
    command, *rest = head
    assert rendered("text") == "\n".join([
        command, f"version: {momang.__version__}", *rest, "elapsed_ms: 0", "payload:",
        json.dumps(report["payload"], indent=2, sort_keys=True)]) + "\n"


def test_each_input_read_once(tmp_path, monkeypatch, capsys):
    # the digest in the report is taken from the bytes that were parsed
    a = write_polytope(tmp_path, "a.json", prism())
    b = write_polytope(tmp_path, "b.json", cube(3))
    h = tmp_path / "cube.hrep"
    h.write_text(hrep_to_text(cube_hrep(3)))
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(momang.cli, "open", recording_open, raising=False)
    for argv in (["validate", a], ["isomorphic", a, b], ["quadrics", str(h)]):
        opened.clear()
        assert main(argv) == 0, argv
        assert sorted(opened) == sorted(argv[1:]), argv
    capsys.readouterr()
    # every input is read before any is decoded: the missing file is reported
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"dim": 3, "facets": 4, "vertices": [], "note": "\xff"}')
    assert main(["isomorphic", str(bad), str(tmp_path / "missing.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's momang."""
    root = os.path.dirname(os.path.dirname(momang.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    # the child imports momang from wherever this process found it, so the
    # test also runs from a checkout without an install
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-m", "momang.cli", "generate",
                           "simplex", "3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["facets"] == 4


IMPORT_BUDGET_SCRIPT = """
import contextlib, io, json, sys
from momang.cli import main
from momang.polytope import polytope_to_json
from momang.corpus import cube, prism

def write(name, p):
    with open(name, "w") as fh:
        json.dump(polytope_to_json(p), fh)
    return name

a, b = write("cube.json", cube(3)), write("prism.json", prism())
runs = [["validate", a], ["recognize", a], ["andreev", a], ["euler", a],
        ["moment-angle", b], ["fixed-sets", b], ["filtration", b],
        ["isomorphic", a, b],
        ["generate", "random-vertexcuts", "12"], ["generate", "dodecahedron"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "heavy": sorted(
    name for name in ("scipy", "numpy", "networkx") if name in sys.modules)}))
"""


HREP_BUDGET_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # from here on, importing scipy raises ImportError
from momang.cli import main
from momang.corpus import cube_hrep
from momang.hrep import hrep_to_text

with open("cube.hrep", "w") as fh:
    fh.write(hrep_to_text(cube_hrep(3)))
with open("redundant.hrep", "w") as fh:
    fh.write("3 5\\n1 0 0 0\\n1 0 0 0\\n0 1 0 0\\n0 0 1 0\\n-1 -1 -1 1\\n")
runs = [["quadrics", "cube.hrep"], ["verify-quadrics", "cube.hrep"],
        ["quadrics", "redundant.hrep"]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name, module in sys.modules.items()
    if module is not None and name.split(".")[0] == "scipy")}))
"""


def test_combinatorial_commands_import_no_heavy_libraries(tmp_path):
    # a fresh interpreter: the test process itself has numpy, scipy and
    # networkx loaded already
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", IMPORT_BUDGET_SCRIPT],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 10, "heavy": []}
    # the H-rep commands run with every import of scipy failing
    proc = subprocess.run([sys.executable, "-c", HREP_BUDGET_SCRIPT],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 2], "scipy": []}


MEMORY_BUDGET_SCRIPT = """
import json, resource, subprocess, sys
codes = [subprocess.run([sys.executable, "-m", "momang.cli", command, sys.argv[1]],
                        stdout=subprocess.DEVNULL).returncode
         for command in ("moment-angle", "fixed-sets", "filtration")]
print(json.dumps({"codes": codes,
                  "peak_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


MODULES_SCRIPT = """
import contextlib, io, json, sys
from momang.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(
    name for name in sys.modules if name.startswith("momang.")),
    "stdlib": [name for name in ("dataclasses", "inspect") if name in sys.modules]}))
"""

COMMAND_MODULES = {
    ("validate", "cube.json"): (),
    ("isomorphic", "cube.json", "prism.json"): (),
    ("recognize", "cube.json"): ("moves",),
    ("andreev", "cube.json"): ("moves",),
    ("flip-cert", "prism.json", "--depth", "2"): ("moves",),
    ("vertex-cut", "cube.json", "--vertex", "0"): ("moves",),
    ("collapse", "cut.json", "--facet", "6"): ("moves",),
    ("euler", "cube.json"): ("zcomplex",),
    ("moment-angle", "cube.json"): ("zcomplex",),
    ("fixed-sets", "cube.json"): ("zcomplex",),
    ("filtration", "cube.json"): ("zcomplex",),
    ("generate", "cube", "3"): ("corpus",),
    ("quadrics", "cube.hrep"): ("hrep",),
    ("verify-quadrics", "cube.hrep"): ("hrep",),
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # one fresh interpreter per command: the CLI brings errors and polytope,
    # and each command's branch imports the one module it runs.  No command
    # loads dataclasses; only numpy, under the H-rep commands, loads inspect.
    write_polytope(tmp_path, "cube.json", cube(3))
    write_polytope(tmp_path, "prism.json", prism())
    write_polytope(tmp_path, "cut.json", momang.vertex_cut(cube(3), 0))
    (tmp_path / "cube.hrep").write_text(hrep_to_text(cube_hrep(3)))
    for argv, extra in COMMAND_MODULES.items():
        proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, *argv],
                              capture_output=True, text=True, env=fresh_env(), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"code": 0, "modules": sorted(
            f"momang.{name}" for name in ("cli", "errors", "polytope", *extra)),
            "stdlib": ["inspect"] if "hrep" in extra else []}, argv


PUBLIC_NAMES_SCRIPT = """
import json, sys
import momang

loaded = sorted(name for name in sys.modules if name.startswith("momang"))
names = [name for name in dir(momang) if not name.startswith("_")]
resolved = {name: getattr(momang, name).__module__ for name in names if name != "errors"}
print(json.dumps({"loaded": loaded, "names": names, "resolved": resolved,
                  "hrep_names": hasattr(momang, "_HREP_NAMES")}))
"""


def test_public_names_load_their_module_on_first_access(tmp_path):
    proc = subprocess.run([sys.executable, "-c", PUBLIC_NAMES_SCRIPT],
                          capture_output=True, text=True, env=fresh_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == ["momang", "momang.errors"]
    assert len(report["names"]) == 59 and "errors" in report["names"]  # 58 and errors
    assert set(report["resolved"].values()) == {
        "momang.corpus", "momang.moves", "momang.polytope", "momang.zcomplex", "momang.hrep"}
    assert not report["hrep_names"]
    with pytest.raises(AttributeError):
        momang.no_such_name


def test_chamber_commands_memory_budget(tmp_path, monkeypatch, capsys):
    # 20 facets: 2^20 chambers, ~3 * 10^7 cells if materialised; the counts
    # come from the facet stars and the face lattice, so each whole process
    # stays small.  A small
    # fresh interpreter starts the commands: a child's peak RSS includes its
    # parent's at the fork, and this test process holds numpy and scipy.
    src = str(tmp_path / "rvc16.json")
    assert main(["generate", "random-vertexcuts", "16", "--seed", "0",
                 "--out", src]) == 0
    # 21 count rows over 20 facets and 54 edges; one step less fires the cap
    with monkeypatch.context() as patch:
        patch.setattr("momang.zcomplex._WORK_CAP", 21 * (20 + 54) - 1)
        assert main(["fixed-sets", src]) == 3
    capsys.readouterr()
    env = fresh_env()
    proc = subprocess.run([sys.executable, "-c", MEMORY_BUDGET_SCRIPT, src],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0, 0]
    assert report["peak_kib"] < 100 * 1024, report  # ru_maxrss is in KiB on Linux


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_INPUTS = {"cube3": ["cube", "3"], "prism": ["prism"],
                 "dodecahedron": ["dodecahedron"],
                 "rvc12": ["random-vertexcuts", "12", "--seed", "0"]}
GOLDEN_CASES = [(cmd, name) for cmd in ("validate", "recognize", "andreev", "euler",
                                        "moment-angle", "fixed-sets", "filtration")
                for name in GOLDEN_INPUTS]


@pytest.mark.parametrize("command,name", GOLDEN_CASES,
                         ids=[f"{c}-{n}" for c, n in GOLDEN_CASES])
def test_golden_payloads(tmp_path, capsys, command, name):
    # tests/golden/<command>-<input>.json hold the bare --out payloads;
    # refactors must reproduce them byte for byte
    src, out = tmp_path / "input.json", tmp_path / "payload.json"
    assert main(["generate", *GOLDEN_INPUTS[name], "--out", str(src)]) == 0
    assert main([command, str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{command}-{name}.json").read_bytes()


def test_golden_generate_dodecahedron(tmp_path, capsys):
    out = tmp_path / "payload.json"
    assert main(["generate", "dodecahedron", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "generate-dodecahedron.json").read_bytes()


GOLDEN_HREPS = {"cube3": lambda: cube_hrep(3), "prism": prism_hrep,
                "dodecahedron": dodecahedron_hrep}
GOLDEN_HREP_CASES = [(argv, name)
                     for argv in (["quadrics"], ["verify-quadrics", "--seed", "0"])
                     for name in GOLDEN_HREPS]


@pytest.mark.parametrize("argv,name", GOLDEN_HREP_CASES,
                         ids=[f"{a[0]}-{n}" for a, n in GOLDEN_HREP_CASES])
def test_golden_hrep_payloads(tmp_path, capsys, argv, name):
    src, out = tmp_path / f"{name}.hrep", tmp_path / "payload.json"
    src.write_text(hrep_to_text(GOLDEN_HREPS[name]()))
    assert main([argv[0], str(src), *argv[1:], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{argv[0]}-{name}.json").read_bytes()


# (generate argv, vertices cut in turn, search depth)
GOLDEN_FLIPS = {"prism": (["prism"], [], 3),
                "cutcube": (["cube", "3"], [0], 5),
                "cutsimplex4": (["simplex", "4"], [0, 3], 3)}


@pytest.mark.parametrize("name", GOLDEN_FLIPS)
def test_golden_flip_cert(tmp_path, capsys, name):
    gen, cuts, depth = GOLDEN_FLIPS[name]
    src, out = str(tmp_path / "input.json"), tmp_path / "payload.json"
    assert main(["generate", *gen, "--out", src]) == 0
    for vertex in cuts:
        assert main(["vertex-cut", src, "--vertex", str(vertex), "--out", src]) == 0
    assert main(["flip-cert", src, "--depth", str(depth), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"flip-cert-{name}.json").read_bytes()


def relabel(p, perm):
    return validate_polytope(p.dim, [tuple(perm[f] for f in v) for v in p.vertices])


def test_golden_isomorphic_relabelled(tmp_path, capsys):
    # two facet relabellings of one polytope, so the bijection is nontrivial
    p = random_vertexcuts(12, 0)
    shuffled = list(range(p.facet_count))
    random.Random(1).shuffle(shuffled)
    a = write_polytope(tmp_path, "a.json", relabel(p, list(reversed(range(p.facet_count)))))
    b = write_polytope(tmp_path, "b.json", relabel(p, shuffled))
    out = tmp_path / "payload.json"
    assert main(["isomorphic", a, b, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "isomorphic-rvc12.json").read_bytes()


def test_isomorphic_self_at_a_thousand_cuts(tmp_path, capsys):
    # one search frame per facet used to overflow the interpreter stack
    a = write_polytope(tmp_path, "a.json", random_vertexcuts(1000, 0))
    code, report, _ = run(capsys, "isomorphic", a, a)
    assert code == 0 and report["payload"]["isomorphic"] is True
    assert report["payload"]["facet_bijection"] == list(range(1004))


def test_big_input_recognize_rebuild_isomorphic(tmp_path, capsys):
    p = random_vertexcuts(4000, 0)
    a = write_polytope(tmp_path, "a.json", p)
    trace = tmp_path / "trace.json"
    code, report, _ = run(capsys, "recognize", a, "--out", str(trace))
    assert code == 0 and report["payload"]["verdict"] == "yes"
    payload = json.loads(trace.read_text())
    assert len(payload["steps"]) == 4000
    rebuilt = rebuild_by_cuts(ReductionTrace(
        True, tuple(payload["steps"]), tuple(payload["intermediate_facet_counts"]),
        p, simplex(3)))
    b = write_polytope(tmp_path, "b.json", rebuilt)
    code, report, _ = run(capsys, "isomorphic", a, b)
    assert code == 0 and report["payload"]["isomorphic"] is True


# ---------------------------------------------------------------------------
# exit-code contract: every command on malformed files and bad flags


MALFORMED_FILES = {
    "empty": b"",
    "not-utf8": b'{"dim": 3, "facets": 4, "vertices": [], "note": "\xff\xfe"}',
    "deep-array": (b'{"dim": 3, "facets": 4, "vertices": '
                   + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    "deep-object": b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    "json-array": b"[1, 2, 3]",
    "string-dim": b'{"dim": "3", "facets": 4, "vertices": []}',
    "huge-dim": b'{"dim": 100000000000000000000, "facets": 3, "vertices": [[0, 1, 2]]}',
    "not-simple": b'{"dim": 3, "facets": 4, "vertices": [[0, 1], [1, 2, 3]]}',
    "hrep-nan": b"3 4\n1 0 0 nan\n0 1 0 0\n0 0 1 0\n-1 -1 -1 1\n",
    "hrep-short": b"3 1000000000\n1 0 0 0\n",
    "hrep-not-utf8": b"3 4\n1 0 0 0\xff\n0 1 0 0\n0 0 1 0\n-1 -1 -1 1\n",
}
FILE_COMMANDS = {"validate": [], "recognize": [], "vertex-cut": ["--vertex", "0"],
                 "collapse": ["--facet", "0"], "flip-cert": ["--depth", "2"],
                 "andreev": [], "moment-angle": [], "euler": [], "fixed-sets": [],
                 "filtration": [], "quadrics": [], "verify-quadrics": ["--samples", "5"]}


def exit_code(capsys, argv):
    """``main``'s exit code, argparse's included, and the report's payload."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    return code, json.loads(out)["payload"] if code in (0, 1) else None


def test_exit_codes_on_malformed_files(tmp_path, capsys):
    paths = {name: tmp_path / name for name in MALFORMED_FILES}
    for name, data in MALFORMED_FILES.items():
        paths[name].write_bytes(data)
    paths["missing"], paths["directory"] = tmp_path / "missing", tmp_path
    good = write_polytope(tmp_path, "prism.json", prism())
    runs = [[cmd, str(path), *extra] for cmd, extra in FILE_COMMANDS.items()
            for path in paths.values()]
    runs += [["isomorphic", *pair] for path in paths.values()
             for pair in ((str(path), good), (good, str(path)))]
    for argv in runs:
        assert exit_code(capsys, argv)[0] == 2, argv


def test_no_command_or_public_name_takes_a_tol():
    # the H-rep tolerance is the module constant hrep._TOL; nothing sets it
    (subparsers,) = [a for a in momang.cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for command, parser in subparsers.choices.items():
        assert all(a.dest != "tol" for a in parser._actions), command
    names = sorted(set(dir(momang)) - {"errors"})
    for obj in [getattr(momang, name) for name in names if not name.startswith("_")] + [
            cube_hrep, dodecahedron_hrep, prism_hrep, simplex_hrep]:
        if callable(obj):
            assert "tol" not in inspect.signature(obj).parameters, obj


NEGATIVE_VERDICTS = {"recognize": lambda p: p["verdict"] == "no",
                     "andreev": lambda p: not p["no_prismatic_circuits"]}


def test_exit_codes_on_bad_flags(tmp_path, capsys):
    cube3 = write_polytope(tmp_path, "cube.json", cube(3))
    prism3 = write_polytope(tmp_path, "prism.json", prism())
    hrep = tmp_path / "cube.hrep"
    hrep.write_text(hrep_to_text(cube_hrep(3)))
    hrep, triangle = str(hrep), write_polytope(tmp_path, "triangle.json", simplex(2))
    runs = [
        [], ["nosuch"], ["--bogus"], ["validate"], ["validate", cube3, "--format", "xml"],
        ["validate", cube3, "--out", str(tmp_path / "no-dir" / "out.json")],
        ["validate", cube3, "--out", str(tmp_path)],
        ["flip-cert", cube3, "--depth", "-1"], ["flip-cert", cube3, "--guard", "-5"],
        ["flip-cert", triangle, "--depth", "1"], ["flip-cert", cube3, "--guard", "3"],
        ["vertex-cut", cube3, "--vertex", "-1"], ["vertex-cut", cube3, "--vertex", "99"],
        ["collapse", cube3, "--facet", "abc"], ["collapse", cube3, "--facet", "0"],
        ["moment-angle", cube3, "--guard", "-1"], ["fixed-sets", cube3, "--guard", "0"],
        ["quadrics", hrep, "--tol", "-1"], ["quadrics", hrep, "--tol", "0"],
        ["quadrics", hrep, "--tol", "nan"], ["quadrics", hrep, "--tol", "inf"],
        ["verify-quadrics", hrep, "--tol", "nan"], ["verify-quadrics", hrep, "--tol", "inf"],
        ["verify-quadrics", hrep, "--seed", "-1"],
        ["verify-quadrics", hrep, "--samples", "-1"],
        ["verify-quadrics", hrep, "--samples", "100000000"],
        ["generate", "cube", "-1"], ["generate", "simplex", "0"], ["generate", "cube"],
        ["generate", "random-vertexcuts", "-1"], ["generate", "prism", "3"],
        ["generate", "dodecahedron", "2"], ["generate", "tetrahedron"],
        ["recognize", prism3, "--strict"], ["recognize", cube3, "--strict"],
        ["andreev", prism3, "--strict"], ["andreev", cube3, "--strict"],
    ]
    seen = set()
    for argv in runs:
        code, payload = exit_code(capsys, argv)
        assert code in (0, 1, 2, 3), argv
        if code == 1:  # only a negative verdict under --strict
            assert "--strict" in argv and NEGATIVE_VERDICTS[argv[0]](payload), argv
        if "--guard" in argv:  # no command takes a guard
            assert code == 2, argv
        if "--tol" in argv:  # no command takes a tol
            assert code == 2, argv
        seen.add(code)
    code, _ = exit_code(capsys, ["verify-quadrics", hrep, "--samples", "100000000"])
    assert code == 3
    for flag in ("--seed", "--samples"):
        assert main(["verify-quadrics", hrep, flag, "-1"]) == 2, flag
        assert json.loads(capsys.readouterr().err)["error"] == "BadParameters"
    assert exit_code(capsys, ["validate", cube3, "--out", str(tmp_path)])[0] == 2
    assert seen == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# seeded contract fuzz: every command on mutated polytope and H-rep files


CUBE_ROWS = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
             ["-1", "0", "0", "1"], ["0", "-1", "0", "1"], ["0", "0", "-1", "1"]]
ODD_VALUES = ["0", "-1", "1.5", "7", "true", "null", '"0"', "[]", "{}", "1e400", "NaN",
              str(2 ** 64)]
ODD_ENTRIES = ["nan", "-nan", "inf", "-inf", "5e-324", "-1e-310", "2.2e-308", "1e-320"]
BROKEN_HEADERS = ["", "3", "3 6 1", "x 6", "3 x", "3 5", "3 7", "2 6", "4 6", "0 6", "3 0",
                  "-1 6", "3 -6", "3.0 6", "1e9 6", "3 100000000"]


def mutated_polytope(rng, bases):
    """One of the polytopes' JSON with vertices dropped, duplicated or
    extended, or a wrong type in an entry or under a key."""
    p = rng.choice(bases)
    doc = polytope_to_json(p)
    verts = doc["vertices"]
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(6)
        if kind == 0 and verts:
            verts.pop(rng.randrange(len(verts)))
        elif kind == 1 and verts:
            verts.insert(rng.randrange(len(verts) + 1), list(rng.choice(verts)))
        elif kind == 2:
            verts.append(sorted(rng.sample(range(p.facet_count + 1), p.dim)))
        elif kind == 3 and verts:
            rng.choice(verts).append(rng.randrange(-1, p.facet_count + 2))
        elif kind == 4 and verts:
            v = rng.choice(verts)
            v[rng.randrange(len(v))] = json.loads(rng.choice(ODD_VALUES))
        else:
            key = rng.choice(["dim", "facets", "vertices", "facet_labels", "extra"])
            if rng.random() < 0.2:
                doc.pop(key, None)
            else:
                doc[key] = json.loads(rng.choice(ODD_VALUES))
    return json.dumps(doc)


def mutated_hrep(rng):
    """The unit cube's H-rep with a row scaled by 10^k, k in -320..308, an
    entry replaced by nan, inf or a subnormal, or a broken header."""
    rows = [list(row) for row in CUBE_ROWS]
    head = "3 6"
    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(3)
        i = rng.randrange(len(rows))
        if kind == 0:
            k = rng.randint(-320, 308)
            rows[i] = [f"{v}e{k}" for v in rows[i]]
        elif kind == 1:
            rows[i][rng.randrange(4)] = rng.choice(ODD_ENTRIES)
        else:
            head = rng.choice(BROKEN_HEADERS)
    return head + "\n" + "".join(" ".join(row) + "\n" for row in rows)


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


def assert_contract(capfd, argv):
    """Run ``main`` and check the exit-code and output contract; a warning
    counts as stderr, where a ``momang`` process would print it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = capfd.readouterr()
    err += "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (0, 1):
        assert err == "", (argv, err)
        payload = json.loads(out, parse_constant=reject_constant)["payload"]
        if code == 1:  # only a negative verdict under --strict
            assert "--strict" in argv and NEGATIVE_VERDICTS[argv[0]](payload), argv
    else:
        assert out == "", argv
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error", "message"}, (argv, line)
    return code, err


GENERATE_KINDS = ["simplex", "cube", "prism", "random-vertexcuts", "dodecahedron"]
FUZZ_POLYTOPE_COMMANDS = [["validate"], ["recognize"], ["recognize", "--strict"],
                          ["andreev"], ["andreev", "--strict"], ["flip-cert", "--depth", "2"],
                          ["moment-angle"], ["euler"], ["fixed-sets"], ["filtration"]]


@pytest.mark.parametrize("seed", [1, 2])
def test_contract_holds_on_mutated_inputs(tmp_path, capfd, seed):
    # every command, in process, on mutated polytope and H-rep files and
    # generator parameters; see assert_contract for what each run must show
    rng = random.Random(seed)
    bases = [cube(3), prism(), simplex(3), simplex(2), momang.vertex_cut(cube(3), 0)]
    good = write_polytope(tmp_path, "good.json", prism())
    poly, hrep = tmp_path / "mutated.json", tmp_path / "mutated.hrep"
    codes = set()
    for _ in range(250):
        poly.write_text(mutated_polytope(rng, bases))
        command, *extra = rng.choice(FUZZ_POLYTOPE_COMMANDS + [
            ["vertex-cut", "--vertex", str(rng.randrange(-1, 12))],
            ["collapse", "--facet", str(rng.randrange(-1, 8))],
            ["isomorphic", good]])
        codes.add(assert_contract(capfd, [command, str(poly), *extra])[0])
        hrep.write_text(mutated_hrep(rng))
        codes.add(assert_contract(capfd, [rng.choice(["quadrics", "verify-quadrics"]),
                                          str(hrep)])[0])
        codes.add(assert_contract(capfd, ["generate", rng.choice(GENERATE_KINDS),
                                          str(rng.randrange(-2, 9)), "--seed",
                                          str(rng.randrange(100))])[0])
    assert {0, 2} <= codes


@pytest.mark.parametrize("row", range(6))
@pytest.mark.parametrize("scale", ["1e-310", "1e-320"])
def test_rows_scaled_to_subnormal_are_refused(tmp_path, capfd, row, scale):
    # a subnormal normal's relations overflow: the gradients read NaN and the
    # SVD did not converge; the row is refused by name instead
    rows = [list(r) for r in CUBE_ROWS]
    rows[row] = [f"{v}e{scale[2:]}" for v in rows[row]]
    path = tmp_path / "cube.hrep"
    path.write_text("3 6\n" + "".join(" ".join(r) + "\n" for r in rows))
    for command in ("quadrics", "verify-quadrics"):
        code, err = assert_contract(capfd, [command, str(path)])
        assert code == 2 and json.loads(err)["error"] == "ParseError", command
        assert f"row {row} " in json.loads(err)["message"], command


FAR_1E308 = {i: " ".join(f"{v}e308" for v in row) for i, row in enumerate(CUBE_ROWS)}


@pytest.mark.parametrize("replaced, refused", [
    ({5: "1e-320 0 -1 1"}, None),  # a ray-shot hit time overflows: never reached
    ({0: "1e-10 0 0 1e300"}, 0),   # a plane ~1e310 away
    ({1: "0 2.2e-308 2.2e-308 0"}, 1),  # length normal, entries subnormal: NaN vertices
    ({2: "0 0 1e-244 0", 5: "0 0 -1e66 1e66"}, 2),  # relation 2 + 5 spans 1e310
    (FAR_1E308, 0),                 # lengths summing past the float range
], ids=["subnormal-entry", "far-plane", "subnormal-normal", "relation-span", "lengths-sum"])
def test_extreme_entries_pinned(tmp_path, capfd, replaced, refused):
    rows = [replaced.get(i, " ".join(r)) for i, r in enumerate(CUBE_ROWS)]
    path = tmp_path / "cube.hrep"
    path.write_text("3 6\n" + "".join(r + "\n" for r in rows))
    for command in ("quadrics", "verify-quadrics"):
        code, err = assert_contract(capfd, [command, str(path)])
        if refused is None:
            assert code == 0, (command, err)
        else:
            assert code == 2 and json.loads(err)["error"] == "ParseError", (command, err)
            assert json.loads(err)["message"].startswith(f"row {refused} "), (command, err)
