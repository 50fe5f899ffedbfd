"""One workload in one fresh process: set up, run whole rounds, report JSON.

Started by ``run.py``, never by hand.  ``--mode setup`` only imports
``momang`` and builds the inputs and oracles, then reports how long that
took; ``--mode run`` goes on to the timed closed loop (one job after
another, no threads).  With ``--trace 1`` the loop is run twice over the
same number of rounds, untraced then traced, and the traced half reports
per-function calls and busy time.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()   # before importing momang: setup includes the import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402


class Tracer:
    """Busy time and call counts of the benchmark's calls into ``momang``.

    While ``on`` is false, ``call`` records nothing and ``count`` does
    nothing.  While a job runs, ``clock`` is that job's :class:`CostClock`,
    which every returning call gives a chance to sample the reference.
    """

    def __init__(self, on: bool):
        self.on = on
        self.clock = None
        self.calls: Counter = Counter()
        self.ms: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def call(self, fn, *args):
        t = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if self.on:
                name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                self.ms[name] += (time.perf_counter() - t) * 1e3
                self.calls[name] += 1
            if self.clock is not None:
                self.clock.tick()

    @contextlib.contextmanager
    def span(self, name: str, calls: int):
        """Time a loop of many small calls as one entry."""
        t = time.perf_counter()
        try:
            yield
        finally:
            if self.on:
                self.ms[name] += (time.perf_counter() - t) * 1e3
                self.calls[name] += calls

    def count(self, name: str, n):
        if self.on:
            self.counts[name] += n

    def metrics(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.ms"] = self.ms[name]
        out.update(self.counts)
        return out


def fresh_interpreter_ms(repeats: int = 3):
    """Medians over fresh interpreters: time to ``import momang.cli`` inside
    the process, and wall time of an interpreter that does nothing."""
    probe = ("import time; t = time.perf_counter(); import momang.cli; "
             "print((time.perf_counter() - t) * 1e3)")
    imports, bare = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", probe], check=True, timeout=60,
                             capture_output=True, text=True).stdout
        imports.append(float(out))
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append((time.perf_counter() - t) * 1e3)
    return statistics.median(imports), statistics.median(bare)


# The speed reference: a fixed pure-Python computation that never calls
# momang.  The shared machine this benchmark runs on changes speed by up to
# 1.6x, within a second and for minutes at a time, so a wall time alone does
# not repeat.  The reference is timed between the segments of every job; a
# segment's cost is its wall time divided by the mean of the two reference
# times around it, and repeats within a few per cent however fast the
# machine runs (see README.md, "Noise").
_PRISM_SIDES = 14
_PRISM = sorted(tuple(sorted((i, (i + 1) % _PRISM_SIDES, cap)))
                for i in range(_PRISM_SIDES) for cap in (_PRISM_SIDES, _PRISM_SIDES + 1))
SEGMENT_S = 0.1   # a job is cut into segments at the first call return after this
MIN_ROUNDS = 2    # an input's cost is a median over at least this many rounds


def reference_s():
    """Wall time of one run of the speed reference, about 9 ms."""
    t = time.perf_counter()
    for _ in range(3):
        prismatic_sets(_PRISM, _PRISM_SIDES + 2, 4)
    return time.perf_counter() - t


class CostClock:
    """Wall time and reference-unit cost of one job at a time.

    ``tick`` closes the running segment once it is ``SEGMENT_S`` long (or
    at once with ``end=True``), times the reference and opens the next
    segment; the reference's own time counts in neither figure.
    """

    def __init__(self, reference):
        self.reference = reference
        self.ref = reference()

    def start(self):
        self.wall = self.cost = 0.0
        self.t = time.perf_counter()

    def tick(self, end=False):
        seg = time.perf_counter() - self.t
        if end or seg >= SEGMENT_S:
            ref = self.reference()
            self.wall += seg
            self.cost += 2 * seg / (self.ref + ref)
            self.ref = ref
            self.t = time.perf_counter()


def run_rounds(wl, cases, rounds, tr, stats):
    """Run ``rounds`` whole rounds; returns each job's wall time in seconds
    and its cost in reference units, in the order the jobs ran."""
    times, costs = [], []
    clock = CostClock(getattr(wl, "reference", reference_s))
    for _ in range(rounds):
        for case in cases:
            gc.collect()
            tr.clock = clock
            clock.start()
            try:
                out = wl.job(case, tr)
                error = None
            except Exception as e:  # a failed job is recorded, not fatal
                error = f"{type(e).__name__}: {e}"
            tr.clock = None
            clock.tick(end=True)
            times.append(clock.wall)
            costs.append(clock.cost)
            stats["ref_s"].append(clock.ref)
            t = time.perf_counter()
            if error is None:
                try:
                    wl.check(case, out)
                except OracleError as e:
                    error = f"oracle: {e}"
                except Exception as e:  # an output the oracle cannot even read
                    error = f"oracle could not read the output: {type(e).__name__}: {e}"
            stats["check_s"] += time.perf_counter() - t
            if error is not None:
                stats["failures"].append({"case": case.name, "error": error[:300],
                                          "known_defect": case.known_defect})
    return times, costs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]()
    wl.workdir = tempfile.mkdtemp(dir=args.workdir)
    tr = Tracer(on=bool(args.trace))
    try:
        cases = wl.build(args.seed, tr)
        setup_s = time.perf_counter() - STARTED
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return
        # Modules and inputs stay alive for the whole run; frozen, they are
        # left out of the collection before every job, which would
        # otherwise take about 40 ms each time.
        gc.freeze()
        result = {"setup_s": setup_s, "tail_pct": wl.tail_pct,
                  "round": [case.name for case in cases]}
        stats = {"check_s": 0.0, "failures": [], "ref_s": []}
        if args.trace:
            tr.on = False
            rounds = wl.trace_rounds
            times, costs = run_rounds(wl, cases, rounds, tr, stats)
            tr.on = True
            stats["check_s"] = 0.0
            traced = run_rounds(wl, cases, rounds, tr, stats)
            result["trace_overhead"] = sum(costs) / sum(traced[1])
            result["untraced_jobs"] = len(costs)
            times, costs = times + traced[0], costs + traced[1]
            result["check_ms"] = stats["check_s"] * 1e3
            result["layers"] = tr.metrics()
            result["import_ms"], result["interp_ms"] = fresh_interpreter_ms()
        else:
            # Whole rounds, so every input runs equally often and the
            # failure share is exact; the last round is the one that ends
            # nearest to --seconds.
            start = time.perf_counter()
            times, costs = [], []
            while True:
                more = run_rounds(wl, cases, 1, tr, stats)
                times += more[0]
                costs += more[1]
                elapsed = time.perf_counter() - start
                rounds = len(times) // len(cases)
                if rounds >= MIN_ROUNDS and elapsed * (rounds + 0.5) / rounds >= args.seconds:
                    break
        result["ref_ms"] = statistics.median(stats["ref_s"]) * 1e3
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result.update(times_s=times, costs=costs, failures=stats["failures"],
                      peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0)
        print(json.dumps(result))
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)


if __name__ == "__main__":
    from oracles import OracleError, prismatic_sets  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402
    main()
