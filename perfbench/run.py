"""Seeded end-to-end and per-layer benchmark of tropreal.

Run from the root of a source checkout (nothing needs installing; the
library is imported from ``src/``):

    python3 perfbench/run.py --workload inner --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

One process runs one workload as a closed loop: a single client, one
operation at a time, no threads.  The seed fixes the workload's inputs, a
round is one pass over them (the workload's fixed work), and each workload
runs a fixed number of rounds (``rounds`` in ``workloads.SIZES``), so that
every commit is measured with the same estimator.  ``--seconds`` is only a
ceiling: no round starts once that much time has passed.  Every
answer is checked by an exact oracle after its timer stops, and the
canonical JSON of every answer feeds a sha256 digest that must be the
same in every round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures half
the rounds untraced, then the same number of rounds with the library's
functions wrapped by :mod:`tracer`, and prints the per-layer metrics (per
round) and the tracing overhead.  The last line of
standard output is the JSON result; the lines before it are a readable
summary.  ``--smoke`` runs every workload at a tiny size, traced and
untraced, and checks that every metric in BENCHMARK.json is emitted with
its unit, that every oracle passes and that tracing left no wrapper
behind; it exits 1 if not.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SPIN_EVERY_S = 1.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


@dataclass
class Phase:
    """Measurements of consecutive rounds of one workload."""

    latencies: dict = field(default_factory=dict)  # op index -> seconds of each run
    digests: list = field(default_factory=list)  # one per round
    attempted: int = 0
    failed: int = 0


class Spinner:
    """Drift probe and CPU choice, run between operations.

    A fixed pure-Python loop is timed on every CPU the process may use,
    and the process is pinned to the CPU where it ran fastest.  On a
    shared host one CPU can run a third slower than another for minutes
    while another tenant loads it; the loop's time on the chosen CPU is
    recorded as machine.spin_ms, which never normalises a metric.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self._last = 0.0

    @staticmethod
    def _loop() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        return (time.perf_counter() - t0) * 1e3

    def spin(self) -> None:
        if len(self.cpus) == 1:
            self.samples.append(self._loop())
        else:
            timings = {}
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                timings[cpu] = min(self._loop(), self._loop())
            fastest = min(timings, key=timings.get)
            os.sched_setaffinity(0, {fastest})
            self.samples.append(timings[fastest])
        self._last = time.perf_counter()

    def maybe_spin(self) -> None:
        if time.perf_counter() - self._last >= SPIN_EVERY_S:
            self.spin()


def run_round(work, phase: Phase, spinner: Spinner, tracer=None, pause=None) -> None:
    digest = hashlib.sha256()
    for index in work.schedule:
        op = work.ops[index]
        if pause is not None:
            pause(phase.attempted)
        spinner.maybe_spin()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        phase.latencies.setdefault(index, []).append(dt)
        phase.attempted += 1
        ok = False
        if error is None:
            try:
                ok = bool(op.check(out))
                digest.update(op.name.encode() + b"\0" + op.canonical(out) + b"\0")
            except Exception as exc:
                error = exc
        if not ok:
            phase.failed += 1
            digest.update(op.name.encode() + b"\0FAILED\0")
            print(f"FAIL {work.name} {op.name}: {error!r}" if error else
                  f"FAIL {work.name} {op.name}: oracle rejected the answer", file=sys.stderr)
    phase.digests.append(digest.hexdigest())


def run_rounds(work, rounds: int, deadline: float, spinner: Spinner, tracer=None,
               pause=None) -> Phase:
    """`rounds` whole rounds, but none started after `deadline` (at least one runs).

    `pause(step)` runs untimed before the operation with that index in the
    phase.
    """
    phase = Phase()
    while len(phase.digests) < rounds:
        if phase.digests and time.perf_counter() > deadline:
            print(f"note: {work.name}: stopped after {len(phase.digests)} of {rounds} "
                  "rounds at the --seconds ceiling", file=sys.stderr)
            break
        spinner.spin()
        run_round(work, phase, spinner, tracer, pause)
    return phase


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 operations beyond it (50..99)."""
    return max(50, min(99, math.floor(100 - 1000 / n))) if n else 50


def nearest_rank(values: list, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup(name: str, seed: int, sizes: dict, workdir: str):
    """Import tropreal, build the scenarios and generate the inputs; return (work, seconds).

    Objects alive before the set-up are hidden from the garbage collector
    while it runs, so a set-up made while a workload is alive pays for the
    same collections as one made in a fresh process.
    """
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        lib = workloads.import_library()
        work = workloads.build(name, lib, seed, sizes, workdir)
        seconds = time.perf_counter() - t0
    finally:
        gc.unfreeze()
    return work, seconds


def resetup(name: str, seed: int, sizes: dict, workdir: str) -> float:
    """Time one more set-up, leaving the measured workload's modules in place.

    The set-up imports tropreal afresh; the modules the workload runs on
    (and the tracer wraps) are put back in ``sys.modules`` afterwards.
    """
    kept = workloads.library_modules()
    try:
        _, seconds = setup(name, seed, sizes, tempfile.mkdtemp(dir=workdir))
    finally:
        for n in workloads.library_modules():
            del sys.modules[n]
        sys.modules.update(kept)
    return seconds


def setup_pauses(name, seed, sizes, workdir, steps: int, spinner: Spinner, times: list):
    """A pause hook that times a set-up at SETUP_REPEATS - 1 evenly spaced steps.

    With the set-up before the first round, the set-ups are spread over the
    whole run.  setup_s is the fastest of them: like the operations' times,
    a set-up is only ever slowed by other load on a shared host, and the
    fastest of set-ups minutes apart does not rest on one moment of it.
    """
    at = {k * steps // SETUP_REPEATS for k in range(1, SETUP_REPEATS)}

    def pause(step: int) -> None:
        if step in at:
            spinner.spin()
            times.append(resetup(name, seed, sizes, workdir))

    return pause


def best_latencies(phase: Phase) -> list:
    """Each operation's fastest time over the rounds of the phase.

    Contention from other processes on a shared host slows operations by up
    to a third for seconds at a time; such noise only ever adds time, so
    the fastest of the rounds is the steadiest estimate of an operation's
    cost.
    """
    return [min(times) for _, times in sorted(phase.latencies.items())]


def e2e_metrics(phase: Phase, setup_s: float) -> dict:
    best = best_latencies(phase)
    values = {
        "setup_s": setup_s,
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_tail_ms": nearest_rank(best, tail_percentile(len(best))) * 1e3,
        "ok_ratio": 1 - phase.failed / phase.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: tracing.Tracer, rounds: int, overhead: float,
                  intersection_ms: float, spin_ms: float) -> dict:
    """Per-layer metrics, each per round of the workload (ratios and per-call times as is)."""
    s = tr.stats
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for key, st in sorted(s.items()):
        put(f"{key}.calls", st.calls / rounds, "count")
        put(f"{key}.self_ms", st.self_time * 1e3 / rounds, "ms")
        put(f"{key}.busy_ms", st.total * 1e3 / rounds, "ms")
        put(f"{key}.us_per_call", _ratio(st.total * 1e6, st.calls), "us")
    c = {k: st.counters for k, st in s.items()}
    put("semialg.sa_member.accept_ratio",
        _ratio(c["semialg.sa_member"].get("accepted", 0), s["semialg.sa_member"].calls), "ratio")
    put("semialg.lift_inequality.eps_steps",
        c["semialg.lift_inequality"].get("eps_steps", 0) / rounds, "count")
    put("semialg.witness_search.found_ratio",
        _ratio(c["semialg.witness_search"].get("found", 0), s["semialg.witness_search"].calls),
        "ratio")
    put("polyhedra.poly_is_empty.empty_ratio",
        _ratio(c["polyhedra.poly_is_empty"].get("empty", 0), s["polyhedra.poly_is_empty"].calls),
        "ratio")
    prune = c["polyhedra.prune_covered_pieces"]
    put("polyhedra.prune_covered_pieces.kept_ratio",
        _ratio(prune.get("pieces_kept", 0), prune.get("pieces_in", 0)), "ratio")
    put("polyhedra.complement_of_union.pieces_out",
        c["polyhedra.complement_of_union"].get("pieces_out", 0) / rounds, "count")
    put("semialg.sa_outer_all.intersection_ms", intersection_ms, "ms")
    put("trace.overhead_ratio", overhead, "ratio")
    put("machine.spin_ms", spin_ms, "ms")
    return out


def intersection_ms(work) -> float:
    """Slower intersection scenario's fastest sa_outer_all time (criterion 11 bound: 5 s)."""
    times = [min(work.outer_times[n]) for n in workloads.INTERSECTIONS
             if work.outer_times.get(n)]
    return max(times) * 1e3 if times else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict, workdir: str):
    """Return (metrics, attempted, failed, summary lines, digest findings)."""
    spinner = Spinner()
    spinner.spin()
    start = time.perf_counter()
    work, first_setup = setup(name, seed, sizes, workdir)
    rounds = sizes[name]["rounds"]
    findings = []
    if not trace:
        setup_times = [first_setup]
        pause = setup_pauses(name, seed, sizes, workdir, rounds * len(work.schedule),
                             spinner, setup_times)
        phase = run_rounds(work, rounds, start + seconds, spinner, pause=pause)
        spinner.spin()
        metrics = e2e_metrics(phase, min(setup_times))
        phases = [phase]
        detail = (f"setup_s is the fastest of {len(setup_times)} set-ups spread over the "
                      f"run: " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
    else:
        plain = run_rounds(work, max(1, rounds // 2), start + seconds / 2, spinner)
        inter = intersection_ms(work)
        tr = tracing.Tracer()
        before = tracing.snapshot()
        tr.install()
        try:
            traced = run_rounds(work, len(plain.digests), math.inf, spinner, tracer=tr)
        finally:
            tr.uninstall()
        leftovers = tracing.changed_bindings(before)
        if leftovers:
            findings.append("not restored after tracing: " + ", ".join(leftovers))
        if set(traced.digests) != set(plain.digests):
            findings.append("traced and untraced answers differ")
        spinner.spin()
        overhead = sum(best_latencies(traced)) / sum(best_latencies(plain))
        metrics = layer_metrics(tr, len(traced.digests), overhead, inter,
                                statistics.median(spinner.samples))
        phases = [plain, traced]
        detail = f"{len(plain.digests)} untraced and {len(traced.digests)} traced round(s)"
    digests = {d for p in phases for d in p.digests}
    if len(digests) != 1:
        findings.append(f"answers differ between rounds ({len(digests)} digests)")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    n_ops = len(work.ops)
    pct = tail_percentile(n_ops)
    summary = [
        f"workload {name} seed {seed} trace {int(trace)}: {len(phases[0].digests)} round(s) "
        f"of {len(work.ops)} operations, {attempted} attempted, {failed} failed",
        f"op_p50_ms and op_tail_ms (p{pct}, {n_ops - math.ceil(pct / 100 * n_ops)} beyond) "
        f"are over n={n_ops} operations, each at its fastest time in the run",
        detail,
        f"machine.spin_ms median {statistics.median(spinner.samples):.3f} over {len(spinner.samples)} probes",
        f"digest {name} {sorted(digests)[0]}",
    ]
    summary += [f"FINDING: {f}" for f in findings]
    return metrics, attempted, failed, summary, findings


def _check_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "tropreal", "__init__.py")):
        sys.exit(f"error: no tropreal sources under {os.path.relpath(SRC)}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, SRC)


def _workdir() -> str:
    return tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)


def reported_metrics() -> dict:
    """Metric names and units BENCHMARK.json lists, keyed by trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def smoke() -> int:
    """Tiny run of every workload: metric names and units, oracles, restoration."""
    wanted = reported_metrics()
    problems = []
    workdir = _workdir()
    try:
        for name in workloads.NAMES:
            for trace in (False, True):
                metrics, attempted, failed, summary, findings = measure(
                    name, 0, 0, trace, workloads.SIZES["smoke"], workdir)
                print("\n".join(summary))
                got = {k: v["unit"] for k, v in metrics.items()}
                missing = {k: u for k, u in wanted[trace].items() if got.get(k) != u}
                if missing:
                    problems.append(f"{name} trace {int(trace)}: missing or wrong unit {missing}")
                if trace and not any(v["value"] for k, v in metrics.items() if k.endswith(".calls")):
                    problems.append(f"{name} trace 1: the tracer recorded no calls")
                if failed:
                    problems.append(f"{name} trace {int(trace)}: {failed}/{attempted} oracles failed")
                problems += [f"{name} trace {int(trace)}: {f}" for f in findings]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    _check_source()
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    workdir = _workdir()
    try:
        metrics, attempted, failed, summary, findings = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            workloads.SIZES["full"], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(summary))
    names = reported_metrics()[bool(args.trace)]
    result = {
        "correct": failed == 0 and not findings,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: metrics[k] for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
