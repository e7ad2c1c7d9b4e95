"""jetcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense-el --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout (it imports ``src/jetcalc``).  The
run is a closed loop with one client in this process: each job is one call to
``jetcalc.cli.run(argv)`` with stdout and stderr captured, and the next job
starts when the previous one returns.  Inputs are generated from ``--seed``
before timing starts; every output is checked afterwards (exit code, oracles,
repeat runs of a job giving the same bytes, and the committed digests in
``perfbench/snapshot.json``).  Each timed job and each timed import runs
under a speed gauge (``speed.py``), and the end-to-end times are scaled to
its reference speed; the times as measured are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds of the job list and reports per-layer metrics.
The last line of stdout is the result as one JSON object.  ``--out FILE``
also appends it, with the workload and seed, to FILE for ``compare.py``;
``--record-snapshot`` stores this run's output digests in the snapshot.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S, Gauge

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT = os.path.join(HERE, "snapshot.json")
SETUP_INTERPRETERS = 11


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# -- set-up time --------------------------------------------------------------

_IMPORT_TIMER = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; "
                 "from speed import Gauge\n"
                 "with Gauge() as g: import jetcalc.cli\n"
                 "print(g.wall, g.scaled)")


def measure_setup(src: str):
    """Import time of jetcalc.cli in fresh interpreters, as measured and as
    scaled to the reference speed.  The first interpreter, which may write
    bytecode caches, is not counted."""
    walls, times = [], []
    for _ in range(SETUP_INTERPRETERS + 1):
        code = _IMPORT_TIMER.format(src=src, here=HERE)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"cannot import jetcalc.cli: {proc.stderr.strip()[-300:]}")
        wall, scaled = map(float, proc.stdout.split())
        walls.append(wall)
        times.append(scaled)
    return walls[1:], times[1:]


# -- running jobs -------------------------------------------------------------

def run_job(cli, argv, gauged: bool):
    """Returns (exit code, wall s, scaled s or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()    # no garbage of earlier jobs, as in a fresh CLI process
    gauge = Gauge() if gauged else contextlib.nullcontext()
    t0 = time.perf_counter()
    with gauge, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv))
        except SystemExit as exc:      # argparse refusals
            rc = exc.code if isinstance(exc.code, int) else 2
    if gauged:
        return rc, gauge.wall, gauge.scaled, out.getvalue(), err.getvalue()
    return rc, time.perf_counter() - t0, None, out.getvalue(), err.getvalue()


class Outputs:
    """Runs the jobs; keeps every execution's digest and, once per job, its
    exit code and output."""

    def __init__(self, cli, jobs):
        self.cli, self.jobs = cli, jobs
        self.first: dict = {}          # job index -> (rc, stdout, stderr, digest)
        self.executions: list = []     # (job index, digest)

    def run(self, idx: int, gauged: bool = False):
        """Run job ``idx`` and record its output.  Returns its wall time, or
        with ``gauged`` its (wall, scaled) times from a speed gauge."""
        rc, wall, scaled, out, err = run_job(self.cli, self.jobs[idx].argv, gauged)
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:16]
        self.first.setdefault(idx, (rc, out, err, digest))
        self.executions.append((idx, digest))
        return (wall, scaled) if gauged else wall


def timed_loop(seconds: float, outputs: Outputs):
    """Run the job list round after round until ``seconds`` have passed.

    Returns the (wall, scaled) times of the jobs of complete rounds only,
    so every run measures the same mix of jobs; the first round always
    completes.  Jobs of the round cut off by the time limit are still
    checked."""
    times, kept = [], 0
    start = time.perf_counter()
    while not kept or time.perf_counter() - start < seconds:
        for idx in range(len(outputs.jobs)):
            if kept and time.perf_counter() - start >= seconds:
                return times[:kept]
            times.append(outputs.run(idx, gauged=True))
        kept = len(times)
    return times


def traced_loop(seconds: float, outputs: Outputs, trace_path: str):
    """Alternate one untraced and one traced round until ``seconds`` have
    passed (at least one pair).  Returns per-round aggregates and times."""
    from tracer import Tracer

    rounds, plain_s, traced_s = [], 0.0, 0.0
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for idx in range(len(outputs.jobs)):
            plain_s += outputs.run(idx)
        tracer = Tracer()
        tracer.install()
        try:
            for idx in range(len(outputs.jobs)):
                tracer.job = idx
                traced_s += outputs.run(idx)
        finally:
            tracer.uninstall()
        rounds.append(tracer.aggregate())
        first = first or tracer
    first.write(trace_path)
    return rounds, plain_s, traced_s


# -- checking -----------------------------------------------------------------

def job_key(job) -> str:
    """Snapshot key: the argv with each input file replaced by its content."""
    parts = []
    for a in job.argv:
        if a.endswith(".lag"):
            with open(a, "rb") as fh:
                a = "lag:" + hashlib.sha256(fh.read()).hexdigest()
        parts.append(a)
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:16]


def _oracle(job, doc, problems, rng, sympy_el) -> list:
    """The workload's own checks on one successful report."""
    import oracles
    from jetcalc.parser import parse_problem

    res = doc["result"]
    if job.oracle == "textbook":
        fails = oracles.check_textbook(job, doc)
        if not job.data["latex"] and job.data["file"]:
            path = job.argv[1]
            if path not in problems:
                with open(path, encoding="utf-8") as fh:
                    problems[path] = parse_problem(fh.read()).problem
            fails += oracles.check_round_trip(problems[path], job.argv[0], res)
        return fails
    if job.oracle == "sympy-el":
        return sympy_el.check(job, res["euler_lagrange"]["u"], rng)
    if job.oracle == "legendre" and job.argv[0] == "legendre":
        return oracles.check_legendre(job, res, rng)
    if job.oracle == "verify":
        return oracles.check_verify(job, doc)
    return []


def check_outputs(jobs, outputs: Outputs, seed: int):
    """Judge every distinct output; returns ({job index: [failures]}, keys,
    number of jobs compared with the snapshot)."""
    import oracles

    with open(SNAPSHOT, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    rng = random.Random(seed)
    sympy_el = (oracles.SympyEL() if any(j.oracle == "sympy-el" for j in jobs)
                else None)
    problems: dict = {}
    failures: dict = {}
    keys: dict = {}
    snap_checked = 0
    docs = {}
    for idx, (rc, out, err, digest) in sorted(outputs.first.items()):
        job = jobs[idx]
        fails = oracles.check_exit(job, rc, out, err)
        keys[idx] = job_key(job)
        if keys[idx] in snapshot:
            snap_checked += 1
            if snapshot[keys[idx]] != digest:
                fails.append(f"output digest {digest} differs from the "
                             f"snapshot's {snapshot[keys[idx]]}")
        if not fails and rc == 0:
            doc = json.loads(out)
            docs[idx] = doc
            try:
                fails += _oracle(job, doc, problems, rng, sympy_el)
            except Exception as exc:    # an output the oracle cannot read
                fails.append(f"oracle failed on the output: {exc!r}")
        failures[idx] = fails
    # pc-form must report the same H as legendre on the same file
    legendre_h = {tuple(jobs[i].argv[1:]): d["result"]["H"]
                  for i, d in docs.items() if jobs[i].argv[0] == "legendre"}
    for i, d in docs.items():
        rest = tuple(jobs[i].argv[1:])
        if jobs[i].argv[0] == "pc-form" and rest in legendre_h and \
                d["result"]["H"] != legendre_h[rest]:
            failures[i].append("pc-form H differs from legendre H")
    return failures, keys, snap_checked


def count_failed(outputs: Outputs, failures: dict) -> int:
    """Executions that failed a check or printed other bytes than the first
    execution of the same job."""
    failed = 0
    for idx, digest in outputs.executions:
        if failures[idx] or digest != outputs.first[idx][3]:
            failed += 1
    return failed


def record_snapshot(outputs: Outputs, keys: dict) -> int:
    with open(SNAPSHOT, encoding="utf-8") as fh:
        snapshot = json.load(fh)
    for idx, (_, _, _, digest) in outputs.first.items():
        snapshot[keys[idx]] = digest
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(snapshot)


# -- metrics ------------------------------------------------------------------

def tail(walls_ms: list):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(walls_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def job_stats(times_s: list):
    """(median ms, tail ms, tail percentile, jobs per second of job time)."""
    ms = [t * 1000.0 for t in times_s]
    tail_ms, pct = tail(ms)
    return statistics.median(ms), tail_ms, pct, len(ms) / sum(times_s)


def end_to_end(times, setup, rss_mb, attempted, failed):
    """Timing metrics from the scaled times; the wall times are printed.
    (The gauge leaves its probes out of both.)"""
    p50, tail_ms, pct, rate = job_stats([s for _, s in times])
    wall_p50, wall_tail, _, wall_rate = job_stats([w for w, _ in times])
    setup_walls, setup_scaled = setup
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "job_p50_ms": (p50, "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "jobs_per_s": (rate, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [f"job_tail_ms is p{pct:.1f} of {len(times)} jobs",
             f"failure_ratio {failed}/{attempted}",
             f"times are scaled to the speed at which the probe takes "
             f"{REFERENCE_S * 1000:g} ms; as measured: setup_s "
             f"{statistics.median(setup_walls):.4g}, job_p50_ms {wall_p50:.4g}, "
             f"job_tail_ms {wall_tail:.4g}, jobs_per_s {wall_rate:.4g}"]
    return metrics, notes


def per_layer(rounds, plain_s, traced_s, jobs, outputs):
    """Counts from the first traced round; times as means over rounds."""
    import tracer as tr

    first = rounds[0]

    def count(name, field):
        return first.get(name, {}).get(field, 0)

    def mean(name, field):
        return statistics.fmean(r.get(name, {}).get(field, 0.0) for r in rounds)

    metrics = {}
    for name in ("parser.parse_problem", "expr.add", "expr.mul",
                 "expr.partial_derivative", "expr.total_derivative",
                 "expr.substitute", "expr.divide"):
        metrics[f"{name}.calls"] = (count(name, "calls"), "count")
    for name in ["expr.add", "expr.mul"] + [name for _, _, name in tr.FUNCTIONS]:
        metrics[f"{name}.self_s"] = (mean(name, "self_s"), "s")
    calls = count("expr.partial_derivative", "calls")
    metrics["expr.partial_derivative.zero_ratio"] = (
        count("expr.partial_derivative", "post") / calls if calls else 0.0, "ratio")
    for stage in tr.STAGES_WITH_TERMS:
        metrics[f"variational.{stage}.terms_out"] = (
            count(f"variational.{stage}", "post"), "terms")
    for suite in tr.VERIFY_SUITES:
        metrics[f"verify.{suite}.busy_s"] = (mean(f"verify.{suite}", "busy_s"), "s")
    metrics["cli.exit2.count"] = (
        sum(1 for i in range(len(jobs)) if outputs.first[i][0] == 2), "count")
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    repeat = all({n: r[n]["calls"] for n in r} == {n: first[n]["calls"] for n in first}
                 for r in rounds)
    notes = [f"{len(rounds)} traced round(s) of {len(jobs)} jobs; call counts "
             f"{'repeat exactly' if repeat else 'DIFFER'} across rounds"]
    return metrics, notes, repeat


def check_spec(metrics: dict, trace: int) -> None:
    """The metrics must be exactly those BENCHMARK.json lists, with its units."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        _fail(f"metrics differ from BENCHMARK.json: "
              f"{sorted(set(want.items()) ^ set(have.items()))}")


# -- main ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result line to this file")
    ap.add_argument("--record-snapshot", action="store_true",
                    help="store this run's output digests in snapshot.json")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "jetcalc", "cli.py")):
        _fail("run from the root of a jetcalc checkout (src/jetcalc is missing)")
    sys.path.insert(0, src)

    state = os.path.abspath(".perfbench")
    workdir = os.path.join(state, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = WORKLOADS[args.workload](args.seed, workdir)
        setup = [] if args.trace else measure_setup(src)
        import jetcalc.cli as cli

        outputs = Outputs(cli, jobs)
        if args.trace:
            trace_path = os.path.join(state, f"trace-{args.workload}-s{args.seed}.tsv")
            rounds, plain_s, traced_s = traced_loop(args.seconds, outputs, trace_path)
        else:
            times = timed_loop(args.seconds, outputs)
            # before the checks, which load sympy into this process
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, keys, snap_checked = check_outputs(jobs, outputs, args.seed)
        attempted = len(outputs.executions)
        failed = count_failed(outputs, failures)
        if args.trace:
            metrics, notes, repeat = per_layer(rounds, plain_s, traced_s, jobs, outputs)
            notes.append(f"spans of the first traced round: {trace_path}")
        else:
            metrics, notes = end_to_end(times, setup, rss_mb, attempted, failed)
            repeat = True
        if args.record_snapshot:
            if failed:
                _fail("not recording a snapshot of a run with failures")
            notes.append(f"snapshot now holds {record_snapshot(outputs, keys)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_spec(metrics, args.trace)
    for idx, fails in sorted(failures.items()):
        for msg in fails:
            print(f"FAIL {jobs[idx].label}: {msg}")
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs per round, "
          f"{snap_checked} compared with the snapshot")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    result = {"correct": failed == 0 and repeat, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    line = json.dumps(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
