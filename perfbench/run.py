"""The stratabench benchmark: one client, closed loop, in-process CLI jobs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: the program is imported
from ``src/`` next to this directory.  Each job is one
``stratabench.cli.dispatch(argv)`` call with stdout captured, on inputs
made from ``--seed`` by ``workloads.py``; the next job starts when the
previous one has been checked.  Every report is checked against the
independent oracles of ``oracles.py``.

``--trace 0`` runs jobs untraced for ``--seconds`` seconds (and at
least MIN_JOBS jobs) and reports the end-to-end metrics, with every
timing scaled to a reference host speed measured by HostSpeed.  ``--trace 1``
replays a fixed number of whole job cycles, running each job untraced
and then with every public function of the program wrapped by
``tracer.py``, and
reports the per-layer metrics named in ``layers.json``; the spans and a
per-function table are written to ``.perfbench_work/``.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it gives the sha256
fingerprint of the evidence of the first FINGERPRINT_JOBS jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_JOBS = 100            # at least ten jobs lie beyond job_ms_p90
FINGERPRINT_JOBS = 20
SETUP_SPAWNS = 9
TIME_LIMIT_S = 150.0      # stop early rather than overrun the caller's limit
# Time of host_speed_kernel() on the reference host; each timing is
# scaled by CAL_REF_MS / (the kernel's time around it), see README.md.
CAL_REF_MS = 2.5
CAL_EVERY_S = 0.1         # of job time between two kernel samples
# Whole job cycles replayed by --trace 1, per second of --seconds; sized
# so the untraced replay takes about half of --seconds at the seed commit.
TRACE_CYCLES_PER_S = {"implicit-quartics": 4.0, "s2e-tuples": 1.0,
                      "surface-models": 1.8, "gluing-configs": 0.2}


def host_speed_kernel() -> int:
    """Fixed pure-Python work like the program's own: small Fractions,
    tuple keys, dicts, sets and sorting."""
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(500):
        if i % 10 == 0:
            x = Fraction(1, 3)
        e = (i % 7, i % 5, i % 3)
        x = x * Fraction(i % 11 + 1, i % 13 + 2) + 1
        acc[e] = acc.get(e, 0) + x
    seen = {frozenset(e) for e in acc}
    return len(sorted(acc, key=lambda e: (sum(e), e))) + len(seen)


class HostSpeed:
    """Kernel samples taken between jobs.  A sample is the fastest of three
    kernel runs on a collected heap, so one interruption does not count as
    a slow host."""

    def __init__(self) -> None:
        self.samples: list = []

    def sample(self) -> int:
        gc.collect()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            host_speed_kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best * 1000)
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        """CAL_REF_MS over the kernel time around what ran between
        samples k and k + 1."""
        around = self.samples[k:k + 2]
        return CAL_REF_MS * len(around) / sum(around)


def measure_setup(host: HostSpeed):
    """Median wall time, raw and scaled, for a fresh interpreter to import
    the CLI and build its parser; one unmeasured spawn first writes
    bytecode caches."""
    cmd = [sys.executable, "-c", "import stratabench.cli as c; c.build_parser()"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    k = host.sample()
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - t0
        after = host.sample()
        if i:
            raw.append(seconds)
            scaled.append(seconds * host.scale(k))
        k = after
    return statistics.median(raw), statistics.median(scaled)


class Phase:
    """Runs jobs one at a time and keeps per-job times and outcomes."""

    def __init__(self, cli, workload: str, seed: int, workdir: Path, tracer=None):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.workdir, self.tracer = workdir, tracer
        self.job_ms: list = []
        self.job_wall: list = []   # dispatch plus check, without input generation
        self.host_k: list = []     # the host sample taken before each job
        self.failed = 0
        self.report_bytes = 0
        self.evidence = hashlib.sha256()

    def run_job(self, index: int) -> None:
        job = workloads.make_job(self.workload, self.seed, index, self.workdir)
        job.write_files(self.workdir)
        gc.collect()
        if self.tracer is not None:
            self.tracer.job_id = index
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self.cli.dispatch(job.argv)
        except (Exception, SystemExit):
            rc = None
        t1 = time.perf_counter()
        text = out.getvalue()
        try:
            report = json.loads(text.partition("\n")[2])
            ok = rc == 0 and report["verdict"] == "pass" and job.check(report["evidence"])
        except (ValueError, KeyError, TypeError, IndexError):
            report, ok = None, False
        self.job_wall.append(time.perf_counter() - t0)
        self.job_ms.append((t1 - t0) * 1000)
        self.failed += not ok
        self.report_bytes += len(text)
        if index < FINGERPRINT_JOBS:
            evidence = report.get("evidence") if report else None
            self.evidence.update(json.dumps(evidence, sort_keys=True).encode() + b"\n")

    @property
    def wall(self) -> float:
        return sum(self.job_wall)

    def run_for(self, seconds: float, started: float, host: HostSpeed) -> None:
        """Jobs for `seconds` of wall time, at least MIN_JOBS, and whole
        cycles only, so every run has the workload's exact mix."""
        cycle = workloads.cycle_length(self.workload)
        k, sampled_at = host.sample(), 0.0
        while ((self.wall < seconds or len(self.job_ms) < MIN_JOBS
                or len(self.job_ms) % cycle)
               and time.perf_counter() - started < TIME_LIMIT_S):
            if self.wall - sampled_at >= CAL_EVERY_S:
                k, sampled_at = host.sample(), self.wall
            self.host_k.append(k)
            self.run_job(len(self.job_ms))
        host.sample()


def end_to_end(cli, args, workdir: Path, started: float):
    host = HostSpeed()
    setup_raw, setup_s = measure_setup(host)
    phase = Phase(cli, args.workload, args.seed, workdir)
    phase.run_for(args.seconds, started, host)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scales = [host.scale(k) for k in phase.host_k]
    times = [ms * s for ms, s in zip(phase.job_ms, scales)]
    wall = sum(w * s for w, s in zip(phase.job_wall, scales))
    print(f"wall-clock {args.workload}: job_ms_p50={statistics.median(phase.job_ms):.4g} "
          f"job_ms_p90={statistics.quantiles(phase.job_ms, n=10)[-1]:.4g} "
          f"jobs_per_s={len(times) / phase.wall:.4g} setup_s={setup_raw:.4g} "
          f"kernel_ms={statistics.median(host.samples):.4g} "
          f"kernel_samples={len(host.samples)}", file=sys.stderr)
    metrics = {
        "job_ms_p50": (statistics.median(times), "ms"),
        "job_ms_p90": (statistics.quantiles(times, n=10)[-1], "ms"),
        "jobs_per_s": (len(times) / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return phase, metrics


def per_layer(cli, args, workdir: Path):
    from tracer import LAYERS, Tracer

    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[args.workload]))
    n = max(FINGERPRINT_JOBS, cycles * workloads.cycle_length(args.workload))
    plain = Phase(cli, args.workload, args.seed, workdir)
    tr = Tracer()
    traced = Phase(cli, args.workload, args.seed, workdir, tr)
    for index in range(n):      # alternate, so host-speed drift hits both alike
        plain.run_job(index)
        tr.instrument()
        try:
            traced.run_job(index)
        finally:
            tr.restore()
    spans = tr.summary()
    stem = WORKDIR / f"trace-{args.workload}-seed{args.seed}"
    tr.write(stem.with_suffix(".spans"))
    stem.with_suffix(".json").write_text(json.dumps(
        {"jobs": n, "spans": spans, "counters": tr.counters}, indent=1, sort_keys=True))

    metrics = {}
    for layer in LAYERS:
        mine = [v for k, v in spans.items() if k.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = (sum(v["calls"] for v in mine), "count")
        metrics[f"{layer}.self_ms"] = (sum(v["self_ms"] for v in mine), "ms")
        metrics[f"{layer}.errors"] = (sum(v["errors"] for v in mine), "count")
        for fn in layers[layer]["functions"]:
            span = spans[f"{layer}.{fn}"]
            metrics[f"{layer}.{fn}.calls"] = (span["calls"], "count")
            metrics[f"{layer}.{fn}.self_ms"] = (span["self_ms"], "ms")
    checks = spans["gluing.chi_check"]["calls"]
    counters = dict(tr.counters)
    counters["gluing.chi_pass_frac"] = (
        counters.get("gluing.chi_check.passes", 0) / checks if checks else 0.0)
    counters["cli.dispatch.report_bytes"] = traced.report_bytes
    for layer in LAYERS:
        for name in layers[layer]["counts"]:
            unit = "ratio" if name.endswith("_frac") else (
                "bytes" if name.endswith("_bytes") else "count")
            metrics[name] = (counters.get(name, 0), unit)
    attempted = 2 * n
    failed = plain.failed + traced.failed
    metrics["trace.overhead"] = (sum(traced.job_ms) / sum(plain.job_ms), "ratio")
    metrics["trace.spans"] = (len(tr.start), "count")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    if plain.evidence.digest() != traced.evidence.digest():
        failed += 1       # tracing must not change a single output byte
    return traced, metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "stratabench" / "cli.py").is_file():
        print(f"error: no stratabench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stratabench import cli
    if Path(cli.__file__).resolve().parent != SRC / "stratabench":
        print(f"error: imported stratabench from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            phase, metrics, attempted, failed = per_layer(cli, args, workdir)
        else:
            phase, metrics = end_to_end(cli, args, workdir, started)
            attempted, failed = len(phase.job_ms), phase.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fingerprint {args.workload} seed={args.seed} "
          f"jobs=0..{FINGERPRINT_JOBS - 1} sha256={phase.evidence.hexdigest()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
