"""Benchmark of the k3acm package: end-to-end metrics or a traced run.

Usage, from the root of a source checkout:

    python3 k3bench/run.py --workload theorem-wide --seed 1 --seconds 20 --trace 0
    python3 k3bench/run.py --workload all --seed 1 --seconds 5 [--trace 1]

One client runs each workload's operations in a closed loop, in one
process, in whole passes over the seeded operation list until
``--seconds`` have elapsed.  Every output is checked; a wrong output makes
the run incorrect and the exit code 1.  An operation that raises (a
WorkbenchError such as the engine's false-claim fault, a BoxTooSmallError,
any other exception) or fails its check counts as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s          median wall time of fresh interpreters that import
                     k3acm and k3acm.cli and build the workload's inputs
    latency_p50_ms   median operation latency
    latency_tail_ms  latency at the workload's fixed tail percentile, the
                     highest with at least 10 samples beyond it
    ops_per_s        operations per second spent inside operations
    ok_share         share of attempted operations that did not fail
    peak_rss_mb      peak resident set size of the benchmark process

Times are calibrated: the speed of a shared machine drifts by tens of
percent over seconds, so a fixed pure-Python kernel is timed around every
100 ms slice of operations (and around every set-up probe), and each wall
time is scaled by CAL_REF_NS over the kernel's time.  The uncalibrated
figures are printed too.

With ``--trace 1`` it reports the per-layer metrics of ``tracing.py``,
per traced operation, after an untraced and a traced phase of half the
time each; ``trace.overhead_share`` is one minus the ratio of their
operation rates.  Spans and the per-input output digest are written
under ``.k3bench/out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".k3bench"
WORKLOADS = ("theorem-wide", "verify-mutants", "destabilize-grid")

# Fixed per workload so a faster program, which runs more samples, is
# compared at the same percentile.  A 20 s run has 110-170 samples of
# theorem-wide, so p80 keeps 20 or more beyond it; on verify-mutants the
# samples above p95 are garbage-collection pauses and machine hiccups
# whose size swings by 10% from run to run.
TAIL_PERCENTILE = {"theorem-wide": 80, "verify-mutants": 95,
                   "destabilize-grid": 99}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 11
WARMUP_SECONDS = 1.0

# Times are scaled to a machine on which the calibration kernel takes
# CAL_REF_NS, about its time on a quiet run of the 2-core box the
# baseline was recorded on.
CAL_REF_NS = 1_200_000
SLICE_SECONDS = 0.1
CHILD_TIMEOUT = 170


def use_source_tree() -> None:
    """Import k3acm from this checkout's src/ and nowhere else."""
    if not (SRC / "k3acm" / "__init__.py").is_file():
        raise SystemExit(f"k3bench: no k3acm sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import k3acm
    if Path(k3acm.__file__).resolve().parent != SRC / "k3acm":
        raise SystemExit(f"k3bench: imported k3acm from {k3acm.__file__}, "
                         f"not from {SRC}")


def workdir(workload: str, seed: int) -> Path:
    """Where a workload writes the input files it generates."""
    return WORK / "work" / f"{workload}-{seed}"


def rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, int(-(-n * p // 100)))


def _kernel() -> int:
    """Fixed stdlib work: build and run a parser, round-trip some JSON.

    Of the kernels tried, this broad mix tracked the machine-speed
    swings of all three workloads most closely.
    """
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    for i in range(8):
        p = sub.add_parser(f"cmd{i}", help="a subcommand")
        p.add_argument("-c", "--config", metavar="PATH", help="a path")
        p.add_argument("--json", action="store_true", help="a flag")
        p.add_argument("--name", required=i % 2 == 0, metavar="N", help="a name")
    args = parser.parse_args(["cmd2", "--name", "t", "-c", "p", "--json"])
    text = json.dumps({"args": [vars(args)] * 8, "ints": list(range(30))})
    return len(json.loads(text))


def calibration_ns() -> int:
    """Best of three timings of a fixed pure-Python kernel.

    Shared machines change speed over seconds; the kernel, timed between
    slices of operations, measures the speed the operations ran at.
    """
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        _kernel()
        elapsed = time.perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


class Run:
    """Operations executed so far, their latencies and their failures."""

    def __init__(self, workload: str, seed: int):
        import workloads
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build_ops(workload, seed, ROOT,
                                       workdir(workload, seed))
        self.digest = workloads.Digest()
        self.latencies_ms: list[float] = []  # calibrated
        self.raw_ns: list[int] = []
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.tracer = None
        self.failure_kind = workloads.failure_kind

    def one(self, op, timed: bool) -> int:
        """Run and check one operation; returns its wall time in ns."""
        tracer = self.tracer
        t0 = time.perf_counter_ns()
        try:
            out = tracer.op(op.run) if tracer else op.run()
            error = None
        except Exception as exc:
            error = exc
        elapsed = time.perf_counter_ns() - t0
        if error is None:
            check = lambda: op.check(out)
            try:
                canonical = tracer.untraced(check) if tracer else check()
            except Exception as exc:
                error = exc
        if error is not None:
            kind = self.failure_kind(error)
            canonical = f"FAILED {kind}: {type(error).__name__}: {error}"
            if kind in ("check", "exception"):
                self.wrong.append(f"{op.key}: {canonical}")
                if len(self.wrong) == 1:
                    traceback.print_exception(error, file=sys.stderr)
            if timed:
                self.failures[kind] += 1
        self.digest.add(op.key, canonical)
        return elapsed

    def warm_up(self) -> None:
        end = time.perf_counter() + WARMUP_SECONDS
        for op in self.ops:
            self.one(op, timed=False)
            if time.perf_counter() >= end:
                break

    def passes(self, seconds: float) -> tuple[float, float]:
        """Whole passes until ``seconds`` elapsed.

        Operations run in slices of SLICE_SECONDS with the calibration
        kernel timed around each slice; a latency is its wall time times
        CAL_REF_NS over the slice's mean kernel time.  Returns the
        calibrated and the raw seconds spent inside operations.
        """
        # A CLI call is one short process; in this long loop, full
        # collections would rescan the package's and the harness's
        # long-lived objects, so they are frozen out of the collector.
        gc.collect()
        gc.freeze()
        first = len(self.raw_ns)
        pending: list[int] = []
        cal = calibration_ns()
        end = time.perf_counter() + seconds
        slice_end = time.perf_counter() + SLICE_SECONDS
        while True:
            for op in self.ops:
                pending.append(self.one(op, timed=True))
                if time.perf_counter() >= slice_end:
                    cal = self._settle(pending, cal)
                    slice_end = time.perf_counter() + SLICE_SECONDS
            if time.perf_counter() >= end:
                break
        self._settle(pending, cal)
        return (sum(self.latencies_ms[first:]) / 1e3,
                sum(self.raw_ns[first:]) / 1e9)

    def _settle(self, pending: list[int], cal_before: int) -> int:
        cal_after = calibration_ns()
        scale = 2 * CAL_REF_NS / (cal_before + cal_after) / 1e6
        self.latencies_ms.extend(ns * scale for ns in pending)
        self.raw_ns.extend(pending)
        pending.clear()
        return cal_after

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.digest.mismatches

    def write_digest(self) -> Path:
        path = WORK / "out" / f"digest-{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "digest": self.digest.hexdigest(),
            "outputs": dict(sorted(self.digest.outputs.items())),
        }, indent=1))
        return path


def measure_setup(workload: str, seed: int) -> list[float]:
    """Calibrated wall times of fresh interpreters that only set up."""
    # -S skips site-packages start-up hooks, which belong to the machine,
    # not to the package; the first probe writes the bytecode cache.
    cmd = [sys.executable, "-S", str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    cal = calibration_ns()
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls and rounds times up
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter_ns() - t0
        if code != 0:
            raise SystemExit(f"k3bench: set-up probe exited with {code}")
        cal_after = calibration_ns()
        if i:  # the first probe only warms the file cache
            times.append(elapsed * 2 * CAL_REF_NS / (cal + cal_after) / 1e9)
        cal = cal_after
    return times


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    setup = measure_setup(workload, seed)
    run = Run(workload, seed)
    run.warm_up()
    busy, raw_busy = run.passes(seconds)
    lat_ms = sorted(run.latencies_ms)
    n = len(lat_ms)
    p = TAIL_PERCENTILE[workload]
    beyond = n - rank(n, p)
    values = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": lat_ms[rank(n, p) - 1],
        "ops_per_s": n / busy,
        "ok_share": 1 - sum(run.failures.values()) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {values[name]:12.4f} {unit}")
    print(f"  tail percentile p{p}: {n} samples, {beyond} beyond it"
          + ("" if beyond >= 10 else "  (fewer than 10: lengthen the run)"))
    raw_ms = sorted(ns / 1e6 for ns in run.raw_ns)
    print(f"  uncalibrated wall time: p50 {statistics.median(raw_ms):.4f} ms, "
          f"p{p} {raw_ms[rank(n, p) - 1]:.4f} ms, {n / raw_busy:.4f} ops/s "
          f"(machine speed {raw_busy / busy:.3f}x the reference)")
    print(f"  setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return run, metrics


def traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict]:
    import tracing
    run = Run(workload, seed)
    run.warm_up()
    first = len(run.raw_ns)
    busy, _ = run.passes(seconds / 2)
    untraced_rate = (len(run.raw_ns) - first) / busy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.tracer = tracer
        first = len(run.raw_ns)
        busy, raw_busy = run.passes(seconds / 2)
    finally:
        tracer.uninstall()
        run.tracer = None
    traced_rate = (len(run.raw_ns) - first) / busy
    values = tracer.metrics(overhead_share=1 - traced_rate / untraced_rate,
                            time_scale=busy / raw_busy)
    path = WORK / "out" / f"trace-{workload}-seed{seed}.json"
    tracer.write(path)
    for name, value in values.items():
        print(f"  {name:<54} {value:14.4f} {tracing.unit_of(name)}")
    print(f"  traced ops {tracer.ops}, {len(tracer.spans)} spans -> "
          f"{path.relative_to(ROOT)}")
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
               for k, v in values.items()}
    return run, metrics


def run_all(args) -> int:
    """Each workload in its own process, then one table of their metrics."""
    rows = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        rows[workload] = json.loads(lines[-1])["metrics"]
    if rows:
        names = next(iter(rows.values()))
        print(f"{'metric':<54}" + "".join(f"{w:>18}" for w in rows) + "  unit")
        for name, m in names.items():
            print(f"{name:<54}"
                  + "".join(f"{r[name]['value']:>18.4f}" for r in rows.values())
                  + f"  {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, build the inputs and exit "
                             "(the set-up time probe)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    use_source_tree()
    import k3acm.cli  # noqa: F401  part of what set-up time measures
    import workloads
    if args.setup_only:
        workloads.build_ops(args.workload, args.seed, ROOT,
                            workdir(args.workload, args.seed))
        return 0
    print(f"k3bench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]}")
    measure = traced if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, args.seconds)
    digest_path = run.write_digest()
    attempted = len(run.raw_ns)
    failed = sum(run.failures.values())
    print(f"  attempted {attempted}, failed {failed}"
          + "".join(f", {k} {v}" for k, v in sorted(run.failures.items())))
    print(f"  output digest {run.digest.hexdigest()[:16]} over "
          f"{len(run.digest.outputs)} inputs -> {digest_path.relative_to(ROOT)}")
    for line in run.wrong[:5] + [f"nondeterministic output: {k}"
                                 for k in run.digest.mismatches[:5]]:
        print(f"  WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": run.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
