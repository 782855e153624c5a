"""Benchmark of the `leonard` CLI: one process, one thread, a closed loop.

    python3 perfbench/run.py --workload verify-q --seed 1 --seconds 20 --trace 0

Each CLI call starts after the previous one returns.  Calls go through
`leonard.cli.main([...])` in this process with stdout/stderr captured; the
inputs are JSON files generated from --seed.  The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  Details (sample
counts, failures, environment) go to perfbench/_out/ and to stderr.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
MIN_CALLS = 100   # so that at least ten calls lie beyond the 90th percentile
TRACED_PASSES = 2
PROBE_REF_S = 0.002


# --- the program under test ---


def load_program() -> SimpleNamespace:
    """Import (or re-import) the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "leonard" or n.startswith("leonard.")]:
        del sys.modules[name]
    cli = importlib.import_module("leonard.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"leonard imported from {cli.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=cli,
        systems=sys.modules["leonard.systems"],
        duality=sys.modules["leonard.duality"],
        errors=sys.modules["leonard.errors"],
    )


def probe() -> float:
    """Seconds for a fixed slice of exact arithmetic: the machine's speed right now.

    On a shared 2-vCPU Intel Xeon the CPU alternates between fast and slow
    phases lasting seconds (one call measured 81 ms and 151 ms in one
    process; CPU time moves with wall time, so it is the CPU that slows).  Every timing is therefore scaled by
    PROBE_REF_S / probe(), measured around it: a time in seconds at the speed
    at which the probe takes PROBE_REF_S.
    """
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 400):
        x = x * Fraction(i, i + 2) + Fraction(1, i + 3)
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: str):
    """Import + input generation + certification of every generated array.

    Returns (scaled seconds, raw seconds, program, inputs).
    """
    before = probe()
    start = time.perf_counter()
    program = load_program()
    inputs = workloads.WORKLOADS[workload](seed, workdir, program)
    elapsed = time.perf_counter() - start
    speed = (before + probe()) / 2
    return elapsed * PROBE_REF_S / speed, elapsed, program, inputs


def invoke(program, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = program.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is an outcome to count, not a reason to stop
            rc = None
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Call:
    __slots__ = ("op", "seconds", "scaled", "reason")

    def __init__(self, op, seconds, scaled, reason):
        self.op, self.seconds, self.scaled, self.reason = op, seconds, scaled, reason


class Runner:
    """Runs calls, checks each outcome and keeps every result."""

    def __init__(self, program, inputs):
        self.program = program
        self.ops = inputs.ops
        self.inputs_by_path = dict(inputs.arrays)
        self.calls = []       # every Call, in order
        self.digests = {}     # op index -> digest of its first outcome
        self.search_out = {}  # op index -> stdout of its first run
        self._probe = None

    def run(self, i: int):
        op = self.ops[i]
        before = self._probe if self._probe is not None else probe()
        rc, out, err, elapsed = invoke(self.program, op.argv)
        self._probe = probe()
        reason = workloads.check_outcome(op, rc, out, err, self.inputs_by_path)
        digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()
        if self.digests.setdefault(i, digest) != digest:
            reason = reason or "output differs from an earlier call with the same input"
        if op.verb == "search":
            self.search_out.setdefault(i, out)
        scaled = elapsed * PROBE_REF_S / ((before + self._probe) / 2)
        self.calls.append(Call(i, elapsed, scaled, reason))
        return rc, out

    def cycle(self, indices=None) -> list:
        start = len(self.calls)
        for i in range(len(self.ops)) if indices is None else indices:
            self.run(i)
        return self.calls[start:]

    def recertify_search_outputs(self) -> None:
        """After timing: every array a search emitted must certify."""
        bad = {}
        for i, out in self.search_out.items():
            reason = workloads.recertify_search_output(self.ops[i], out, self.program)
            if reason:
                bad[i] = reason
        for call in self.calls:
            if call.op in bad and call.reason is None:
                call.reason = bad[call.op]

    def failures(self) -> list:
        return [c for c in self.calls if c.reason is not None]


def warm_up(runner: Runner) -> None:
    runner.cycle([i for i, op in enumerate(runner.ops) if op.d <= 2])


def rate(calls) -> float:
    return len(calls) / sum(c.scaled for c in calls)


# --- the two kinds of run ---


def timed_run(runner: Runner, seconds: float) -> dict:
    """Whole cycles until `seconds` have passed and MIN_CALLS calls are in."""
    start = time.perf_counter()
    calls = []
    while time.perf_counter() - start < seconds or len(calls) < MIN_CALLS:
        calls += runner.cycle()
    measured = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = sorted(c.scaled for c in calls)
    raw = sorted(c.seconds for c in calls)
    p90 = statistics.quantiles(scaled, n=10)[8]
    return {
        "metrics": {
            "ops_per_s": (rate(calls), "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
            "op_p90_ms": (1000.0 * p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "samples": {
            "calls": len(calls),
            "calls_beyond_p90": sum(t > p90 for t in scaled),
            "cycles": len(calls) // len(runner.ops),
            "measured_s": measured,
            "unscaled_ops_per_s": len(raw) / sum(raw),
            "unscaled_p50_ms": 1000.0 * statistics.median(raw),
            "unscaled_p90_ms": 1000.0 * statistics.quantiles(raw, n=10)[8],
        },
    }


def traced_run(runner: Runner, seed: int, workload: str) -> dict:
    """Untraced and traced passes over the call list, interleaved.

    Layer times of a pass are scaled by the pass's median probe factor.
    """
    passes, rates, untraced_rates = [], [], []
    for _ in range(TRACED_PASSES):
        untraced_rates.append(rate(runner.cycle()))
        tracer = tracing.Tracer()
        search_ops = {}
        start = len(runner.calls)
        with tracing.install(tracer):
            for i, op in enumerate(runner.ops):
                tracer.op_id = i
                rc, out = runner.run(i)
                if op.verb == "search":
                    search_ops[i] = (op.max_trials, len(out.splitlines()),
                                     op.expect == "exhausted" and rc == 1)
        traced = runner.calls[start:]
        rates.append(rate(traced))
        factor = statistics.median(c.scaled / c.seconds for c in traced)
        metrics = tracing.layer_metrics(tracer, search_ops)
        passes.append((tracer, {name: (value * factor if unit in ("s", "us") else value, unit)
                                for name, (value, unit) in metrics.items()}))

    first, second = passes[0][1], passes[1][1]
    differing = [n for n in tracing.EXACT_COUNTS if first[n][0] != second[n][0]]
    metrics = {name: (first[name][0] if unit == "count" else (first[name][0] + second[name][0]) / 2, unit)
               for name, (_, unit) in first.items()}
    untraced_rate, traced_rate = statistics.median(untraced_rates), statistics.median(rates)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(span_path, "w", encoding="utf-8") as fh:
        for k, (tracer, _) in enumerate(passes):
            for span in tracer.spans:
                fh.write(json.dumps([k, *span]) + "\n")
    return {
        "metrics": metrics,
        "samples": {"untraced_ops_per_s": untraced_rates, "traced_ops_per_s": rates,
                    "calls_per_pass": len(runner.ops), "spans_file": os.path.relpath(span_path, ROOT)},
        "exact_counts": {n: [first[n][0], second[n][0]] for n in tracing.EXACT_COUNTS},
        "exact_counts_differ": differing,
    }


# --- environment and output ---


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (no .git in this checkout)"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leonard", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}/leonard; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times, raw_setup_times, generated = [], [], []
        for _ in range(SETUP_REPS):
            scaled, raw, program, inputs = setup(args.workload, args.seed, workdir)
            setup_times.append(scaled)
            raw_setup_times.append(raw)
            generated.append((inputs.ops, inputs.arrays))
        runner = Runner(program, inputs)
        warm_up(runner)
        if args.trace:
            run = traced_run(runner, args.seed, args.workload)
        else:
            run = timed_run(runner, args.seconds)
            run["metrics"]["setup_s"] = (statistics.median(setup_times), "s")
        runner.recertify_search_outputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = runner.failures()
    attempted = len(runner.calls)
    problems = [f"exact counts differ between traced passes: {run['exact_counts_differ']}"] \
        if run.get("exact_counts_differ") else []
    if any(g != generated[0] for g in generated):
        problems.append("set-up repetitions generated different calls")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": [{"argv": list(runner.ops[c.op].argv), "reason": c.reason} for c in failures],
        "problems": problems,
        "redraws": inputs.redraws,
        "setup_samples_s": setup_times,
        "unscaled_setup_samples_s": raw_setup_times,
        "environment": environment(),
        **{k: v for k, v in run.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(run["metrics"].items())},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for f in record["failures"][:5]:
        sys.stderr.write(f"perfbench: unexpected outcome: {' '.join(f['argv'])}: {f['reason']}\n")
    for p in problems:
        sys.stderr.write(f"perfbench: {p}\n")
    sys.stderr.write(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
                     f"attempted={attempted} failed={len(failures)} samples={record['samples']}\n")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
