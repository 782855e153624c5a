"""Alternating benchmark pairs of two checkouts, summarised metric by metric.

    python3 tools/bench_pairs.py BASE HEAD --workload dualize-gfp [--seed N]

BASE and HEAD are the roots of two checkouts (the parent commit and the change).  Each of the ten
pairs runs `perfbench/run.py --trace 0` of each checkout on itself, one after the other, in a fresh
process, for the `run_seconds` of BENCHMARK.json; the side that runs first alternates from pair to
pair.  Pass a seed that was not used while writing the change.  The two trees must hold
byte-identical `perfbench/` and BENCHMARK.json (else exit 2), so that both sides run the same
benchmark code with the same settings.

For each end-to-end metric of BENCHMARK.json, with its direction, the summary gives each side's
median and quartiles over the runs, the median's change and its bound, the pairs the head wins
(ties count for neither side), and whether a gain may be claimed: there are at least ten pairs,
the head wins at least nine tenths of them, and its median beats the base's by more than the
distance between the base's quartiles.  A run whose result is not correct is reported.

Nothing is written in either tree beyond run.py's own gitignored `perfbench/_out/` and
`perfbench/_work/`: bytecode goes to a temporary directory (PYTHONPYCACHEPREFIX), a fresh one per
run, so every run compiles `src/` once, as in a fresh checkout.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys
import tempfile

GENERATED = {"_out", "_work", "__pycache__"}  # what running or testing perfbench leaves in perfbench/
PAIRS = 10  # the fewest pairs a gain may be claimed on


def _files(root: str) -> set:
    """The paths under root/perfbench, relative to root, outside the directories that running it fills."""
    out = set()
    for here, dirs, names in os.walk(os.path.join(root, "perfbench")):
        dirs[:] = [d for d in dirs if d not in GENERATED]
        out.update(os.path.relpath(os.path.join(here, n), root) for n in names)
    return out | {"BENCHMARK.json"}


def benchmark_differences(base: str, head: str) -> list:
    """The paths of `perfbench/` and BENCHMARK.json that are missing from one tree or differ in a byte."""
    a, b = _files(base), _files(head)
    return sorted((a ^ b) | {p for p in a & b if not filecmp.cmp(os.path.join(base, p), os.path.join(head, p),
                                                                 shallow=False)})


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one `perfbench/run.py --trace 0` run of the checkout at root."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def summarize(base_runs, head_runs, metrics) -> list:
    """One row per metric for the run results base_runs[k], head_runs[k] of pair k ({"metrics": {name: {"value"}}}
    as run.py prints them) and metrics, the end-to-end entries of BENCHMARK.json: name, the base's and the head's
    (q1, median, q3), the relative change of the median, whether it stays within the bound, the pairs won by the
    head and whether a gain may be claimed (>= PAIRS pairs, >= 9/10 of them won, median gap wider than the base's
    q3 - q1)."""
    rows = []
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        base = [r["metrics"][m["name"]]["value"] for r in base_runs]
        head = [r["metrics"][m["name"]]["value"] for r in head_runs]
        (b1, bm, b3), (h1, hm, h3) = statistics.quantiles(base, n=4), statistics.quantiles(head, n=4)
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        change = (hm - bm) / bm if bm else 0.0
        rows.append({
            "metric": m["name"], "unit": m["unit"], "better": m["better"],
            "base": (b1, bm, b3), "head": (h1, hm, h3), "change": change,
            "within_bound": -sign * change <= m["bound"], "wins": wins, "pairs": len(base),
            "gain": len(base) >= PAIRS and 10 * wins >= 9 * len(base) and sign * (hm - bm) > b3 - b1,
        })
    return rows


def format_rows(rows) -> str:
    out = ["| metric | base q1 / median / q3 | head q1 / median / q3 | change | within bound | head wins | gain |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        base, head = (" / ".join(f"{x:.4g}" for x in r[k]) for k in ("base", "head"))
        out.append(f"| {r['metric']} ({r['unit']}, {r['better']}) | {base} | {head} | {100 * r['change']:+.1f} % "
                   f"| {'yes' if r['within_bound'] else 'NO'} | {r['wins']} of {r['pairs']} "
                   f"| {'yes' if r['gain'] else 'no'} |")
    return "\n".join(out)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    base, head = os.path.abspath(args.base), os.path.abspath(args.head)
    differing = benchmark_differences(base, head)
    if differing:
        sys.stderr.write(f"bench_pairs: the trees' benchmarks differ: {', '.join(differing)}\n")
        return 2
    with open(os.path.join(base, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    runs = ([], [])  # base, head
    try:
        for k in range(PAIRS):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                runs[side].append(run_once((base, head)[side], args.workload, args.seed, seconds))
            sys.stderr.write(f"bench_pairs: pair {k + 1} of {PAIRS} done\n")
    except RuntimeError as exc:
        sys.stderr.write(f"bench_pairs: {exc}\n")
        return 1
    print(f"{args.workload}, seed {args.seed}, {PAIRS} pairs of {seconds:g} s, base {base}, head {head}")
    print(format_rows(summarize(*runs, spec["end_to_end"])))
    for name, side in zip(("base", "head"), runs):
        bad, failed = sum(not r["correct"] for r in side), sum(r["failed"] for r in side)
        if bad or failed:
            print(f"{name}: {bad} runs not correct, {failed} failed calls")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
