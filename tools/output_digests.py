"""One sha256 of (exit status, stdout, stderr) per CLI call of the three benchmark workloads.

    python3 tools/output_digests.py SRC > digests.txt

SRC is the `src/` directory of the tree under test.  The calls, their inputs and their order come
from perfbench/workloads.py of this checkout, at seeds 1-3, and each call runs in process through
perfbench/run.py's `invoke`, as in the benchmark; both are imported and left unchanged.  The inputs
of each (workload, seed) are written to a temporary directory that is the working directory while
the calls run, so the paths in each argv, and so the lines printed, do not depend on where either
tree lies.  Two trees whose CLI outputs agree byte for byte print the same lines: `diff` the two
listings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tempfile
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from run import invoke  # noqa: E402

SEEDS = (1, 2, 3)


def load_program(src: str) -> SimpleNamespace:
    """The `leonard` package imported from src, as the namespace perfbench/workloads.py reads."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    cli = importlib.import_module("leonard.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"leonard imported from {cli.__file__}, not from {src}")
    mods = {name: sys.modules[f"leonard.{name}"] for name in ("systems", "duality", "errors")}
    return SimpleNamespace(cli=cli, **mods)


def call_digest(program, argv) -> str:
    """sha256 over the exit status, stdout and stderr of one CLI call, each length-prefixed; a crash
    is an outcome to compare (`invoke` reports it as exit None and a line on stderr)."""
    rc, out, err, _ = invoke(program, argv)
    h = hashlib.sha256()
    for part in (repr(rc), out, err):
        data = part.encode()
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src/ directory of the tree under test")
    args = parser.parse_args(argv)
    program = load_program(args.src)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        os.chdir(tmp)
        try:
            for workload, make_inputs in workloads.WORKLOADS.items():
                for seed in SEEDS:
                    workdir = f"{workload}-seed{seed}"
                    os.mkdir(workdir)
                    for k, op in enumerate(make_inputs(seed, workdir, program).ops):
                        print(workload, seed, k, call_digest(program, op.argv), " ".join(op.argv), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
