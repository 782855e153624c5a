"""One sha256 of (exit status, stdout, stderr) per CLI call of the three benchmark workloads, and more.

    python3 tools/output_digests.py SRC > digests.txt

SRC is the `src/` directory of the tree under test.  The calls, their inputs and their order come
from perfbench/workloads.py of this checkout, at seeds 1-3, and each call runs in process through
perfbench/run.py's `invoke`, as in the benchmark; both are imported and left unchanged.  After the
calls of each (workload, seed), `relatives` runs on every array that workload generated, as no
workload calls it.  Then come the q-Racah arrays of `q_racah` at d = 2..8, over Q and over
GF(2^31 - 1), through verify, relatives, dualize and bases: over Q their W, U and W* have mixed
denominators, which the benchmark's Krawtchouk arrays never have.  dualize --require-self-dual and
matrix-of-t --basis tau-vstard follow on each, and refuse it after certify as not self-dual (exit 1):
no other call here reaches those two refusals.  Then verify runs on the same
arrays with varphi_1 raised by 1, the only verify inputs here that are not Leonard: the Gram checks
fail on their premise that U A* W is irreducible tridiagonal while the premises of the F[M] checks
hold, and the report (exit 1) still lists every check.  dualize, bases and matrix-of-t --basis
tau-vstard follow on each of them and exit 1 from certify, with the axiom report on stderr: a
certificate that ran before certify would show here.  Last come the self-dual q-Racah arrays, with
theta* = theta, at d = 2..8 over Q and GF(2^31 - 1), through dualize, bases and matrix-of-t in each of
its four bases: the only passing calls of these verbs here whose W, U and W* have mixed denominators
over Q (the q-Racah arrays above are not self-dual, so dualize fails on them, and matrix-of-t refuses
them).  Then verify, dualize and bases run on the not-Leonard Krawtchouk arrays of `raised_krawtchouk`
at d = 1..5 over Q, GF(7) and GF(2^31 - 1): on these verify's checks are left to the fallbacks that the
certificate stands in for, so a certificate read too early would show here, and over GF(7) coordinates
can vanish by accident.  Among those fallbacks is the round trip's elimination, `Matrix.solve` on the
split basis, which all 54 not-Leonard verify calls reach: the 14 on the raised q-Racah arrays and the
40 on the raised Krawtchouk arrays.  dualize and bases exit 1 from certify on them.  Last, verify, dualize, bases
and matrix-of-t --basis tau-vstard run on the Krawtchouk arrays of perfbench/workloads.py (theta_0 = theta*_0 = d,
s = s* = -2, r = 1) at d = 12 and d = 20 over Q and GF(2^31 - 1), the sizes where the idempotents and the
eigenbasis products cost most.  Then dualize runs on the same arrays with s* = -4, so theta* != theta: T maps no
eigenspace there, so these arrays take the same route as the self-dual ones, reading T^2, U T W, U T* W and the
product formulas off T's eigen-coordinates W*^-1 T W and W^-1 T W*, which are not diagonal here, at a large d, and
the call exits 1.  bases follows on each, and passes: the certificate from which it decides that each basis spans the
components of its decomposition is then read on arrays that are not self-dual at a large d.  After them, the self-dual
array at d = 0 (theta_0 = theta*_0 = -5/3, 1 x 1 matrices and empty split sequences) over Q, GF(7) and GF(2^31 - 1)
runs through verify, relatives, dualize, bases and matrix-of-t --basis tau-vstard: there every product over an
empty range of roots is the field's one, which a product started at the int 1 is not.  1106 calls in all, in
about 3 s per tree on a shared 2-vCPU Xeon.  The inputs are
written to a temporary directory that is the working directory while the calls run, so the paths in
each argv, and so the lines printed, do not depend on where either tree lies.  Two trees whose CLI
outputs agree byte for byte print the same lines: `diff` the two listings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from itertools import accumulate
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402
from run import invoke  # noqa: E402

SEEDS = (1, 2, 3)
Q_RACAH_DS = range(2, 9)
Q_RACAH_VERBS = (("verify",), ("relatives",), ("dualize",), ("bases",), ("dualize", "--require-self-dual"),
                 ("matrix-of-t", "--basis", "tau-vstard"))
RAISED_VERBS = (("verify",), ("dualize",), ("bases",), ("matrix-of-t", "--basis", "tau-vstard"))
LARGE_KRAWTCHOUK_DS = (12, 20)  # through RAISED_VERBS, all of which pass, then NON_SELF_DUAL_VERBS with s* = -4
NON_SELF_DUAL_VERBS = ("dualize", "bases")
SELF_DUAL_VERBS = (("dualize",), ("bases",)) + tuple(("matrix-of-t", "--basis", basis) for basis in
                                                    ("etastar-v0", "eta-vstar0", "taustar-vd", "tau-vstard"))
KRAWTCHOUK_DS = range(1, 6)
KRAWTCHOUK_VERBS = ("verify", "dualize", "bases")
D0_VERBS = (("verify",), ("relatives",), ("dualize",), ("bases",), ("matrix-of-t", "--basis", "tau-vstard"))


def load_program(src: str) -> SimpleNamespace:
    """The `leonard` package imported from src, as the namespace perfbench/workloads.py reads."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    cli = importlib.import_module("leonard.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"leonard imported from {cli.__file__}, not from {src}")
    mods = {name: sys.modules[f"leonard.{name}"] for name in ("systems", "duality", "errors", "fields")}
    return SimpleNamespace(cli=cli, **mods)


def q_racah(program, field, d: int, theta_star012=(1, 3, 4)) -> dict:
    """tests/conftest.py::leonard_array(field, d, (1, 2, 7), theta_star012, 13/6, 5/2) as a JSON object, built
    here because conftest needs pytest: theta and theta* continue by the PA5 recurrence with beta = 13/6
    (q = 3/2), varphi_2..varphi_d follow from varphi_1 = 5/2 by PA4 and PA3, and the package's
    complete_parameter_array checks PA1-PA5 and fixes phi.  With theta_star012 = (1, 2, 7) it is self-dual."""
    n = field.from_int
    beta, varphi_1 = n(13) / n(6), n(5) / n(2)
    th, ths = [n(1), n(2), n(7)], [n(x) for x in theta_star012]
    for seq in (th, ths):
        while len(seq) < d + 1:
            seq.append(seq[-3] - (beta + 1) * (seq[-2] - seq[-1]))
    s = list(accumulate(((th[h] - th[d - h]) / (th[0] - th[d]) for h in range(d)), initial=n(0)))
    phi_1 = varphi_1 + (ths[1] - ths[0]) * (th[d] - th[0])
    varphi = [varphi_1] + [phi_1 * s[i] + (ths[i] - ths[0]) * (th[i - 1] - th[d]) for i in range(2, d + 1)]
    return program.systems.complete_parameter_array(field, th[:d + 1], ths[:d + 1], varphi).to_json()


def raised_krawtchouk(program, field, d: int, i: int) -> dict | None:
    """tests/conftest.py::krawtchouk(field, d), theta_h = theta*_h = d - 2h, varphi_h = h(h-d-1) and phi_h =
    -3 h(h-d-1), with varphi_i raised by 1 and as a JSON object, as tests/reference.py::not_leonard_arrays
    builds it; None when that varphi_i is 0."""
    n = field.from_int
    varphi = [n(h * (h - d - 1)) + (field.one() if h == i else field.zero()) for h in range(1, d + 1)]
    if not all(varphi):
        return None
    theta, phi = [n(d - 2 * h) for h in range(d + 1)], [n(-3 * h * (h - d - 1)) for h in range(1, d + 1)]
    return program.systems.ParameterArray(field, d, theta, theta, varphi, phi).to_json()


def write_array(path: str, obj: dict) -> str:
    """path, after writing the JSON object obj to it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


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
                    inputs = make_inputs(seed, workdir, program)
                    argvs = [op.argv for op in inputs.ops] + [("relatives", "--input", p) for p, _ in inputs.arrays]
                    for k, argv in enumerate(argvs):
                        print(workload, seed, k, call_digest(program, argv), " ".join(argv), flush=True)
            fields = (program.fields.Field.rational(), program.fields.Field.prime(2**31 - 1))
            for field in fields:
                for d in Q_RACAH_DS:
                    path = write_array(f"q-racah-{field.kind}-d{d}.json", q_racah(program, field, d))
                    for k, verb in enumerate(Q_RACAH_VERBS):
                        argv = (*verb, "--input", path)
                        print("q-racah", field.kind, d, k, call_digest(program, argv), " ".join(argv), flush=True)
            for field in fields:
                for d in Q_RACAH_DS:
                    pa = program.systems.ParameterArray.from_json(q_racah(program, field, d))
                    raised = replace(pa, varphi=(pa.varphi[0] + field.one(), *pa.varphi[1:])).to_json()
                    path = write_array(f"q-racah-{field.kind}-d{d}-varphi1-raised.json", raised)
                    for k, verb in enumerate(RAISED_VERBS):
                        argv = (*verb, "--input", path)
                        print("q-racah-varphi1-raised", field.kind, d, k, call_digest(program, argv), " ".join(argv),
                              flush=True)
            for field in fields:
                for d in Q_RACAH_DS:
                    array = q_racah(program, field, d, (1, 2, 7))
                    path = write_array(f"q-racah-self-dual-{field.kind}-d{d}.json", array)
                    for k, verb in enumerate(SELF_DUAL_VERBS):
                        argv = (*verb, "--input", path)
                        print("q-racah-self-dual", field.kind, d, k, call_digest(program, argv), " ".join(argv),
                              flush=True)
            for field in (fields[0], program.fields.Field.prime(7), fields[1]):
                label = field.p or "Q"
                for d in KRAWTCHOUK_DS:
                    for i in range(1, d + 1):
                        if (array := raised_krawtchouk(program, field, d, i)) is None:
                            continue
                        path = write_array(f"krawtchouk-{label}-d{d}-varphi{i}-raised.json", array)
                        for k, verb in enumerate(KRAWTCHOUK_VERBS):
                            argv = (verb, "--input", path)
                            print("krawtchouk-varphi-raised", label, d, i, k, call_digest(program, argv),
                                  " ".join(argv), flush=True)
            for field in fields:
                for d in LARGE_KRAWTCHOUK_DS:
                    array = workloads.krawtchouk_array(field.to_json(), d, d, -2, d, -2, 1)
                    path = write_array(f"krawtchouk-{field.kind}-d{d}.json", array)
                    for k, verb in enumerate(RAISED_VERBS):
                        argv = (*verb, "--input", path)
                        print("krawtchouk", field.kind, d, k, call_digest(program, argv), " ".join(argv), flush=True)
            for field in fields:
                for d in LARGE_KRAWTCHOUK_DS:
                    array = workloads.krawtchouk_array(field.to_json(), d, d, -2, d, -4, 1)
                    path = write_array(f"krawtchouk-non-self-dual-{field.kind}-d{d}.json", array)
                    for k, verb in enumerate(NON_SELF_DUAL_VERBS):
                        argv = (verb, "--input", path)
                        print("krawtchouk-non-self-dual", field.kind, d, k, call_digest(program, argv), " ".join(argv),
                              flush=True)
            for field in (fields[0], program.fields.Field.prime(7), fields[1]):
                label = field.p or "Q"
                theta = (field.from_int(-5) / field.from_int(3),)
                path = write_array(f"d0-self-dual-{label}.json",
                                   program.systems.ParameterArray(field, 0, theta, theta, (), ()).to_json())
                for k, verb in enumerate(D0_VERBS):
                    argv = (*verb, "--input", path)
                    print("d0-self-dual", label, k, call_digest(program, argv), " ".join(argv), flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
