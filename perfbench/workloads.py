"""Seeded inputs, CLI call lists and expected outcomes for the three workloads.

Every parameter array is of Krawtchouk type, fixed by (theta0, theta*0, s, s*, r):

    theta_i  = theta0  + s  * i          theta*_i = theta*0 + s* * i
    varphi_i = i (i - d - 1) r           phi_i    = i (i - d - 1) (r - s s*)

with s, s* and r nonzero and r != s s*.  theta* = theta (theta*0 = theta0,
s* = s) gives a self-dual array.  All draws come from one random.Random
seeded by the workload name and the benchmark seed, so one seed always
gives the same files, the same calls and the same expected outcomes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PRIME = 2147483647
RATIONAL_JSON = {"kind": "rational"}
PRIME_JSON = {"kind": "prime", "p": PRIME}

# The checks `dualize` must fail, and the only ones, on an array whose
# theta* differs from theta (the negative control).
NEGATIVE_CONTROL_FAILURES = frozenset({
    "T_equals_T_dagger",
    "T_equals_T_star_dagger",
    "A_T_equals_T_Astar",
    "Astar_T_equals_T_A",
    "Ei_T_equals_T_Estar_i",
    "Estar_i_T_equals_T_Ei",
    "T_maps_eigenspaces",
    "T_on_flags",
    "T_on_decompositions",
})

FOUR_BASES = ("etastar-v0", "eta-vstar0", "taustar-vd", "tau-vstard")

# Arrays per diameter in one cycle.  The bulk at d <= 3 puts the median
# inside the d = 3 band, and six d = 4 arrays under a one-array tail at
# d = 5, 6 put the 90th percentile inside the d = 4 band: a percentile on
# the gap between two diameters would jump with small changes in the draws.
# d = 7 is left out: one `verify` there takes ~3 s, and a run of 20 s must
# hold >= 100 calls.
VERIFY_Q_MIX = {1: 8, 2: 10, 3: 18, 4: 6, 5: 1, 6: 1}
DUALIZE_SELF_DUAL_MIX = {2: 2, 3: 2, 4: 2, 5: 1, 6: 1}
DUALIZE_NEGATIVE_MIX = {2: 1, 3: 1, 4: 1, 5: 1}

# tests/conftest.py::SEARCH_PLAN, the acceptance corpus recipe, as
# (field, d, self_dual_only, limit, seed, max_trials).
SEARCH_PLAN = (
    ("prime:7", 1, False, 8, 0, 10**6),
    ("prime:7", 2, False, 4, 0, 10**6),
    ("prime:7", 2, True, 3, 0, 10**6),
    ("rational", 1, False, 4, 11, 10**6),
    ("rational", 1, True, 3, 5, 10**6),
    ("rational", 2, False, 2, 7, 20000),
    ("rational", 2, True, 2, 3, 20000),
    ("rational", 3, False, 1, 1, 3000),
    ("rational", 4, False, 1, 1, 2500),
    ("rational", 5, False, 1, 1, 1500),
    ("rational", 6, False, 1, 1, 1200),
)
# Blind rational draws at d >= 3 find nothing; each such line is issued as
# calls of this many trials (same trials per cycle as the recipe) so that a
# run holds enough calls for a 90th percentile.
SEARCH_CHUNK_TRIALS = 100
BLIND_FROM_D = 3


@dataclass(frozen=True)
class Op:
    """One CLI call and the outcome it must have.

    expect is "pass" (exit 0, every report check passes), "negative" (exit 1,
    exactly `failing` fail), "found" (exit 0, `limit` arrays) or "exhausted"
    (exit 1 with ExhaustedTrials, fewer than `limit` arrays).
    """

    argv: tuple
    expect: str
    d: int
    failing: frozenset = frozenset()
    limit: int = 0
    max_trials: int = 0
    self_dual: bool = False

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass
class Inputs:
    ops: list
    arrays: list = field(default_factory=list)  # (path, json object)
    redraws: int = 0


# --- the Krawtchouk-type generator ---


def krawtchouk_array(field_json: dict, d: int, theta0, s, theta_star0, s_star, r) -> dict:
    """The parameter-array JSON object for the formula in the module docstring."""
    rational = field_json["kind"] == "rational"

    def enc(x):
        return f"{x.numerator}/{x.denominator}" if rational else x % PRIME

    return {
        "field": field_json,
        "d": d,
        "theta": [enc(theta0 + s * i) for i in range(d + 1)],
        "theta_star": [enc(theta_star0 + s_star * i) for i in range(d + 1)],
        "varphi": [enc(i * (i - d - 1) * r) for i in range(1, d + 1)],
        "phi": [enc(i * (i - d - 1) * (r - s * s_star)) for i in range(1, d + 1)],
    }


def _draw_scalar(rng: random.Random, rational: bool):
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(PRIME)


def _degenerate(rational: bool, theta0, s, theta_star0, s_star, r, self_dual: bool) -> bool:
    m = (lambda x: x) if rational else (lambda x: x % PRIME)
    if not (m(s) and m(s_star) and m(r)) or m(r - s * s_star) == 0:
        return True
    return not self_dual and m(theta_star0) == m(theta0) and m(s_star) == m(s)


def draw_array(rng: random.Random, field_json: dict, d: int, self_dual: bool):
    """(array JSON, redraws).  A degenerate draw is redrawn from the same stream."""
    rational = field_json["kind"] == "rational"
    redraws = 0
    while True:
        theta0, s, r = (_draw_scalar(rng, rational) for _ in range(3))
        if self_dual:
            theta_star0, s_star = theta0, s
        else:
            theta_star0, s_star = _draw_scalar(rng, rational), _draw_scalar(rng, rational)
        if not _degenerate(rational, theta0, s, theta_star0, s_star, r, self_dual):
            return krawtchouk_array(field_json, d, theta0, s, theta_star0, s_star, r), redraws
        redraws += 1


def _certified_draw(rng, field_json, d, self_dual, program):
    """Draw until the array certifies; every rejected draw is counted."""
    redraws = 0
    while True:
        obj, n = draw_array(rng, field_json, d, self_dual)
        redraws += n
        try:
            program.systems.certify(program.systems.ParameterArray.from_json(obj))
        except (ArithmeticError, ValueError, program.errors.LeonardError):
            redraws += 1
            continue
        return obj, redraws


def _write_array(workdir: str, name: str, obj: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


# --- the workloads ---


def verify_q(seed: int, workdir: str, program) -> Inputs:
    rng = _rng("verify-q", seed)
    inputs = Inputs([])
    k = 0
    for d, count in VERIFY_Q_MIX.items():
        for j in range(count):
            self_dual = j % 2 == 0
            obj, n = _certified_draw(rng, RATIONAL_JSON, d, self_dual, program)
            inputs.redraws += n
            path = _write_array(workdir, f"verify-q-{k}-d{d}.json", obj)
            inputs.arrays.append((path, obj))
            inputs.ops.append(Op(("verify", "--input", path), "pass", d, self_dual=self_dual))
            k += 1
    rng.shuffle(inputs.ops)
    return inputs


def dualize_gfp(seed: int, workdir: str, program) -> Inputs:
    rng = _rng("dualize-gfp", seed)
    inputs = Inputs([])
    k = 0
    for mix, self_dual in ((DUALIZE_SELF_DUAL_MIX, True), (DUALIZE_NEGATIVE_MIX, False)):
        for d, count in mix.items():
            for _ in range(count):
                obj, n = _certified_draw(rng, PRIME_JSON, d, self_dual, program)
                inputs.redraws += n
                path = _write_array(workdir, f"dualize-gfp-{k}-d{d}.json", obj)
                inputs.arrays.append((path, obj))
                k += 1
                if not self_dual:
                    inputs.ops.append(Op(("dualize", "--input", path), "negative", d,
                                         failing=NEGATIVE_CONTROL_FAILURES))
                    continue
                inputs.ops.append(Op(("dualize", "--input", path), "pass", d, self_dual=True))
                inputs.ops.append(Op(("bases", "--input", path), "pass", d, self_dual=True))
                for basis in FOUR_BASES:
                    inputs.ops.append(Op(("matrix-of-t", "--basis", basis, "--input", path),
                                         "pass", d, self_dual=True))
    rng.shuffle(inputs.ops)
    return inputs


def search_op(field_arg: str, d: int, self_dual: bool, limit: int, seed: int, max_trials: int,
              expect: str) -> Op:
    argv = ["search", "--field", field_arg, "--d", str(d), "--limit", str(limit),
            "--seed", str(seed), "--max-trials", str(max_trials)]
    if self_dual:
        argv.append("--self-dual")
    return Op(tuple(argv), expect, d, limit=limit, max_trials=max_trials, self_dual=self_dual)


def corpus_search(seed: int, workdir: str, program) -> Inputs:
    """The acceptance recipe, rational seeds offset by the benchmark seed.

    GF(7) enumeration ignores --seed, so those calls are the same for every
    benchmark seed.  Blind lines (d >= 3) are split into chunks of
    SEARCH_CHUNK_TRIALS trials with seeds offset by the chunk index.
    """
    ops = []
    for field_arg, d, self_dual, limit, plan_seed, max_trials in SEARCH_PLAN:
        base = plan_seed + 1_000_000 * seed
        if field_arg != "rational" or d < BLIND_FROM_D:
            ops.append(search_op(field_arg, d, self_dual, limit, base, max_trials, "found"))
            continue
        for j in range(max_trials // SEARCH_CHUNK_TRIALS):
            ops.append(search_op(field_arg, d, self_dual, limit, base + 1000 * j,
                                 SEARCH_CHUNK_TRIALS, "exhausted"))
    return Inputs(ops)


WORKLOADS = {
    "verify-q": verify_q,
    "dualize-gfp": dualize_gfp,
    "corpus-search": corpus_search,
}


# --- expected outcomes ---


def _report_failures(payload: dict) -> set:
    return {c["name"] for c in payload["report"]["checks"] if not c["pass"]}


def check_outcome(op: Op, rc: int, out: str, err: str, inputs_by_path: dict) -> str | None:
    """None when the call had its expected outcome, else the reason it did not."""
    if op.expect in ("pass", "negative"):
        want_rc = 0 if op.expect == "pass" else 1
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}: {err.strip()[:200]}"
        try:
            payload = json.loads(out)
            failed = _report_failures(payload)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        if not payload["report"]["checks"]:
            return "empty report"
        if failed != set(op.failing):
            return f"failing checks {sorted(failed)}, expected {sorted(op.failing)}"
        if "parameter_array" in payload:
            path = op.argv[op.argv.index("--input") + 1]
            if payload["parameter_array"] != inputs_by_path[path]:
                return "parameter_array differs from the input"
        if "self_dual" in payload and payload["self_dual"] != op.self_dual:
            return f"self_dual {payload['self_dual']}, expected {op.self_dual}"
        return None
    lines = out.splitlines()
    if op.expect == "found":
        if rc != 0 or err:
            return f"exit {rc}, expected 0 with {op.limit} arrays: {err.strip()[:200]}"
        if len(lines) != op.limit:
            return f"{len(lines)} arrays, expected {op.limit}"
        return None
    if op.expect == "exhausted":
        if rc != 1:
            return f"exit {rc}, expected 1 with ExhaustedTrials"
        try:
            kind = json.loads(err)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            kind = None
        if kind != "ExhaustedTrials":
            return f"stderr {err.strip()[:200]!r}, expected an ExhaustedTrials error"
        if len(lines) >= op.limit:
            return f"{len(lines)} arrays with exit 1, limit {op.limit}"
        return None
    raise ValueError(f"unknown expectation {op.expect!r}")


def recertify_search_output(op: Op, out: str, program) -> str | None:
    """Re-certify every array a search call emitted (done after timing)."""
    field_arg = op.argv[op.argv.index("--field") + 1]
    want_field = RATIONAL_JSON if field_arg == "rational" else {
        "kind": "prime", "p": int(field_arg.split(":", 1)[1])}
    for line in out.splitlines():
        try:
            obj = json.loads(line)
            pa = program.systems.ParameterArray.from_json(obj)
            program.systems.certify(pa)
            if obj["field"] != want_field or pa.d != op.d:
                return f"emitted array over {obj['field']} at d={pa.d}"
            if op.self_dual and not program.duality.is_self_dual(pa):
                return "emitted array is not self-dual"
        except (ArithmeticError, ValueError, KeyError, TypeError, program.errors.LeonardError) as exc:
            return f"emitted array does not certify: {type(exc).__name__}: {exc}"
    return None
