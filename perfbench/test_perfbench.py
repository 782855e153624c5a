"""The benchmark's own tests: python3 -m pytest -q perfbench"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def _inputs(tmp_path, program, arrays):
    """Inputs holding the given (name, JSON object) arrays and no ops yet."""
    inputs = workloads.Inputs([])
    for name, obj in arrays:
        path = str(tmp_path / name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        inputs.arrays.append((path, obj))
    return inputs


def _self_dual_q(d=2):
    from fractions import Fraction
    return workloads.krawtchouk_array(workloads.RATIONAL_JSON, d, Fraction(3), Fraction(-2),
                                      Fraction(3), Fraction(-2), Fraction(2))


def _negative_gfp(d=2):
    return workloads.krawtchouk_array(workloads.PRIME_JSON, d, 5, 3, 11, 7, 4)


def test_generator_reproduces_frozen_krawtchouk_arrays():
    from fractions import Fraction as F
    frozen0 = workloads.krawtchouk_array(workloads.RATIONAL_JSON, 3, F(3), F(-2), F(3), F(-2), F(2))
    frozen1 = workloads.krawtchouk_array(workloads.RATIONAL_JSON, 3, F(3), F(-2), F(7), F(-4), F(2))
    assert frozen0["varphi"] == ["-6/1", "-8/1", "-6/1"] and frozen0["phi"] == ["6/1", "8/1", "6/1"]
    assert frozen1["theta_star"] == ["7/1", "3/1", "-1/1", "-5/1"]
    assert frozen1["phi"] == ["18/1", "24/1", "18/1"]


def test_workload_inputs_depend_only_on_the_seed(tmp_path, program):
    a = workloads.dualize_gfp(4, str(tmp_path), program)
    b = workloads.dualize_gfp(4, str(tmp_path), program)
    c = workloads.dualize_gfp(5, str(tmp_path), program)
    assert a.ops == b.ops and a.arrays == b.arrays
    assert a.arrays != c.arrays
    assert len(a.ops) == 6 * sum(workloads.DUALIZE_SELF_DUAL_MIX.values()) + sum(
        workloads.DUALIZE_NEGATIVE_MIX.values())


class _ScriptedRng:
    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        return self.values.pop(0)


def test_degenerate_draw_is_redrawn_and_counted():
    # s = 0 first (theta not distinct), then a valid self-dual draw.
    rng = _ScriptedRng([1, 1, 0, 1, 2, 1,   1, 1, 2, 1, 3, 1])
    obj, redraws = workloads.draw_array(rng, workloads.RATIONAL_JSON, 2, True)
    assert redraws == 1
    assert obj["theta"] == ["1/1", "3/1", "5/1"]
    # r = s s* makes phi vanish: redrawn as well.
    rng = _ScriptedRng([0, 1, 2, 1, 4, 1,   0, 1, 2, 1, 3, 1])
    obj, redraws = workloads.draw_array(rng, workloads.RATIONAL_JSON, 2, True)
    assert redraws == 1 and obj["phi"] == ["2/1", "2/1"]


def test_search_plan_matches_the_acceptance_recipe():
    spec = importlib.util.spec_from_file_location(
        "acceptance_conftest", os.path.join(run.ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = conftest  # dataclasses look their module up here
    try:
        spec.loader.exec_module(conftest)
    finally:
        del sys.modules[spec.name]
    recipe = tuple(
        ("rational" if cfg.field.is_rational else f"prime:{cfg.field.p}", cfg.d,
         cfg.self_dual_only, cfg.limit, cfg.seed, cfg.max_trials)
        for _, cfg in conftest.SEARCH_PLAN
    )
    assert recipe == workloads.SEARCH_PLAN
    ops = workloads.corpus_search(0, "", None).ops
    blind = [op for op in ops if op.expect == "exhausted"]
    assert sum(op.max_trials for op in blind) == sum(
        line[5] for line in workloads.SEARCH_PLAN if line[0] == "rational" and line[1] >= 3)


def test_expected_outcomes_pass_and_wrong_expectations_fail(tmp_path, program):
    inputs = _inputs(tmp_path, program, [("sd.json", _self_dual_q()), ("neg.json", _negative_gfp())])
    sd, neg = (path for path, _ in inputs.arrays)
    nine = workloads.NEGATIVE_CONTROL_FAILURES
    good = [
        workloads.Op(("verify", "--input", sd), "pass", 2),
        workloads.Op(("dualize", "--input", neg), "negative", 2, failing=nine),
        workloads.search_op("rational", 3, False, 1, 1, 20, "exhausted"),
        workloads.search_op("prime:7", 1, False, 2, 0, 10**6, "found"),
    ]
    wrong = [
        workloads.Op(("verify", "--input", sd), "negative", 2, failing=nine),
        workloads.Op(("dualize", "--input", neg), "negative", 2, failing=nine - {"T_on_flags"}),
        workloads.Op(("dualize", "--input", neg), "pass", 2),
        workloads.search_op("rational", 3, False, 1, 1, 20, "found"),
        workloads.search_op("prime:7", 1, False, 2, 0, 10**6, "exhausted"),
    ]
    inputs.ops = good + wrong
    runner = run.Runner(program, inputs)
    runner.cycle()
    runner.recertify_search_outputs()
    failed = sorted(c.op for c in runner.failures())
    assert failed == list(range(len(good), len(good) + len(wrong)))
    assert len(runner.calls) == len(good) + len(wrong)


def test_search_output_is_recertified(tmp_path, program):
    op = workloads.search_op("prime:7", 1, False, 1, 0, 10**6, "found")
    bogus = json.dumps({"field": {"kind": "prime", "p": 7}, "d": 1, "theta": [0, 1],
                        "theta_star": [0, 1], "varphi": [1], "phi": [3]})
    assert workloads.recertify_search_output(op, bogus, program) is not None
    rc, out, _, _ = run.invoke(program, op.argv)
    assert rc == 0 and workloads.recertify_search_output(op, out, program) is None


def test_changed_output_for_the_same_input_is_a_failure(tmp_path, program):
    inputs = _inputs(tmp_path, program, [("sd.json", _self_dual_q())])
    inputs.ops = [workloads.Op(("verify", "--input", inputs.arrays[0][0]), "pass", 2)]
    runner = run.Runner(program, inputs)
    runner.digests[0] = "digest of some other output"
    runner.run(0)
    assert runner.failures()


def test_trace_wrappers_cover_reimports_and_are_removed(tmp_path, program):
    systems, search, duality = program.systems, sys.modules["leonard.search"], program.duality
    originals = (systems.certify, search.certify, duality.nu_scalars,
                 systems.LeonardSystem.__dict__["from_pair"], sys.modules["leonard.linalg"].Matrix.__mul__)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        assert search.certify is systems.certify is not originals[0]
        assert duality.nu_scalars is systems.nu_scalars is not originals[2]
    assert (systems.certify, search.certify, duality.nu_scalars,
            systems.LeonardSystem.__dict__["from_pair"],
            sys.modules["leonard.linalg"].Matrix.__mul__) == originals


def _traced_pass(runner):
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        for i in range(len(runner.ops)):
            tracer.op_id = i
            runner.run(i)
    return tracer


def test_exact_counts_repeat_and_self_times_partition_each_call(tmp_path, program):
    inputs = _inputs(tmp_path, program, [("sd.json", _self_dual_q(3))])
    inputs.ops = [workloads.Op(("verify", "--input", inputs.arrays[0][0]), "pass", 3)]
    runner = run.Runner(program, inputs)
    first, second = _traced_pass(runner), _traced_pass(runner)
    m1, m2 = tracing.layer_metrics(first, {}), tracing.layer_metrics(second, {})
    for name in tracing.EXACT_COUNTS:
        assert m1[name][0] == m2[name][0]
    assert m1["linalg.matmul.calls"][0] > 0 and m1["systems.solve_gram.calls"][0] == 1
    assert all(v == 0 for name, (v, _) in m1.items() if name.startswith(("duality.", "search.")))
    (root,) = [sp for sp in first.spans if sp[1] == "cli.main"]
    assert sum(first.self_seconds.values()) == pytest.approx(root[3] - root[2], rel=1e-6)
    assert not runner.failures()


def test_benchmark_json_names_every_metric_a_run_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layer = tracing.layer_metrics(tracing.Tracer(), {})
    trace = {"trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == set(layer) | trace
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        shutil.copy(os.path.join(run.HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify-q", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
