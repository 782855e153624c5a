import json
import subprocess
import sys

import pytest

import leonard.cli as cli
from leonard.cli import main

D1_SELF_DUAL = {
    "field": {"kind": "rational"},
    "d": 1,
    "theta": ["1/1", "-1/1"],
    "theta_star": ["1/1", "-1/1"],
    "varphi": ["2/1"],
    "phi": ["6/1"],
}

D1_NON_SELF_DUAL = {
    "field": {"kind": "rational"},
    "d": 1,
    "theta": ["1/1", "-1/1"],
    "theta_star": ["2/1", "0/1"],
    "varphi": ["1/1"],
    "phi": ["5/1"],
}

D0 = {
    "field": {"kind": "rational"},
    "d": 0,
    "theta": ["3/1"],
    "theta_star": ["3/1"],
    "varphi": [],
    "phi": [],
}


def run_cli(tmp_path, argv, payload=None):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    full = list(argv)
    if payload is not None:
        inp.write_text(json.dumps(payload))
        full += ["--input", str(inp)]
    full += ["--output", str(out)]
    code = main(full)
    text = out.read_text() if out.exists() else ""
    return code, text


def test_verify_d0_all_pass(tmp_path):
    code, text = run_cli(tmp_path, ["verify"], D0)
    assert code == 0
    report = json.loads(text)["report"]
    assert all(c["pass"] for c in report["checks"])


def test_verify_failing_array_exits_1(tmp_path):
    bad = dict(D1_SELF_DUAL, phi=["5/1"])  # wrong second split sequence
    code, text = run_cli(tmp_path, ["verify"], bad)
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(text)["report"]["checks"]}
    assert not checks["round_trip_parameter_array"]


def test_verify_zero_extracted_phi_is_a_failed_check(tmp_path, capsys):
    # well-formed but not Leonard: the phi read back off the matrices has a zero entry
    gf7 = {"field": {"kind": "prime", "p": 7}, "d": 2, "theta": [2, 0, 5], "theta_star": [2, 0, 5],
           "varphi": [6, 5], "phi": [3, 3]}
    code, text = run_cli(tmp_path, ["verify"], gf7)
    assert code == 1
    assert capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(text)["report"]["checks"]}
    assert checks["round_trip_parameter_array"] == {
        "name": "round_trip_parameter_array",
        "pass": False,
        "witness": {"error": "extracted array is not a parameter array: phi entries must be nonzero"},
    }


def test_verify_malformed_input(tmp_path, capsys):
    code, _ = run_cli(tmp_path, ["verify"], {"not": "an array"})
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_verify_structurally_invalid_is_malformed(tmp_path):
    dup = dict(D1_SELF_DUAL, theta=["1/1", "1/1"])
    code, _ = run_cli(tmp_path, ["verify"], dup)
    assert code == 2


GF7_D1 = {
    "field": {"kind": "prime", "p": 7},
    "d": 1,
    "theta": [0, 1],
    "theta_star": [0, 1],
    "varphi": [1],
    "phi": [2],
}


@pytest.mark.parametrize("payload", [
    dict(D1_SELF_DUAL, phi=["1/0"]),
    dict(D1_SELF_DUAL, theta=[True, "-1/1"]),
    dict(D1_NON_SELF_DUAL, theta_star=["2/1", False]),
    dict(GF7_D1, theta=[0, 8]),
    dict(GF7_D1, phi=[-5]),
], ids=["zero-denominator", "true", "false", "residue-above-p", "negative-residue"])
def test_malformed_scalars_exit_2(tmp_path, capsys, payload):
    # each of these once decoded (or crashed) instead of being rejected
    code, _ = run_cli(tmp_path, ["verify"], payload)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


ARRAY_VERBS = (["verify"], ["dualize"], ["bases"], ["matrix-of-t", "--basis", "tau-vstard"])


@pytest.mark.parametrize("argv", ARRAY_VERBS, ids=lambda argv: argv[0])
def test_budget_bounds_every_array_verb(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("LEONARD_BUDGET", "10")
    assert run_cli(tmp_path, argv, D0)[0] == 0  # (0+1)^5 = 1 fits
    (tmp_path / "out.json").unlink()
    # (1+1)^5 = 32 does not, and nothing is built before the refusal
    for name in ("build_system", "certify"):
        monkeypatch.setattr(cli, name, lambda pa: pytest.fail("built an array over budget"))
    code, text = run_cli(tmp_path, argv, D1_SELF_DUAL)
    assert code == 1 and text == ""
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "BudgetExceeded"
    assert "d = 1" in err["message"] and "budget 10" in err["message"]


def test_default_budget_refuses_d39(tmp_path, capsys, monkeypatch):
    # 39^5 = 90224199 fits the default 10^8, 40^5 does not
    monkeypatch.delenv("LEONARD_BUDGET", raising=False)
    ints = lambda k: [f"{i}/1" for i in range(k)]
    big = {"field": {"kind": "rational"}, "d": 39, "theta": ints(40), "theta_star": ints(40),
           "varphi": ints(40)[1:], "phi": ints(40)[1:]}
    code, _ = run_cli(tmp_path, ["verify"], big)
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "BudgetExceeded",
                   "message": "d = 39: (d+1)^5 = 102400000 exceeds budget 100000000"}


def test_relatives_round_trip(tmp_path):
    code, text = run_cli(tmp_path, ["relatives"], D1_SELF_DUAL)
    assert code == 0
    rel = json.loads(text)["relatives"]
    assert sorted(rel) == ["*", "*D", "*d", "*dD", "D", "d", "dD", "e"]
    assert rel["e"] == json.loads(json.dumps(D1_SELF_DUAL))
    # applying * twice is the identity; the orbit stores reduced words only
    assert rel["*"]["theta"] == D1_SELF_DUAL["theta_star"]


def test_dualize_self_dual_passes(tmp_path):
    code, text = run_cli(tmp_path, ["dualize"], D1_SELF_DUAL)
    assert code == 0
    payload = json.loads(text)
    assert payload["self_dual"] is True
    assert payload["bundle"]["lambda"] == "3/2"
    assert all(c["pass"] for c in payload["report"]["checks"])


def test_dualize_non_self_dual_negative_control(tmp_path):
    code, text = run_cli(tmp_path, ["dualize"], D1_NON_SELF_DUAL)
    assert code == 1
    checks = {c["name"]: c["pass"] for c in json.loads(text)["report"]["checks"]}
    assert checks["A_T_equals_T_Astar"] is False


def test_dualize_require_self_dual_flag(tmp_path, capsys):
    code, _ = run_cli(tmp_path, ["dualize", "--require-self-dual"], D1_NON_SELF_DUAL)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "LeonardError"


def test_bases_verb(tmp_path):
    code, text = run_cli(tmp_path, ["bases"], D1_SELF_DUAL)
    assert code == 0
    payload = json.loads(text)
    assert len(payload["bases"]) == 24
    assert len(payload["anchors"]["scalars"]) == 8
    assert all(c["pass"] for c in payload["report"]["checks"])


def test_matrix_of_t_all_four_bases(tmp_path):
    for basis in ("etastar-v0", "eta-vstar0", "taustar-vd", "tau-vstard"):
        code, text = run_cli(tmp_path, ["matrix-of-t", "--basis", basis], D1_SELF_DUAL)
        assert code == 0
        payload = json.loads(text)
        assert payload["matrix"] == payload["expected"]


def test_matrix_of_t_rejects_non_self_dual(tmp_path, capsys):
    code, _ = run_cli(tmp_path, ["matrix-of-t", "--basis", "etastar-v0"], D1_NON_SELF_DUAL)
    assert code == 1
    capsys.readouterr()


def test_matrix_of_t_unknown_basis_flag(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["matrix-of-t", "--basis", "nope"])
    assert info.value.code == 2


def test_search_verb_jsonl(tmp_path):
    code, text = run_cli(tmp_path, ["search", "--field", "prime:7", "--d", "1", "--limit", "3"])
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        obj = json.loads(line)
        assert obj["field"] == {"kind": "prime", "p": 7}


def test_search_deterministic_bytes(tmp_path):
    argv = ["search", "--field", "rational", "--d", "1", "--limit", "2", "--seed", "11"]
    _, a = run_cli(tmp_path, argv)
    _, b = run_cli(tmp_path, argv)
    assert a == b


def test_search_exhausted_partial_output(tmp_path, capsys):
    code, text = run_cli(
        tmp_path,
        ["search", "--field", "rational", "--d", "3", "--limit", "1",
         "--seed", "1", "--max-trials", "20"],
    )
    assert code == 1
    assert text == ""
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ExhaustedTrials"


@pytest.mark.parametrize("argv", [
    ["--field", "rational", "--d", "60", "--max-trials", "1"],
    ["--field", "rational", "--d", "1", "--max-trials", "0"],
    ["--field", "prime:7", "--d", "1", "--max-trials", "-5"],
], ids=["rational-d-beyond-draw-box", "zero-trials", "negative-trials"])
def test_search_bad_config_exit_2(tmp_path, capsys, argv):
    # the first once looped forever, the others reported "found 0 of 1" with exit 1
    code, text = run_cli(tmp_path, ["search", *argv])
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leonard.cli", "verify"],
        input=json.dumps(D0),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["checks"]
