import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leonard.cli as cli
from leonard.cli import main
from leonard.fields import MAX_DIGITS, Field

from conftest import SUITE_CHECKS, leonard_array
from reference import D0, D1_NON_SELF_DUAL, D1_SELF_DUAL, REJECTED_SCALARS


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
    # every other check still runs, on the stored array: the report lists all of them, in the
    # order of a passing report
    assert list(checks) == list(SUITE_CHECKS)
    code, passing = run_cli(tmp_path, ["verify"], D1_SELF_DUAL)
    assert code == 0
    assert [c["name"] for c in json.loads(passing)["report"]["checks"]] == list(checks)


def test_verify_malformed_input(tmp_path, capsys):
    code, _ = run_cli(tmp_path, ["verify"], {"not": "an array"})
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


@pytest.mark.parametrize("verb", ["verify", "relatives", "dualize"])
@pytest.mark.parametrize("document, message", [
    (None, "a parameter array must be a JSON object, not null"),
    ([], "a parameter array must be a JSON object, not list"),
    ("x", "a parameter array must be a JSON object, not str"),
    ({}, "missing key 'field'"),
    ({"field": {"kind": "rational"}, "d": 1}, "missing key 'theta'"),
    ({key: value for key, value in D1_SELF_DUAL.items() if key != "phi"}, "missing key 'phi'"),
    (dict(D1_SELF_DUAL, field={"kind": "prime"}), "missing key 'p' in the prime field spec"),
    (dict(D1_SELF_DUAL, field={"kind": "rational", "p": 7}), "rational field takes no modulus"),
], ids=["null", "list", "string", "empty-object", "no-theta", "no-phi", "prime-without-p", "rational-with-p"])
def test_malformed_document_names_the_fault(tmp_path, capsys, verb, document, message):
    """A document that is not an object, lacks a key, or whose field spec lacks its modulus or has one that the
    rationals refuse, exits 2 with one JSON error line that names the fault; null, [] and {} once reported Python's
    TypeError and KeyError messages, a prime spec without p the KeyError text 'p', and a rational one with p was
    read as Q."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(document))  # run_cli reads stdin for None
    assert main([verb, "--input", str(inp), "--output", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"type": "ValueError", "message": message}}


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
    dict(D1_SELF_DUAL, field="rational"),
    dict(D1_SELF_DUAL, d=True),
    dict(D1_SELF_DUAL, d=1.0),
    dict(D1_SELF_DUAL, d=-1),
    dict(D1_SELF_DUAL, theta=["1/1"]),
], ids=["zero-denominator", "true", "false", "residue-above-p", "negative-residue",
        "field-not-an-object", "d-boolean", "d-float", "d-negative", "theta-wrong-length"])
def test_malformed_scalars_exit_2(tmp_path, capsys, payload):
    # the first eight once decoded (or crashed) instead of being rejected
    code, _ = run_cli(tmp_path, ["verify"], payload)
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"


# d = 2 over Q, well-formed (not Leonard): each sequence of NOT_ARRAYS, read as its characters or its keys, was
# this array's own sequence, so verify reported on it and relatives exited 0
D2 = {"field": {"kind": "rational"}, "d": 2, "theta": ["0/1", "1/1", "2/1"], "theta_star": ["0/1", "1/1", "2/1"],
      "varphi": ["1/1", "2/1"], "phi": ["1/1", "2/1"]}
NOT_ARRAYS = [("theta", "012"), ("theta", {"0": 5, "1": 5, "2": 5}), ("theta_star", "012"), ("varphi", "12"),
              ("phi", {"1": "x", "2": "y"})]


@pytest.mark.parametrize("verb", ["verify", "relatives"])
@pytest.mark.parametrize("name, value", NOT_ARRAYS, ids=["theta-string", "theta-object", "theta_star-string",
                                                         "varphi-string", "phi-object"])
def test_sequence_not_a_json_array_exits_2(tmp_path, capsys, verb, name, value):
    code, out = run_cli(tmp_path, [verb], dict(D2, **{name: value}))
    assert code == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == {"error": {"type": "ValueError",
                                                             "message": f"{name} must be a JSON array"}}


KEPT_SCALARS = ["6", "12/2", "06/1", "6/01", "6/1"]


@pytest.mark.parametrize("text", REJECTED_SCALARS)
def test_rational_scalar_grammar_rejects(tmp_path, capsys, text):
    with pytest.raises(ValueError, match="is not of the form"):
        Field.rational().decode_scalar(text)
    code, out = run_cli(tmp_path, ["verify"], dict(D1_SELF_DUAL, phi=[text]))
    assert code == 2 and out == ""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"type": "ValueError", "message": (
        f"rational scalar {text!r} is not of the form -?[0-9]+(/[0-9]+)?")}}


@pytest.mark.parametrize("text", KEPT_SCALARS)
def test_rational_scalar_grammar_keeps(tmp_path, capsys, text):
    assert Field.rational().decode_scalar(text) == 6
    assert run_cli(tmp_path, ["verify"], dict(D1_SELF_DUAL, phi=[text])) == run_cli(tmp_path, ["verify"], D1_SELF_DUAL)
    assert capsys.readouterr().err == ""


def test_scalar_digit_cap(tmp_path, capsys):
    """An input integer of more than MAX_DIGITS = 4300 digits is malformed input, with or without
    the interpreter's own int/str limit; one of exactly 4300 digits is read."""
    assert MAX_DIGITS == 4300
    longest = "9" * MAX_DIGITS
    assert Field.rational().decode_scalar(f"-{longest}/{longest}") == -1
    message = "rational scalar has an integer of more than 4300 digits"
    for text in ("1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "0" * 4300 + "1"):
        with pytest.raises(ValueError, match=message):
            Field.rational().decode_scalar(text)
        code, out = run_cli(tmp_path, ["verify"], dict(D1_SELF_DUAL, phi=[text]))
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {"error": {"type": "ValueError", "message": message}}


def high_entry_array() -> dict:
    """leonard_array(Q, 2, (1, 2B, 7), (1, 3, 4B), 13/6, 5/B) for B = 10^700 + 7: input integers of at most
    2,101 digits, while dualize computes integers beyond the interpreter's default int/str limit of 4300 digits."""
    B, n = 10**700 + 7, Fraction
    pa = leonard_array(Field.rational(), 2, (n(1), n(2 * B), n(7)), (n(1), n(3), n(4 * B)), n(13, 6), n(5, B))
    return pa.to_json()


def test_valid_high_entry_array_is_not_malformed(tmp_path):
    """dualize printed a computed scalar of more than 4300 digits and exited 2; it is not self-dual, so it exits 1."""
    payload = high_entry_array()
    assert max(len(x) for key in ("theta", "theta_star", "varphi", "phi") for x in payload[key]) <= MAX_DIGITS
    first = _call_with(tmp_path, ["dualize"], payload)
    assert first[0] in (0, 1) and first[2] == ""
    scalars = json.loads(first[1])["bundle"].values()
    assert max(len(x) for x in scalars if isinstance(x, str)) > MAX_DIGITS
    assert _call_with(tmp_path, ["dualize"], payload) == first


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str limit before Python 3.10.7")
@pytest.mark.parametrize("payload, code", [(D1_SELF_DUAL, 0), (dict(D1_SELF_DUAL, phi=["1" * 4301]), 2)],
                         ids=["parsed", "refused"])
def test_main_restores_the_int_str_limit(tmp_path, payload, code):
    """main lifts the interpreter's int/str limit once the array is parsed, and puts back the one it found."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert _call_with(tmp_path, ["dualize"], payload)[0] == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("verb", ["verify", "relatives"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, verb):
    # json.loads raises RecursionError on 100 000 nested lists
    inp = tmp_path / "in.json"
    inp.write_text("[" * 100_000)
    assert main([verb, "--input", str(inp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ValueError"


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


def _usage_error(argv) -> dict:
    """The one JSON error line of a command-line syntax error, which exits 2 with empty stdout."""
    code, out, err = _call(argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error"} and set(payload["error"]) == {"type", "message"}
    return payload["error"]


def test_matrix_of_t_unknown_basis_flag():
    error = _usage_error(["matrix-of-t", "--basis", "nope"])
    assert error["type"] == "ValueError" and "invalid choice: 'nope'" in error["message"]


@pytest.mark.parametrize("argv, needle", [
    (["search", "--field", "rational"], "the following arguments are required: --d"),
    (["search", "--field", "rational", "--d", "abc"], "invalid int value: 'abc'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    (["matrix-of-t"], "the following arguments are required: --basis"),
], ids=["search-without-d", "search-d-not-an-int", "unknown-verb", "matrix-of-t-without-basis"])
def test_usage_errors_follow_the_cli_contract(argv, needle):
    """Syntax errors are malformed input: exit 2, empty stdout, one JSON error line and no usage text."""
    error = _usage_error(argv)
    assert error["type"] == "ValueError" and needle in error["message"]


def test_help_still_exits_0():
    code, out, err = _call(["--help"])
    assert (code, err) == (0, "") and out.startswith("usage: leonard")


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
    ["--field", "bogus", "--d", "1"],
    ["--field", "prime:8", "--d", "1"],
    ["--field", "prime:2", "--d", "1"],
    ["--field", "rational", "--d", "1", "--seed", "-11"],
], ids=["rational-d-beyond-draw-box", "zero-trials", "negative-trials", "unknown-field", "composite-p", "even-p",
        "negative-seed"])
def test_search_bad_config_exit_2(tmp_path, capsys, argv):
    # the first once looped forever, the next two reported "found 0 of 1" with exit 1; GF(2) is refused by
    # SearchConfig while the input is read, not by the enumeration; a negative seed once repeated the corpus of
    # its absolute value
    code, text = run_cli(tmp_path, ["search", *argv])
    assert code == 2 and text == ""
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("argv, payload", [
    (["search", "--field", "prime:7", "--d", "1"], None),
    (["verify"], D1_SELF_DUAL),
], ids=["search", "verify"])
def test_malformed_budget_exits_2(tmp_path, capsys, monkeypatch, argv, payload):
    """LEONARD_BUDGET is read while the input is read, by every verb whose run reads it."""
    monkeypatch.setenv("LEONARD_BUDGET", "abc")
    assert run_cli(tmp_path, argv, payload) == (2, "")
    assert json.loads(capsys.readouterr().err) == {
        "error": {"type": "ValueError", "message": "invalid literal for int() with base 10: 'abc'"}}


@pytest.mark.parametrize("argv, payload", [
    (["search", "--field", "rational", "--d", "1"], None),
    (["relatives"], D1_SELF_DUAL),
], ids=["rational-search", "relatives"])
def test_verbs_without_budget_ignore_it(tmp_path, capsys, monkeypatch, argv, payload):
    monkeypatch.setenv("LEONARD_BUDGET", "abc")
    assert run_cli(tmp_path, argv, payload)[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str limit before Python 3.10.7")
@pytest.mark.parametrize("fault", [ValueError, KeyError, TypeError])
def test_fault_after_reading_exits_1(tmp_path, monkeypatch, fault):
    """Exit 2 is decided while the input is read: the same exception types raised once a valid array is
    read are an internal fault, reported as one JSON error line with exit 1 and no traceback."""
    def suite(system):
        assert sys.get_int_max_str_digits() == 0  # lifted once the array was read
        raise fault("injected")
    monkeypatch.setattr(cli, "standard_identity_suite", suite)
    before = sys.get_int_max_str_digits()
    code, out, err = _call_with(tmp_path, ["verify"], D1_SELF_DUAL)
    assert (code, out) == (1, "")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": {"type": fault.__name__, "message": str(fault("injected"))}}
    assert sys.get_int_max_str_digits() == before


def test_unwritable_output_exits_2(tmp_path):
    """An --output that cannot be written is the one error after reading that exits 2."""
    code, out, err = _call_with(tmp_path, ["verify", "--output", str(tmp_path / "missing" / "out.json")], D1_SELF_DUAL)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_search_budget_beyond_the_int_str_limit(tmp_path, capsys):
    """The candidate space of GF(2^31 - 1) at d = 600 has more than 4300 digits.  The refusal gives its
    size by bit length, so the message stays short and names the budget (exit 1)."""
    assert run_cli(tmp_path, ["search", "--field", f"prime:{2**31 - 1}", "--d", "600"]) == (1, "")
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "BudgetExceeded" and len(err["message"]) < 200
    assert err["message"].endswith(f"exceeds budget {10**8}")


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _call_with(tmp_path, argv, payload):
    """_call on argv with payload as the input file."""
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    return _call([*argv, "--input", str(inp)])


def test_main_calls_share_one_parser(tmp_path):
    # main reuses one cached parser: an argparse error must not change later calls
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(D1_SELF_DUAL))
    calls = [
        ["search", "--field", "rational", "--d", "2", "--limit", "2", "--seed", "7"],
        ["search", "--field", "prime:7", "--d", "1", "--self-dual", "--limit", "3"],
        ["verify", "--input", str(inp)],
        ["matrix-of-t", "--basis", "tau-vstard", "--input", str(inp)],
    ]
    first = [_call(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 0]
    bad = _call(["search", "--field", "rational", "--self-dual"])  # --d is required
    assert bad[0] == 2 and bad[1] == "" and "--d" in bad[2]
    assert [_call(argv) for argv in calls] == first
    assert _call(["search", "--field", "rational", "--self-dual"]) == bad
    assert cli.build_parser() is cli.build_parser()


def test_input_file_matches_stdin(tmp_path, monkeypatch):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(D1_SELF_DUAL))
    from_file = _call(["verify", "--input", str(inp)])
    monkeypatch.setattr(sys, "stdin", io.StringIO(inp.read_text()))
    assert _call(["verify"]) == from_file
    assert from_file[0] == 0 and from_file[2] == ""


def test_missing_input_file_exits_2(tmp_path):
    code, out, err = _call(["verify", "--input", str(tmp_path / "missing.json")])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_installed_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "leonard.cli", "verify"],
        input=json.dumps(D0),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["checks"]


# --- the report writer against the json module ---

_LONG = st.builds(lambda k, sign: sign * (10**k + 7), st.integers(4301, 4400), st.sampled_from([-1, 1]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _LONG, st.text(max_size=6))
# keys and strings with quotes, backslashes, control characters and non-ASCII text
_KEY = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x7f\u00e9\u2603\U0001f600'), max_size=4)
_TREE = st.recursive(
    _SCALAR | st.lists(st.one_of(st.booleans(), st.integers()), max_size=5),  # bool and int mixed in one list
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(_KEY, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_TREE)
def test_dump_writes_the_bytes_of_json_dumps(tree):
    """_dump is json.dumps(sort_keys=True, indent=2) plus a newline, with the int/str limit lifted as main lifts it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert cli._dump(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_dump_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="^Object of type Fraction is not JSON serializable$"):
        cli._dump({"x": [Fraction(1, 2)]})
