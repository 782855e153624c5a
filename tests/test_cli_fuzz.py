"""The CLI contract under mutated input.

Every array verb reads one JSON document.  Whatever that document is (a wrong
type, a missing or extra key, a boolean, a float, a huge integer, a long digit
string, a bad modulus, a scalar outside the grammar), `main` must:

- exit 0, 1 or 2;
- on exit 2, write exactly one `{"error": {"type", "message"}}` line to stderr
  and nothing to stdout;
- print no traceback;
- on exit 0 or 1, write JSON to stdout (or, for a domain error, one JSON error
  line to stderr), and write the same bytes when called again.

The documents are small (d <= 3), so each call takes milliseconds.
"""

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from leonard.cli import main
from leonard.fields import Field

from conftest import FROZEN_ARRAYS, leonard_array
from test_cli import D0, D1_NON_SELF_DUAL, D1_SELF_DUAL, REJECTED_SCALARS

GF7_D2 = {"field": {"kind": "prime", "p": 7}, "d": 2, "theta": [0, 1, 2], "theta_star": [0, 1, 2],
          "varphi": [1, 1], "phi": [3, 3]}
# a valid array of height: theta* = (1, B), varphi = (B), phi = (2B - 1) for B = 10^4199 + 7, entries of 4,200
# digits under the 4300-digit input cap, while dualize prints integers of about 12,600 digits
B, n = 10**4199 + 7, Fraction
HIGH_D1 = leonard_array(Field.rational(), 1, (n(1), n(2), n(0)), (n(1), n(B), n(0)), n(0), n(B)).to_json()
DOCUMENTS = [D0, D1_SELF_DUAL, D1_NON_SELF_DUAL, GF7_D2, FROZEN_ARRAYS[0], HIGH_D1]
VERBS = [["verify"], ["relatives"], ["dualize"], ["bases"], ["matrix-of-t", "--basis", "tau-vstard"]]
KEYS = ["field", "d", "theta", "theta_star", "varphi", "phi"]

JUNK = st.one_of(
    st.sampled_from([None, True, False, 1.5, -0.0, float("nan"), 2**70, -(2**70), 0, -1, 7, 3, "", "x", [], {},
                     "9" * 5000, "1/" + "9" * 5000, "9" * 400 + "/7", [[]], {"kind": "rational"}]),
    st.sampled_from(REJECTED_SCALARS),
    st.integers(-50, 50),
    st.text(alphabet="0123456789/-+ _", max_size=6),
)
BAD_FIELDS = st.sampled_from([
    {"kind": "prime", "p": p} for p in (4, 1, 0, -7, 2**31 - 2, 2**31 + 11, 2**70, "7", 7.0, True, None)
] + [{"kind": "prime"}, {"kind": "rational", "p": 7}, {"kind": "complex"}, {}, "rational", None])


@st.composite
def mutated_documents(draw):
    """One of DOCUMENTS with one to three mutations, or junk in its place."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["perturb", "perturb", "replace_key", "replace_entry", "drop_key", "extra_key",
                                     "field", "append", "whole"]))
        if not isinstance(doc, dict):
            break
        key = draw(st.sampled_from(KEYS))
        if kind == "perturb" and isinstance(doc.get(key), list) and doc[key]:  # a well-formed scalar: exit 0 or 1
            scalar = st.integers(0, 6) if doc.get("field") == GF7_D2["field"] else st.sampled_from(["2/1", "-1/3", "5"])
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(scalar)
        elif kind == "replace_key":
            doc[key] = draw(JUNK)
        elif kind == "replace_entry" and isinstance(doc.get(key), list) and doc[key]:
            doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(JUNK)
        elif kind == "append" and isinstance(doc.get(key), list):
            doc[key].append(draw(JUNK))
        elif kind == "drop_key":
            doc.pop(key, None)
        elif kind == "extra_key":
            doc[draw(st.sampled_from(["extra", "p", "D", "Theta"]))] = draw(JUNK)
        elif kind == "field":
            doc["field"] = draw(BAD_FIELDS)
        elif kind == "whole":
            doc = draw(JUNK)
    return doc


def _call(argv, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _one_error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1 and err.endswith("\n"), err
    obj = json.loads(lines[0])
    assert obj.keys() >= {"error"} and set(obj["error"]) == {"type", "message"}, obj
    assert all(isinstance(v, str) for v in obj["error"].values())
    return obj


def assert_cli_contract(argv, text: str) -> int:
    """The contract of the module docstring for one call on the input text; returns the exit code."""
    code, out, err = result = _call(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert set(_one_error_line(err)) == {"error"}
        return code
    if out:
        json.loads(out)
    else:  # a domain error (exit 1): the error object alone
        assert code == 1
        _one_error_line(err)
    assert _call(argv, text) == result
    return code


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(VERBS), mutated_documents())
def test_cli_contract_on_mutated_documents(argv, doc):
    event(f"exit {assert_cli_contract(argv, json.dumps(doc))}")
