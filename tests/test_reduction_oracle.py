"""Reduction mod p as a second route through every array verb.

The Q and GF(p) backends share every formula but not their integer kernels
(gcd passes and lcm denominators against residues mod p).  Reduction
Z_(p) -> GF(p) is a ring map, so for an array over Q whose denominators are
prime to p, the GF(p) run on the reduced array must exit with the same code
and print the reduction of the Q run's stdout and stderr, byte for byte once
each "num/den" scalar is replaced by its residue, unless some scalar the run
divides by or normalises on vanishes mod p.  With
p = 2^31 - 1 and entries num/den (|num| <= 6, den <= 3) that does not happen
in practice; an input or output denominator divisible by p is assumed away.

Modulo a small prime (7, 11, 13) a reduced array can become degenerate, and
the runs need not agree; there the reduced array only has to keep the CLI
contract of `test_cli_fuzz.py`.
"""

import json
import re
from fractions import Fraction

from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from leonard.cli import _dump, _dump_line
from leonard.duality import FOUR_BASES
from leonard.fields import Field

from conftest import leonard_array
from test_cli_fuzz import _call, assert_cli_contract

Q = Field.rational()
P = 2**31 - 1
SCALAR = re.compile(r"-?[0-9]+/[0-9]+")
SEQUENCES = ("theta", "theta_star", "varphi", "phi")

ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
VERBS = st.sampled_from([["verify"], ["relatives"], ["dualize"], ["bases"]]
                        + [["matrix-of-t", "--basis", b] for b in FOUR_BASES])


class _NotReducible(Exception):
    """A denominator divisible by p: the value has no image in GF(p)."""


def _residue(x: Fraction, p: int = P) -> int:
    if x.denominator % p == 0:
        raise _NotReducible(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _reduce(obj, p: int = P):
    """The image in GF(p) of a Q document: every "num/den" scalar becomes its residue."""
    if isinstance(obj, dict):
        return {"kind": "prime", "p": p} if obj == Q.to_json() else {k: _reduce(v, p) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_reduce(v, p) for v in obj]
    if isinstance(obj, str) and SCALAR.fullmatch(obj):
        return _residue(Fraction(obj), p)
    return obj


def _reduce_lines(text: str) -> str:
    """Each JSON line of a Q run's stderr, reduced as its stdout is."""
    return "".join(_dump_line(_reduce(json.loads(line))) for line in text.splitlines())


def _reducible(doc: dict) -> bool:
    """The entries reduce, keep theta and theta* distinct and varphi and phi nonzero."""
    try:
        seqs = {name: [_residue(Fraction(x)) for x in doc[name]] for name in SEQUENCES}
    except _NotReducible:
        return False
    return all(len(set(seqs[n])) == len(set(doc[n])) for n in ("theta", "theta_star")) and all(
        all(r for r in seqs[n]) == all(Fraction(x) for x in doc[n]) for n in ("varphi", "phi"))


@st.composite
def general_arrays(draw):
    d = draw(st.integers(1, 5))
    pa = leonard_array(Q, d, draw(st.tuples(ENTRIES, ENTRIES, ENTRIES)), draw(st.tuples(ENTRIES, ENTRIES, ENTRIES)),
                       draw(ENTRIES), draw(ENTRIES))
    assume(pa is not None)
    return pa.to_json()


@st.composite
def self_dual_arrays(draw):
    d = draw(st.integers(1, 6))
    theta012 = draw(st.tuples(ENTRIES, ENTRIES, ENTRIES))
    pa = leonard_array(Q, d, theta012, theta012, draw(ENTRIES), draw(ENTRIES))
    assume(pa is not None)
    return pa.to_json()


@st.composite
def perturbed_arrays(draw):
    """A general array with one entry of theta, theta*, varphi or phi raised by 1."""
    doc = draw(general_arrays())
    seq = doc[draw(st.sampled_from(SEQUENCES))]
    i = draw(st.integers(0, len(seq) - 1))
    seq[i] = Q.encode_scalar(Fraction(seq[i]) + 1)
    return doc


def _assert_reduction_commutes(argv, doc):
    assume(_reducible(doc))
    code, out, err = _call(argv, json.dumps(doc))
    gf_result = _call(argv, json.dumps(_reduce(doc)))
    event(f"exit {code}")
    try:
        reduced = (code, _dump(_reduce(json.loads(out))) if out else "", _reduce_lines(err))
    except _NotReducible:
        assume(False)
    assert gf_result == reduced


@settings(max_examples=60, deadline=None)
@given(VERBS, general_arrays())
def test_general_arrays_reduce(argv, doc):
    _assert_reduction_commutes(argv, doc)


@settings(max_examples=40, deadline=None)
@given(VERBS, self_dual_arrays())
def test_self_dual_arrays_reduce(argv, doc):
    _assert_reduction_commutes(argv, doc)


@settings(max_examples=60, deadline=None)
@given(VERBS, perturbed_arrays())
def test_perturbed_arrays_reduce(argv, doc):
    _assert_reduction_commutes(argv, doc)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(VERBS, st.one_of(general_arrays(), self_dual_arrays(), perturbed_arrays()), st.sampled_from([7, 11, 13]))
def test_small_prime_reductions_keep_the_cli_contract(argv, doc, p):
    try:
        reduced = _reduce(doc, p)
    except _NotReducible:
        assume(False)
    event(f"GF({p}) exit {assert_cli_contract(argv, json.dumps(reduced))}")
