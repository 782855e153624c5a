"""Shared corpus of certified systems.

The searched part follows the acceptance recipe: exhaustive enumeration over
GF(7) at d = 1, 2 and seeded random search over the rationals at d = 1..6.
Blind box draws are empty at d >= 3 (the eigenvalue recurrences cut a
measure-zero variety), so the corpus also carries frozen arrays of
Krawtchouk type at d = 3..6; `test_systems.py::test_frozen_arrays_rederived`
re-derives each from eight scalars with `leonard_array`, and each is
re-certified here by the oracle before use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from leonard.duality import is_self_dual
from leonard.errors import ExhaustedTrials, NotALeonardPair
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import Matrix, eval_root_product, intersect_column_spaces
from leonard.search import SearchConfig, enumerate_prime_field, random_rational
from leonard.systems import LeonardSystem, ParameterArray, certify, complete_parameter_array

GF7 = Field.prime(7)
RATIONAL = Field.rational()

# Krawtchouk-type arrays, re-derived by test_systems.py::test_frozen_arrays_rederived.
FROZEN_ARRAYS = [
    {
        "field": {"kind": "rational"}, "d": 3,
        "theta": ["3/1", "1/1", "-1/1", "-3/1"],
        "theta_star": ["3/1", "1/1", "-1/1", "-3/1"],
        "varphi": ["-6/1", "-8/1", "-6/1"],
        "phi": ["6/1", "8/1", "6/1"],
    },
    {
        "field": {"kind": "rational"}, "d": 3,
        "theta": ["3/1", "1/1", "-1/1", "-3/1"],
        "theta_star": ["7/1", "3/1", "-1/1", "-5/1"],
        "varphi": ["-6/1", "-8/1", "-6/1"],
        "phi": ["18/1", "24/1", "18/1"],
    },
    {
        "field": {"kind": "rational"}, "d": 4,
        "theta": ["4/1", "2/1", "0/1", "-2/1", "-4/1"],
        "theta_star": ["4/1", "2/1", "0/1", "-2/1", "-4/1"],
        "varphi": ["-6/1", "-9/1", "-9/1", "-6/1"],
        "phi": ["10/1", "15/1", "15/1", "10/1"],
    },
    {
        "field": {"kind": "rational"}, "d": 5,
        "theta": ["5/1", "3/1", "1/1", "-1/1", "-3/1", "-5/1"],
        "theta_star": ["5/1", "3/1", "1/1", "-1/1", "-3/1", "-5/1"],
        "varphi": ["-6/1", "-48/5", "-54/5", "-48/5", "-6/1"],
        "phi": ["14/1", "112/5", "126/5", "112/5", "14/1"],
    },
    {
        "field": {"kind": "rational"}, "d": 6,
        "theta": ["6/1", "4/1", "2/1", "0/1", "-2/1", "-4/1", "-6/1"],
        "theta_star": ["6/1", "4/1", "2/1", "0/1", "-2/1", "-4/1", "-6/1"],
        "varphi": ["-6/1", "-10/1", "-12/1", "-12/1", "-10/1", "-6/1"],
        "phi": ["18/1", "30/1", "36/1", "36/1", "30/1", "18/1"],
    },
]

SEARCH_PLAN = [
    ("gf7", SearchConfig(GF7, 1, limit=8)),
    ("gf7", SearchConfig(GF7, 2, limit=4)),
    ("gf7", SearchConfig(GF7, 2, self_dual_only=True, limit=3)),
    ("rational", SearchConfig(RATIONAL, 1, limit=4, seed=11)),
    ("rational", SearchConfig(RATIONAL, 1, self_dual_only=True, limit=3, seed=5)),
    ("rational", SearchConfig(RATIONAL, 2, limit=2, seed=7, max_trials=20000)),
    ("rational", SearchConfig(RATIONAL, 2, self_dual_only=True, limit=2, seed=3, max_trials=20000)),
    ("rational", SearchConfig(RATIONAL, 3, limit=1, seed=1, max_trials=3000)),
    ("rational", SearchConfig(RATIONAL, 4, limit=1, seed=1, max_trials=2500)),
    ("rational", SearchConfig(RATIONAL, 5, limit=1, seed=1, max_trials=1500)),
    ("rational", SearchConfig(RATIONAL, 6, limit=1, seed=1, max_trials=1200)),
]


@dataclass
class Corpus:
    searched: list
    frozen: list
    elapsed: float
    random_d_run: set = field(default_factory=set)
    systems: dict = field(default_factory=dict)

    @property
    def arrays(self) -> list:
        return self.searched + self.frozen

    def system(self, pa: ParameterArray) -> LeonardSystem:
        key = id(pa)
        if key not in self.systems:
            self.systems[key] = certify(pa)
        return self.systems[key]

    @property
    def self_dual(self) -> list:
        return [pa for pa in self.arrays if is_self_dual(pa)]

    @property
    def non_self_dual(self) -> list:
        return [pa for pa in self.arrays if not is_self_dual(pa)]


def build_corpus() -> Corpus:
    start = time.monotonic()
    searched = []
    random_d_run = set()
    for kind, cfg in SEARCH_PLAN:
        if kind == "gf7":
            searched.extend(enumerate_prime_field(cfg))
        else:
            random_d_run.add(cfg.d)
            try:
                searched.extend(random_rational(cfg))
            except ExhaustedTrials as exc:
                searched.extend(exc.found)
    elapsed = time.monotonic() - start
    frozen = [ParameterArray.from_json(obj) for obj in FROZEN_ARRAYS]
    corpus = Corpus(searched, frozen, elapsed, random_d_run)
    for pa in corpus.arrays:
        corpus.system(pa)  # oracle-certify everything up front
    return corpus


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    return build_corpus()


# --- a generator of Leonard parameter arrays (PA1-PA5) ---


def leonard_array(field: Field, d: int, theta012, theta_star012, beta, varphi_1):
    """The parameter array fixed by eight scalars, or None when PA1 or PA2 fails.

    theta and theta* continue from their first three entries by the shared
    recurrence theta_{i+1} = theta_{i-2} - (beta + 1)(theta_{i-1} - theta_i)
    (PA5); phi_1 follows from varphi_1 by PA4 and varphi_2..varphi_d from
    phi_1 by PA3.  `complete_parameter_array` re-checks PA2-PA5 and
    `ParameterArray` PA1 (Terwilliger, LAA 330 (2001), Theorem 1.9).
    """
    def extend(seq):
        seq = list(seq)
        while len(seq) < d + 1:
            seq.append(seq[-3] - (beta + 1) * (seq[-2] - seq[-1]))
        return seq[:d + 1]

    th, ths = extend(theta012), extend(theta_star012)
    if len(set(th)) != d + 1 or len(set(ths)) != d + 1:
        return None
    varphi = [varphi_1][:d]
    if d:
        s = [field.zero()]  # s_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d)
        for h in range(d):
            s.append(s[-1] + (th[h] - th[d - h]) / (th[0] - th[d]))
        phi_1 = varphi_1 + (ths[1] - ths[0]) * (th[d] - th[0])
        varphi += [phi_1 * s[i] + (ths[i] - ths[0]) * (th[i - 1] - th[d]) for i in range(2, d + 1)]
    try:
        return complete_parameter_array(field, th, ths, varphi)
    except (ValueError, NotALeonardPair):
        return None


def field_scalars(field: Field):
    """The rational search box num/den (|num| <= 9, 1 <= den <= 4), or uniform residues mod p."""
    if field.is_rational:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.integers(0, field.p - 1).map(lambda r: PrimeFieldElement(field.p, r))


def leonard_arrays(field: Field, d: int):
    """Hypothesis strategy: parameter arrays of Leonard systems of diameter d over field."""
    x = field_scalars(field)
    return (st.tuples(st.tuples(x, x, x), st.tuples(x, x, x), x, x)
            .map(lambda scalars: leonard_array(field, d, *scalars))
            .filter(lambda pa: pa is not None))


# --- the null-space reference for the split lines ---


def split_subspace(sys: LeonardSystem, i: int) -> Matrix:
    """U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V), as columns: the two
    eigenvector spans met by one null space (`intersect_column_spaces`), the route
    that `flag_decomposition` replaced in the split checks."""
    span = lambda indices, star: Matrix.from_columns(sys.field, [sys.eigencolumn(j, star=star) for j in indices])
    return intersect_column_spaces(span(range(i + 1), True), span(range(i, sys.d + 1), False))


# --- dense references for the sums through a rank-one middle factor ---


def dense_family(sys: LeonardSystem, kind: str, star: bool = False) -> list:
    """tau_0..tau_d (kind "tau") or eta_0..eta_d at A (resp. A*), each its own dense root product."""
    M, theta = (sys.Astar, sys.theta_star) if star else (sys.A, sys.theta)
    roots = lambda i: theta[:i] if kind == "tau" else theta[len(theta) - i:]
    return [eval_root_product(roots(i), M) for i in range(sys.d + 1)]


def dense_sum(lefts, mid: Matrix, rights) -> Matrix:
    """sum_i lefts[i] mid rights[i] as dense products, with mid multiplied out: the reference
    for the sums that `duality` builds on the eigenvector factors."""
    total = Matrix.zeros(mid.field, mid.nrows)
    for L, R in zip(lefts, rights):
        total = total + L * mid * R
    return total
