"""Certified corpus generation.

Two modes: exhaustive lexicographic enumeration over a small odd prime
field, and seeded random search over the rationals with entries drawn from
a small box.  A candidate is a (theta, theta*, varphi) triple; the closed-form
conditions PA1-PA5 decide it, with the second split sequence phi fixed by
PA4.  Every emitted array is then certified once by the matrix route, and a
disagreement between the two routes raises NotALeonardPair.  Self-dual mode
draws theta* = theta; PA4's phi is then palindromic (s_{d+1-i} = s_i), so
every array it accepts is self-dual with no further test.

Rational draws are integers, 12 times each box value, read off the 19-row table `_BOX` by two `Random.choice`
calls, which consume the stream as randint(-9, 9), randint(1, 4) would.  PA5 rejects a trial first, as it reads no
varphi; PA1-PA5 are homogeneous ((theta, theta*, varphi, phi) -> (a theta, b theta*, ab varphi, ab phi) keeps each),
so `systems.pa_failure` classifies (12 theta, 12 theta*, 144 varphi); only survivors become Fractions.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct

from .errors import BudgetExceeded, ExhaustedTrials, NotALeonardPair
from .fields import Field, PrimeFieldElement
from .systems import ParameterArray, certify, complete_parameter_array, pa5_failure, pa_failure

DEFAULT_BUDGET = 10**8
DEFAULT_MAX_TRIALS = 10**6


def env_budget() -> int:
    """LEONARD_BUDGET from the environment, else DEFAULT_BUDGET."""
    env = os.environ.get("LEONARD_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


@dataclass(frozen=True)
class SearchConfig:
    field: Field
    d: int
    self_dual_only: bool = False
    limit: int = 1
    seed: int = 0
    max_trials: int = DEFAULT_MAX_TRIALS

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("diameter must be >= 0")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")  # random.Random seeds from |seed|, so -s would repeat s
        if self.field.is_rational and self.d + 1 > _BOX_SIZE:
            raise ValueError(f"rational search needs d + 1 <= {_BOX_SIZE}, the draw box size")
        if not self.field.is_rational and self.field.p == 2:
            raise ValueError("enumeration requires an odd prime")


def _certified_array(field: Field, theta, theta_star, varphi) -> ParameterArray | None:
    """Classify a candidate by PA1-PA5; certify a survivor."""
    try:
        pa = complete_parameter_array(field, theta, theta_star, varphi)
    except NotALeonardPair:
        return None
    certify(pa)
    return pa


def enumerate_prime_field(cfg: SearchConfig) -> list[ParameterArray]:
    """Deterministic lexicographic enumeration over GF(p), p odd.

    Candidates are scanned in lexicographic (theta, theta*, varphi, phi)
    order; for a fixed prefix at most one phi can certify (PA4 pins it), so
    the scan walks (theta, theta*, varphi) and derives phi.
    """
    field = cfg.field
    if field.is_rational:
        raise ValueError("enumerate_prime_field needs a prime field")
    p = field.p
    d = cfg.d

    n_theta = math.perm(p, d + 1)
    n_phi = (p - 1) ** d
    if cfg.self_dual_only:
        space = n_theta * n_phi * (p - 1) ** ((d + 1) // 2)
    else:
        space = n_theta * n_theta * n_phi * n_phi
    budget = env_budget()
    if space > budget:
        raise BudgetExceeded(f"candidate space, a {space.bit_length()}-bit number, exceeds budget {budget}")

    found = []
    nonzero = range(1, p)
    for th_res in permutations(range(p), d + 1):
        theta = tuple(PrimeFieldElement(p, r) for r in th_res)
        if cfg.self_dual_only:
            star_iter = (theta,)
        else:
            star_iter = (
                tuple(PrimeFieldElement(p, r) for r in res)
                for res in permutations(range(p), d + 1)
            )
        for theta_star in star_iter:
            if pa5_failure(theta, theta_star) is not None:
                continue  # no varphi can repair the eigenvalue sequences
            for vp_res in iproduct(nonzero, repeat=d):
                varphi = tuple(PrimeFieldElement(p, r) for r in vp_res)
                pa = _certified_array(field, theta, theta_star, varphi)
                if pa is None:
                    continue
                found.append(pa)
                if len(found) >= cfg.limit:
                    return found
    return found


_BOX = tuple(tuple(12 * n // q for q in range(1, 5)) for n in range(-9, 10))  # _BOX[n + 9][q - 1] == 12 n/q, 12 = lcm(q)
_BOX_SIZE = len({x for row in _BOX for x in row})  # the number of distinct values _draw_scalar returns (51)


def _draw_scalar(rng: random.Random) -> int:
    return rng.choice(rng.choice(_BOX))  # row, then column: the stream of randint(-9, 9), randint(1, 4)


def _draw_distinct(rng: random.Random, n: int) -> tuple:
    out = {}  # insertion order: each value where it was first drawn
    while len(out) < n:
        out[_draw_scalar(rng)] = None
    return tuple(out)


def _draw_nonzero(rng: random.Random, n: int) -> tuple:
    out = []
    while len(out) < n:
        if x := _draw_scalar(rng):
            out.append(x)
    return tuple(out)


def random_rational(cfg: SearchConfig) -> list[ParameterArray]:
    """Seeded random search over the rationals; deterministic for a fixed seed.

    Raises ExhaustedTrials (carrying the arrays found so far) when the
    trial cap is reached before the limit.
    """
    field = cfg.field
    if not field.is_rational:
        raise ValueError("random_rational needs the rational field")
    rng = random.Random(cfg.seed)
    found: list[ParameterArray] = []
    for _ in range(cfg.max_trials):
        theta = _draw_distinct(rng, cfg.d + 1)
        theta_star = theta if cfg.self_dual_only else _draw_distinct(rng, cfg.d + 1)
        varphi = _draw_nonzero(rng, cfg.d)
        # PA5 reads no varphi, so it rejects first; PA2-PA5 hold on (12 theta, 12 theta*, 144 varphi) iff on the array
        if pa5_failure(theta, theta_star) is not None or isinstance(pa_failure(theta, theta_star, [12 * x for x in varphi]), str):
            continue
        pa = _certified_array(field, *(tuple(Fraction(x, 12) for x in seq) for seq in (theta, theta_star, varphi)))
        if pa is None:
            continue
        found.append(pa)
        if len(found) >= cfg.limit:
            return found
    raise ExhaustedTrials(f"found {len(found)} of {cfg.limit} within {cfg.max_trials} trials", found)


def run_search(cfg: SearchConfig) -> list[ParameterArray]:
    if cfg.field.is_rational:
        return random_rational(cfg)
    return enumerate_prime_field(cfg)
