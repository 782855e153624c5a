"""The premise-free reference report, and the inputs of the differential test.

`leonard` decides many checks from premises that run before them, or from certificates (`systems.premises`,
`systems.solve_gram`, `systems.certified`), off the factors E_i = w_i u_i^T, U W = I and closed forms.  This module
decides every such check of `verify`, `dualize`, `bases` and `matrix-of-t` (DECIDED) from the matrices alone: dense
products, sums, ranks and traces of the idempotents (w_i the first nonzero column of E_i); each tau/eta family and
power as its own root product; the Gram matrix as the null space of its n^2-unknown intertwining constraints; split
lines, flags and decompositions as subspace intersections; each of the 24 bases by its own recurrence; and
Gauss-Jordan for the round trip and the representations.  Where a premise fails, the package fails each check read
off it with that premise as witness; the reference reads the premise off its own dense checks.  The checks in
SAME_CODE run the same code on both routes and are taken as the package reports them.  `assert_agrees` is the one
differential test: each verb's report equals the reference's check for check, witness included, and so do the
decompositions, bases, extracted array and representations that the verbs print.  The module also defines, each once,
the inputs that several test files read, the library-level mutations that the witness pins read, the documents and
the contract of the command line, and `recording`, the one call recorder of the tests that count work.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
from argparse import Namespace
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import accumulate, chain
from math import prod
from operator import mul
from unittest import mock

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from leonard import cli, systems
from leonard import duality as du
from leonard.errors import DegenerateSplit, LeonardError, SingularMatrix
from leonard.fields import Field
from leonard.linalg import (Matrix, Vector, _to_ints, eval_root_product, intersect_column_spaces,
                            is_irreducible_tridiagonal, outer)
from leonard.systems import (LeonardSystem, ParameterArray, build_system, certify, nu_scalars,
                             standard_identity_suite, trace_products_closed_form)

from conftest import FROZEN_ARRAYS, SUITE_CHECKS, conjugator, field_scalars, krawtchouk, leonard_array, leonard_arrays

Q, GF7, GFP = Field.rational(), Field.prime(7), Field.prime(2**31 - 1)
FIELDS = (Q, GF7, GFP)

DUALITY_CHECKS = ("T_polynomial_form", "T_dagger_displayed_sum", "T_star_dagger_displayed_sum", "T_equals_T_star",
                  "T_equals_T_dagger", "T_equals_T_star_dagger", "T_squared_equals_lambda_identity",
                  "A_T_equals_T_Astar", "Astar_T_equals_T_A", "Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei",
                  "product_T_E0star", "product_Tstar_E0", "product_E0star_Tdagger", "product_E0_Tstardagger",
                  "product_T_E0", "product_Tstar_E0star", "product_E0_Tdagger", "product_E0star_Tstardagger",
                  "T_squared_expansion")
GEOMETRY_CHECKS = ("flag_component_dimensions", "flags_mutually_opposite", "decomposition_components_one_dimensional",
                   "decomposition_inversion_pairs", "decompositions_induce_flags", "decomposition_table_rows",
                   "T_maps_eigenspaces", "T_on_flags", "T_on_decompositions")
BASES_CHECKS = ("anchor_projections", "anchor_ratio_product", "anchor_ratio_squares",
                "bases_invertible", "bases_span_decomposition_components", "bases_inversion_pairing",
                "taustar_rev_v0_vs_eta_vstard", "etastar_rev_v0_vs_eta_vstar0", "taustar_rev_vd_vs_tau_vstard",
                "etastar_rev_vd_vs_tau_vstar0", "tau_rev_vstar0_vs_etastar_vd", "eta_rev_vstar0_vs_etastar_v0",
                "tau_rev_vstard_vs_taustar_vd", "eta_rev_vstard_vs_taustar_v0", "estar_vd_vs_estar_v0",
                "estar_rev_vd_vs_estar_rev_v0", "e_vstard_vs_e_vstar0", "e_rev_vstard_vs_e_rev_vstar0")
# the checks of the geometry suite that the package reads off `systems.certified` alone
CERTIFICATE_GEOMETRY = (*GEOMETRY_CHECKS[:3], "decompositions_induce_flags")
MATRIX_OF_T_CHECKS = ("matrix_of_T_closed_form", "A_representation_shape", "Astar_representation_shape")
# verb -> its checks in report order: `dualize` ends after decomposition_components_one_dimensional when that
# fails, and reports the T checks only with T
VERBS = {"verify": SUITE_CHECKS, "dualize": DUALITY_CHECKS + GEOMETRY_CHECKS, "bases": BASES_CHECKS,
         "matrix-of-t": MATRIX_OF_T_CHECKS}
# the checks of `dualize` that read T^dagger or T*^dagger, in report order
DAGGER_CHECKS = ("T_dagger_displayed_sum", "T_star_dagger_displayed_sum", "T_equals_T_dagger", "T_equals_T_star_dagger",
                 "product_E0star_Tdagger", "product_E0_Tstardagger", "product_E0_Tdagger", "product_E0star_Tstardagger")
# the other checks of `dualize` that the package reads off T's eigen-coordinates: T = T*, T^2 and the product
# formulas of T and T*, in report order
T_COORDINATE_CHECKS = ("T_equals_T_star", "T_squared_equals_lambda_identity", "product_T_E0star", "product_Tstar_E0",
                       "product_T_E0", "product_Tstar_E0star", "T_squared_expansion")
DECIDED = {*SUITE_CHECKS, "T_polynomial_form", *DAGGER_CHECKS, *T_COORDINATE_CHECKS, "Ei_T_equals_T_Estar_i",
           "Estar_i_T_equals_T_Ei", *GEOMETRY_CHECKS, *BASES_CHECKS[3:6], *MATRIX_OF_T_CHECKS}
SAME_CODE = set(chain(*VERBS.values())) - DECIDED


# --- dense constructions ---


def bidiagonal_idempotents(field: Field, diag, upper=None) -> list:
    """The primitive idempotents E_i of `linalg.bidiagonal(field, diag, upper)`, each formed densely in one canonical
    pass as w u^T / (w[i] u[i]) from the integer eigenvectors w and u (the recurrences of
    `linalg.bidiagonal_eigenbasis`): the closed form the split-form build used while it formed every E_i, kept as
    the reference for the idempotents that a system built from an array forms on demand."""
    n = len(diag)
    (t, c), _ = _to_ints(field, [diag, [field.one()] * (n - 1) if upper is None else upper])
    out = []
    for i, ti in enumerate(t):
        g = [ti - th for th in t]
        pre = list(accumulate(g[:i], mul, initial=1))  # pre[k] = prod_{h < k} g_h, k <= i
        suf = list(accumulate(reversed(g[i + 1:]), mul, initial=1))[::-1]  # suf[k - i] = prod_{h > k} g_h, k >= i
        below = [0] * i + list(map(mul, accumulate(c[i:], mul, initial=1), suf))
        above = list(map(mul, list(accumulate(reversed(c[:i]), mul, initial=1))[::-1], pre)) + [0] * (n - 1 - i)
        w, u = (below, above) if upper is None else (above, below)
        out.append(Matrix._of(field, [[a * b for b in u] for a in w], pre[-1] * suf[0]))
    return out


class NonUniqueForm(Exception):
    """The oracle's refusal: the intertwining constraints do not have a 1-dimensional solution space."""


def gram_by_nullspace(A: Matrix, Astar: Matrix) -> tuple:
    """(G, G^-1) for G spanning the null space of the n^2-unknown constraints P^T G = G P, P = A and A*, divided by
    its first nonzero entry of row 0, as `LeonardSystem.pair` reads it: the intertwiners of A first, then those of them
    that intertwine A*; NonUniqueForm when the space is not 1-dimensional or row 0 of G is zero, SingularMatrix when G
    is singular."""
    f, n, r = A.field, A.nrows, range(A.nrows)
    # row (i, j): the coefficients of the g_ab, in a, b order, in (P^T G - G P)_ij, from p = P.nums = P.den P
    constraints = lambda p: Matrix.from_ints(f, ([(p[a][i] if b == j else 0) - (p[b][j] if a == i else 0)
                                                  for a in r for b in r] for i in r for j in r))
    of_A = Matrix.from_columns(f, constraints(A.nums).nullspace())
    basis = (constraints(Astar.nums) * of_A).nullspace()  # A^T ~ A: of_A is not empty
    if len(basis) != 1:
        raise NonUniqueForm(f"intertwiner space has dimension {len(basis)}")
    g = (of_A * basis[0]).entries
    G = Matrix(f, [g[i * n:(i + 1) * n] for i in range(n)])
    pivot = next((x for x in G.row(0) if x), None)
    if pivot is None:
        raise NonUniqueForm("gram candidate has a zero first row")
    G = G.scale(f.invert(pivot))
    return G, G.inverse()


def form_by_pair(sys: LeonardSystem) -> Matrix:
    """The package's G read entry by entry off `LeonardSystem.pair`: G_ij = <e_i, e_j>."""
    units = Matrix.identity(sys.field, sys.d + 1).columns()
    return Matrix(sys.field, [[sys.pair(u, v) for v in units] for u in units])


def assert_form_is(sys: LeonardSystem, G: Matrix) -> None:
    """The package's form is G, as the oracle (`gram_by_nullspace`) or a hand solve gives it: W^T G W = diag(m) / pivot
    for the weights m of `solve_gram`, the eigenbasis (W, U) of A and the pivot of `systems._gram_pivot`, and
    <u, v> = u^T G v (`form_by_pair`)."""
    W, pivot = sys.eigenbasis()[0], systems._gram_pivot(sys)
    assert W.transpose() * G * W == Matrix.identity(sys.field, sys.d + 1).scale_columns(
        [x / pivot for x in systems.solve_gram(sys)])
    assert form_by_pair(sys) == G


def dense_family(sys: LeonardSystem, kind: str, star: bool = False) -> list:
    """tau_0..tau_d (kind "tau") or eta_0..eta_d at A (resp. A*), each its own dense root product."""
    M, theta = (sys.Astar, sys.theta_star) if star else (sys.A, sys.theta)
    roots = lambda i: theta[:i] if kind == "tau" else theta[len(theta) - i:]
    return [eval_root_product(roots(i), M) for i in range(sys.d + 1)]


def gap(f: Field, theta, r: int):
    """prod_{h != r} (theta_r - theta_h), which is tau_r(theta_r) eta_{d-r}(theta_r), as its own product."""
    return prod((theta[r] - x for h, x in enumerate(theta) if h != r), start=f.one())


def dense_sum(lefts, mid: Matrix, rights) -> Matrix:
    """sum_i lefts[i] mid rights[i] as dense products, with mid multiplied out."""
    total = Matrix.zeros(mid.field, mid.nrows)
    for L, R in zip(lefts, rights):
        total = total + L * mid * R
    return total


def flat_rank(mats) -> int:
    """dim span(mats), each matrix read as one vector of its entries (its integer rows, the matrix times its nonzero
    denominator)."""
    return Matrix.from_ints(mats[0].field, (chain.from_iterable(M.nums) for M in mats)).rank()


def first_nonzero_column(M: Matrix) -> Vector:
    return next(col for col in M.columns() if not col.is_zero())


def components(F: Matrix) -> list:
    """The components of the flag with ordered basis F: component i is spanned by its first i+1 columns."""
    return [F.submatrix(cols=slice(0, i)) for i in range(1, F.nrows + 1)]


def meets(F: Matrix, G: Matrix) -> list:
    """Bases of F_i ∩ G_{d-i}, i = 0..d, for the flags with ordered bases F and G."""
    Fc, Gc = components(F), components(G)
    return [intersect_column_spaces(Fc[i], Gc[-1 - i]) for i in range(len(Fc))]


def opposite_lines(F: Matrix, G: Matrix):
    """The normalized vectors spanning F_i ∩ G_{d-i} when the flags are opposite (each meet a line, together a basis),
    else None."""
    found = meets(F, G)
    if any(meet.ncols != 1 for meet in found) or Matrix.from_columns(
            F.field, [m.column(0) for m in found]).rank() != F.nrows:
        return None
    return tuple(meet.column(0).normalized() for meet in found)


def spans(X: Matrix, component: Matrix) -> bool:
    """Whether the columns of X span the flag component of full column rank: both of one rank, that of [X | it]."""
    return X.rank() == component.ncols == X.beside(component).rank()


def basis_by_recurrence(sys: LeonardSystem, anchors, basis_id: str) -> tuple:
    """One of the 24 bases, each id, -rev- ids included, built by its own recurrence: E_i v, or p_0 = v and
    p_{i+1} = (M - r_i) p_i for the roots r of the tau or eta family."""
    gen, rev, anchor_key = du._parse_basis_id(basis_id)
    v = getattr(anchors, du._ANCHOR_ATTR[anchor_key])
    if gen in ("e", "estar"):
        seq = [E * v for E in (sys.E if gen == "e" else sys.Estar)]
    else:
        M, theta = (sys.A, sys.theta) if gen in ("tau", "eta") else (sys.Astar, sys.theta_star)
        seq = [v]
        for r in (theta[:sys.d] if gen in ("tau", "taustar") else theta[::-1][:sys.d]):
            seq.append(M * seq[-1] - seq[-1].scale(r))
    return tuple(reversed(seq)) if rev else tuple(seq)


def by_inverse(sys: LeonardSystem, t: Matrix, basis) -> tuple:
    """B^-1 (M B) for M = t, A and A* and B the columns basis, inverted by Gauss-Jordan: what
    `duality.basis_representations` forms in a basis without its certificate."""
    B = Matrix.from_columns(sys.field, basis)
    inverse = B.inverse()
    return tuple(inverse * (M * B) for M in (t, sys.A, sys.Astar))


def extract_by_elimination(sys: LeonardSystem, w0star: Vector, families) -> ParameterArray:
    """theta_i = tr(A E_i), theta*_i = tr(A* E*_i), and varphi (phi) the superdiagonal of X with A* P = P X, solved by
    Gauss-Jordan, for the split basis p_i = tau_i(A) w*_0 (eta_i(A) w*_0), families the dense tau and eta families at
    A, with the errors of `systems.extract_parameter_array`."""
    f, d = sys.field, sys.d
    theta, theta_star = (tuple((M * E).trace() for E in mats) for M, mats in ((sys.A, sys.E), (sys.Astar, sys.Estar)))
    split = []
    for family in families:
        cols = [X * w0star for X in family]
        if any(col.is_zero() for col in cols):
            raise DegenerateSplit("split basis vector vanished")
        P = Matrix.from_columns(f, cols)
        try:
            X = P.solve(sys.Astar * P)
        except SingularMatrix as exc:
            raise DegenerateSplit("split vectors are linearly dependent") from exc
        split.append(tuple(X.row(i - 1)[i] for i in range(1, d + 1)))
    try:
        return ParameterArray(f, d, theta, theta_star, *split)
    except ValueError as exc:
        raise DegenerateSplit(f"extracted array is not a parameter array: {exc}") from exc


# --- the reference report ---


def _outcomes(names, errors, check) -> dict:
    """name -> (passed, witness): each fails with the first error that is not None, else check()'s outcomes in order;
    a DegenerateSplit or SingularMatrix that check raises fails them all with it, as in `systems._outcomes`."""
    error = next((e for e in errors if e), None)
    if error is None:
        try:
            return dict(zip(names, check(), strict=True))
        except (DegenerateSplit, SingularMatrix) as exc:
            error = str(exc)
    return dict.fromkeys(names, (False, {"error": error}))


def _first(failures):
    """(passed, witness) of a sweep that stops at its first failure."""
    witness = next(iter(failures), None)
    return witness is None, witness


def _last(failures):
    """(passed, witness) of a sweep that keeps its last failure."""
    found = list(failures)
    return not found, found[-1] if found else None


class Reference:
    """The dense reference of one system, each part built on first use."""

    def __init__(self, sys: LeonardSystem):
        self.sys, self.f, self.d, self.n = sys, sys.field, sys.d, sys.d + 1
        self._eigenbases, self._families, self._bases = {}, {}, {}

    def mats(self, star: bool):
        return self.sys.Estar if star else self.sys.E

    def count(self, star: bool):
        """The error of d+1 idempotents E (resp. E*), else None."""
        k = len(self.mats(star))
        return None if k == self.n else f"{k} idempotents {'E*' if star else 'E'}, not d + 1 = {self.n}"

    @functools.cached_property
    def ranks(self) -> dict:
        return {star: [M.rank() for M in self.mats(star)] for star in (False, True)}

    def factor(self, star: bool):
        """The error of a family that is not d+1 or fewer matrices of rank one, else None."""
        if not self.mats(star):
            return self.count(star)
        return next((f"idempotent {'E*' if star else 'E'}_{i} is not of rank one"
                     for i, r in enumerate(self.ranks[star]) if r != 1), None)

    def eigenbasis(self, star: bool) -> Matrix:
        """W: column i the first nonzero column of E_i (resp. E*_i), memoised."""
        if star not in self._eigenbases:
            self._eigenbases[star] = Matrix.from_columns(self.f, [first_nonzero_column(M) for M in self.mats(star)])
        return self._eigenbases[star]

    def family(self, kind: str, star: bool) -> list:
        """The dense tau or eta family at A (resp. A*), memoised."""
        if (kind, star) not in self._families:
            self._families[kind, star] = dense_family(self.sys, kind, star)
        return self._families[kind, star]

    @functools.cached_property
    def extracted(self):
        """(the array read back by elimination, None), or (None, its error): the package reads theta and theta* off the
        factors of E and E*, so a family that does not factor is its first premise."""
        try:
            if error := self.factor(False) or self.factor(True):
                raise DegenerateSplit(error)
            families = (self.family("tau", False), self.family("eta", False))
            return extract_by_elimination(self.sys, self.eigenbasis(True).column(0), families), None
        except DegenerateSplit as exc:
            return None, str(exc)

    @functools.cached_property
    def gram_premise(self):
        """The first failed premise of `solve_gram`, read off this reference's own axioms, else None: that of the Gram
        block of `verify` and of the daggers of `dualize`."""
        tridiagonal = self.axioms["tridiagonal_Astar_in_A_eigenbasis"][0]
        return self.factor(False) or self.premise(self.axioms, False) or (
            None if tridiagonal else "U A* W is not irreducible tridiagonal")

    @functools.cached_property
    def certificate(self):
        """The first failed premise of the certificates of `duality` (`systems.certificate_failure`), with the package's
        message, read off this reference's own axioms: the first that fails, else theta and theta* not of d+1 values;
        else None."""
        failed = next((name for name, (passed, _) in self.axioms.items() if not passed), None)
        if failed or not len(self.sys.theta) == len(self.sys.theta_star) == self.n:
            return f"{failed} fails" if failed else f"theta and theta* are not d + 1 = {self.n} values"
        return None

    def anchor_premise(self, anchors):
        """The first failed premise of bases_span_decomposition_components with the package's message: the
        certificate, else the first anchor that is not a multiple of the eigencolumn it names; else None."""
        return self.certificate or next((
            f"anchor {key} is not a multiple of the eigencolumn it names" for key, attr in du._ANCHOR_ATTR.items()
            if not getattr(anchors, attr).is_colinear(self.eigenbasis(key.startswith("vstar")).column(
                self.d if key.endswith("d") else 0))), None)

    @functools.cached_property
    def gram(self) -> tuple:
        """(G, G^-1) by the null space (`gram_by_nullspace`), formed once for `verify` and `dualize`."""
        return gram_by_nullspace(self.sys.A, self.sys.Astar)

    def premise(self, checks: dict, star: bool):
        """The first failed premise of the F[M] checks on A (resp. A*): d+1 idempotents, orthogonal and spectral (read
        off this reference's own axioms) and d+1 distinct eigenvalues; else None."""
        label, theta = ("Estar", self.sys.theta_star) if star else ("E", self.sys.theta)
        failed = [c for c in ("orthogonal", "spectral") if not checks[f"idempotents_{label}_{c}"][0]]
        return self.count(star) or (failed and f"idempotents_{label}_{failed[0]} fails") or (
            None if len(set(theta)) == len(theta) == self.n else
            f"theta{'*' * star} is not d + 1 = {self.n} distinct values")

    @functools.cached_property
    def axioms(self) -> dict:
        """name -> (passed, witness) of the eleven axioms that open `verify`, densely."""
        sys, n = self.sys, self.n
        eye, zero = Matrix.identity(self.f, n), Matrix.zeros(self.f, n)
        out = {}
        for name, star, X in (("tridiagonal_Astar_in_A_eigenbasis", False, sys.Astar),
                              ("tridiagonal_A_in_Astar_eigenbasis", True, sys.A)):
            out |= _outcomes([name], [self.count(star), self.factor(star)], lambda: [(is_irreducible_tridiagonal(
                self.eigenbasis(star).inverse() * X * self.eigenbasis(star)), None)])
        out["standard_orderings"] = (out["tridiagonal_Astar_in_A_eigenbasis"][0]
                                     and out["tridiagonal_A_in_Astar_eigenbasis"][0], None)
        for label, star, M, theta in (("E", False, sys.A, sys.theta), ("Estar", True, sys.Astar, sys.theta_star)):
            mats, k = self.mats(star), len(self.mats(star))
            out |= _outcomes([f"idempotents_{label}_orthogonal"], [self.factor(star)], lambda: [_first(
                {"i": i, "j": j} for i in range(k) for j in range(k)
                if mats[i] * mats[j] != (mats[i] if i == j else zero))])
            out[f"idempotents_{label}_sum"] = (sum(mats, zero) == eye, None)
            out[f"idempotents_{label}_spectral"] = (sum((E.scale(t) for t, E in zip(theta, mats)), zero) == M, None)
            ok = bool(mats) and all(r == 1 for r in self.ranks[star])
            out[f"idempotents_{label}_rank_one"] = (ok, None if ok else {"ranks": self.ranks[star]})
        return {name: out[name] for name in SUITE_CHECKS[:11]}

    @functools.cached_property
    def verify(self) -> dict:
        """name -> (passed, witness) of every check of `verify`, densely."""
        sys, f, d, n = self.sys, self.f, self.d, self.n
        one, eye, zero = f.one(), Matrix.identity(f, n), Matrix.zeros(f, n)
        out = dict(self.axioms)
        extracted, error = self.extracted
        out["round_trip_parameter_array"] = (error is None and extracted == (sys.pa or extracted),
                                             {"error": error} if error else None)
        pa, array_error = sys.pa or extracted, None if sys.pa or not error else error
        E, Es = sys.E, sys.Estar
        premise = {star: self.premise(out, star) for star in (False, True)}

        def edge(star):
            mats, t = self.mats(star), (pa.theta_star if star else pa.theta)
            return [(self.family("eta", star)[d].scale(f.invert(gap(f, t, 0))) == mats[0], None),
                    (self.family("tau", star)[d].scale(f.invert(gap(f, t, d))) == mats[d], None)]

        def subalgebra(star):
            M, mats = (sys.Astar if star else sys.A), self.mats(star)
            fams = (mats, self.family("tau", star), self.family("eta", star),
                    [eval_root_product([f.zero()] * i, M) for i in range(n)])
            ranks, union = [flat_rank(fam) for fam in fams], flat_rank([X for fam in fams for X in fam])
            ok = all(r == n for r in ranks) and union == n
            return [(ok, None if ok else {"ranks": ranks, "union": union})]

        counts, nu = [self.count(False), self.count(True)], lambda: nu_scalars(pa)[0]
        for star, s in ((False, ""), (True, "star")):  # out is put in report order below
            X, Y = self.mats(star), self.mats(not star)
            out |= _outcomes([f"edge_idempotent_E0{s}", f"edge_idempotent_Ed{s}"], [array_error, premise[star]],
                             lambda: edge(star))
            out |= _outcomes([f"char_product_A{s}"], [premise[star]], lambda: [(eval_root_product(
                sys.theta_star if star else sys.theta, sys.Astar if star else sys.A).is_zero(), None)])
            out |= _outcomes([f"subalgebra_three_bases_A{s}"], [premise[star]], lambda: subalgebra(star))
            out |= _outcomes([f"nu_sandwich_E0{s}"], [self.factor(star), array_error, *counts, self.factor(not star)],
                             lambda: [((X[0] * Y[0] * X[0]).scale(nu()) == X[0], None)])

        def traces():
            tr = lambda X, Y: (X * Y).trace()
            first = next(({"r": r} for r in range(n) if not all(direct := (
                tr(E[r], Es[0]), tr(E[r], Es[d]), tr(Es[r], E[0]), tr(Es[r], E[d])))
                or direct != trace_products_closed_form(pa, r)), None)
            values = nu_scalars(pa)
            ok = all(tr(E[a], Es[b]) * v == one for (a, b), v in zip(((0, 0), (0, d), (d, 0), (d, d)), values))
            names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
            scalars = {"scalars": dict(zip(names, map(f.encode_scalar, values)))}
            return [(first is None, first), (ok, None if ok else scalars)]

        out |= _outcomes(["trace_products_closed_form", "nu_closed_forms_match_traces"],
                         [array_error, *counts, self.factor(False), self.factor(True)], traces)

        def split():
            taus, tauss, c = self.family("tau", False), self.family("tau", True), pa.split_products[0]
            F = [(L * Es[0] * E[0] * R).scale(nu() / ci) for L, R, ci in zip(taus, tauss, c)]
            lines = opposite_lines(self.eigenbasis(True), self.eigenbasis(False).submatrix(cols=slice(None, None, -1)))
            if lines is None:
                raise DegenerateSplit("split component is not one-dimensional")
            C = Matrix.from_columns(f, lines)
            Cinv = C.inverse()
            resolves = sum(F, zero) == eye and all(F[i] * F[j] == (F[i] if i == j else zero)
                                                   for i in range(n) for j in range(n))
            return [(F == [outer(C.column(i), Cinv.row(i)) for i in range(n)], None), (resolves, None)]

        out |= _outcomes(["split_projectors_match_intersection", "split_projectors_resolution"],
                         [array_error, *counts, self.factor(False), self.factor(True)], split)

        def pairing():
            left = [Es[0] * L for L in self.family("tau", False)]
            right = [R * E[0] for R in self.family("tau", True)]
            c = pa.split_products[0]
            return [_first({"i": i, "j": j} for i in range(n) for j in range(n) if left[i] * right[j] != (
                (Es[0] * E[0]).scale(c[i]) if i == j else zero))]

        out |= _outcomes(["split_pairing_delta"], [self.factor(False), self.factor(True), array_error], pairing)

        def gram():
            G, Ginv = self.gram
            dagger = lambda X: Ginv * X.transpose() * G
            probe = sys.A * sys.Astar * sys.Astar
            fixed = _outcomes(["dagger_fixes_idempotents"], [premise[True]],
                              lambda: [(all(dagger(X) == X for X in E + Es), None)])
            return [(G == G.transpose(), None), (sys.A.transpose() * G == G * sys.A, None),
                    (sys.Astar.transpose() * G == G * sys.Astar, None), (dagger(sys.A) == sys.A, None),
                    (dagger(sys.Astar) == sys.Astar, None), fixed["dagger_fixes_idempotents"],
                    (dagger(dagger(probe)) == probe, None)]

        out |= _outcomes(SUITE_CHECKS[-7:], [self.gram_premise], gram)
        return {name: out[name] for name in SUITE_CHECKS}

    @functools.cached_property
    def flags(self) -> dict:
        W, Ws = self.eigenbasis(False), self.eigenbasis(True)
        reverse = slice(None, None, -1)
        return {"0": W, "D": W.submatrix(cols=reverse), "0*": Ws, "D*": Ws.submatrix(cols=reverse)}

    @functools.cached_property
    def decompositions(self) -> dict:
        """(z, w) -> the normalized lines of [zw], or None when the flags are not opposite: those of [wz] reversed, as
        F_i ∩ G_{d-i} is G_{d-i} ∩ F_i."""
        out = {}
        for z, w in du.DECOMPOSITION_PAIRS:
            lines = out[(w, z)] if (w, z) in out else opposite_lines(self.flags[w], self.flags[z])
            out[(z, w)] = lines and lines[::-1]
        return out

    def not_opposite(self, pairs):
        """{"pair", "error"} of the last of pairs whose flags are not opposite, else None."""
        return next(({"pair": f"[{z}{w}]", "error": f"the flags [{z}] and [{w}] of [{z}{w}] are not opposite"}
                     for z, w in reversed(list(pairs)) if self.decompositions[(z, w)] is None), None)

    def dualize(self, bundle: du.DualityBundle | None) -> dict:
        """name -> (passed, witness) of the decided checks of `dualize`, for the T of bundle (None: the geometry suite
        alone), in report order.  Where the certificate fails (`certificate`), T_polynomial_form, the two E_i T sweeps,
        T_COORDINATE_CHECKS and the four geometry checks read off it fail with it as witness, and so do the daggers
        where the premises of `solve_gram` hold, and the suite leaves out those that read the vectors of the
        decompositions; else they are decided densely, and the suite ends where a pair of flags is not opposite."""
        sys, f, d, n = self.sys, self.f, self.d, self.n
        out, t = {}, None if bundle is None else bundle.t
        if t is not None:
            def polynomial_form():
                pa = sys.pa or self.extracted[0]
                core = self.family("eta", True)[d] * self.family("tau", False)[d]  # eta*_d(A*) tau_d(A), dense
                core = core.scale(f.invert(gap(f, pa.theta, d) * gap(f, pa.theta_star, 0)))
                return [(t == dense_sum(self.family("eta", False)[::-1], core, self.family("tau", True)), None)]

            out |= _outcomes(["T_polynomial_form"], [self.certificate], polynomial_form)
            for name, star in (("Ei_T_equals_T_Estar_i", False), ("Estar_i_T_equals_T_Ei", True)):
                mats, others = self.mats(star), self.mats(not star)
                out |= _outcomes([name], [self.certificate], lambda: [_first({"i": i} for i in range(n)
                                                                             if mats[i] * t != t * others[i])])
            out |= _outcomes(DAGGER_CHECKS, [self.gram_premise, self.certificate], lambda: self.daggers(t))
            out |= _outcomes(T_COORDINATE_CHECKS, [self.certificate], lambda: self.t_identities(bundle))
        if self.certificate:  # the package reads the flags and decompositions off the certificate alone
            return out | dict.fromkeys(CERTIFICATE_GEOMETRY, (False, {"error": self.certificate}))
        flags, decomps = self.flags, self.decompositions
        out["flag_component_dimensions"] = _last({"flag": z, "i": i} for z, F in flags.items()
                                                 for i, comp in enumerate(components(F)) if comp.rank() != i + 1)
        witness = self.not_opposite(du.DECOMPOSITION_PAIRS)
        out["flags_mutually_opposite"] = (witness is None, None)
        out["decomposition_components_one_dimensional"] = (witness is None, witness)
        if witness is not None:
            return out
        out["decomposition_inversion_pairs"] = _last({"pair": f"[{z}{w}]"} for (z, w), vectors in decomps.items()
                                                     if decomps[(w, z)] != vectors[::-1])
        # ([zw], z) and ([wz], z) read the same vectors, so each (flag, vectors) case is ranked once; the vectors
        # are a basis and the flags invertible, so the first i+1 span component i when [them | it] has rank i+1
        induced = functools.cache(lambda u, seq: [Matrix.from_columns(f, seq[:i + 1]).beside(
            components(flags[u])[i]).rank() == i + 1 for i in range(n)])
        out["decompositions_induce_flags"] = _last(
            {"pair": f"[{z}{w}]", "flag": u, "i": i} for (z, w), vectors in decomps.items() for i in range(n)
            for u, seq in ((z, vectors), (w, vectors[::-1])) if not induced(u, seq)[i])
        W, Ws = self.eigenbasis(False), self.eigenbasis(True)
        splits = [X * Ws.column(0) for X in self.family("tau", False)]
        out["decomposition_table_rows"] = _last(
            {"i": i, "row": row} for i in range(n) for row, ok in (
                (0, decomps[("0", "D")][i].is_colinear(W.column(i))),
                (1, decomps[("0*", "D*")][i].is_colinear(Ws.column(i))),
                ("split", decomps[("0*", "D")][i].is_colinear(splits[i]))) if not ok)
        if t is None:
            return out
        out["T_maps_eigenspaces"] = _last(
            {"i": i, "side": side} for i in range(n) for side, X, Y in (("E", W, Ws), ("Estar", Ws, W))
            if not (t * X.column(i)).is_colinear(Y.column(i)))
        out["T_on_flags"] = _last({"flag": z, "i": i} for z, image in du.T_FLAG_IMAGE.items() for i in range(n)
                                  if not spans(t * components(flags[z])[i], components(flags[image])[i]))
        out["T_on_decompositions"] = _last(
            {"pair": f"[{z}{w}]", "i": i} for z, w in du.T_DECOMPOSITION_ORDER for i in range(n)
            if not (t * decomps[(z, w)][i]).is_colinear(decomps[(du.T_FLAG_IMAGE[z], du.T_FLAG_IMAGE[w])][i]))
        return out

    @functools.cached_property
    def displayed(self) -> tuple:
        """(T* as a dense sum of the dense families, E_0 E*_0, E*_0 E_0, and the coefficients c1, c2, vp / tau_d and
        vp / tau*_d of the product formulas, each gap its own product)."""
        sys, f, d = self.sys, self.f, self.d
        E, Es, pa = sys.E, sys.Estar, sys.pa or self.extracted[0]
        tau_d, eta_d, taus_d, etas_d = (gap(f, th, r) for th in (pa.theta, pa.theta_star) for r in (d, 0))
        vp = prod(pa.varphi, start=f.one())
        return (dense_sum(self.family("eta", True)[::-1], E[0] * Es[d], self.family("tau", False)), E[0] * Es[0],
                Es[0] * E[0], eta_d * vp / (tau_d * etas_d), etas_d * vp / (taus_d * eta_d), vp / tau_d, vp / taus_d)

    def daggers(self, t: Matrix) -> list:
        """(passed, None) of each of DAGGER_CHECKS for T = t, densely: X^dagger = G^-1 X^T G for (G, G^-1) by the null
        space, T* and the displayed sums as dense sums of the dense families, times the dense E_0 and E*_0."""
        sys, d = self.sys, self.d
        (G, Ginv), E, Es = self.gram, sys.E, sys.Estar
        t_star, E0_Es0, Es0_E0, c1, c2, c3, c4 = self.displayed
        t_dag, t_star_dag = (Ginv * X.transpose() * G for X in (t, t_star))
        shown = (dense_sum(self.family("tau", True), E[d] * Es[0], self.family("eta", False)[::-1]),
                 dense_sum(self.family("tau", False), Es[d] * E[0], self.family("eta", True)[::-1]))
        return [(ok, None) for ok in (
            t_dag == shown[0], t_star_dag == shown[1], t == t_dag, t == t_star_dag,
            Es[0] * t_dag == Es0_E0.scale(c1), E[0] * t_star_dag == E0_Es0.scale(c2),
            E[0] * t_dag == E0_Es0.scale(c3), Es[0] * t_star_dag == Es0_E0.scale(c4))]

    def t_identities(self, bundle: du.DualityBundle) -> list:
        """(passed, None) of each of T_COORDINATE_CHECKS for the bundle, densely: T against the dense T*, T T against
        lambda I and against the displayed expansion, a dense sum of the dense families, and T and T* times the dense
        E_0 and E*_0."""
        sys, f, d = self.sys, self.f, self.d
        t, E, Es, pa = bundle.t, sys.E, sys.Estar, sys.pa or self.extracted[0]
        t_star, E0_Es0, Es0_E0, c1, c2, c3, c4 = self.displayed
        square, ph = t * t, prod(pa.phi, start=f.one())
        expansion = dense_sum(self.family("eta", False), Es[0] * E[d], [R.scale(f.invert(prod(
            pa.phi[d - j:], start=f.one()))) for j, R in enumerate(self.family("tau", True))])
        return [(ok, None) for ok in (
            t == t_star, square == Matrix.identity(f, self.n).scale(bundle.lam), t * Es[0] == E0_Es0.scale(c1),
            t_star * E[0] == Es0_E0.scale(c2), t * E[0] == Es0_E0.scale(c3), t_star * Es[0] == E0_Es0.scale(c4),
            square == expansion.scale(ph / nu_scalars(pa)[2]))]

    def bases(self, anchors) -> tuple:
        """({id: the basis by its own recurrence}, name -> (passed, witness) of the three checks of the basis family);
        each sequence is built and ranked once per anchor vector, memoised."""
        n, family, ranked = self.n, {}, {}
        for basis_id in du.BASIS_IDS:
            key = (basis_id, getattr(anchors, du._ANCHOR_ATTR[du._parse_basis_id(basis_id)[2]]))
            if key not in self._bases:
                seq = basis_by_recurrence(self.sys, anchors, basis_id)
                self._bases[key] = seq, Matrix.from_columns(self.f, seq).rank() == n
            family[basis_id], ranked[basis_id] = self._bases[key]
        out = {"bases_invertible": _last({"basis": basis_id} for basis_id, ok in ranked.items() if not ok)}
        premise = self.anchor_premise(anchors)
        witness = {"error": premise} if premise else self.not_opposite(du.BASIS_MEMBERSHIP)
        out["bases_span_decomposition_components"] = (witness is None, witness) if witness else _last(
            {"pair": f"[{z}{w}]", "basis": basis_id, "i": i} for (z, w), ids in du.BASIS_MEMBERSHIP.items()
            for basis_id in ids for i in range(n)
            if not family[basis_id][i].is_colinear(self.decompositions[(z, w)][i]))
        partner = lambda basis_id: basis_id.replace("-rev-", "-") if "-rev-" in basis_id else basis_id.replace(
            "-", "-rev-", 1)
        out["bases_inversion_pairing"] = _last({"basis": basis_id} for basis_id, seq in family.items()
                                               if seq[::-1] != family[partner(basis_id)])
        return family, out


# --- the package's reports, and the differential test ---


def eigen_anchors(sys: LeonardSystem) -> du.AnchorVectors:
    """The anchors `choose_anchor_vectors` picks, with every inner product 1, as G may not exist."""
    one = sys.field.one()
    return du.AnchorVectors(*(sys.eigencolumn(j, star).normalized() for star in (False, True) for j in (0, sys.d)),
                            *[one] * 8)


def check_list(*reports) -> list:
    return [(c.name, c.passed, c.witness) for report in reports for c in report.checks]


def assert_report(got: list, names, decided: dict):
    """got, the package's (name, passed, witness) list, is the reference's: the names in order, each decided check as
    decided and each check of SAME_CODE as the package reports it."""
    same = {name: (passed, witness) for name, passed, witness in got if name in SAME_CODE}
    assert got == [(name, *(decided[name] if name in DECIDED else same[name])) for name in names]


def assert_agrees(sys: LeonardSystem, verbs=tuple(VERBS), bundle: du.DualityBundle | None = None) -> dict:
    """The differential test: each verb's report on sys (the library calls of `cli._RUNS`) equals the reference's,
    and so do the array read back, the decompositions, the 24 bases and the matrices of T, A and A* in the four
    bases.  Of verbs, `verify` runs on every system, the others once each family is d+1 matrices of rank one and
    there is an array, stored or read back.  T is that of bundle, else of the bundle `dualize` builds once every
    axiom holds, else there is none and `dualize` runs the geometry suite alone.  `bases` runs on the anchors
    `dualize` picks (unit inner products when there is no form), its basis family also with v0 moved to v*0;
    `matrix-of-t` in each of the four bases that is a basis.  Returns verb -> {name: (passed, witness)}."""
    ref, out = Reference(sys), {}
    if "verify" in verbs:
        out["verify"] = report = check_list(standard_identity_suite(sys))
        assert_report(report, SUITE_CHECKS, ref.verify)
        if sys.pa is None and ref.extracted[0] is not None:
            assert sys.parameter_array == ref.extracted[0]
    if not set(verbs) - {"verify"} or any(ref.factor(star) or ref.count(star) for star in (False, True)) or not (
            sys.pa or ref.extracted[0]):
        return {verb: {name: (p, w) for name, p, w in checks} for verb, checks in out.items()}
    try:
        anchors = du.choose_anchor_vectors(sys)
    except LeonardError:
        anchors = eigen_anchors(sys)
    own_t = bundle is None
    if own_t and all(passed for passed, _ in ref.axioms.values()):
        bundle = du.build_duality_bundle(sys, anchors)
    t = None if bundle is None else bundle.t
    if "dualize" in verbs:
        geometry = ref.dualize(bundle)
        out["dualize"] = report = check_list(*([du.verify_duality_suite(sys, bundle)] if t is not None else []),
                                          du.verify_geometry_suite(sys, bundle))
        names = (DUALITY_CHECKS if t is not None else ()) + tuple(name for name in GEOMETRY_CHECKS if name in geometry)
        assert_report(report, names, geometry)
        if ref.certificate is None and ref.not_opposite(du.DECOMPOSITION_PAIRS) is None:
            assert {pair: du.build_decomposition(sys, *pair).vectors for pair in du.DECOMPOSITION_PAIRS} == \
                ref.decompositions
    if {"bases", "matrix-of-t"} & set(verbs):
        family, decided = ref.bases(anchors)
    if "bases" in verbs:
        out["bases"] = report = check_list(du.verify_anchor_relations(sys, anchors),
                                           du.verify_basis_family(sys, anchors),
                                           du.verify_transition_relations(sys, anchors))
        assert_report(report, BASES_CHECKS, decided)
        assert {basis_id: du.build_basis(sys, anchors, basis_id) for basis_id in du.BASIS_IDS} == family
        moved = replace(anchors, v0=anchors.v0s)
        assert_report(check_list(du.verify_basis_family(sys, moved)), BASES_CHECKS[3:6], ref.bases(moved)[1])
    if "matrix-of-t" in verbs and t is not None:
        # the verb certifies the stored array, so it runs on this system's matrices where they are those
        # `build_system` forms from it and it round-trips
        split = own_t and ref.extracted[0] == sys.pa and du.is_self_dual(sys.pa) and (
            sys.A, sys.Astar) == ((built := build_system(sys.pa)).A, built.Astar)
        for basis_id in du.FOUR_BASES:
            if Matrix.from_columns(sys.field, family[basis_id]).rank() != sys.d + 1:
                continue
            reps = by_inverse(sys, t, family[basis_id])
            assert du.basis_representations(sys, t, basis_id) == reps, basis_id
            if split:
                shown = zip(MATRIX_OF_T_CHECKS, reps, du.expected_representations(sys, basis_id))
                assert check_list(cli._RUNS["matrix-of-t"](sys.pa, Namespace(basis=basis_id))[1]) == [
                    (name, rep == want, None) for name, rep, want in shown], basis_id
    return {verb: {name: (p, w) for name, p, w in checks} for verb, checks in out.items()}


# --- inputs, each defined once ---


def q_racah(field: Field, d: int, theta_star012=(1, 3, 4)) -> ParameterArray:
    """`leonard_array` with theta from (1, 2, 7), theta* from theta_star012, beta = 13/6 and varphi_1 = 5/2: q-Racah
    type with q = 3/2 (13/6 = q + 1/q), whose entries grow with d; self-dual for theta* from (1, 2, 7)."""
    n = field.from_int
    return leonard_array(field, d, (n(1), n(2), n(7)), tuple(map(n, theta_star012)), n(13) / n(6), n(5) / n(2))


def w_inverse_conjugate(s: LeonardSystem, star: bool = False) -> LeonardSystem:
    """W^-1 X W (resp. W*^-1 X W*): A (resp. A*) becomes diagonal."""
    return s.conjugated(s.eigenbasis(star)[0].inverse())


# form -> the system of that form built from one in split form
FORMS = {"split": lambda s: s, "dense": lambda s: s.conjugated(conjugator(s.field, s.d + 1)),
         "W": w_inverse_conjugate, "Wstar": lambda s: w_inverse_conjugate(s, True)}


def agrees_on(pa: ParameterArray, forms=("split",), verbs=tuple(VERBS)) -> list:
    """`assert_agrees` for verbs on the system of pa in each of forms (FORMS), their outcomes in order."""
    return [assert_agrees(FORMS[form](build_system(pa)), verbs) for form in forms]


def perturbed_arrays(names=("theta", "theta_star", "varphi", "phi"), ds=range(1, 5)) -> list:
    """Krawtchouk arrays at d in ds with one entry of a sequence in names raised by 1 (PA1 kept), as pytest params:
    not Leonard, except where phi alone moved, as phi does not enter A or A*."""
    out = []
    for field in FIELDS:
        for d in ds:
            pa = krawtchouk(field, d)
            for name in names:
                for k in range(len(getattr(pa, name))):
                    seq = list(getattr(pa, name))
                    seq[k] = seq[k] + field.one()
                    try:
                        bumped = replace(pa, **{name: tuple(seq)})
                    except ValueError:
                        continue
                    label = k + 1 if names == ("varphi",) else f"{name}{k}"
                    out.append(pytest.param(bumped, id=f"{field.p or 'Q'}-d{d}-{label}"))
    return out


def not_leonard_arrays() -> list:
    """Krawtchouk arrays at d <= 5 with varphi_k raised by 1, id ending in k: not Leonard (tools/output_digests.py
    builds the same, in the same order)."""
    return perturbed_arrays(("varphi",), range(1, 6))


def hand_built(field: Field, d: int) -> dict:
    """Systems of the Krawtchouk array at d >= 1, by name, whose idempotents or stored array disagree with A and A*,
    or that fail one premise of the F[M] checks on one side: the count, orthogonal, spectral or distinct
    eigenvalues."""
    s = build_system(krawtchouk(field, d))
    E, Es, ths, eye = s.E, s.Estar, s.theta_star, Matrix.identity(field, d + 1)
    K = eye + outer(eye.column(0), eye.column(1))
    repeated = (ths[0], ths[0], *ths[2:])
    system = lambda E=E, Estar=Es, theta_star=ths, Astar=s.Astar, pa=s.pa: LeonardSystem(
        s.A, Astar, E, Estar, s.theta, theta_star, pa)
    return {
        "Estar_d doubled": system(Estar=Es[:-1] + (Es[-1].scale(field.from_int(2)),)),
        "E_1 zero": system(E=E[:1] + (Matrix.zeros(field, d + 1),) + E[2:]),
        "E_0 rank two": system(E=(E[0] + E[1],) + E[1:]),
        # rank one and equal to E_0 on e_0, but outside F[A]: only U W = I tells it apart there
        "E_0 sheared": system(E=(E[0] + outer(s.eigencolumn(0), eye.row(1)),) + E[1:]),
        "E_0 twice": system(E=(E[0],) + E[:1] + E[2:]),  # every E_i of rank one, W singular
        "stored theta_0 moved": system(pa=replace(s.pa, theta=(s.pa.theta[0] + field.from_int(5 * d + 1),)
                                                  + s.pa.theta[1:])),
        "E short": system(E=E[:-1]),
        "E* short": system(Estar=Es[:-1]),
        # E* orthogonal, but not spectral for A*: theta*_0 and theta*_1 exchanged, or each E*_i conjugated by
        # K = I + e_0 e_1^T, which the dagger of (A, A*) does not fix
        "E* off spectrum": system(theta_star=(ths[1], ths[0], *ths[2:])),
        "E* conjugated": system(Estar=[K * X * K.inverse() for X in Es]),
        # A*' = sum theta*'_i E*_i: E* factors, is orthogonal and spectral, but A*' has a plane for an eigenspace,
        # so U A*' W is not irreducible tridiagonal
        "E* with a repeated theta*": system(theta_star=repeated, Astar=sum(
            (X.scale(t) for t, X in zip(repeated, Es)), Matrix.zeros(field, d + 1))),
    }


def swapped_idempotents(stored: bool) -> LeonardSystem:
    """The certified d = 3 Krawtchouk system (FROZEN_ARRAYS[0]) with E replaced by E*, with its array stored or not:
    the theta read back is tr(A E*_i), not distinct, so the extraction fails."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    return LeonardSystem(s.A, s.Astar, s.Estar, s.Estar, s.theta, s.theta_star, s.pa if stored else None)


def gram_premise_failures() -> dict:
    """The certified system of FROZEN_ARRAYS[0] with one premise of `solve_gram` broken, by case, so that the suite
    still reaches its Gram block: E_0 of rank two, theta_1 := theta_0, theta_0 and theta_1 swapped (U A W !=
    diag(theta)), or E_0 := w_0 (u_0 + u_1)^T (U W != I)."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    (W, U), th, E = s.eigenbasis(), s.theta, s.E
    cases = {
        "E0-rank-two": (th, (E[0] + E[1], *E[1:])),
        "theta-repeated": ((th[0], th[0], *th[2:]), E),
        "UAW-not-diagonal": ((th[1], th[0], *th[2:]), E),
        "UW-not-I": (th, (outer(W.column(0), U.row(0) + U.row(1)), *E[1:])),
    }
    return {case: LeonardSystem(s.A, s.Astar, E, s.Estar, theta, s.theta_star, s.pa)
            for case, (theta, E) in cases.items()}


def report_systems() -> dict:
    """Systems whose reports fail in different places, and the certified one, by name."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
    eye, swap = Matrix.identity(Q, 2), Matrix.from_ints(Q, [[0, 1], [1, 0]])
    units = [Matrix.from_ints(Q, [[1, 0], [0, 0]]), Matrix.from_ints(Q, [[0, 0], [0, 1]])]
    n = Q.from_int
    return {
        "certified": s,
        "not-leonard": build_system(replace(s.pa, varphi=(n(-5), n(-8), n(-6)))),
        "E0-zero": LeonardSystem(s.A, s.Astar, (Matrix.zeros(Q, 4), *s.E[1:]), s.Estar, s.theta, s.theta_star),
        "theta-repeated": LeonardSystem(eye, swap, units, units, (n(1), n(1)), (n(1), n(-1))),
        "E-is-Estar": swapped_idempotents(False),
        **{f"gram-{case}": sys for case, sys in gram_premise_failures().items()},
    }


# the settings of the generated differential tests, each giving its max_examples: no shrinking, as each shrink
# step reruns the dense reference, so a failure is reported on the example that found it
DIFFERENTIAL = settings(deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))


def drawn(field: Field, self_dual: bool = False):
    """Hypothesis strategy: Leonard arrays at d = 1..6 over field, from `leonard_arrays`, or also self-dual ones (those
    of `leonard_array` with theta* = theta)."""
    x = field_scalars(field)
    dual = lambda d: st.tuples(st.tuples(x, x, x), x, x).map(
        lambda s: leonard_array(field, d, s[0], s[0], s[1], s[2])).filter(lambda pa: pa is not None)
    return st.integers(1, 6).flatmap(lambda d: st.one_of(leonard_arrays(field, d), dual(d)) if self_dual
                                     else leonard_arrays(field, d))


def passes(agreed: dict, verb: str = "verify", names=None) -> bool:
    """Whether every check of verb (of names, when given) passes in the outcome of `assert_agrees`."""
    return all(agreed[verb][name][0] for name in names or agreed[verb])


# the error of `extract_parameter_array` on a system whose theta, read back as tr(A E_i), repeats
EXTRACTION_ERROR = "extracted array is not a parameter array: theta entries must be mutually distinct"


# --- library-level mutations of the certified d = 3 Krawtchouk systems, each giving name -> (passed, witness) ---


SELF_DUAL, NON_SELF_DUAL = FROZEN_ARRAYS[0], FROZEN_ARRAYS[1]


def pinned_system(array, form="split"):
    """The certified system of array in form (FORMS), its anchors and its bundle."""
    s = FORMS[form](certify(ParameterArray.from_json(array)))
    anchors = du.choose_anchor_vectors(s)
    return s, anchors, du.build_duality_bundle(s, anchors)


def checks_of(*reports) -> dict:
    return {c.name: (c.passed, c.witness) for report in reports for c in report.checks}


def t_suites(s, anchors, bundle) -> dict:
    return checks_of(du.verify_duality_suite(s, bundle), du.verify_geometry_suite(s, bundle),
                     du.verify_T_on_bases(s, bundle, anchors), du.verify_matrix_of_T(s, bundle, anchors))


def anchor_suites(s, anchors, bundle) -> dict:
    return checks_of(du.verify_anchor_relations(s, anchors), du.verify_basis_family(s, anchors),
                     du.verify_transition_relations(s, anchors), du.verify_T_on_bases(s, bundle, anchors),
                     du.verify_matrix_of_T(s, bundle, anchors))


def wrong_t():
    """T replaced by A."""
    s, anchors, bundle = pinned_system(SELF_DUAL)
    return t_suites(s, anchors, replace(bundle, t=s.A))


def non_self_dual_t():
    """The true T of a non-self-dual system, as `dualize` reports it."""
    return t_suites(*pinned_system(NON_SELF_DUAL))


def moved_anchors(move):
    s, anchors, bundle = pinned_system(SELF_DUAL)
    return anchor_suites(s, du.anchors_from_vectors(s, *move(s.field.from_int, anchors)), bundle)


def swapped_anchors():
    """v0 and vd exchanged."""
    return moved_anchors(lambda n, a: (a.vd, a.v0, a.v0s, a.vds))


def mixed_anchors():
    """Each anchor plus a multiple of its partner: v0 + vd, vd + 2 v0, v*0 + 2 v*d, v*d + 3 v*0."""
    return moved_anchors(lambda n, a: (a.v0 + a.vd, a.vd + a.v0.scale(n(2)),
                                       a.v0s + a.vds.scale(n(2)), a.vds + a.v0s.scale(n(3))))


def scaled_basis_vector():
    """The report of `matrix-of-t --basis tau-vstard` (`cli._matrix_of_t`) on the certified system with vector 1 of
    the memoised sequence behind tau-vstard doubled: B becomes B diag(1, 2, 1, 1), so M B == B X fails for each
    displayed X, B is inverted, and each entry of B^-1 M B in row or column 1 but (1, 1) is halved or doubled."""
    s, anchors, _ = pinned_system(SELF_DUAL)
    seq = du.build_basis(s, anchors, "tau-vstard")
    s._memo[("basis", "tau", anchors.vds)] = (seq[0], seq[1].scale(s.field.from_int(2)), *seq[2:])
    with mock.patch.object(cli, "certify", lambda pa: s):
        return checks_of(cli._matrix_of_t(s.pa, Namespace(basis="tau-vstard"))[1])


# --- documents of the command line, and its contract ---


D1_SELF_DUAL = {"field": {"kind": "rational"}, "d": 1, "theta": ["1/1", "-1/1"], "theta_star": ["1/1", "-1/1"],
                "varphi": ["2/1"], "phi": ["6/1"]}
D1_NON_SELF_DUAL = {"field": {"kind": "rational"}, "d": 1, "theta": ["1/1", "-1/1"], "theta_star": ["2/1", "0/1"],
                    "varphi": ["1/1"], "phi": ["5/1"]}
D0 = {"field": {"kind": "rational"}, "d": 0, "theta": ["3/1"], "theta_star": ["3/1"], "varphi": [], "phi": []}
# forms Python's int() reads but the scalar grammar -?[0-9]+(/[0-9]+)? does not
REJECTED_SCALARS = [" 6/1", "6/1 ", "+6/1", "6/+1", "6/ 1", "6_0/10", "\u0666/\u0661", "6/", "6/-1", "6/1\n"]


def cli_call(argv, text):
    """(exit code, stdout, stderr) of `cli.main` on argv with text on stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_error_line(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1 and err.endswith("\n"), err
    obj = json.loads(lines[0])
    assert obj.keys() >= {"error"} and set(obj["error"]) == {"type", "message"}, obj
    assert all(isinstance(v, str) for v in obj["error"].values())
    return obj


def assert_cli_contract(argv, text: str) -> int:
    """The CLI contract for one call on the input text, whatever the text: exit 0, 1 or 2 and no traceback; on exit 2
    one `{"error": {"type", "message"}}` line on stderr and nothing on stdout; on exit 0 or 1 JSON on stdout (or, for
    a domain error, one such error line), the same bytes when called again.  Returns the exit code."""
    code, out, err = result = cli_call(argv, text)
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
    assert cli_call(argv, text) == result
    return code


# --- the call recorder ---


class Calls(list):
    """(name, arguments) of each call that `recording` saw, in call order; the arguments in the order of the
    signature, defaults filled in."""

    def of(self, name: str) -> list:
        return [args for called, args in self if called == name]

    @property
    def names(self) -> list:
        return [name for name, _ in self]


@contextmanager
def recording(*targets):
    """Records the calls made inside the block to each (owner, name) of targets, as `Calls`; owner may be a tuple of
    the modules that each bind the same function by that name.  Each call runs the original."""
    calls, patch = Calls(), pytest.MonkeyPatch()
    for owners, name in targets:
        for owner in owners if isinstance(owners, tuple) else (owners,):
            original = getattr(owner, name)

            def recorded(*args, _original=original, _name=name, _bind=inspect.signature(original).bind, **kwargs):
                bound = _bind(*args, **kwargs)
                bound.apply_defaults()
                calls.append((_name, bound.args))
                return _original(*args, **kwargs)

            patch.setattr(owner, name, recorded)
    try:
        yield calls
    finally:
        patch.undo()
