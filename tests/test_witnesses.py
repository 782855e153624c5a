"""Pinned witnesses of the per-index sweep checks.

Each sweep check walks its cases (indices, pairs, bases, flags) in a fixed
order and reports either the first failing case, stopping there, or the last
one after the whole sweep.  Which of the two a check uses reaches stdout, so
every sweep check is pinned here by its exact (passed, witness) under a
library-level mutation of the self-dual Krawtchouk system at d = 3 over Q.
Where the check's cases allow it, the mutation breaks two or more of them, so
that the first and the last failure differ (or the sweep stops early).
"""

import dataclasses

import pytest

from leonard import duality as du
from leonard import systems
from leonard.linalg import Matrix
from leonard.systems import LeonardSystem, ParameterArray, certify

from conftest import FROZEN_ARRAYS, GRAM_CHECKS, SUITE_CHECKS

SELF_DUAL, NON_SELF_DUAL = FROZEN_ARRAYS[0], FROZEN_ARRAYS[1]  # Krawtchouk, d = 3


def _setup(array):
    s = certify(ParameterArray.from_json(array))
    anchors = du.choose_anchor_vectors(s)
    return s, anchors, du.build_duality_bundle(s, anchors)


def _checks(*reports) -> dict:
    return {c.name: (c.passed, c.witness) for report in reports for c in report.checks}


def _t_suites(s, anchors, bundle) -> dict:
    return _checks(du.verify_duality_suite(s, bundle), du.verify_geometry_suite(s, bundle),
                   du.verify_T_on_bases(s, bundle, anchors), du.verify_matrix_of_T(s, bundle, anchors))


def _anchor_suites(s, anchors, bundle) -> dict:
    return _checks(du.verify_anchor_relations(s, anchors), du.verify_basis_family(s, anchors),
                   du.verify_transition_relations(s, anchors), du.verify_T_on_bases(s, bundle, anchors),
                   du.verify_matrix_of_T(s, bundle, anchors))


def wrong_t():
    """T replaced by A."""
    s, anchors, bundle = _setup(SELF_DUAL)
    return _t_suites(s, anchors, dataclasses.replace(bundle, t=s.A))


def non_self_dual_t():
    """The true T of a non-self-dual system, as `dualize` reports it."""
    return _t_suites(*_setup(NON_SELF_DUAL))


def _moved_anchors(move):
    s, anchors, bundle = _setup(SELF_DUAL)
    return _anchor_suites(s, du.anchors_from_vectors(s, *move(s.field.from_int, anchors)), bundle)


def swapped_anchors():
    """v0 and vd exchanged."""
    return _moved_anchors(lambda n, a: (a.vd, a.v0, a.v0s, a.vds))


def mixed_anchors():
    """Each anchor plus a multiple of its partner: v0 + vd, vd + 2 v0, v*0 + 2 v*d, v*d + 3 v*0."""
    return _moved_anchors(lambda n, a: (a.v0 + a.vd, a.vd + a.v0.scale(n(2)),
                                        a.v0s + a.vds.scale(n(2)), a.vds + a.v0s.scale(n(3))))


def reversed_decompositions():
    """The memoised vectors of [0D], [0*D] and [D*0] in reverse order."""
    s, anchors, bundle = _setup(SELF_DUAL)
    for z, w in (("0", "D"), ("0*", "D"), ("D*", "0")):
        dec = du.build_decomposition(s, z, w)
        s._memo[("decomposition", z, w)] = du.Decomposition(z, w, dec.vectors[::-1])
    return _checks(du.verify_geometry_suite(s, bundle), du.verify_basis_family(s, anchors))


def zero_flags():
    """The flags [0] and [D] with a zero basis, and so zero transitions W_a^-1 W_b from or to them."""
    s, _, _ = _setup(SELF_DUAL)
    for z in ("0", "D"):
        s._memo[("flag", z)] = du.Flag(z, Matrix.zeros(s.field, s.d + 1), None)
    for a, b in ((False, False), (False, True), (True, False)):
        s._memo[("change_of_basis", a, None, b)] = Matrix.zeros(s.field, s.d + 1)
    return _checks(du.verify_geometry_suite(s))


def zero_basis():
    """The forward sequence behind tau-vstard (and tau-rev-vstard) memoised as not a basis."""
    s, anchors, _ = _setup(SELF_DUAL)
    s._memo[("is_basis", "tau", anchors.vds)] = False
    return _checks(du.verify_basis_family(s, anchors))


def doubled_estar_d(array=SELF_DUAL):
    """A hand-built system with E*_d doubled: every tr(E_r E*_d) is off."""
    s, _, _ = _setup(array)
    Estar = s.Estar[:-1] + (s.Estar[-1].scale(s.field.from_int(2)),)
    return _checks(systems.standard_identity_suite(LeonardSystem(s.A, s.Astar, s.E, Estar, s.theta,
                                                                 s.theta_star, s.pa)))


T_FAMILIES = ("estar_v0", "taustar_v0", "etastar_v0", "estar_vd", "taustar_vd", "etastar_vd",
              "e_vstar0", "tau_vstar0", "eta_vstar0", "e_vstard", "tau_vstard", "eta_vstard")

TRANSITIONS = {
    "taustar_rev_v0_vs_eta_vstard": 1, "etastar_rev_v0_vs_eta_vstar0": 1, "taustar_rev_vd_vs_tau_vstard": 1,
    "etastar_rev_vd_vs_tau_vstar0": 1, "tau_rev_vstar0_vs_etastar_vd": 0, "eta_rev_vstar0_vs_etastar_v0": 0,
    "tau_rev_vstard_vs_taustar_vd": 0, "eta_rev_vstard_vs_taustar_v0": 0, "e_vstard_vs_e_vstar0": 0,
    "e_rev_vstard_vs_e_rev_vstar0": 0,
}
MIXED_TRANSITIONS = ("estar_vd_vs_estar_v0", "estar_rev_vd_vs_estar_rev_v0")  # swapping v0 and vd keeps these

# mutation -> {check name: its witness}; each pinned check fails with exactly that witness
PINS = {
    wrong_t: {
        "Ei_T_equals_T_Estar_i": {"i": 0},
        "Estar_i_T_equals_T_Ei": {"i": 0},
        "T_maps_eigenspaces": {"i": 3, "side": "Estar"},
        "T_on_flags": {"flag": "D*", "i": 2},
        "T_on_decompositions": {"pair": "[D*0*]", "i": 3},
        "T_on_anchor_vectors": {"equation": 0},
        "matrix_of_T_closed_form": {"basis": "tau-vstard"},
        **{f"T_on_family_{family}": {"i": 0} for family in T_FAMILIES},
    },
    non_self_dual_t: {
        "Ei_T_equals_T_Estar_i": {"i": 0},
        "T_maps_eigenspaces": {"i": 3, "side": "Estar"},
        "T_on_flags": {"flag": "D*", "i": 2},
        "T_on_decompositions": {"pair": "[D*0*]", "i": 2},
        "T_on_anchor_vectors": {"equation": 1},
        "T_on_family_taustar_v0": {"i": 1},
        "T_on_family_e_vstard": {"i": 1},
    },
    swapped_anchors: {
        "anchor_projections": {"projection": 0},
        **{name: {"i": i} for name, i in TRANSITIONS.items()},
    },
    mixed_anchors: {
        "anchor_ratio_squares": {"identity": 0, "lhs": "92200/2601", "rhs": "8/1"},
        "bases_span_decomposition_components": {"pair": "[0D*]", "basis": "eta-rev-vstard", "i": 3},
        "A_representations_in_four_bases": {"basis": "taustar-vd"},
        "Astar_representations_in_four_bases": {"basis": "tau-vstard"},
        **{name: {"i": 0} for name in MIXED_TRANSITIONS},
    },
    reversed_decompositions: {
        "decomposition_inversion_pairs": {"pair": "[D*0]"},
        "decompositions_induce_flags": {"pair": "[D*0]", "flag": "0", "i": 2},
        "decomposition_table_rows": {"i": 3, "row": "split"},
        "T_on_decompositions": {"pair": "[0D*]", "i": 3},
        "bases_span_decomposition_components": {"pair": "[0D]", "basis": "e-vstard", "i": 3},
    },
    zero_flags: {"flag_component_dimensions": {"flag": "D", "i": 3}},
    zero_basis: {"bases_invertible": {"basis": "tau-rev-vstard"}},
    doubled_estar_d: {"trace_products_closed_form": {"r": 0}},
}

# Sweep checks no library-level mutation makes fail, with the reason.
WITHOUT_MUTATION = {
    "bases_inversion_pairing": "each -rev- id is the reversal of the memoised forward sequence it is compared with",
}

# Checks of `verify` decided from premises that run before them in the same report -> those premises.  The Gram
# checks hold by construction once `solve_gram` returns; its premises are named by the checks that state them
# (U A W = diag(theta) is idempotents_E_spectral once U W = I), and it tests theta distinct itself.  The sums hold
# by construction once U W = I with d+1 idempotents and eigenvalues, and the spectral checks then read
# M w_i = theta_i w_i; a failed premise fails the Gram checks with it as witness, and the sums are formed densely
# (`tests/test_premise_route.py`).
SOLVE_GRAM_PREMISES = ("idempotents_E_rank_one", "theta distinct", "idempotents_E_orthogonal",
                       "idempotents_E_spectral", "tridiagonal_Astar_in_A_eigenbasis")
FROM_PREMISES = {
    **dict.fromkeys(GRAM_CHECKS, SOLVE_GRAM_PREMISES),
    "dagger_fixes_idempotents": (*SOLVE_GRAM_PREMISES, "idempotents_Estar_orthogonal", "idempotents_Estar_spectral"),
    **{f"idempotents_{label}_{sums}": (f"idempotents_{label}_orthogonal",)
       for label in ("E", "Estar") for sums in ("sum", "spectral")},
}

SWEEP_CHECKS = {
    "Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei", "anchor_projections", "anchor_ratio_squares",
    "T_on_anchor_vectors", "trace_products_closed_form", *TRANSITIONS, *MIXED_TRANSITIONS,
    *(f"T_on_family_{f}" for f in T_FAMILIES),
    "decomposition_inversion_pairs", "decompositions_induce_flags", "decomposition_table_rows",
    "T_maps_eigenspaces", "T_on_flags", "T_on_decompositions", "bases_span_decomposition_components",
    "bases_inversion_pairing", "flag_component_dimensions", "bases_invertible", "matrix_of_T_closed_form",
    "A_representations_in_four_bases", "Astar_representations_in_four_bases",
}


def test_every_sweep_check_is_pinned_or_listed():
    pinned = {name for pins in PINS.values() for name in pins}
    assert pinned | set(WITHOUT_MUTATION) == SWEEP_CHECKS
    assert not pinned & set(WITHOUT_MUTATION)


def test_every_decided_check_names_premises_that_run_first():
    assert set(FROM_PREMISES) == {*GRAM_CHECKS, *(f"idempotents_{label}_{sums}" for label in ("E", "Estar")
                                                  for sums in ("sum", "spectral"))}
    assert not set(FROM_PREMISES) & (SWEEP_CHECKS | set(WITHOUT_MUTATION))
    for name, premises in FROM_PREMISES.items():
        checked = [p for p in premises if p != "theta distinct"]
        assert all(SUITE_CHECKS.index(p) < SUITE_CHECKS.index(name) for p in checked), name


def test_unmutated_system_passes_every_sweep_check():
    s, anchors, bundle = _setup(SELF_DUAL)
    checks = {**_t_suites(s, anchors, bundle), **_anchor_suites(s, anchors, bundle),
              **_checks(systems.standard_identity_suite(s))}
    assert SWEEP_CHECKS <= checks.keys()
    assert all(checks[name] == (True, None) for name in SWEEP_CHECKS)


@pytest.mark.parametrize("mutation", PINS, ids=lambda m: m.__name__)
def test_witness_pinned(mutation):
    checks = mutation()
    assert {name: checks[name] for name in PINS[mutation]} == {
        name: (False, witness) for name, witness in PINS[mutation].items()}


P = 2**31 - 1
# SELF_DUAL over GF(2^31 - 1): its integer entries as residues
SELF_DUAL_GFP = {"field": {"kind": "prime", "p": P}, "d": 3, **{
    key: [int(x.removesuffix("/1")) % P for x in SELF_DUAL[key]] for key in ("theta", "theta_star", "varphi", "phi")}}


@pytest.mark.parametrize("array, nu", [(SELF_DUAL, "8/1"), (SELF_DUAL_GFP, 8)], ids=["Q", "GF(2^31-1)"])
def test_nu_witness_scalars_are_canonical(array, nu):
    """The nu closed forms in the witness are encoded like every other scalar of the output."""
    names = ("nu", "nu_down", "nu_ddown", "nu_down_ddown")
    assert doubled_estar_d(array)["nu_closed_forms_match_traces"] == (False, {"scalars": dict.fromkeys(names, nu)})


def _raised(M: Matrix, i: int, j: int) -> Matrix:
    """M with entry (i, j) raised by 1."""
    rows = [list(row) for row in M.rows]
    rows[i][j] += M.field.one()
    return Matrix(M.field, rows)


def _raised_inverse_entry(star: bool, i: int, j: int) -> dict:
    """The memoised W^-1 (resp. W*^-1) with entry (i, j) raised by 1, before any flag is built; the
    memoised changes of basis W^-1 X W_b built from it so far are dropped, so they are rebuilt from it."""
    s, _, bundle = _setup(SELF_DUAL)
    assert not any(key[0] == "flag" for key in s._memo)
    s._memo[("eigenbasis_inverse", star)] = _raised(systems._eigenbasis_inverse(s, star), i, j)
    for key in [key for key in s._memo if key[:2] == ("change_of_basis", star)]:
        del s._memo[key]
    return _checks(systems.standard_identity_suite(s), du.verify_geometry_suite(s, bundle))


# (star, i, j) -> {check name: its witness}, over the checks that read W^-1 or W*^-1
INVERSE_PINS = {
    (True, 2, 1): {
        "tridiagonal_A_in_Astar_eigenbasis": None,
        "split_projectors_match_intersection": None,
        "decompositions_induce_flags": {"pair": "[D*0*]", "flag": "0*", "i": 1},
        "T_on_flags": {"flag": "D", "i": 0},
    },
    (False, 3, 0): {
        "tridiagonal_Astar_in_A_eigenbasis": None,
        "flags_mutually_opposite": None,
        "decomposition_components_one_dimensional": {
            "pair": "[0D*]", "error": "the flags [0] and [D*] of [0D*] are not opposite"},
    },
}
INVERSE_READERS = {"tridiagonal_Astar_in_A_eigenbasis", "tridiagonal_A_in_Astar_eigenbasis",
                   "split_projectors_match_intersection", "flags_mutually_opposite", "decompositions_induce_flags",
                   "decomposition_components_one_dimensional", "T_on_flags"}


@pytest.mark.parametrize("entry", INVERSE_PINS, ids=lambda e: f"{'Wstar' if e[0] else 'W'}-inverse-{e[1]}{e[2]}")
def test_eigenbasis_inverse_readers_fail_with_pinned_witness(entry):
    """Each check that reads the memoised W^-1 or W*^-1 (the tridiagonal axioms, the split
    lines and the flags) fails when one entry of it is wrong; among them, only the pinned ones."""
    checks = _raised_inverse_entry(*entry)
    assert {name for name in INVERSE_READERS & checks.keys() if not checks[name][0]} == set(INVERSE_PINS[entry])
    assert {name: checks[name] for name in INVERSE_PINS[entry]} == {
        name: (False, witness) for name, witness in INVERSE_PINS[entry].items()}


def test_every_eigenbasis_inverse_reader_is_pinned():
    assert set().union(*INVERSE_PINS.values()) == INVERSE_READERS


def _mutated_memo(key, mutation) -> dict:
    """A new build of SELF_DUAL whose memoised key is mutated before any reader runs: a U W witness
    is replaced by mutation, a change of basis has entry mutation = (i, j) raised by 1.  T is the
    certified system's, as no change of basis enters it."""
    _, _, bundle = _setup(SELF_DUAL)
    s = systems.build_system(ParameterArray.from_json(SELF_DUAL))
    s._memo[key] = mutation if key[0] == "UW_witness" else _raised(systems.change_of_basis(s, *key[1:]), *mutation)
    return _checks(systems.standard_identity_suite(s), du.verify_geometry_suite(s, bundle))


# memo key -> (mutation, {check name: its witness}); the pinned checks are the only ones that fail
MEMO_PINS = {
    # U W of E: the orthogonality axiom, and a premise of the Gram solver
    ("UW_witness", False): ({"i": 1, "j": 2}, {
        "idempotents_E_orthogonal": {"i": 1, "j": 2},
        **dict.fromkeys(GRAM_CHECKS, {"error": "U W is not I at (i, j) = (1, 2)"})}),
    ("UW_witness", True): ({"i": 2, "j": 0}, {"idempotents_Estar_orthogonal": {"i": 2, "j": 0}}),
    # U A* W: the tridiagonal axiom, and B of the Gram solver, whose premise it fails
    ("change_of_basis", False, "Astar", False): ((0, 2), {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None,
        **dict.fromkeys(GRAM_CHECKS, {"error": "U A* W is not irreducible tridiagonal"})}),
    ("change_of_basis", True, "A", True): ((0, 2), {
        "tridiagonal_A_in_Astar_eigenbasis": None, "standard_orderings": None}),
    # W*^-1 W: the split lines and [0*0], [0*D], [D*0], [D*D]
    ("change_of_basis", True, None, False): ((2, 1), {
        "split_projectors_match_intersection": None,
        "decomposition_inversion_pairs": {"pair": "[D*D]"},
        "decompositions_induce_flags": {"pair": "[D*D]", "flag": "D*", "i": 0},
        "decomposition_table_rows": {"i": 1, "row": "split"},
        "T_on_decompositions": {"pair": "[0D*]", "i": 1}}),
    # W^-1 W*: [00*], [0D*], [D0*], [DD*]
    ("change_of_basis", False, None, True): ((2, 1), {
        "decomposition_inversion_pairs": {"pair": "[D*D]"},
        "decompositions_induce_flags": {"pair": "[DD*]", "flag": "D", "i": 0},
        "T_on_decompositions": {"pair": "[0D*]", "i": 1}}),
    # W^-1 W = I: [0D] and [D0]; W*^-1 W* = I: [0*D*] and [D*0*]
    ("change_of_basis", False, None, False): ((1, 2), {
        "decomposition_inversion_pairs": {"pair": "[D0]"},
        "decompositions_induce_flags": {"pair": "[D0]", "flag": "D", "i": 1},
        "T_on_decompositions": {"pair": "[D*0*]", "i": 1}}),
    ("change_of_basis", True, None, True): ((2, 1), {
        "decomposition_inversion_pairs": {"pair": "[D*0*]"},
        "decompositions_induce_flags": {"pair": "[0*D*]", "flag": "0*", "i": 1},
        "decomposition_table_rows": {"i": 1, "row": 1},
        "T_on_decompositions": {"pair": "[0*D*]", "i": 1}}),
}
# read only by the premise U A W = diag(theta) of the Gram solver
GRAM_PREMISE = ("change_of_basis", False, "A", False)


@pytest.mark.parametrize("key", MEMO_PINS, ids=lambda key: "-".join(map(str, key)))
def test_memo_readers_fail_with_pinned_witness(key):
    mutation, pins = MEMO_PINS[key]
    checks = _mutated_memo(key, mutation)
    assert {name for name, (passed, _) in checks.items() if not passed} == set(pins)
    assert {name: checks[name] for name in pins} == {name: (False, witness) for name, witness in pins.items()}


def test_gram_premise_reads_the_memo():
    """A wrong entry of the memoised U A W fails the premise U A W = diag(theta): exactly the seven
    Gram checks fail, each with the premise as its witness."""
    checks = _mutated_memo(GRAM_PREMISE, (0, 1))
    assert {name for name, (passed, _) in checks.items() if not passed} == set(GRAM_CHECKS)
    assert {name: checks[name] for name in GRAM_CHECKS} == dict.fromkeys(
        GRAM_CHECKS, (False, {"error": "U A W is not diag(theta) at (i, j) = (0, 1)"}))


def test_every_memo_entry_is_mutated():
    """The U W witnesses and changes of basis that the suites memoise are exactly those mutated above."""
    s, anchors, bundle = _setup(SELF_DUAL)
    _t_suites(s, anchors, bundle)
    _anchor_suites(s, anchors, bundle)
    systems.standard_identity_suite(s)
    memoised = {key for key in s._memo if key[0] in ("UW_witness", "change_of_basis")}
    assert memoised == {*MEMO_PINS, GRAM_PREMISE}


# the checks of `dualize` that read the memoised (G, G^-1), through T^dagger and T*^dagger
DAGGER_READERS = ("T_dagger_displayed_sum", "T_star_dagger_displayed_sum", "T_equals_T_dagger",
                  "T_equals_T_star_dagger", "product_E0star_Tdagger", "product_E0_Tstardagger", "product_E0_Tdagger",
                  "product_E0star_Tstardagger")

# mutation of the memoised (G, G^-1) -> the checks that fail, all of them among DAGGER_READERS
GRAM_PINS = {
    "G-raised-at-01": (lambda G, Ginv: (_raised(G, 0, 1), Ginv), set(DAGGER_READERS)),
    "G-raised-at-01-and-10": (lambda G, Ginv: (_raised(_raised(G, 0, 1), 1, 0), Ginv), set(DAGGER_READERS)),
    # in split form E_0 = w_0 e_0^T, so E_0 G^-1 reads only row 0 of G^-1
    "Ginv-raised-at-21": (lambda G, Ginv: (G, _raised(Ginv, 2, 1)),
                          set(DAGGER_READERS) - {"product_E0_Tdagger", "product_E0_Tstardagger"}),
}


@pytest.mark.parametrize("array", [SELF_DUAL, SELF_DUAL_GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("mutation", GRAM_PINS)
def test_gram_block_fails_under_a_wrong_gram_entry(array, mutation):
    """The reports of `verify` and `dualize` on a new build whose memoised ("gram") entry (G, G^-1) is mutated
    before any reader runs.  `verify` decides its Gram block from the premises of `solve_gram` and reads neither
    G nor G^-1, so it passes; the `dualize` checks that form T^dagger = G^-1 T^T G and T*^dagger fail, all of them
    under a wrong G, symmetric or not, and under a wrong entry (2, 1) of G^-1 all but the two that multiply the
    dagger by E_0 on the left."""
    mutate, failing = GRAM_PINS[mutation]
    _, _, bundle = _setup(array)
    s = systems.build_system(ParameterArray.from_json(array))
    s._memo["gram"] = mutate(*systems.solve_gram(s))
    checks = _checks(systems.standard_identity_suite(s), du.verify_duality_suite(s, bundle))
    assert {name for name, (passed, _) in checks.items() if not passed} == failing


def _set(M: Matrix, i: int, j: int, x) -> Matrix:
    """M with entry (i, j) replaced by x."""
    rows = [list(row) for row in M.rows]
    rows[i][j] = x
    return Matrix(M.field, rows)


def _mixed_eigenbasis(star):
    """(W K, K^-1 U) for the eigenbasis (W, U) of E (resp. E*) and K = I + e_0 e_1^T: still U W = I, but column 1
    is w_0 + w_1, no eigenvector, and E_1 != w_1 u_1^T."""
    def mutate(s):
        (W, U), K = s.eigenbasis(star), _raised(Matrix.identity(s.field, s.d + 1), 0, 1)
        s._memo[("eigenbasis", star)] = (W * K, K.inverse() * U)
    return mutate


def _reducible_b(s):
    """U A* W with its entry (1, 0) set to 0: tridiagonal, but not irreducible."""
    s._memo[("change_of_basis", False, "Astar", False)] = _set(
        systems.change_of_basis(s, False, "Astar", False), 1, 0, s.field.zero())


B_ERROR, UAW_ERROR = "U A* W is not irreducible tridiagonal", "U A W is not diag(theta) at (i, j) = (0, 1)"
# a premise's memo entry, mutated -> {check of `verify`: its witness}; the pinned checks are the only ones that fail
PREMISE_PINS = {
    "B-reducible": (_reducible_b, {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None,
        **dict.fromkeys(GRAM_CHECKS, {"error": B_ERROR})}),
    # U A W = diag(theta) fails at (0, 1): the E spectral check, and the premise of solve_gram
    "W-mixed": (_mixed_eigenbasis(False), {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None, "idempotents_E_spectral": None,
        **dict.fromkeys(("split_projectors_match_intersection", "split_projectors_resolution"),
                        {"error": "split component is not one-dimensional"}),
        **dict.fromkeys(GRAM_CHECKS, {"error": UAW_ERROR})}),
    # E* is orthogonal but not spectral on its factors: the dagger is tested on them, and E*_1 is not w*_1 u*_1^T
    "Wstar-mixed": (_mixed_eigenbasis(True), {
        "tridiagonal_A_in_Astar_eigenbasis": None, "standard_orderings": None, "idempotents_Estar_spectral": None,
        "split_projectors_match_intersection": None, "split_projectors_resolution": None,
        "split_pairing_delta": {"i": 0, "j": 1}, "dagger_fixes_idempotents": None}),
}


@pytest.mark.parametrize("array", [SELF_DUAL, SELF_DUAL_GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("mutation", PREMISE_PINS)
def test_decided_checks_fail_under_a_wrong_premise_entry(array, mutation):
    """`verify` on a new build whose memoised premise entry is mutated before any reader runs: the checks decided
    from it fail, the Gram checks with the failed premise of `solve_gram` as witness."""
    mutate, pins = PREMISE_PINS[mutation]
    s = systems.build_system(ParameterArray.from_json(array))
    mutate(s)
    checks = _checks(systems.standard_identity_suite(s))
    assert {name: (passed, witness) for name, (passed, witness) in checks.items() if not passed} == {
        name: (False, witness) for name, witness in pins.items()}


def test_every_decided_check_fails_under_a_premise_mutation():
    """Each decided check but the two sums, which are W U = I whenever U W = I, fails under a mutation above."""
    failing = {name for _, pins in PREMISE_PINS.values() for name in pins}
    assert set(FROM_PREMISES) - failing == {"idempotents_E_sum", "idempotents_Estar_sum"}
