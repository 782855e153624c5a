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

from conftest import FROZEN_ARRAYS

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
    """The flags [0] and [D] with a zero basis."""
    s, _, _ = _setup(SELF_DUAL)
    for z in ("0", "D"):
        s._memo[("flag", z)] = du.Flag(z, Matrix.zeros(s.field, s.d + 1))
    return _checks(du.verify_geometry_suite(s))


def zero_basis():
    """The forward sequence behind tau-vstard (and tau-rev-vstard) with a zero matrix."""
    s, anchors, _ = _setup(SELF_DUAL)
    key = ("basis", "tau", anchors.vds)
    seq, _ = s.cached(key, lambda: du._basis_sequence(s, "tau", anchors.vds))
    s._memo[key] = (seq, du.Flag("tau", Matrix.zeros(s.field, s.d + 1)))
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
