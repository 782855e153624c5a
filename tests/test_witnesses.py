"""Pinned witnesses of the per-index sweep checks.

Each sweep check walks its cases (indices, pairs, bases, flags) in a fixed
order and reports either the first failing case, stopping there, or the last
one after the whole sweep.  Which of the two a check uses reaches stdout, so
every sweep check is pinned here by its exact (passed, witness) under a
library-level mutation of the self-dual Krawtchouk system at d = 3 over Q.
Where the check's cases allow it, the mutation breaks two or more of them, so
that the first and the last failure differ (or the sweep stops early).  The
other checks that the CLI reports are pinned by their verdict, or by the
whole report, under such a mutation, so that each of the 34 checks of
`verify`, 29 of `dualize`, 18 of `bases` and 3 of `matrix-of-t` is seen to
fail.
"""

import argparse
import dataclasses
from unittest import mock

import pytest

from leonard import cli
from leonard import duality as du
from leonard import systems
from leonard.linalg import Matrix, Vector
from leonard.report import VerificationReport
from leonard.systems import LeonardSystem, ParameterArray, certify, d4_apply

import reference
from conftest import FROZEN_ARRAYS, GRAM_CHECKS, SUITE_CHECKS

SELF_DUAL, NON_SELF_DUAL = FROZEN_ARRAYS[0], FROZEN_ARRAYS[1]  # Krawtchouk, d = 3


def _setup(array, form="split"):
    """The certified system of array in form (`reference.FORMS`), its anchors and its bundle."""
    s = reference.FORMS[form](certify(ParameterArray.from_json(array)))
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


def doubled_t_star(form="split"):
    """The memoised covectors from which `dualize` sums T* in the eigenbasis of A, those of the system U X W
    (`duality._in_eigenbasis`), each doubled: U T* W becomes 2 U T* W."""
    s, anchors, bundle = _setup(SELF_DUAL, form)
    hat = du._in_eigenbasis(s)
    _, _, u = du._through(hat, (False, 0), (True, s.d))
    family = hat.root_family("tau", False, u, covector=True)
    hat._memo[("root_family", "tau", False, u, True)] = tuple(v.scale(s.field.from_int(2)) for v in family)
    return _t_suites(s, anchors, bundle)


def conjugated_doubled_t_star():
    """`doubled_t_star` on SELF_DUAL conjugated to a dense basis (`reference.FORMS`).  In split form the E_0 dagger
    checks read k_0 = (U w*_0)_0 = 1; here k_0 != 1, so these pins fail if either check drops it: product_E0_Tdagger,
    which reads T alone, passes, and product_E0_Tstardagger fails."""
    return doubled_t_star("dense")


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


def _withhold_certificate(s, axiom: str) -> None:
    """The memoised axiom report of s replaced by one where axiom fails, and the certificate read off it again."""
    report = VerificationReport()
    for c in systems.verify_axioms(s).checks:
        report.add(c.name, c.passed and c.name != axiom, c.witness)
    s._memo["axioms"] = report
    s._memo.pop("certified", None)


def reversed_decompositions(withheld=None):
    """The memoised vectors of [0D], [0*D] and [D*0] in reverse order; then, with withheld, the certificate withheld
    on that axiom (`_withhold_certificate`)."""
    s, anchors, bundle = _setup(SELF_DUAL)
    for z, w in (("0", "D"), ("0*", "D"), ("D*", "0")):
        dec = du.build_decomposition(s, z, w)
        s._memo[("decomposition", z, w)] = du.Decomposition(z, w, dec.vectors[::-1])
    if withheld:
        _withhold_certificate(s, withheld)
    return _checks(du.verify_geometry_suite(s, bundle), du.verify_basis_family(s, anchors))


def uncertified_reversed_decompositions():
    """`reversed_decompositions` with the certificate withheld on standard_orderings: decompositions_induce_flags and
    bases_span_decomposition_components read the certificate alone, not the memoised vectors, so both fail with
    the withheld axiom as witness, and the geometry suite leaves out the checks that read the vectors."""
    return reversed_decompositions("standard_orderings")


def zero_flags():
    """The flags [0] and [D] memoised with a zero basis, and the certificate withheld on idempotents_E_rank_one, as no
    Leonard system has such flags: the flag checks read the certificate alone, not the flags, so each fails with
    the withheld axiom as witness."""
    s, _, _ = _setup(SELF_DUAL)
    _withhold_certificate(s, "idempotents_E_rank_one")
    for z in ("0", "D"):
        s._memo[("flag", z)] = du.Flag(z, Matrix.zeros(s.field, s.d + 1))
    return _checks(du.verify_geometry_suite(s))


def zero_basis():
    """The forward sequence behind tau-vstard (and tau-rev-vstard) memoised as not a basis."""
    s, anchors, _ = _setup(SELF_DUAL)
    s._memo[("is_basis", "tau", anchors.vds)] = False
    return _checks(du.verify_basis_family(s, anchors))


def unreversed_bases():
    """`duality.build_basis` with tau-rev-vstar0 and taustar-rev-v0 left unreversed: each is then compared with the
    reversal of its forward sequence, and so is that sequence with it."""
    s, anchors, _ = _setup(SELF_DUAL)
    build = du.build_basis
    with mock.patch.object(du, "build_basis", lambda sys, a, basis_id: build(
            sys, a, basis_id.replace("-rev", "") if basis_id in ("tau-rev-vstar0", "taustar-rev-v0") else basis_id)):
        return _checks(du.verify_basis_family(s, anchors))


def v0_on_vstar0():
    """The anchor v0 replaced by v*0: no eigencolumn of E, so the 24 bases leave the certificate to the rank, and
    every sequence on v0 is singular."""
    s, anchors, _ = _setup(SELF_DUAL)
    return _checks(du.verify_basis_family(s, dataclasses.replace(anchors, v0=anchors.v0s)))


def doubled_estar_d(array=SELF_DUAL):
    """A hand-built system with E*_d doubled: every tr(E_r E*_d) is off."""
    s, _, _ = _setup(array)
    Estar = s.Estar[:-1] + (s.Estar[-1].scale(s.field.from_int(2)),)
    return _checks(systems.standard_identity_suite(LeonardSystem(s.A, s.Astar, s.E, Estar, s.theta,
                                                                 s.theta_star, s.pa)))


def doubled_edge_trace():
    """The memoised tr(E_0 E*_0), which the sandwiches and the nu closed forms read, doubled."""
    s, _, _ = _setup(SELF_DUAL)
    traces = systems.trace_products(s, 0)[:2] + systems.trace_products(s, s.d)[:2]
    s._memo["traces"] = (traces[0] + traces[0], *traces[1:])
    return _checks(systems.standard_identity_suite(s))


def relative_extracted():
    """The memoised extracted array replaced by the relative D of the stored one."""
    s, _, _ = _setup(SELF_DUAL)
    s._memo["pa"] = d4_apply(s.pa, "D")
    return _checks(systems.standard_identity_suite(s))


def _rank_two(star):
    """A hand-built system with E_0 (resp. E*_0) replaced by E_0 + E_1, of rank two."""
    def mutation():
        s, _, _ = _setup(SELF_DUAL)
        E = list(s.Estar if star else s.E)
        E[0] += E[1]
        E, Estar = (s.E, E) if star else (E, s.Estar)
        return _checks(systems.standard_identity_suite(LeonardSystem(s.A, s.Astar, E, Estar, s.theta,
                                                                     s.theta_star, s.pa)))
    mutation.__name__ = f"E{'star' * star}0_of_rank_two"
    return mutation


def scaled_basis_vector():
    """The report of `matrix-of-t --basis tau-vstard` (`cli._matrix_of_t`) on the certified system with vector 1 of
    the memoised sequence behind tau-vstard doubled: B becomes B diag(1, 2, 1, 1), so M B == B X fails for each
    displayed X, B is inverted, and each entry of B^-1 M B in row or column 1 but (1, 1) is halved or doubled."""
    s, anchors, _ = _setup(SELF_DUAL)
    seq = du.build_basis(s, anchors, "tau-vstard")
    s._memo[("basis", "tau", anchors.vds)] = (seq[0], seq[1].scale(s.field.from_int(2)), *seq[2:])
    with mock.patch.object(cli, "certify", lambda pa: s):
        return _checks(cli._matrix_of_t(s.pa, argparse.Namespace(basis="tau-vstard"))[1])


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
        "bases_span_decomposition_components": {"error": "anchor v0 is not a multiple of the eigencolumn it names"},
        "A_representations_in_four_bases": {"basis": "taustar-vd"},
        "Astar_representations_in_four_bases": {"basis": "tau-vstard"},
        **{name: {"i": 0} for name in MIXED_TRANSITIONS},
    },
    reversed_decompositions: {
        "decomposition_inversion_pairs": {"pair": "[D*0]"},
        "decomposition_table_rows": {"i": 3, "row": "split"},
        "T_on_decompositions": {"pair": "[0D*]", "i": 3},
    },
    # tau-vstar0, taustar-rev-v0, taustar-v0 and tau-rev-vstar0 fail, in that order
    unreversed_bases: {"bases_inversion_pairing": {"basis": "tau-rev-vstar0"}},
    doubled_estar_d: {"trace_products_closed_form": {"r": 0}},
}
# the checks of `dualize` outside the sweeps whose verdict is the certificate alone (`systems.certified`)
CERTIFICATE_VERDICTS = ("flags_mutually_opposite", "decomposition_components_one_dimensional")
# the same for the sweep checks decided from premises, and for CERTIFICATE_VERDICTS (FROM_PREMISES)
DECIDED_PINS = {
    zero_basis: {"bases_invertible": {"basis": "tau-rev-vstard"}},  # the memoised verdict
    v0_on_vstar0: {"bases_invertible": {"basis": "estar-rev-v0"}},  # the rank, as the certificate does not apply
    # the certificate withheld: each check read off it fails with the withheld axiom as witness
    uncertified_reversed_decompositions: dict.fromkeys(
        ("decompositions_induce_flags", "bases_span_decomposition_components"), {"error": "standard_orderings fails"}),
    zero_flags: dict.fromkeys(("flag_component_dimensions", *CERTIFICATE_VERDICTS),
                              {"error": "idempotents_E_rank_one fails"}),
}

# Comparisons inside a sweep check that hold by construction once the decomposition certificate holds
# (`systems.certified`, without which the check does not run), with the reason; the check stays pinned above, and
# its other comparisons are a second route.
BY_CERTIFICATE = {
    "decomposition_table_rows": "rows 0, 1 and split: [0D], [0*D*] and [0*D] are the eigencolumns w_i, w*_i and "
                                "the first family tau_i(A) w*_0 of [0*D], normalized",
}

# Checks of `verify` decided from premises that run before them in the same report -> those premises, which
# `systems.premises` and `systems.certified` read off the memoised axiom report.  The Gram checks hold by
# construction once `solve_gram` returns; its premises are E of rank one, those of `systems.premises` on E and
# tridiagonal_Astar_in_A_eigenbasis, and a failed one fails the Gram checks with it as witness.  The sums hold
# by construction once U W = I with d+1 idempotents and eigenvalues, and the spectral checks then read
# M w_i = theta_i w_i; else the sums are formed densely.  The four F[M] checks on A (resp. A*) run once E (resp.
# E*) has d+1 members, is orthogonal and spectral and theta (resp. theta*) is distinct (`systems.premises`):
# char_product and subalgebra_three_bases then hold by construction (M = W diag(theta) U), and the two edge checks
# compare the array's gaps with eta_d(theta_0) and tau_d(theta_d); a failed premise fails the four with it as
# witness, and so does dagger_fixes_idempotents on E*.  The two split checks read Q P = I once `systems.certified`
# holds: every axiom, and d+1 values in theta and theta*; else the intersection route decides.  bases_invertible,
# a check of `bases`, holds once `systems.certified` holds, which `certify` checks before it, and the anchor is the
# eigencolumn it names; else each forward sequence is ranked.  Three sweep checks are decided from the same
# certificate (DECIDED_SWEEPS), and so are CERTIFICATE_VERDICTS: flag_component_dimensions, a check of `dualize`, as
# U W = I = U* W*; the flags mutually opposite, each component one-dimensional and decompositions_induce_flags, as
# each [zw] is then the normalized first family of its pair, whose vector i lies in [z]_i ∩ [w]_{d-i}; and
# bases_span_decomposition_components, a check of `bases`, once every anchor is also the eigencolumn it names, as
# each basis is then a family on an eigencolumn.  Else each fails with the failed premise as witness, pinned where it
# fails (mixed_anchors, uncertified_reversed_decompositions, zero_flags).  Premises that no check of the report
# states are named in STATED.  Each of these checks is decided by `tests/reference.py` without its premises.
AXIOM_CHECKS = SUITE_CHECKS[:11]  # the report of `verify_axioms`
STATED = ("theta distinct", "theta* distinct", "d+1 idempotents E", "d+1 idempotents E*", "d+1 theta and theta*",
          "anchor an eigencolumn")
CERTIFIED = (*AXIOM_CHECKS, "d+1 theta and theta*")  # `systems.certified`
SOLVE_GRAM_PREMISES = ("idempotents_E_rank_one", "d+1 idempotents E", "idempotents_E_orthogonal",
                       "idempotents_E_spectral", "theta distinct", "tridiagonal_Astar_in_A_eigenbasis")
F_M_PREMISES = {star: (f"d+1 idempotents E{'*' * star}", f"idempotents_E{'star' * star}_orthogonal",
                       f"idempotents_E{'star' * star}_spectral", f"theta{'*' * star} distinct")
                for star in (False, True)}
F_M_CHECKS = {star: tuple(name + "star" * star for name in ("edge_idempotent_E0", "edge_idempotent_Ed",
                                                             "char_product_A", "subalgebra_three_bases_A"))
              for star in (False, True)}
DECIDED_SWEEPS = {"flag_component_dimensions": CERTIFIED, "decompositions_induce_flags": CERTIFIED,
                  "bases_span_decomposition_components": (*CERTIFIED, "anchor an eigencolumn")}
FROM_PREMISES = {
    **dict.fromkeys(GRAM_CHECKS, SOLVE_GRAM_PREMISES),
    "dagger_fixes_idempotents": (*SOLVE_GRAM_PREMISES, *F_M_PREMISES[True]),
    **{f"idempotents_{label}_{sums}": (f"idempotents_{label}_orthogonal",)
       for label in ("E", "Estar") for sums in ("sum", "spectral")},
    **{name: F_M_PREMISES[star] for star, names in F_M_CHECKS.items() for name in names},
    **dict.fromkeys(("split_projectors_match_intersection", "split_projectors_resolution"), CERTIFIED),
    "bases_invertible": (*CERTIFIED, "anchor an eigencolumn"),
    **DECIDED_SWEEPS,
    **dict.fromkeys(CERTIFICATE_VERDICTS, CERTIFIED),
}

SWEEP_CHECKS = {
    "Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei", "anchor_projections", "anchor_ratio_squares",
    "T_on_anchor_vectors", "trace_products_closed_form", *TRANSITIONS, *MIXED_TRANSITIONS,
    *(f"T_on_family_{f}" for f in T_FAMILIES),
    "decomposition_inversion_pairs", "decomposition_table_rows", "T_maps_eigenspaces", "T_on_flags",
    "T_on_decompositions", "bases_inversion_pairing", "matrix_of_T_closed_form",
    "A_representations_in_four_bases", "Astar_representations_in_four_bases",
}


def test_every_sweep_check_is_pinned_or_listed():
    """Each sweep check is pinned in PINS, and so is each of DECIDED_SWEEPS under a mutation that fails its premise
    (mixed_anchors); each of DECIDED_SWEEPS and CERTIFICATE_VERDICTS is pinned with the certificate withheld in
    DECIDED_PINS."""
    pinned = {name for pins in PINS.values() for name in pins}
    assert pinned - SWEEP_CHECKS <= set(DECIDED_SWEEPS) and SWEEP_CHECKS <= pinned
    assert {*DECIDED_SWEEPS, *CERTIFICATE_VERDICTS} <= {name for pins in DECIDED_PINS.values() for name in pins}
    assert set(BY_CERTIFICATE) <= pinned


def test_every_decided_check_names_premises_that_run_first():
    """A premise of a check of `verify` comes before it in the report; one of a check of `bases` is an axiom,
    as `certify` runs first."""
    assert set(FROM_PREMISES) == {*GRAM_CHECKS, *F_M_CHECKS[False], *F_M_CHECKS[True],
                                  *(f"idempotents_{label}_{sums}" for label in ("E", "Estar")
                                    for sums in ("sum", "spectral")),
                                  "split_projectors_match_intersection", "split_projectors_resolution",
                                  "bases_invertible", *DECIDED_SWEEPS, *CERTIFICATE_VERDICTS}
    assert not set(FROM_PREMISES) & SWEEP_CHECKS
    for name, premises in FROM_PREMISES.items():
        checked = [p for p in premises if p not in STATED]
        if name in SUITE_CHECKS:
            assert all(SUITE_CHECKS.index(p) < SUITE_CHECKS.index(name) for p in checked), name
        else:
            assert set(checked) <= set(AXIOM_CHECKS), name


def test_certified_comparisons_compare_a_sequence_with_itself():
    """On the certified system each decomposition is the normalized first family of its pair, and the rows of
    `decomposition_table_rows` read the very vectors they are compared with (BY_CERTIFICATE)."""
    s, anchors, _ = _setup(SELF_DUAL)
    for (z, w), (first, _) in du.BASIS_MEMBERSHIP.items():
        vectors = du.build_decomposition(s, z, w).vectors
        assert vectors == tuple(v.normalized() for v in du.build_basis(s, anchors, first)), (z, w)
    splits = s.root_family("tau", False, s.eigencolumn(0, star=True))
    for (z, w), seq in ((("0", "D"), s.eigenbasis()[0].columns()), (("0*", "D*"), s.eigenbasis(True)[0].columns()),
                        (("0*", "D"), splits)):
        assert du.build_decomposition(s, z, w).vectors == tuple(v.normalized() for v in seq)


def test_unmutated_system_passes_every_sweep_check():
    s, anchors, bundle = _setup(SELF_DUAL)
    checks = {**_t_suites(s, anchors, bundle), **_anchor_suites(s, anchors, bundle),
              **_checks(systems.standard_identity_suite(s))}
    assert SWEEP_CHECKS <= checks.keys()
    assert all(checks[name] == (True, None) for name in SWEEP_CHECKS)


@pytest.mark.parametrize("mutation", {**PINS, **DECIDED_PINS}, ids=lambda m: m.__name__)
def test_witness_pinned(mutation):
    checks, pins = mutation(), {**PINS, **DECIDED_PINS}[mutation]
    assert {name: checks[name] for name in pins} == {name: (False, witness) for name, witness in pins.items()}


def _emitted_checks() -> dict:
    """verb -> the checks that the CLI reports for it on SELF_DUAL, in report order (`cli._RUNS`)."""
    pa, args = ParameterArray.from_json(SELF_DUAL), argparse.Namespace(require_self_dual=False, basis="tau-vstard")
    return {verb: tuple(c.name for c in cli._RUNS[verb](pa, args)[1].checks)
            for verb in ("verify", "dualize", "bases", "matrix-of-t")}


EMITTED_CHECKS = _emitted_checks()
DUALIZE_CHECKS = EMITTED_CHECKS["dualize"]
VERDICT_CHECKS = set().union(*EMITTED_CHECKS.values()) - SWEEP_CHECKS - set(DECIDED_SWEEPS)


def test_every_emitted_check_is_decided_by_the_reference_or_runs_the_same_code():
    """Each check of `verify`, `dualize`, `bases` and `matrix-of-t` is decided by `tests/reference.py` or listed there
    as computed by the same code on both routes, in the verb's order, and every check decided from premises or by
    certificate is decided there: a check newly decided from premises fails this test until the reference decides
    it."""
    assert {verb: [name for name in reference.VERBS[verb] if name in names] for verb, names in EMITTED_CHECKS.items()} \
        == {verb: list(names) for verb, names in EMITTED_CHECKS.items()}
    assert set().union(*EMITTED_CHECKS.values()) == reference.DECIDED | reference.SAME_CODE
    assert not reference.DECIDED & reference.SAME_CODE
    assert set(FROM_PREMISES) | set(BY_CERTIFICATE) <= reference.DECIDED


# Checks of `dualize` decided from premises -> those premises.  Once `systems.certified` holds, so U W = I = U* W*,
# T's identities are read off its eigen-coordinates W*^-1 T W and W^-1 T W* in the eigenbasis of A: T = T*, T^2,
# the product formulas, and U T W and U T* W, which the dagger checks read with the weights of `solve_gram`
# (`duality.verify_duality_suite`).  T_on_flags holds once T maps the eigenspaces and every flag has d+1 independent
# vectors, and T_on_decompositions once T maps the flags and the decompositions are their inversion pairs and
# induce them; else each flag component is ranked and T x is formed.  FROM_PREMISES leaves out the sweep checks, and
# T_maps_eigenspaces comes after the T^2 checks in the merged report, so these are mapped apart; the axioms run in
# `certify`, before `dualize`.  `tests/reference.py` decides each densely.
DUALIZE_FROM_PREMISES = {
    **dict.fromkeys((*reference.DAGGER_CHECKS, *reference.T_COORDINATE_CHECKS), AXIOM_CHECKS),
    "T_on_flags": ("T_maps_eigenspaces", "flag_component_dimensions"),
    "T_on_decompositions": ("T_on_flags", "decomposition_inversion_pairs", "decompositions_induce_flags"),
}


def test_every_decided_dualize_check_names_premises_that_dualize_or_certify_checks():
    assert set(DUALIZE_FROM_PREMISES) <= set(DUALIZE_CHECKS) & reference.DECIDED
    for name, premises in DUALIZE_FROM_PREMISES.items():
        assert set(premises) <= {*DUALIZE_CHECKS, *AXIOM_CHECKS} - {name}, name


def _negative_control():
    s, _, bundle = _setup(NON_SELF_DUAL)
    return s, bundle


def _t_is_a():
    s, _, bundle = _setup(SELF_DUAL)
    return s, dataclasses.replace(bundle, t=s.A)


def _estar_d_doubled():
    s = reference.hand_built(reference.Q, 3)["Estar_d doubled"]
    return s, du.DualityBundle(du.duality_operator(s), *[s.field.one()] * 5)


# case -> (its system and bundle, whether T x is formed for each vector of the decompositions, as T_on_flags fails)
FAILED_PREMISES = {
    "negative-control": (_negative_control, True),  # theta* != theta: T maps no eigenspace
    "wrong-t": (_t_is_a, True),  # T replaced by A, as in `wrong_t`
    "Estar_d-doubled": (_estar_d_doubled, False),  # hand-built: U* W* != I, so the certificate fails
}


@pytest.mark.parametrize("case", FAILED_PREMISES)
def test_a_failed_dualize_premise_forms_no_dense_t_product(case, monkeypatch):
    """Where T maps no eigenspace, or the certificate fails, each check of DUALIZE_FROM_PREMISES that `dualize`
    reports has the verdict and witness of the dense reference, and so do all the others (`reference.assert_agrees`).
    No T T, (U T) W, U T* W or dense T* is formed: T is an operand of the four products of A_T_equals_T_Astar and
    Astar_T_equals_T_A, of W*^-1 T and W^-1 T, from which its eigen-coordinates are built once the certificate
    holds, and of T x once per vector of the decompositions where T does not map the flags; T* is summed only in
    the eigenbasis of A (`duality._in_eigenbasis`)."""
    build, maps_vectors = FAILED_PREMISES[case]
    s, bundle = build()
    t, pairs, summed = bundle.t, [], []
    mul, operator = Matrix.__mul__, du.duality_operator
    with monkeypatch.context() as patched:
        patched.setattr(Matrix, "__mul__", lambda self, other: pairs.append((self, other)) or mul(self, other))
        patched.setattr(du, "duality_operator", lambda sys, star=False: summed.append(sys) or operator(sys, star))
        checks = _checks(du.verify_duality_suite(s, bundle), du.verify_geometry_suite(s, bundle))
    operands = [type(y) for x, y in pairs if x is t or y is t]
    vectors = 6 * (s.d - 1) + 4 if maps_vectors else 0  # those of the decompositions, as in tests/test_t_route.py
    assert (operands.count(Matrix), operands.count(Vector)) == (4 + 2 * systems.certified(s), vectors)
    assert s not in summed
    got = reference.assert_agrees(s, ("dualize",), bundle)["dualize"]
    reported = DUALIZE_FROM_PREMISES.keys() & checks.keys()
    assert reported == DUALIZE_FROM_PREMISES.keys() & got.keys() and (case == "Estar_d-doubled") == (
        "T_on_flags" not in reported)
    assert {name: checks[name] for name in reported} == {name: got[name] for name in reported}


# mutation -> the emitted checks outside SWEEP_CHECKS that fail, each with no witness: T = A breaks every identity
# of T but those of A's own shape (A^dagger = A) and of T* alone; 2 T* breaks those of T*, in split form and in a
# dense basis; mixed anchors break the product of the four mixed inner products, in which scaling one anchor cancels
DOUBLED_T_STAR = {"T_star_dagger_displayed_sum", "T_equals_T_star", "T_equals_T_star_dagger", "product_Tstar_E0",
                  "product_E0_Tstardagger", "product_Tstar_E0star", "product_E0star_Tstardagger"}
VERDICT_PINS = {
    wrong_t: {"T_polynomial_form", "T_dagger_displayed_sum", "T_equals_T_star", "T_equals_T_star_dagger",
              "T_squared_equals_lambda_identity", "A_T_equals_T_Astar", "Astar_T_equals_T_A", "product_T_E0star",
              "product_E0star_Tdagger", "product_T_E0", "product_E0_Tdagger", "T_squared_expansion"},
    doubled_t_star: DOUBLED_T_STAR,
    conjugated_doubled_t_star: DOUBLED_T_STAR,
    mixed_anchors: {"anchor_ratio_product"},
}


@pytest.mark.parametrize("mutation", VERDICT_PINS, ids=lambda m: m.__name__)
def test_verdict_pinned(mutation):
    checks = mutation()
    failing = {name for name in VERDICT_CHECKS & checks.keys() if not checks[name][0]}
    assert failing == VERDICT_PINS[mutation]
    assert all(checks[name] == (False, None) for name in failing)


NU_WITNESS = {"scalars": dict.fromkeys(("nu", "nu_down", "nu_ddown", "nu_down_ddown"), "8/1")}


def _rank_two_pins(star) -> dict:
    """The failing checks of `verify` with E_0 (resp. E*_0) of rank two: that family does not factor, so the round
    trip (the extraction reads theta and theta* off both factorizations), each check that reads the family as a
    basis and each that reads a trace tr(E_0 E*_j) or tr(E*_0 E_j) fails naming E_0, and the F[M] checks (and, on E*,
    the dagger check) naming the failed orthogonality; the sums are formed densely and fail."""
    label, name = ("Estar", "E*") if star else ("E", "E")
    rank = {"error": f"idempotent {name}_0 is not of rank one"}
    orthogonal = {"error": f"idempotents_{label}_orthogonal fails"}
    return {
        ("tridiagonal_A_in_Astar_eigenbasis" if star else "tridiagonal_Astar_in_A_eigenbasis"): rank,
        "standard_orderings": None, f"idempotents_{label}_orthogonal": rank, f"idempotents_{label}_sum": None,
        f"idempotents_{label}_spectral": None, f"idempotents_{label}_rank_one": {"ranks": [2, 1, 1, 1]},
        **dict.fromkeys(F_M_CHECKS[star], orthogonal),
        **dict.fromkeys(("round_trip_parameter_array", "nu_sandwich_E0", "nu_sandwich_E0star",
                         "trace_products_closed_form", "nu_closed_forms_match_traces",
                         "split_projectors_match_intersection", "split_projectors_resolution", "split_pairing_delta"),
                        rank),
        **({"dagger_fixes_idempotents": orthogonal} if star else dict.fromkeys(GRAM_CHECKS, rank)),
    }


# mutation -> {check: its witness}: the checks of the one report it returns that fail, all of them
REPORT_PINS = {
    doubled_edge_trace: {"nu_sandwich_E0": None, "nu_sandwich_E0star": None,
                         "nu_closed_forms_match_traces": NU_WITNESS},
    relative_extracted: {"round_trip_parameter_array": None},
    _rank_two(False): _rank_two_pins(False),
    _rank_two(True): _rank_two_pins(True),
    scaled_basis_vector: dict.fromkeys(EMITTED_CHECKS["matrix-of-t"]),
}


@pytest.mark.parametrize("mutation", REPORT_PINS, ids=lambda m: m.__name__)
def test_report_pinned(mutation):
    checks = mutation()
    assert {name: check for name, check in checks.items() if not check[0]} == {
        name: (False, witness) for name, witness in REPORT_PINS[mutation].items()}


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


def _raised_inverse_entry(star: bool, i: int, j: int, recertified: bool = True) -> dict:
    """Every memoised change of basis W^-1 X W_b (resp. W*^-1 X W_b) replaced, before any flag is built, by the one
    read off W^-1 (W*^-1), which is U (U*) on the certified build, with entry (i, j) raised by 1: X each of I, A, A*
    and T and W_b each eigenbasis, W^-1 W alone kept as I (`systems.change_of_basis`).  When recertified, the
    memoised axiom report that `certify` read off them and the certificate read off that report are dropped, so
    they are read again; else both are kept from the certified build."""
    s, _, bundle = _setup(SELF_DUAL)
    assert not any(key[0] == "flag" for key in s._memo)
    inverse, eye = _raised(s.eigenbasis(star)[1], i, j), Matrix.identity(s.field, s.d + 1)
    for X, M in ((None, eye), ("A", s.A), ("Astar", s.Astar), (bundle.t, bundle.t)):
        for b in (False, True):
            if X is not None or b != star:
                s._memo[("change_of_basis", star, X, b)] = inverse * M * s.eigenbasis(b)[0]
    for key in ("axioms", "certified") if recertified else ():
        del s._memo[key]
    return _checks(systems.standard_identity_suite(s), du.verify_geometry_suite(s, bundle))


# (star, i, j[, recertified]) -> {check name: its witness}, over the checks that read W^-1 or W*^-1 through a memoised
# change of basis: a tridiagonal axiom reads W^-1 A* W (W*^-1 A W*), and the flag checks read the certificate off that
# axiom; the split lines, left to the intersection route once the certificate fails, read W*^-1 W; with the
# certificate kept, T in the eigenbases reads W*^-1 T W
INVERSE_PINS = {
    (True, 2, 1): {
        "tridiagonal_A_in_Astar_eigenbasis": None,
        "split_projectors_match_intersection": None,
        **dict.fromkeys(reference.CERTIFICATE_GEOMETRY, {"error": "tridiagonal_A_in_Astar_eigenbasis fails"}),
    },
    (False, 3, 0): {
        "tridiagonal_Astar_in_A_eigenbasis": None,
        **dict.fromkeys(reference.CERTIFICATE_GEOMETRY, {"error": "tridiagonal_Astar_in_A_eigenbasis fails"}),
    },
    (True, 2, 1, False): {
        "T_maps_eigenspaces": {"i": 3, "side": "E"},
        "T_on_flags": {"flag": "D", "i": 0},
    },
}
INVERSE_READERS = {"tridiagonal_Astar_in_A_eigenbasis", "tridiagonal_A_in_Astar_eigenbasis",
                   "split_projectors_match_intersection", *reference.CERTIFICATE_GEOMETRY, "T_maps_eigenspaces",
                   "T_on_flags"}


@pytest.mark.parametrize("entry", INVERSE_PINS, ids=lambda e: f"{'Wstar' if e[0] else 'W'}-inverse-{e[1]}{e[2]}" + (
    "-certificate-kept" if e[3:] == (False,) else ""))
def test_eigenbasis_inverse_readers_fail_with_pinned_witness(entry):
    """Each check that reads W^-1 or W*^-1 through a memoised change of basis (the tridiagonal axioms, the split lines,
    the flag checks through the certificate, and T in the eigenbases) fails when one entry of it is wrong; among
    them, only the pinned ones.  Where the axioms are read again, the certificate fails, and the geometry suite ends
    before T."""
    checks = _raised_inverse_entry(*entry)
    assert {name for name in INVERSE_READERS & checks.keys() if not checks[name][0]} == set(INVERSE_PINS[entry])
    assert {name: checks[name] for name in INVERSE_PINS[entry]} == {
        name: (False, witness) for name, witness in INVERSE_PINS[entry].items()}


def test_every_eigenbasis_inverse_reader_is_pinned():
    assert set().union(*INVERSE_PINS.values()) == INVERSE_READERS


def _mutated_memo(key, mutation) -> dict:
    """A new build of SELF_DUAL whose memoised key is mutated before any reader runs: a U W witness
    is replaced by mutation, or a change of basis has entry mutation = (i, j) raised by 1.  T is the certified
    system's, as no change of basis enters it.  The duality suite, which needs the premises of `solve_gram`, runs
    only on a mutated change of basis that it reads: W_a^-1 T W_b, K = U W* or K* = U* W."""
    _, _, bundle = _setup(SELF_DUAL)
    s = systems.build_system(ParameterArray.from_json(SELF_DUAL))
    if key[0] == "UW_witness":
        s._memo[key] = mutation
    else:
        s._memo[key] = _raised(systems.change_of_basis(s, *key[1:]), *mutation)
    reports = [systems.standard_identity_suite(s), du.verify_geometry_suite(s, bundle)]
    if T in key or None in key:
        reports.append(du.verify_duality_suite(s, bundle))
    return _checks(*reports)


T = _setup(SELF_DUAL)[2].t  # in the memo keys of W*^-1 T W and W^-1 T W*
# memo key -> (mutation, {check name: its witness}); the pinned checks are the only ones that fail
MEMO_PINS = {
    # U W of E: the orthogonality axiom, a premise of the F[M] checks on A, of the Gram solver and of the certificate,
    # from which the flag checks are read
    ("UW_witness", False): ({"i": 1, "j": 2}, {
        "idempotents_E_orthogonal": {"i": 1, "j": 2},
        **dict.fromkeys((*F_M_CHECKS[False], *GRAM_CHECKS, *reference.CERTIFICATE_GEOMETRY),
                        {"error": "idempotents_E_orthogonal fails"})}),
    ("UW_witness", True): ({"i": 2, "j": 0}, {
        "idempotents_Estar_orthogonal": {"i": 2, "j": 0},
        **dict.fromkeys((*F_M_CHECKS[True], "dagger_fixes_idempotents", *reference.CERTIFICATE_GEOMETRY),
                        {"error": "idempotents_Estar_orthogonal fails"})}),
    # U A* W: the tridiagonal axiom, and B of the Gram solver, whose premise it fails, as it fails the certificate
    ("change_of_basis", False, "Astar", False): ((0, 2), {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None,
        **dict.fromkeys(GRAM_CHECKS, {"error": "U A* W is not irreducible tridiagonal"}),
        **dict.fromkeys(reference.CERTIFICATE_GEOMETRY, {"error": "tridiagonal_Astar_in_A_eigenbasis fails"})}),
    ("change_of_basis", True, "A", True): ((0, 2), {
        "tridiagonal_A_in_Astar_eigenbasis": None, "standard_orderings": None,
        **dict.fromkeys(reference.CERTIFICATE_GEOMETRY, {"error": "tridiagonal_A_in_Astar_eigenbasis fails"})}),
    # T in the eigenbases: C = W*^-1 T W (T on [0] and [D] and on each w_i, E*_i T = T E_i, and U T W = K C, which
    # T = T*, the daggers on T and T^2 = W C* C U read) and C* = W^-1 T W* (its column 1 is read by T^2 alone of the
    # duality suite)
    ("change_of_basis", True, T, False): ((0, 1), {
        "T_maps_eigenspaces": {"i": 1, "side": "E"},
        "T_on_flags": {"flag": "D", "i": 2},
        "Estar_i_T_equals_T_Ei": {"i": 0},
        **dict.fromkeys(("T_dagger_displayed_sum", "T_equals_T_star", "T_equals_T_dagger", "T_equals_T_star_dagger",
                         "T_squared_equals_lambda_identity", "product_E0star_Tdagger", "T_squared_expansion"))}),
    ("change_of_basis", False, T, True): ((0, 1), {
        "T_maps_eigenspaces": {"i": 1, "side": "Estar"},
        "T_on_flags": {"flag": "D*", "i": 2},
        "Ei_T_equals_T_Estar_i": {"i": 0},
        **dict.fromkeys(("T_squared_equals_lambda_identity", "T_squared_expansion"))}),
    # K = U W* and K* = U* W, the factors of E* in the eigenbasis of A (`duality._in_eigenbasis`): U T W = K C, U T* W
    # and the displayed dagger sums are summed on them, and the product formulas read k = K e_0, K_00 and K*_00
    ("change_of_basis", False, None, True): ((1, 0), dict.fromkeys((
        "T_dagger_displayed_sum", "T_equals_T_star", "T_equals_T_dagger", "T_equals_T_star_dagger", "product_Tstar_E0",
        "product_E0star_Tdagger", "product_Tstar_E0star", "product_E0_Tdagger"))),
    ("change_of_basis", True, None, False): ((0, 0), dict.fromkeys((
        "T_dagger_displayed_sum", "product_Tstar_E0", "product_E0star_Tdagger", "product_E0_Tstardagger",
        "product_T_E0", "product_E0_Tdagger", "product_E0star_Tstardagger"))),
}


@pytest.mark.parametrize("key", MEMO_PINS, ids=lambda key: "-".join("T" if k is T else str(k) for k in key))
def test_memo_readers_fail_with_pinned_witness(key):
    mutation, pins = MEMO_PINS[key]
    checks = _mutated_memo(key, mutation)
    assert {name for name, (passed, _) in checks.items() if not passed} == set(pins)
    assert {name: checks[name] for name in pins} == {name: (False, witness) for name, witness in pins.items()}


def test_gram_premise_reads_the_memo():
    """A wrong verdict in the memoised axiom report, idempotents_E_spectral (U A W = diag(theta) once U W = I), fails
    the premises of `solve_gram` and of the F[M] checks on A, read off that report (`systems.premises`): those
    eleven checks fail with it as witness, and the verdict is copied into the report.  The certificate fails with
    it, and the split checks, left to the intersection route, pass."""
    s = systems.build_system(ParameterArray.from_json(SELF_DUAL))
    _withhold_certificate(s, "idempotents_E_spectral")
    checks = _checks(systems.standard_identity_suite(s))
    assert not systems.certified(s)
    assert {name: check for name, check in checks.items() if not check[0]} == {
        "idempotents_E_spectral": (False, None),
        **dict.fromkeys((*F_M_CHECKS[False], *GRAM_CHECKS), (False, {"error": "idempotents_E_spectral fails"}))}


def test_every_memo_entry_is_mutated():
    """The U W witnesses and changes of basis that the suites memoise are exactly those mutated above."""
    s, anchors, bundle = _setup(SELF_DUAL)
    _t_suites(s, anchors, bundle)
    _anchor_suites(s, anchors, bundle)
    systems.standard_identity_suite(s)
    memoised = {key for key in s._memo if key[0] in ("UW_witness", "change_of_basis")}
    assert memoised == set(MEMO_PINS)


# the checks of `dualize` that read the memoised Gram weights m, through T^dagger and T*^dagger
DAGGER_READERS = ("T_dagger_displayed_sum", "T_star_dagger_displayed_sum", "T_equals_T_dagger",
                  "T_equals_T_star_dagger", "product_E0star_Tdagger", "product_E0_Tstardagger", "product_E0_Tdagger",
                  "product_E0star_Tstardagger")

# mutation of the memoised Gram weights -> (its memo key, the mutation, the checks that fail, all of them among
# DAGGER_READERS); "gram_weights" holds the weights m from `solve_gram`, the one form of G in the package
GRAM_PINS = {
    # G = U^T diag(m) U with m_1 doubled: symmetric, and still A^T G = G A, but not A*^T G = G A*
    "m1-doubled": ("gram_weights", lambda m0, m1, *rest: (m0, m1 + m1, *rest), set(DAGGER_READERS)),
}


@pytest.mark.parametrize("array", [SELF_DUAL, SELF_DUAL_GFP], ids=["Q", "GF(2^31-1)"])
@pytest.mark.parametrize("mutation", GRAM_PINS)
def test_gram_block_fails_under_a_wrong_gram_entry(array, mutation):
    """The reports of `verify` and `dualize` on a new build whose memoised Gram weights m are mutated before any
    reader runs.  `verify` decides its Gram block from the premises of `solve_gram`, so it passes; the `dualize`
    checks that read T^dagger and T*^dagger off m (X^dagger = Y exactly when X^T D = D Y^ in the eigenbasis of A,
    D = diag(m)) fail, all of them."""
    key, mutate, failing = GRAM_PINS[mutation]
    _, _, bundle = _setup(array)
    s = systems.build_system(ParameterArray.from_json(array))
    s._memo[key] = mutate(*systems.solve_gram(s))
    checks = _checks(systems.standard_identity_suite(s), du.verify_duality_suite(s, bundle))
    assert {name for name, (passed, _) in checks.items() if not passed} == failing


def _set(M: Matrix, i: int, j: int, x) -> Matrix:
    """M with entry (i, j) replaced by x."""
    rows = [list(row) for row in M.rows]
    rows[i][j] = x
    return Matrix(M.field, rows)


def _mixed_eigenbasis(star):
    """(W K, K^-1 U) for the eigenbasis (W, U) of E (resp. E*) and K = I + e_0 e_1^T: still U W = I, but column 1
    is w_0 + w_1, no eigenvector.  A split-form system stores its eigenbasis, so its family is now the one formed
    from these factors: E_0 = w_0 (u_0 - u_1)^T and E_1 = (w_0 + w_1) u_1^T."""
    def mutate(s):
        (W, U), K = s.eigenbasis(star), _raised(Matrix.identity(s.field, s.d + 1), 0, 1)
        s._memo[("eigenbasis", star)] = (W * K, K.inverse() * U)
    return mutate


def _reducible_b(s):
    """U A* W with its entry (1, 0) set to 0: tridiagonal, but not irreducible."""
    s._memo[("change_of_basis", False, "Astar", False)] = _set(
        systems.change_of_basis(s, False, "Astar", False), 1, 0, s.field.zero())


B_ERROR = "U A* W is not irreducible tridiagonal"
# tr(E_0 E*_0) = (u_0 . w*_0)(u*_0 . w_0) read off mixed factors: u_0 - u_1 in place of u_0 (u*_0 - u*_1 in place
# of u*_0), and (U W*)_10 != 0, so the trace closed forms and the sandwiches fail (NU_WITNESS in the array's field)
MIXED_TRACES = {"nu_sandwich_E0": None, "nu_sandwich_E0star": None, "trace_products_closed_form": {"r": 0},
                "nu_closed_forms_match_traces": NU_WITNESS}
# a premise's memo entry, mutated -> {check of `verify`: its witness}; the pinned checks are the only ones that fail
PREMISE_PINS = {
    "B-reducible": (_reducible_b, {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None,
        **dict.fromkeys(GRAM_CHECKS, {"error": B_ERROR})}),
    # U A W = diag(theta) fails at (0, 1): the E spectral check, the premise of the F[M] checks on A and of
    # solve_gram
    "W-mixed": (_mixed_eigenbasis(False), {
        "tridiagonal_Astar_in_A_eigenbasis": None, "standard_orderings": None, "idempotents_E_spectral": None,
        **dict.fromkeys((*F_M_CHECKS[False], *GRAM_CHECKS), {"error": "idempotents_E_spectral fails"}),
        **dict.fromkeys(("split_projectors_match_intersection", "split_projectors_resolution"),
                        {"error": "split component is not one-dimensional"}), **MIXED_TRACES}),
    # E* is orthogonal but not spectral on its factors: the premise of the F[M] checks on A* and of the dagger check
    "Wstar-mixed": (_mixed_eigenbasis(True), {
        "tridiagonal_A_in_Astar_eigenbasis": None, "standard_orderings": None, "idempotents_Estar_spectral": None,
        **dict.fromkeys((*F_M_CHECKS[True], "dagger_fixes_idempotents"), {"error": "idempotents_Estar_spectral fails"}),
        "split_projectors_match_intersection": None, "split_projectors_resolution": None,
        "split_pairing_delta": {"i": 0, "j": 1}, **MIXED_TRACES}),
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
    nu = {"scalars": dict.fromkeys(NU_WITNESS["scalars"], s.field.encode_scalar(s.field.from_int(8)))}
    assert {name: (passed, witness) for name, (passed, witness) in checks.items() if not passed} == {
        name: (False, nu if witness is NU_WITNESS else witness) for name, witness in pins.items()}


def test_every_decided_check_fails_under_a_premise_mutation():
    """Each decided check but the two sums, which are W U = I whenever U W = I, fails under a mutation above."""
    failing = {name for _, pins in PREMISE_PINS.values() for name in pins}
    failing |= {name for pins in DECIDED_PINS.values() for name in pins}
    assert set(FROM_PREMISES) - failing == {"idempotents_E_sum", "idempotents_Estar_sum"}


def test_every_dualize_check_fails_under_a_mutation():
    """Each check that the CLI reports, the 29 of `dualize` and those of `verify`, `bases` and `matrix-of-t`, fails
    under a library-level mutation pinned in this file."""
    failing = {name for table in (PINS, DECIDED_PINS, VERDICT_PINS, REPORT_PINS, INVERSE_PINS)
               for pins in table.values() for name in pins}
    failing |= {name for _, pins in (*MEMO_PINS.values(), *PREMISE_PINS.values()) for name in pins}
    failing |= {name for _, _, pins in GRAM_PINS.values() for name in pins}
    assert {verb: len(names) for verb, names in EMITTED_CHECKS.items()} == {
        "verify": 34, "dualize": 29, "bases": 18, "matrix-of-t": 3}
    for verb, names in EMITTED_CHECKS.items():
        assert set(names) - failing == set(), verb
