"""Acceptance gate: every criterion at exact (zero-tolerance) equality.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  The
corpus comes from conftest: the searched part follows the prescribed recipe
(exhaustive GF(7) at d = 1, 2; seeded random rationals at d = 1..6) and the
frozen part supplies oracle-certified high-diameter instances.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import prod

import pytest

from leonard import duality as du
from leonard.cli import main as cli_main
from leonard.fields import Field, PrimeFieldElement
from leonard.linalg import Matrix
from leonard.systems import (
    certify,
    d4_apply,
    d4_orbit,
    extract_parameter_array,
    nu_scalars,
    standard_identity_suite,
)


def _result(number: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {title}: {status}{suffix}")
    assert ok, f"criterion {number} ({title}) failed {suffix}"


@pytest.fixture(scope="module")
def verified(corpus):
    """Per-system suite reports, computed once."""
    out = []
    for pa in corpus.arrays:
        sys_ = corpus.system(pa)
        anchors = du.choose_anchor_vectors(sys_)
        bundle = du.build_duality_bundle(sys_, anchors)
        self_dual = du.is_self_dual(pa)
        du.build_24_bases(sys_, anchors)
        entry = {
            "pa": pa,
            "sys": sys_,
            "anchors": anchors,
            "bundle": bundle,
            "self_dual": self_dual,
            "standard": standard_identity_suite(sys_),
            "duality": du.verify_duality_suite(sys_, bundle),
            "geometry": du.verify_geometry_suite(sys_, bundle if self_dual else None),
            "anchor_rels": du.verify_anchor_relations(sys_, anchors),
            "basis_family": du.verify_basis_family(sys_, anchors),
            "transitions": du.verify_transition_relations(sys_, anchors),
        }
        if self_dual:
            entry["t_on_bases"] = du.verify_T_on_bases(sys_, bundle, anchors)
            entry["matrix_of_t"] = du.verify_matrix_of_T(sys_, bundle, anchors)
        out.append(entry)
    return out


def test_criterion_1_corpus(corpus):
    total = len(corpus.searched)
    self_dual = sum(1 for pa in corpus.searched if du.is_self_dual(pa))
    ok = (
        total >= 25
        and self_dual >= 10
        and corpus.random_d_run == {1, 2, 3, 4, 5, 6}
        and corpus.elapsed < 60.0
    )
    _result(
        1,
        "corpus generation",
        ok,
        f"{total} certified ({self_dual} self-dual) in {corpus.elapsed:.1f}s",
    )


AXIOM_CHECKS = (
    "tridiagonal_Astar_in_A_eigenbasis",
    "tridiagonal_A_in_Astar_eigenbasis",
    "standard_orderings",
    "idempotents_E_orthogonal",
    "idempotents_E_sum",
    "idempotents_E_spectral",
    "idempotents_E_rank_one",
    "idempotents_Estar_orthogonal",
    "idempotents_Estar_sum",
    "idempotents_Estar_spectral",
    "idempotents_Estar_rank_one",
    "edge_idempotent_E0",
    "edge_idempotent_Ed",
    "edge_idempotent_E0star",
    "edge_idempotent_Edstar",
    "char_product_A",
    "char_product_Astar",
    "subalgebra_three_bases_A",
    "subalgebra_three_bases_Astar",
    "nu_sandwich_E0",
    "nu_sandwich_E0star",
    "split_pairing_delta",
)


def _all_pass(entries, report_key, names):
    for entry in entries:
        report = entry[report_key]
        for name in names:
            if not report[name].passed:
                return False, f"{name} on d={entry['pa'].d}"
    return True, ""


def test_criterion_2_axiom_suite(verified):
    ok, detail = _all_pass(verified, "standard", AXIOM_CHECKS)
    _result(2, "axiom suite", ok, detail or f"{len(verified)} systems")


def test_criterion_3_trace_suite(verified):
    ok, detail = _all_pass(
        verified, "standard", ("trace_products_closed_form", "nu_closed_forms_match_traces")
    )
    if ok:
        # defining relation applied to each rebuilt relative, on small systems
        for entry in verified:
            pa = entry["pa"]
            if pa.d > 3:
                continue
            for word in ("", "d", "D", "dD"):
                rel = d4_apply(pa, word)
                rel_sys = certify(rel)
                lhs = nu_scalars(rel)[0] * (rel_sys.E[0] * rel_sys.Estar[0]).trace()
                if lhs != pa.field.one():
                    ok, detail = False, f"defnu on relative {word or 'e'}"
                    break
            if not ok:
                break
    _result(3, "trace suite", ok, detail)


def test_criterion_4_split_suite(verified):
    ok, detail = _all_pass(
        verified,
        "standard",
        (
            "split_projectors_match_intersection",
            "split_projectors_resolution",
            "round_trip_parameter_array",
        ),
    )
    if ok:
        rng = random.Random(20250810)
        for entry in verified:
            pa, sys_ = entry["pa"], entry["sys"]
            n = pa.d + 1
            for _ in range(5):
                while True:
                    if pa.field.is_rational:
                        K = Matrix(
                            pa.field,
                            [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)],
                        )
                    else:
                        K = Matrix(
                            pa.field,
                            [[PrimeFieldElement(pa.field.p, rng.randrange(pa.field.p))
                              for _ in range(n)] for _ in range(n)],
                        )
                    if K.rank() == n:
                        break
                if extract_parameter_array(sys_.conjugated(K)) != pa:
                    ok, detail = False, f"conjugation invariance d={pa.d}"
                    break
            if not ok:
                break
    _result(4, "split suite", ok, detail)


def test_criterion_5_d4_suite(corpus):
    ok, detail = True, ""
    for pa in corpus.arrays:
        rel1 = (
            d4_apply(pa, "**") == pa
            and d4_apply(pa, "dd") == pa
            and d4_apply(pa, "DD") == pa
        )
        rel2 = (
            d4_apply(pa, "D*") == d4_apply(pa, "*d")
            and d4_apply(pa, "d*") == d4_apply(pa, "*D")
            and d4_apply(pa, "dD") == d4_apply(pa, "Dd")
        )
        orbit = d4_orbit(pa)
        distinct = len({json.dumps(rel.to_json(), sort_keys=True) for rel in orbit.values()})
        if not (rel1 and rel2 and 8 % distinct == 0):
            ok, detail = False, f"d={pa.d}"
            break
    _result(5, "D4 suite", ok, detail)


DUALITY_CHECKS = (
    "T_squared_equals_lambda_identity",
    "A_T_equals_T_Astar",
    "Astar_T_equals_T_A",
    "Ei_T_equals_T_Estar_i",
    "Estar_i_T_equals_T_Ei",
    "T_equals_T_star",
    "T_equals_T_dagger",
    "T_equals_T_star_dagger",
    "product_T_E0star",
    "product_Tstar_E0",
    "product_E0star_Tdagger",
    "product_E0_Tstardagger",
    "product_T_E0",
    "product_Tstar_E0star",
    "product_E0_Tdagger",
    "product_E0star_Tstardagger",
)


def test_criterion_6_duality_suite(verified):
    ok, detail = True, ""
    for entry in verified:
        pa, bundle = entry["pa"], entry["bundle"]
        if entry["self_dual"]:
            for name in DUALITY_CHECKS:
                if not entry["duality"][name].passed:
                    ok, detail = False, f"{name} on d={pa.d}"
                    break
            nu_ddown = nu_scalars(pa)[2]
            inv = pa.field.invert(nu_ddown)
            if bundle.lam != inv * inv * prod(pa.phi, start=pa.field.one()):
                ok, detail = False, f"lambda closed form d={pa.d}"
        else:
            if entry["duality"]["A_T_equals_T_Astar"].passed:
                ok, detail = False, f"negative control d={pa.d} (AT=TA* held)"
        if not ok:
            break
    n_sd = sum(1 for e in verified if e["self_dual"])
    _result(6, "duality suite", ok, detail or f"{n_sd} self-dual + {len(verified)-n_sd} controls")


def test_criterion_7_geometry_suite(verified):
    ok, detail = True, ""
    general = (
        "flag_component_dimensions",
        "flags_mutually_opposite",
        "decomposition_components_one_dimensional",
        "decomposition_inversion_pairs",
        "decompositions_induce_flags",
        "decomposition_table_rows",
    )
    for entry in verified:
        names = general + (
            ("T_maps_eigenspaces", "T_on_flags", "T_on_decompositions")
            if entry["self_dual"]
            else ()
        )
        for name in names:
            if not entry["geometry"][name].passed:
                ok, detail = False, f"{name} on d={entry['pa'].d}"
                break
        if not ok:
            break
    _result(7, "geometry suite", ok, detail)


def test_criterion_8_basis_suite(verified):
    ok, detail = True, ""
    for entry in verified:
        d = entry["pa"].d
        for key, names in (
            ("basis_family", ("bases_invertible", "bases_span_decomposition_components",
                              "bases_inversion_pairing")),
            ("anchor_rels", ("anchor_projections", "anchor_ratio_product",
                             "anchor_ratio_squares")),
            ("transitions", None),
        ):
            report = entry[key]
            for name in names if names else [c.name for c in report.checks]:
                if not report[name].passed:
                    ok, detail = False, f"{name} on d={d}"
                    break
            if not ok:
                break
        if ok and entry["self_dual"]:
            for key in ("t_on_bases", "matrix_of_t"):
                for check in entry[key].checks:
                    if not check.passed:
                        ok, detail = False, f"{check.name} on d={d}"
                        break
                if not ok:
                    break
        if not ok:
            break
    _result(8, "basis suite", ok, detail)


def test_criterion_9_determinism(tmp_path):
    instance = {
        "field": {"kind": "rational"},
        "d": 1,
        "theta": ["1/1", "-1/1"],
        "theta_star": ["1/1", "-1/1"],
        "varphi": ["2/1"],
        "phi": ["6/1"],
    }
    inp = tmp_path / "pa.json"
    inp.write_text(json.dumps(instance))
    jobs = [
        ["verify", "--input", str(inp)],
        ["dualize", "--input", str(inp)],
        ["bases", "--input", str(inp)],
        ["matrix-of-t", "--basis", "etastar-v0", "--input", str(inp)],
        ["search", "--field", "rational", "--d", "2", "--limit", "2", "--seed", "7"],
        ["search", "--field", "prime:7", "--d", "1", "--limit", "5", "--seed", "0"],
    ]
    ok = True
    for k, argv in enumerate(jobs):
        out_a = tmp_path / f"a{k}.json"
        out_b = tmp_path / f"b{k}.json"
        code_a = cli_main(argv + ["--output", str(out_a)])
        code_b = cli_main(argv + ["--output", str(out_b)])
        if not (code_a == code_b == 0 and out_a.read_bytes() == out_b.read_bytes()):
            ok = False
            break
    _result(9, "deterministic reports", ok)
