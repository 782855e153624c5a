import dataclasses
import json
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import duality as du
from leonard import linalg, systems
from leonard.cli import main
from leonard.errors import (
    DegenerateSplit,
    InconsistentArray,
    SingularBasis,
    SingularMatrix,
    UnknownBasis,
    ZeroInnerProduct,
)
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, eval_root_product, flag_decomposition
from leonard.systems import LeonardSystem, ParameterArray, certify

from conftest import FROZEN_ARRAYS, krawtchouk_type, leonard_arrays
from reference import (DAGGER_CHECKS, T_COORDINATE_CHECKS, basis_by_recurrence, components, hand_built, meets, q_racah,
                       recording)

Q = Field.rational()


def d1_example() -> ParameterArray:
    return ParameterArray(Q, 1, (F(1), F(-1)), (F(1), F(-1)), (F(2),), (F(6),))


def d1_nonselfdual() -> ParameterArray:
    return ParameterArray(Q, 1, (F(1), F(-1)), (F(2), F(0)), (F(1),), (F(5),))


@pytest.fixture(scope="module")
def sd1():
    pa = d1_example()
    s = certify(pa)
    anchors = du.choose_anchor_vectors(s)
    bundle = du.build_duality_bundle(s, anchors)
    return pa, s, anchors, bundle


# --- memoised derived data ---


def test_gram_solved_once_across_suites():
    with recording((systems, "solve_gram")) as calls:
        s = certify(ParameterArray.from_json(FROZEN_ARRAYS[0]))
        assert systems.standard_identity_suite(s).all_pass
        anchors = du.choose_anchor_vectors(s)
        bundle = du.build_duality_bundle(s, anchors)
        assert du.verify_duality_suite(s, bundle).all_pass
        assert du.verify_geometry_suite(s, bundle).all_pass
    assert len(calls) == 1


def test_flags_and_decompositions_built_once():
    s = certify(d1_example())
    assert du.build_flag(s, "0*") is du.build_flag(s, "0*")
    dec = du.build_decomposition(s, "0*", "D")
    assert du.build_decomposition(s, "0*", "D") is dec
    assert du.build_decomposition(s, "D", "0*") is not dec
    # memos belong to one instance: an isomorphic copy builds its own
    K = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    assert du.build_decomposition(s.conjugated(K), "0*", "D") is not dec


def test_each_basis_sequence_built_once(tmp_path):
    """The 12 forward sequences are built once per system; the 12 -rev- ids
    and every later suite read them back."""
    path, out = tmp_path / "in.json", str(tmp_path / "out.json")
    path.write_text(json.dumps(FROZEN_ARRAYS[2]))  # d = 4, self-dual
    with recording((du, "_basis_sequence")) as calls:
        assert main(["bases", "--input", str(path), "--output", out]) == 0
    assert len(calls) == 12
    with recording((du, "_basis_sequence")) as calls:
        assert main(["matrix-of-t", "--basis", "tau-vstard", "--input", str(path), "--output", out]) == 0
    assert [gen for _, gen, _ in calls.of("_basis_sequence")] == ["tau"]

    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    anchors = du.choose_anchor_vectors(s)
    family = du.build_24_bases(s, anchors)
    with recording((du, "_basis_sequence")) as calls:
        assert du.verify_transition_relations(s, anchors).all_pass
        assert du.verify_T_on_bases(s, du.build_duality_bundle(s, anchors), anchors).all_pass
    assert calls == []
    assert all(du.build_basis(s, anchors, basis_id) == seq for basis_id, seq in family.items())


def _krawtchouk_json(field: dict, d: int) -> dict:
    """theta_i = theta*_i = d - 2i, varphi_i = i(i-d-1), phi_i = -3 i(i-d-1), over Q or GF(p)."""
    enc = (lambda x: x % field["p"]) if field["kind"] == "prime" else (lambda x: f"{x}/1")
    return {
        "field": field, "d": d,
        "theta": [enc(d - 2 * i) for i in range(d + 1)],
        "theta_star": [enc(d - 2 * i) for i in range(d + 1)],
        "varphi": [enc(i * (i - d - 1)) for i in range(1, d + 1)],
        "phi": [enc(-3 * i * (i - d - 1)) for i in range(1, d + 1)],
    }


def test_eliminations_per_verb(tmp_path):
    """No eigenbasis is inverted, no split line, decomposition or basis is found by elimination, and no basis is
    ranked to be certified.

    An elimination is a call of `Matrix._echelon`, `Matrix.rank` or `linalg.unpivoted_column_reduction`.  At d = 6
    certify takes none: once the axioms hold, its round trip reads each varphi_i and phi_i as one ratio of
    coordinates (`systems._superdiagonal_in_split_basis`); until then it took 2, the solves of that round trip.
    verify, dualize and bases add none to certify's count on this split-form input: W^-1 is U and W*^-1 is U*, since
    U W = I and U* W* = I (`systems.change_of_basis`); the split lines, the 12 decompositions and the 12 forward
    sequences of bases are read off the axioms (`systems.certified`); and T_on_flags follows from T_maps_eigenspaces,
    ranking no block.  verify builds the system without certifying it, and runs the same axioms and round trip.
    matrix-of-t adds none either: its basis is certified the same way, and each representation is read off
    M B == B X (`duality.basis_representations`).  Until then matrix-of-t added one basis inverse.  Before the
    certificates, verify added the elimination of the split lines and the inverse of their basis, dualize the 12
    eliminations of the decompositions, and bases those and 12 ranks."""
    doc = _krawtchouk_json({"kind": "prime", "p": 2**31 - 1}, 6)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    eliminations = ((Matrix, "_echelon"), (Matrix, "rank"), (linalg, "unpivoted_column_reduction"))
    with recording(*eliminations) as calls:
        certify(ParameterArray.from_json(doc))
    certified = len(calls)
    assert certified == 0
    bounds = {"verify": certified, "dualize": certified, "bases": certified, "matrix-of-t": certified}
    for verb, bound in bounds.items():
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        with recording(*eliminations) as calls:
            assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) <= bound, verb


@pytest.mark.parametrize("field, d", [({"kind": "rational"}, 6), ({"kind": "prime", "p": 2**31 - 1}, 6),
                                      ({"kind": "rational"}, 8), ({"kind": "rational"}, 16)],
                         ids=["Q", "GF(2^31-1)", "Q-verify-d8", "Q-verify-d16"])
def test_products_per_verb(field, d, tmp_path):
    """The products of two matrices and of a matrix and a vector that each verb forms at d = 6 on the Krawtchouk
    array: 10/26/8/15 and 0/7/7/0 for verify/dualize/bases/matrix-of-t.  Each change of basis W_a^-1 X W_b is formed
    once per system (`systems.change_of_basis`) and U W once per family; no verb reads `LeonardSystem.idempotents`,
    which forms a dense E_i, or calls `root_product_family` without a start, which forms a dense tau/eta family.
    - `verify` decides the Gram block from the premises of `solve_gram` (no G or G^-1), the sums from U W = I, each
      spectral check as one product M W, and the split checks from Q P; the round trip reads rows of A* on the
      stored integers, so it forms no product of a matrix and a vector.  Its 10 do not grow with d: at d = 8 and 16
      too (the (d+1)^2 loops of dense rank-one products made 724 at d = 8).
    - `dualize` forms the same 26 on this self-dual array and on the one with s* = -4 (theta* != theta, exit 1): it
      reads T's identities off its eigen-coordinates C = W*^-1 T W and C* = W^-1 T W*, U T W as K C, U T^2 W as
      C* C and U T* W as T* summed in the eigenbasis of A (`duality._in_eigenbasis`), so neither array forms T T,
      (U T) W, U T* W or a dense T*, nor the F^-1 X of decompositions_induce_flags, read off the certificate; all
      pinned here.  Its 7 products of a matrix and a vector are the 4 anchors, the pivot of G and the two D X^ (r/m)
      of the daggers on E*_0; with s* = -4, where T maps no flag, T x for each of the 34 distinct decomposition
      vectors adds 34.
    - `bases` maps the 4 anchors by U, forms the pivot and U* v0 and U* vd, and forms neither G nor G^-1.
    - `matrix-of-t` takes T from `duality_operator`, its basis from the eigencolumn it names and each representation
      from M B == B X, so it forms no anchor inner product, no G and no inverse."""
    starred = []  # the A of each system on which T* is summed

    def run(verb, doc, rc=0):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        with recording((Matrix, "__mul__"), (LeonardSystem, "idempotents"),
                       ((linalg, systems, du), "root_product_family"), (du, "duality_operator")) as calls:
            assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == rc
        assert calls.of("idempotents") == [], verb
        assert all(start is not None for *_, start in calls.of("root_product_family")), verb
        starred.extend(sys.A for sys, star in calls.of("duality_operator") if star)
        products = calls.of("__mul__")
        return sum(type(y) is Matrix for _, y in products), sum(type(y) is Vector for _, y in products), products

    def dense(doc):  # T T, (U T) W, (U T*) W and F^-1 X of decompositions_induce_flags, on the system of doc
        s = certify(ParameterArray.from_json(doc))
        (W, U), t, t_star = s.eigenbasis(), du.duality_operator(s), du.duality_operator(s, star=True)
        flag_inverse = lambda z: s.eigenbasis(z.endswith("*"))[1].submatrix(rows=du._ORDER[z])  # U W = I
        return [(t, t), (U * t, W), (U * t_star, W), *(
            (flag_inverse(u), Matrix.from_columns(s.field, vectors)) for pair in du.DECOMPOSITION_PAIRS
            for dec in [du.build_decomposition(s, *pair)]
            for u, vectors in ((dec.z, dec.vectors), (dec.w, dec.inversion_vectors())))]

    doc = _krawtchouk_json(field, d)
    if d != 6:
        assert run("verify", doc)[:2] == (10, 0)
        return
    f = Field.from_json(field)
    s_star_doc = krawtchouk_type(f, 6, 6, -2, 6, -4, 1).to_json()
    forbidden = dense(doc) + dense(s_star_doc)
    bounds = {"verify": (10, 0), "dualize": (26, 7), "bases": (8, 7), "matrix-of-t": (15, 0)}
    for verb, (bound, vector_bound) in bounds.items():
        matrices, vectors, products = run(verb, doc)
        assert matrices <= bound and vectors <= vector_bound, verb
        assert not [pair for pair in products if pair in forbidden], verb
    matrices, vectors, products = run("dualize", s_star_doc, rc=1)
    assert (matrices, vectors) == (26, 7 + 34)
    assert not [pair for pair in products if pair in forbidden]
    # T* is summed only on the system U X W, where A is diagonal
    assert starred and not [A for A in starred if any(a for i, row in enumerate(A.nums) for j, a in enumerate(row)
                                                       if i != j)]


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
def test_no_verb_forms_a_dense_idempotent(field, tmp_path):
    """A system built from an array stores the eigenbases of its split form, and every reader reads E_i = w_i u_i^T
    and E*_i = w*_i u*_i^T off them.  On q-Racah arrays at d = 5, whose eigenbases have mixed denominators over Q,
    self-dual and not (where `dualize` exits 1 after its report), no verb reads `LeonardSystem.idempotents`, which
    forms a dense family on first read."""
    for theta_star012 in ((1, 3, 4), (1, 2, 7)):
        pa = q_racah(field, 5, theta_star012)
        path = tmp_path / "in.json"
        path.write_text(json.dumps(pa.to_json()))
        for verb in ("verify", "dualize", "bases", *(f"matrix-of-t --basis {b}" for b in du.FOUR_BASES)):
            with recording((LeonardSystem, "idempotents")) as families:
                rc = main([*verb.split(), "--input", str(path), "--output", str(tmp_path / "out.json")])
            assert rc == int(theta_star012 == (1, 3, 4) and verb not in ("verify", "bases")), verb
            assert families == [], (theta_star012, verb)


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "prime", "p": 2**31 - 1}], ids=["Q", "GF(2^31-1)"])
def test_no_verb_inverts_an_eigenbasis(field, tmp_path):
    """Every array the CLI reads is in split form, where U W = I: W^-1 is U, so neither
    W nor W*, nor either with its columns reversed (the flags [D] and [D*]), is inverted."""
    doc = _krawtchouk_json(field, 8)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    s = systems.build_system(ParameterArray.from_json(doc))
    eigenbases = [s.eigenbasis(star)[0] for star in (False, True)]
    eigenbases += [W.submatrix(cols=slice(None, None, -1)) for W in eigenbases]
    for verb in ("verify", "dualize", "bases"):
        with recording((Matrix, "inverse")) as calls:
            assert main([verb, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert not [W for W in eigenbases if (W,) in calls.of("inverse")], verb


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
def test_duality_suite_reports_a_failed_gram_premise(field):
    """On `hand_built(field, 3)["E_0 sheared"]` U W != I, a premise of `solve_gram`.  `build_duality_bundle` raises
    it, as its anchor scalars are inner products through G, so the bundle is built by hand: T with lambda from its
    closed form.  The suite reports every check in the usual order; the eight that read G through T^dagger or
    T*^dagger fail with the premise as witness, as the Gram block of `verify` does, and so do T_polynomial_form, the
    two sweeps of E_i T = T E*_i and the seven checks read off T's eigen-coordinates, which take the certificate as
    premise, here failing on that axiom (E_0 T != T E*_0 here); only the two with A and A* pass."""
    s = hand_built(field, 3)["E_0 sheared"]
    error = "idempotents_E_orthogonal fails"
    with pytest.raises(DegenerateSplit, match=re.escape(error)):
        du.build_duality_bundle(s)
    pa, one = s.parameter_array, field.one()
    lam = pa.split_products[2][pa.d] / systems.nu_scalars(pa)[2] ** 2
    bundle = du.DualityBundle(du.duality_operator(s), lam, one, one, one, one)
    checks = du.verify_duality_suite(s, bundle).checks
    good = certify(pa)
    assert [c.name for c in checks] == [c.name for c in du.verify_duality_suite(good, du.build_duality_bundle(good)).checks]
    failing = {c.name: c.witness for c in checks if not c.passed}
    assert failing == dict.fromkeys((*DAGGER_CHECKS, "T_polynomial_form", "Ei_T_equals_T_Estar_i",
                                     "Estar_i_T_equals_T_Ei", *T_COORDINATE_CHECKS), {"error": error})
    assert not all(E * bundle.t == bundle.t * Es for E, Es in zip(s.E, s.Estar))


@pytest.mark.parametrize("name", ["E short", "E* short"])
def test_a_short_family_raises_its_count(name):
    """On `hand_built(Q, 3)[name]`, whose E (resp. E*) holds d of its d+1 idempotents, the anchors, T, T* and the
    bundle raise the DegenerateSplit of `systems._sized` that `verify` reports, not an IndexError."""
    s = hand_built(Q, 3)[name]
    error = f"3 idempotents {name.split()[0]}, not d + 1 = 4"
    assert {"error": error} in [c.witness for c in systems.standard_identity_suite(s).checks]
    for call in (du.choose_anchor_vectors, du.duality_operator, lambda s: du.duality_operator(s, star=True),
                 du.build_duality_bundle):
        with pytest.raises(DegenerateSplit, match=f"^{re.escape(error)}$"):
            call(s)


def test_singular_basis_inverses():
    """With v0 replaced by v*0, every basis on v0 is singular; the first of them
    in BASIS_IDS order is a -rev- id.  The memoised rank of `_is_basis` agrees
    with an inverse of every one of the 24 matrices."""
    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    good = du.choose_anchor_vectors(s)
    anchors = dataclasses.replace(good, v0=good.v0s)
    singular = []
    for basis_id in du.BASIS_IDS:
        try:
            Matrix.from_columns(Q, du.build_basis(s, anchors, basis_id)).inverse()
        except SingularMatrix:
            singular.append(basis_id)
        assert du._is_basis(s, anchors, basis_id) == (basis_id not in singular)
    assert singular[0] == "taustar-rev-v0" and singular[-1] == "estar-rev-v0"
    with pytest.raises(SingularBasis, match="^taustar-rev-v0 is not a basis$"):
        du.build_24_bases(s, anchors)
    assert du.verify_basis_family(s, anchors)["bases_invertible"].witness == {"basis": "estar-rev-v0"}
    bundle = du.build_duality_bundle(s, good)
    with pytest.raises(SingularMatrix, match="^matrix has zero determinant$"):
        du.basis_representations(s, bundle.t, "etastar-v0", anchors)


# --- the self-duality criterion ---


def test_is_self_dual_examples():
    assert du.is_self_dual(ParameterArray(Q, 0, (F(3),), (F(3),), (), ()))
    assert not du.is_self_dual(ParameterArray(Q, 0, (F(3),), (F(4),), (), ()))
    assert du.is_self_dual(d1_example())
    assert not du.is_self_dual(d1_nonselfdual())


def test_is_self_dual_inconsistent_raises():
    # theta = theta* with a non-palindromic second split sequence cannot be
    # certified; the criterion flags the contradiction
    pa = ParameterArray(Q, 2, (F(0), F(1), F(2)), (F(0), F(1), F(2)),
                        (F(1), F(1)), (F(1), F(2)))
    with pytest.raises(InconsistentArray):
        du.is_self_dual(pa)


# --- the operator T ---


def test_T_d0():
    s = certify(ParameterArray(Q, 0, (F(3),), (F(3),), (), ()))
    bundle = du.build_duality_bundle(s)
    assert bundle.t == Matrix(Q, [[F(1)]])
    assert bundle.lam == F(1)


def test_T_d1_frozen():
    # hand evaluation of the defining sum:
    #   T = (A - theta_1 I) E*_0 E_1 + E*_0 E_1 (A* - theta*_0 I)
    _, s, _, bundle = (None, certify(d1_example()), None, None)
    b = du.build_duality_bundle(s)
    assert b.t == Matrix(Q, [[F(-1), F(-1)], [F(-1, 2), F(1)]])
    assert b.lam == F(3, 2)  # (nu_ddown)^-2 phi_1 = (-2)^-2 * 6


def test_T_polynomial_form(sd1):
    _, s, _, bundle = sd1
    assert du.duality_operator_polynomial_form(s) == bundle.t


def test_build_bundle_without_self_duality():
    s = certify(d1_nonselfdual())
    bundle = du.build_duality_bundle(s)
    assert bundle.t == du.duality_operator(s)


def test_duality_suite_self_dual(sd1):
    _, s, _, bundle = sd1
    report = du.verify_duality_suite(s, bundle)
    assert report.all_pass


def test_duality_suite_negative_control():
    s = certify(d1_nonselfdual())
    bundle = du.build_duality_bundle(s)
    report = du.verify_duality_suite(s, bundle)
    assert not report["A_T_equals_T_Astar"].passed
    assert not report["Astar_T_equals_T_A"].passed
    # the general (not self-dual-only) identities still hold
    for name in ("T_polynomial_form", "product_T_E0star", "product_T_E0",
                 "T_squared_expansion"):
        assert report[name].passed


def test_conjugation_by_T_swaps_sides(sd1):
    _, s, _, bundle = sd1
    t = bundle.t
    tinv = t.inverse()
    assert t * s.Astar * tinv == s.A
    assert t * s.A * tinv == s.Astar
    for i in range(s.d + 1):
        assert t * s.Estar[i] * tinv == s.E[i]
        assert t * s.E[i] * tinv == s.Estar[i]
    # applying the conjugation twice fixes an arbitrary probe (T^2 is scalar)
    probe = Matrix(Q, [[F(2), F(7)], [F(-1), F(4)]])
    t2 = t * t
    assert t2 * probe * t2.inverse() == probe


# --- flags and decompositions ---


def test_flag_components():
    pa = d1_example()
    s = certify(pa)
    flag0 = du.build_flag(s, "0")
    assert components(flag0.basis)[s.d].rank() == s.d + 1  # top component is V
    flag0s = du.build_flag(s, "0*")
    assert components(flag0s.basis)[0].ncols == 1
    assert components(flag0s.basis)[0].rank() == 1
    with pytest.raises(ValueError):
        du.build_flag(s, "X")


def test_flags_mutually_opposite(sd1):
    _, s, _, _ = sd1
    flags = [du.build_flag(s, z) for z in du.OMEGA]
    inverse = lambda z: s.eigenbasis(z.endswith("*"))[1].submatrix(rows=du._ORDER[z])  # [z]^-1, as U W = I
    assert all(flag_decomposition(inverse(F.label) * G.basis, G.basis) is not None
               for F in flags for G in flags if F is not G)
    # a flag is never opposite to itself for d >= 1
    assert flag_decomposition(inverse(flags[0].label) * flags[0].basis, flags[0].basis) is None


def test_decomposition_known_rows(sd1):
    _, s, _, _ = sd1
    dec = du.build_decomposition(s, "0", "D")
    for i in range(s.d + 1):
        assert dec.vectors[i] == s.eigencolumn(i).normalized()
    dec = du.build_decomposition(s, "0*", "D*")
    for i in range(s.d + 1):
        assert dec.vectors[i] == s.eigencolumn(i, star=True).normalized()
    with pytest.raises(ValueError):
        du.build_decomposition(s, "0", "0")


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_decomposition_intersection_oracle(data):
    """Three routes to the split line U_i: component i of [0*D] (the flag
    elimination), the null-space intersection and tau_i(A) w*_0."""
    field = data.draw(st.sampled_from([Q, Field.prime(2**31 - 1)]), label="field")
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    s = certify(data.draw(leonard_arrays(field, d), label="pa"))
    dec = du.build_decomposition(s, "0*", "D")
    splits = s.root_family("tau", False, s.eigencolumn(0, star=True))
    lines = meets(s.eigenbasis(star=True)[0], s.eigenbasis()[0].submatrix(cols=slice(None, None, -1)))
    for i, U in enumerate(lines):  # U_i = (E*_0 V + ... + E*_i V) ∩ (E_i V + ... + E_d V)
        assert U.ncols == 1
        assert dec.vectors[i] == U.column(0).normalized() == splits[i].normalized()


def test_geometry_suite(sd1):
    _, s, _, bundle = sd1
    report = du.verify_geometry_suite(s, bundle)
    assert report.all_pass
    assert "T_on_decompositions" in report


def test_geometry_suite_without_bundle():
    s = certify(d1_nonselfdual())
    report = du.verify_geometry_suite(s)
    assert report.all_pass  # flags/decompositions need no self-duality
    assert "T_on_flags" not in report


# --- anchors ---


def test_anchor_d0():
    s = certify(ParameterArray(Q, 0, (F(3),), (F(3),), (), ()))
    a = du.choose_anchor_vectors(s)
    one = Vector(Q, (F(1),))
    assert a.v0 == a.vd == a.v0s == a.vds == one
    assert all(v == F(1) for v in a.scalars().values())


def test_anchor_normalization(sd1):
    _, s, a, _ = sd1
    for v in (a.v0, a.vd, a.v0s, a.vds):
        assert v[v.first_nonzero_index()] == F(1)


def test_anchor_relations(sd1):
    _, s, a, _ = sd1
    report = du.verify_anchor_relations(s, a)
    assert report.all_pass


def test_anchor_relations_general():
    s = certify(d1_nonselfdual())
    a = du.choose_anchor_vectors(s)
    assert du.verify_anchor_relations(s, a).all_pass


def test_vanishing_anchor_inner_product(sd1):
    # with v_d in place of v*_0, x00 = <v_0, v_d> = 0: E_0 V and E_d V are orthogonal under the form
    _, s, a, _ = sd1
    with pytest.raises(ZeroInnerProduct, match="^anchor inner product x00 vanished$"):
        du.anchors_from_vectors(s, a.v0, a.vd, a.vd, a.vds)


# --- the 24 bases ---


def test_24_bases_d0():
    s = certify(ParameterArray(Q, 0, (F(3),), (F(3),), (), ()))
    a = du.choose_anchor_vectors(s)
    fam = du.build_24_bases(s, a)
    assert len(fam) == 24
    one = Vector(Q, (F(1),))
    for seq in fam.values():
        assert len(seq) == 1 and seq[0] == one


def test_24_bases_family(sd1):
    _, s, a, _ = sd1
    fam = du.build_24_bases(s, a)
    assert set(fam) == set(du.BASIS_IDS)
    report = du.verify_basis_family(s, a)
    assert report.all_pass


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_leonard_arrays(field, data):
    d = data.draw(st.integers(min_value=0, max_value=8), label="d")
    pa = data.draw(leonard_arrays(field, d), label="pa")
    s = certify(pa)
    assert systems.extract_parameter_array(s) == pa
    for M, theta, tau in ((s.A, pa.theta, s.root_family("tau")), (s.Astar, pa.theta_star, s.root_family("tau", True))):
        assert eval_root_product(theta, M).is_zero()
        assert ((M - Matrix.identity(field, d + 1).scale(theta[d])) * tau[d]).is_zero()
    anchors = du.choose_anchor_vectors(s)
    family = du.build_24_bases(s, anchors)
    assert family == {basis_id: basis_by_recurrence(s, anchors, basis_id) for basis_id in du.BASIS_IDS}


def test_unknown_basis_id(sd1):
    _, s, a, _ = sd1
    with pytest.raises(UnknownBasis):
        du.build_basis(s, a, "sigma-v0")
    with pytest.raises(UnknownBasis):
        du.build_basis(s, a, "tau-rev-rev-v0")


def test_only_the_24_ids_name_a_basis(sd1):
    """Each of the 24 ids reads its family, whether it is reversed and its anchor, on the side opposite the family;
    an id of the same shape outside BASIS_IDS, a family on an anchor of its own side, raises UnknownBasis."""
    _, s, a, _ = sd1
    anchors = {"tau": ("vstar0", "vstard"), "eta": ("vstar0", "vstard"), "e": ("vstar0", "vstard"),
               "taustar": ("v0", "vd"), "etastar": ("v0", "vd"), "estar": ("v0", "vd")}
    expected = {f"{gen}-rev-{anchor}" if rev else f"{gen}-{anchor}": (gen, rev, anchor)
                for gen, keys in anchors.items() for anchor in keys for rev in (False, True)}
    assert {basis_id: du._parse_basis_id(basis_id) for basis_id in du.BASIS_IDS} == expected
    for basis_id in ("tau-v0", "estar-vstar0", "eta-rev-vd", "taustar-rev-vstard"):
        with pytest.raises(UnknownBasis):
            du.build_basis(s, a, basis_id)


def test_transition_relations(sd1):
    _, s, a, _ = sd1
    assert du.verify_transition_relations(s, a).all_pass


def test_transition_relation_at_i0():
    # E*_0 v_d = (<v_d,v*_0>/<v_0,v*_0>) E*_0 v_0 with empty products
    s = certify(d1_nonselfdual())
    a = du.choose_anchor_vectors(s)
    lhs = s.Estar[0] * a.vd
    rhs = (s.Estar[0] * a.v0).scale(a.xd0 / a.x00)
    assert lhs == rhs
    assert du.verify_transition_relations(s, a).all_pass


def test_T_on_bases(sd1):
    _, s, a, bundle = sd1
    report = du.verify_T_on_bases(s, bundle, a)
    assert report.all_pass
    assert bundle.alpha * bundle.alpha_star == bundle.lam
    assert bundle.beta * bundle.beta_star == bundle.lam


# --- the matrix of T ---


def test_matrix_of_T_d0():
    s = certify(ParameterArray(Q, 0, (F(3),), (F(3),), (), ()))
    bundle = du.build_duality_bundle(s)
    for basis_id in du.FOUR_BASES:
        assert du.matrix_of_T(s, bundle, basis_id) == Matrix(Q, [[F(1)]])


def test_matrix_of_T_antidiagonal(sd1):
    pa, s, a, bundle = sd1
    expected = du.expected_matrix_of_T(pa)
    # independent reconstruction of the closed form in the test
    coeff = F(2) / (F(-2) * F(2))  # varphi_1 / (tau_1(theta_1) eta_1(theta_0))
    hand = Matrix(Q, [[F(0), coeff * F(6)], [coeff, F(0)]])
    assert expected == hand
    mats = [du.matrix_of_T(s, bundle, b, a) for b in du.FOUR_BASES]
    assert all(M == expected for M in mats)


def test_matrix_of_T_unknown_basis(sd1):
    _, s, _, bundle = sd1
    with pytest.raises(UnknownBasis):
        du.matrix_of_T(s, bundle, "tau-vstar0")  # a valid family, not of the four


def test_matrix_of_T_report(sd1):
    _, s, a, bundle = sd1
    assert du.verify_matrix_of_T(s, bundle, a).all_pass


def test_pair_shapes_unknown_basis():
    with pytest.raises(UnknownBasis):
        du.expected_pair_shapes(d1_example(), "estar-v0")


# --- robustness ---


def test_scale_robustness(sd1):
    # rescaling anchors must leave every pass/fail status unchanged
    pa, s, _, _ = sd1
    rng = random.Random(99)

    def random_scalar():
        while True:
            x = F(rng.randint(-9, 9), rng.randint(1, 4))
            if x:
                return x

    base_anchors = du.choose_anchor_vectors(s)
    base_reports = _all_reports(s, base_anchors)
    for _ in range(3):
        scaled = du.anchors_from_vectors(
            s,
            base_anchors.v0.scale(random_scalar()),
            base_anchors.vd.scale(random_scalar()),
            base_anchors.v0s.scale(random_scalar()),
            base_anchors.vds.scale(random_scalar()),
        )
        assert _all_reports(s, scaled) == base_reports


def _all_reports(s, anchors):
    bundle = du.build_duality_bundle(s, anchors)
    du.build_24_bases(s, anchors)
    out = []
    for rep in (
        du.verify_anchor_relations(s, anchors),
        du.verify_basis_family(s, anchors),
        du.verify_transition_relations(s, anchors),
        du.verify_T_on_bases(s, bundle, anchors),
        du.verify_matrix_of_T(s, bundle, anchors),
    ):
        out.extend((c.name, c.passed) for c in rep.checks)
    return out


def test_higher_diameter_full_stack(corpus):
    # one self-dual frozen instance at d >= 3 through every suite
    pa = corpus.frozen[2]
    assert pa.d == 4 and du.is_self_dual(pa)
    s = corpus.system(pa)
    anchors = du.choose_anchor_vectors(s)
    bundle = du.build_duality_bundle(s, anchors)
    assert du.verify_duality_suite(s, bundle).all_pass
    assert du.verify_geometry_suite(s, bundle).all_pass
    assert du.verify_anchor_relations(s, anchors).all_pass
    du.build_24_bases(s, anchors)
    assert du.verify_basis_family(s, anchors).all_pass
    assert du.verify_transition_relations(s, anchors).all_pass
    assert du.verify_T_on_bases(s, bundle, anchors).all_pass
    assert du.verify_matrix_of_T(s, bundle, anchors).all_pass
