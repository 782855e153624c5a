import dataclasses
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard import duality as du
from leonard import systems
from leonard.cli import main
from leonard.errors import InconsistentArray, SingularBasis, SingularMatrix, UnknownBasis, ZeroInnerProduct
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, eval_root_product, flag_decomposition
from leonard.systems import ParameterArray, certify

from conftest import FROZEN_ARRAYS, flag_components, leonard_arrays, split_subspace

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


def test_gram_solved_once_across_suites(monkeypatch):
    calls = []
    solve = systems.solve_gram
    monkeypatch.setattr(systems, "solve_gram", lambda s: calls.append(1) or solve(s))
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


def test_each_basis_sequence_built_once(tmp_path, monkeypatch):
    """The 12 forward sequences are built once per system; the 12 -rev- ids
    and every later suite read them back."""
    calls = []
    build = du._basis_sequence
    monkeypatch.setattr(du, "_basis_sequence", lambda *args: calls.append(args[1]) or build(*args))
    path, out = tmp_path / "in.json", str(tmp_path / "out.json")
    path.write_text(json.dumps(FROZEN_ARRAYS[2]))  # d = 4, self-dual
    assert main(["bases", "--input", str(path), "--output", out]) == 0
    assert len(calls) == 12
    calls.clear()
    assert main(["matrix-of-t", "--basis", "tau-vstard", "--input", str(path), "--output", out]) == 0
    assert calls == ["tau"]

    s = certify(ParameterArray.from_json(FROZEN_ARRAYS[2]))
    anchors = du.choose_anchor_vectors(s)
    family = du.build_24_bases(s, anchors)
    calls.clear()
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


def test_eliminations_per_verb(tmp_path, monkeypatch):
    """No eigenbasis is inverted, and no basis is inverted to be certified.

    At d = 6 certify takes 3 eliminations.  verify adds the inverse of the split
    lines; W*^-1 is U*, since U* W* = I (`systems._eigenbasis_inverse`).  dualize
    and bases add none: each flag's inverse is W^-1 or W*^-1, rows reversed for [D]
    and [D*], `spans_components` reads triangular blocks with no elimination, and
    the 12 forward sequences of bases are ranked by `Matrix.rank`, not `_echelon`.
    matrix-of-t adds one basis inverse."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_krawtchouk_json({"kind": "prime", "p": 2**31 - 1}, 6)))
    calls = []
    echelon = Matrix._echelon
    monkeypatch.setattr(Matrix, "_echelon", lambda self, **kw: calls.append(1) or echelon(self, **kw))
    bounds = {"verify": 4, "dualize": 3, "bases": 3, "matrix-of-t": 4}
    for verb, bound in bounds.items():
        calls.clear()
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) <= bound, verb


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "prime", "p": 2**31 - 1}], ids=["Q", "GF(2^31-1)"])
def test_products_per_verb(field, tmp_path, monkeypatch):
    """Each change of basis W_a^-1 X W_b is formed once per system (`systems.change_of_basis`) and U W
    once per family (`systems._orthogonality_witness`).  `dualize` forms E_0 E*_0 and E*_0 E_0 once for the
    eight product formulas, and F^-1 X once per distinct (flag, vectors) case of `decompositions_induce_flags`:
    12, as ([zw], z) and ([wz], z) read the same vectors.  `verify` decides the Gram block from the premises of
    `solve_gram` and the idempotent sums from U W = I, with M w_i = theta_i w_i, d+1 products of a matrix and a
    vector, for each spectral check.  At d = 6 that is 15/72/14/19 products of two matrices for
    verify/dualize/bases/matrix-of-t.  When each reader formed its own, there were 33/105/29/24: U W five times
    for two families, U A* W twice, and one F^-1 G per decomposition; dualize formed 90 while each product
    formula and each of the 24 cases formed its own; and verify formed 28 while it tested the Gram block with
    products by G and G^-1."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_krawtchouk_json(field, 6)))
    calls = []  # one bool per call: whether both operands are matrices
    mul = Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: calls.append(type(other) is Matrix) or mul(self, other))
    bounds = {"verify": 15, "dualize": 72, "bases": 14, "matrix-of-t": 19}
    for verb, bound in bounds.items():
        calls.clear()
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert sum(calls) <= bound, verb


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "prime", "p": 2**31 - 1}], ids=["Q", "GF(2^31-1)"])
def test_no_verb_inverts_an_eigenbasis(field, tmp_path, monkeypatch):
    """Every array the CLI reads is in split form, where U W = I: W^-1 is U, so neither
    W nor W*, nor either with its columns reversed (the flags [D] and [D*]), is inverted."""
    doc = _krawtchouk_json(field, 8)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    s = systems.build_system(ParameterArray.from_json(doc))
    eigenbases = [s.eigenbasis(star)[0] for star in (False, True)]
    eigenbases += [W.submatrix(cols=slice(None, None, -1)) for W in eigenbases]
    inverted = []
    inverse = Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse", lambda self: inverted.append(self) or inverse(self))
    for verb in ("verify", "dualize", "bases"):
        inverted.clear()
        assert main([verb, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert not [W for W in eigenbases if W in inverted], verb


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
        du.basis_representations(s, bundle, "etastar-v0", anchors)


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
    assert flag_components(flag0)[s.d].rank() == s.d + 1  # top component is V
    flag0s = du.build_flag(s, "0*")
    assert flag_components(flag0s)[0].ncols == 1
    assert flag_components(flag0s)[0].rank() == 1
    with pytest.raises(ValueError):
        du.build_flag(s, "X")


def test_flags_mutually_opposite(sd1):
    _, s, _, _ = sd1
    flags = [du.build_flag(s, z) for z in du.OMEGA]
    assert all(flag_decomposition(F.inverse * G.basis, G.basis) is not None for F in flags for G in flags if F is not G)
    # a flag is never opposite to itself for d >= 1
    assert flag_decomposition(flags[0].inverse * flags[0].basis, flags[0].basis) is None


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
    for i in range(s.d + 1):
        U = split_subspace(s, i)
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


def _basis_by_recurrence(s, anchors, basis_id):
    """The reference: each id, -rev- ids included, built by its own recurrence."""
    gen, rev, anchor_key = du._parse_basis_id(basis_id)
    v = getattr(anchors, du._ANCHOR_ATTR[anchor_key])
    if gen in ("e", "estar"):
        seq = [E * v for E in (s.E if gen == "e" else s.Estar)]
    else:
        M, theta = (s.A, s.theta) if gen in ("tau", "eta") else (s.Astar, s.theta_star)
        seq = [v]
        for r in (theta[:s.d] if gen in ("tau", "taustar") else theta[::-1][:s.d]):
            seq.append(M * seq[-1] - seq[-1].scale(r))
    return tuple(reversed(seq)) if rev else tuple(seq)


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
    assert family == {basis_id: _basis_by_recurrence(s, anchors, basis_id) for basis_id in du.BASIS_IDS}


def test_unknown_basis_id(sd1):
    _, s, a, _ = sd1
    with pytest.raises(UnknownBasis):
        du.build_basis(s, a, "sigma-v0")
    with pytest.raises(UnknownBasis):
        du.build_basis(s, a, "tau-rev-rev-v0")


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
