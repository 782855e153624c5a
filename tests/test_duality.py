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

from conftest import FROZEN_ARRAYS, leonard_array, leonard_arrays
from reference import basis_by_recurrence, components, hand_built, meets
from test_witnesses import DAGGER_READERS

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
    """No eigenbasis is inverted, no split line, decomposition or basis is found by elimination, and no basis is
    ranked to be certified.

    An elimination is a call of `Matrix._echelon`, `Matrix.rank` or `linalg.unpivoted_column_reduction`.  At d = 6
    certify takes none: once the axioms hold, its round trip reads each varphi_i and phi_i as one ratio of
    coordinates (`systems._superdiagonal_in_split_basis`); until then it took 2, the solves of that round trip.
    verify, dualize and bases add none to certify's count on this split-form input: W^-1 is U and W*^-1 is U*, since
    U W = I and U* W* = I (`systems._eigenbasis_inverse`); the split lines, the 12 decompositions and the 12 forward
    sequences of bases are read off the axioms (`systems.certified`); and `spans_components` reads triangular
    blocks.  verify builds the system without certifying it, and runs the same axioms and round trip.  matrix-of-t
    adds none either: its basis is certified the same way, and each representation is read off M B == B X
    (`duality.basis_representations`).  Until then matrix-of-t added one basis inverse.  Before the certificates,
    verify added the elimination of the split lines and the inverse of their basis, dualize the 12 eliminations of
    the decompositions, and bases those and 12 ranks."""
    doc = _krawtchouk_json({"kind": "prime", "p": 2**31 - 1}, 6)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    calls = []
    for owner, name in ((Matrix, "_echelon"), (Matrix, "rank"), (linalg, "unpivoted_column_reduction")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _original=original, **kw: calls.append(1) or _original(*a, **kw))
    certify(ParameterArray.from_json(doc))
    certified = len(calls)
    assert certified == 0
    bounds = {"verify": certified, "dualize": certified, "bases": certified, "matrix-of-t": certified}
    for verb, bound in bounds.items():
        calls.clear()
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) <= bound, verb


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "prime", "p": 2**31 - 1}], ids=["Q", "GF(2^31-1)"])
def test_products_per_verb(field, tmp_path, monkeypatch):
    """Each change of basis W_a^-1 X W_b is formed once per system (`systems.change_of_basis`) and U W once per
    family (`systems._orthogonality_witness`).  `dualize` forms T in the eigenbases, W*^-1 T W and W^-1 T W*, once
    for its sweeps on eigenspaces, flags and E_i T = T E*_i.  The decompositions and the bases read the certificate
    (`systems.certified`) off the memoised axiom report, so neither forms U W* or U* W, and [0D] and [0*D*] are the
    eigencolumns, so no E_i v is formed.  `solve_gram` reads its premises off the same report
    (`systems.premises`), so U A W is not formed.  `verify` decides the Gram block from those premises, solving for
    the weights of G and forming neither G nor G^-1, the idempotent sums from U W = I and
    M W == W diag(theta), and the split checks from Q P once the certificate holds.  An anchor inner product reads
    the weights of G (`LeonardSystem.pair`): each distinct anchor is mapped by U once, and the pivot of G is one
    more product of a matrix and a vector, so `bases` forms neither G nor G^-1.  `matrix-of-t` takes T from
    `duality_operator`, its basis vector from the eigencolumn it names and each representation from M B == B X, so
    it forms no anchor inner product, no G and no inverse.  Each spectral check is one product M W against the
    column scaling W diag(theta), and the round trip reads one row of A* times each split vector on the stored
    integers, so `verify` and `matrix-of-t` form no product of a matrix and a vector.  `dualize` reads its eight
    daggers off the weights m of G in the eigenbasis (W, U) of A: U T W and U T* W, U W* and U* W, and the two
    displayed dagger sums in those coordinates, one product each, and D X^ (r/m) for the two checks on E*_0.  A
    system built from an array stores its eigenbases, and no verb forms a dense E_i or E*_i: `LeonardSystem.idempotents`
    is never read.  Once T maps the eigenspaces, `dualize` reads T in its eigen-coordinates (`duality._t_diagonals`):
    T^2 off the diagonals of W*^-1 T W and W^-1 T W*, U T W as (U W*) diag(c) and U T* W as U T W once T = T*, the
    four other product formulas as scalars, T_on_flags and T_on_decompositions from their premises; so it forms
    neither T T nor (U T) W, pinned here.  On the certified system `dualize` builds the core eta*_d(A*) tau_d(A) of
    T_polynomial_form from three vector families (tau_d(A) e_j, eta*_d(A*) of it and tau_d(A^T) e_k), and reads
    decompositions_induce_flags off the certificate, so it forms no F^-1 X; no verb calls `root_product_family`
    without a start, which forms a dense tau/eta family; both are pinned here.  Each E_i v of the bases e-* and
    estar-* is (U v)_i w_i on the memoised U v (U* v), which the anchor projections read too.  At d = 6 that is
    10/24/8/15 products of two matrices for verify/dualize/bases/matrix-of-t, and 0/7/7/0 products of a matrix and a
    vector: in `dualize` 4 anchors, the pivot and the two D X^ (r/m); in `bases` U x of the 4 anchors, the pivot and
    U* v0 and U* vd.  While T_polynomial_form formed the dense families eta*_j(A*) and tau_j(A) and their product
    eta*_d(A*) tau_d(A), and decompositions_induce_flags formed F^-1 X for each of its 12 distinct (flag, vectors)
    cases, `dualize` formed 37 products of two matrices; while it formed T T, U T W and U T* W, read each of the four
    other product formulas as X w_0 = c (u*_0 . w_0) w*_0 and formed T x once for each of the 34 distinct vectors of
    the 12 decompositions ([wz] is [zw] reversed, and every [zw] starts at the first vector of [z]), it formed 42
    and 45.  While the build formed every E_i and E*_i
    densely, each product formula read E_0 E*_0 or E*_0 E_0 and each E_i v was a product, the counts were 10/48/8/15 and 0/41/41/0.  While the daggers were
    G^-1 X^T G, with G and G^-1 formed, `dualize` formed 52 and 39.  While each spectral check
    formed M w_i, d+1 products of a matrix and a vector, and the round trip solved A* P = P X, the products of two
    matrices were as many and those of a matrix and a vector 14/53/55/14.  While an inner product was u . (G v), the
    counts were 10/52/10/17, with 56 products of a matrix and a vector in `dualize` (8 of G and a vector) and 22 in
    `matrix-of-t`, which also inverted its basis.  While `verify` formed G and G^-1 it formed 12.  While
    `solve_gram` formed U A W and the certificates U W*, U* W and U w*_0, the counts were 14/56/14/19, and 15
    products of a matrix and a vector in `verify`.  When each reader formed its own, there were 33/105/29/24: U W
    five times for two families, U A* W twice, and one F^-1 G per decomposition;
    dualize formed 90 while each product formula and each of the 24 cases formed its own, and 60 products of two
    matrices and 148 of a matrix and a vector while T was formed on the eigenbases, the flags and each
    decomposition vector by each sweep; verify formed 28 while it tested the Gram block with products by G and
    G^-1."""
    doc = _krawtchouk_json(field, 6)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    s = certify(ParameterArray.from_json(doc))
    (W, U), t = s.eigenbasis(), du.duality_operator(s)
    decomps = [du.build_decomposition(s, *pair) for pair in du.DECOMPOSITION_PAIRS]
    induce = [(du.build_flag(s, u).inverse, Matrix.from_columns(s.field, vectors)) for dec in decomps
              for u, vectors in ((dec.z, dec.vectors), (dec.w, dec.inversion_vectors()))]
    # T T, and U T W, which is U T* W as T = T*, and F^-1 X of decompositions_induce_flags: `dualize` forms none
    dense = ((t, t), (U * t, W), *induce)
    calls, families, unstarted = [], [], []  # the operands of each product; one entry per family read
    mul, idempotents, family = Matrix.__mul__, LeonardSystem.idempotents, linalg.root_product_family
    monkeypatch.setattr(Matrix, "__mul__", lambda self, other: calls.append((self, other)) or mul(self, other))
    monkeypatch.setattr(LeonardSystem, "idempotents", lambda self, star=False: families.append(star) or idempotents(
        self, star))
    for module in (linalg, systems, du):  # each calls it by its own name
        monkeypatch.setattr(module, "root_product_family", lambda M, roots, start=None: unstarted.append(
            start is None) or family(M, roots, start))
    bounds = {"verify": 10, "dualize": 24, "bases": 8, "matrix-of-t": 15}
    vector_bounds = {"verify": 0, "dualize": 7, "bases": 7, "matrix-of-t": 0}
    for verb, bound in bounds.items():
        calls.clear()
        unstarted.clear()
        extra = ["--basis", "tau-vstard"] if verb == "matrix-of-t" else []
        assert main([verb, *extra, "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0
        assert sum(type(other) is Matrix for _, other in calls) <= bound, verb
        assert sum(type(other) is Vector for _, other in calls) <= vector_bounds[verb], verb
        assert families == [], verb
        assert not [pair for pair in calls if pair in dense], verb
        assert not any(unstarted), verb


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
def test_no_verb_forms_a_dense_idempotent(field, tmp_path, monkeypatch):
    """A system built from an array stores the eigenbases of its split form, and every reader reads E_i = w_i u_i^T
    and E*_i = w*_i u*_i^T off them.  On q-Racah arrays at d = 5, whose eigenbases have mixed denominators over Q,
    self-dual and not (where `dualize` exits 1 after its report), no verb reads `LeonardSystem.idempotents`, which
    forms a dense family on first read."""
    n = field.from_int
    families, idempotents = [], LeonardSystem.idempotents
    monkeypatch.setattr(LeonardSystem, "idempotents", lambda self, star=False: families.append(star) or idempotents(
        self, star))
    for theta_star012 in ((1, 3, 4), (1, 2, 7)):
        pa = leonard_array(field, 5, (n(1), n(2), n(7)), tuple(map(n, theta_star012)), n(13) / n(6), n(5) / n(2))
        path = tmp_path / "in.json"
        path.write_text(json.dumps(pa.to_json()))
        for verb in ("verify", "dualize", "bases", *(f"matrix-of-t --basis {b}" for b in du.FOUR_BASES)):
            rc = main([*verb.split(), "--input", str(path), "--output", str(tmp_path / "out.json")])
            assert rc == int(theta_star012 == (1, 3, 4) and verb not in ("verify", "bases")), verb
            assert families == [], (theta_star012, verb)


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


@pytest.mark.parametrize("field", [Q, Field.prime(2**31 - 1)], ids=["Q", "GF(2^31-1)"])
def test_duality_suite_reports_a_failed_gram_premise(field):
    """On `hand_built(field, 3)["E_0 sheared"]` U W != I, a premise of `solve_gram`.  `build_duality_bundle` raises
    it, as its anchor scalars are inner products through G, so the bundle is built by hand: T with lambda from its
    closed form.  The suite reports every check in the usual order; the eight that read G through T^dagger or
    T*^dagger fail with the premise as witness, as the Gram block of `verify` does, and so do the two sweeps of
    E_i T = T E*_i, which read U W = I (E_0 T != T E*_0 here); of the others only those of T*, which reads E_0, fail."""
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
    assert failing == {**dict.fromkeys(DAGGER_READERS, {"error": error}),
                       **dict.fromkeys(("Ei_T_equals_T_Estar_i", "Estar_i_T_equals_T_Ei"),
                                       {"error": "idempotents_E_orthogonal fails"}),
                       **dict.fromkeys(("T_equals_T_star", "product_Tstar_E0", "product_Tstar_E0star"))}
    assert not all(E * bundle.t == bundle.t * Es for E, Es in zip(s.E, s.Estar))


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
