"""Golden output: sha256 of (exit status, stdout, stderr) for fixed CLI calls.

Refactors must leave every byte of these runs unchanged.  After an
intentional output change, print the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from conftest import FROZEN_ARRAYS, leonard_array
from reference import FIELDS, agrees_on, bidiagonal_idempotents, not_leonard_arrays
from leonard import duality as du
from leonard import systems
from leonard.cli import main
from leonard.fields import Field
from leonard.linalg import Matrix, Vector, rank_one_factors

GFP = {"kind": "prime", "p": 2147483647}

# Krawtchouk type over GF(2^31 - 1), d = 3: one self-dual, one not.
GFP_SELF_DUAL = {
    "field": GFP, "d": 3,
    "theta": [1234567, 1333332, 1432097, 1530862],
    "theta_star": [1234567, 1333332, 1432097, 1530862],
    "varphi": [2147470921, 2147466679, 2147470921],
    "phi": [1346275538, 363378286, 1346275538],
}
GFP_NON_SELF_DUAL = {
    "field": GFP, "d": 3,
    "theta": [5, 8, 11, 14],
    "theta_star": [11, 18, 25, 32],
    "varphi": [21, 28, 21],
    "phi": [84, 112, 84],
}

# d = 0: 1 x 1 matrices and empty split sequences, self-dual so matrix-of-t runs.
Q_D0 = {"field": {"kind": "rational"}, "d": 0, "theta": ["-5/3"], "theta_star": ["-5/3"],
        "varphi": [], "phi": []}
GF7_D0 = {"field": {"kind": "prime", "p": 7}, "d": 0, "theta": [3], "theta_star": [3],
          "varphi": [], "phi": []}

# Not Leonard: the first split sequence perturbed by +1, so A* is not tridiagonal
# in the A-eigenbasis and verify reports "U A* W is not irreducible tridiagonal".
Q_NOT_LEONARD = dict(FROZEN_ARRAYS[0], varphi=["-5/1", "-8/1", "-6/1"])
GFP_NOT_LEONARD = dict(GFP_SELF_DUAL, varphi=[2147470922, 2147466679, 2147470921])
# Not Leonard, and the phi read back off its matrices has a zero entry, so the extraction fails:
# verify reports the round trip with that error and runs every other check on the stored array.
GF7_ZERO_PHI = {"field": {"kind": "prime", "p": 7}, "d": 2, "theta": [2, 0, 5], "theta_star": [2, 0, 5],
                "varphi": [6, 5], "phi": [3, 3]}


def krawtchouk(field, d, enc, s=-2, s_star=-2, r=1):
    """theta_i = d + s i, theta*_i = d + s* i, varphi_i = r i(i-d-1) and
    phi_i = (r - s s*) i(i-d-1): Krawtchouk type, self-dual when s* = s."""
    return {
        "field": field, "d": d,
        "theta": [enc(d + s * i) for i in range(d + 1)],
        "theta_star": [enc(d + s_star * i) for i in range(d + 1)],
        "varphi": [enc(r * i * (i - d - 1)) for i in range(1, d + 1)],
        "phi": [enc((r - s * s_star) * i * (i - d - 1)) for i in range(1, d + 1)],
    }


def krawtchouk_not_leonard(field, d, enc):
    """theta_i = theta*_i = d - 2i, varphi_i = i(i-d-1) with varphi_1 raised by 1,
    phi_i = -3 i(i-d-1): not Leonard, so verify solves for the form on a
    non-Leonard array of moderate size."""
    return dict(krawtchouk(field, d, enc), varphi=[enc(i * (i - d - 1) + (i == 1)) for i in range(1, d + 1)])


def gfp(x):
    return x % GFP["p"]


Q_D8_NOT_LEONARD = krawtchouk_not_leonard({"kind": "rational"}, 8, lambda x: f"{x}/1")
GFP_D8_NOT_LEONARD = krawtchouk_not_leonard(GFP, 8, gfp)
# d = 8 over GF(2^31 - 1): self-dual, and theta* != theta as the negative control
# (its dualize failures include the geometry suite's T_on_flags and T_on_decompositions).
GFP_D8_SELF_DUAL = krawtchouk(GFP, 8, gfp)
GFP_D8_NON_SELF_DUAL = krawtchouk(GFP, 8, gfp, s_star=-4)
# d = 20, theta_i = theta*_i = 20 - 2i and r = 1: verify at a larger diameter, where
# its edge-idempotent, characteristic-product and subalgebra checks cost the most.
Q_D20 = krawtchouk({"kind": "rational"}, 20, lambda x: f"{x}/1")
GFP_D20 = krawtchouk(GFP, 20, gfp)


def q_racah(field: Field) -> dict:
    """leonard_array(field, 8, (1, 2, 7), (1, 3, 4), 13/6, 5/2): q-Racah type with q = 3/2
    (13/6 = q + 1/q), not self-dual; over Q its W, U and W* have mixed denominators."""
    n = field.from_int
    return leonard_array(field, 8, (n(1), n(2), n(7)), (n(1), n(3), n(4)), n(13) / n(6), n(5) / n(2)).to_json()


Q_RACAH_D8, GFP_RACAH_D8 = q_racah(Field.rational()), q_racah(Field.prime(GFP["p"]))

ARRAYS = {
    "q0": FROZEN_ARRAYS[0],
    "q1": FROZEN_ARRAYS[1],
    "q2": FROZEN_ARRAYS[2],
    "gfp_sd": GFP_SELF_DUAL,
    "gfp_nsd": GFP_NON_SELF_DUAL,
}

VERBS = (
    ["verify"],
    ["dualize"],
    ["bases"],
    ["matrix-of-t", "--basis", "etastar-v0"],
    ["matrix-of-t", "--basis", "eta-vstar0"],
    ["matrix-of-t", "--basis", "taustar-vd"],
    ["matrix-of-t", "--basis", "tau-vstard"],
)

CASES = {f"{name} {' '.join(verb)}": (verb, obj) for name, obj in ARRAYS.items() for verb in VERBS}
for name, obj in (("q_d0", Q_D0), ("gf7_d0", GF7_D0)):
    for verb in VERBS[:3] + VERBS[-1:]:
        CASES[f"{name} {' '.join(verb)}"] = (verb, obj)
for name, obj in (("q0_not_leonard", Q_NOT_LEONARD), ("gfp_not_leonard", GFP_NOT_LEONARD)):
    for verb in VERBS[:2]:
        CASES[f"{name} {' '.join(verb)}"] = (verb, obj)
for name, obj in (("q_d8_not_leonard", Q_D8_NOT_LEONARD), ("gfp_d8_not_leonard", GFP_D8_NOT_LEONARD)):
    CASES[f"{name} verify"] = (["verify"], obj)
CASES["gf7_zero_phi verify"] = (["verify"], GF7_ZERO_PHI)
for verb in VERBS[1:3] + VERBS[-1:]:
    CASES[f"gfp_d8_sd {' '.join(verb)}"] = (verb, GFP_D8_SELF_DUAL)
CASES["gfp_d8_nsd dualize"] = (["dualize"], GFP_D8_NON_SELF_DUAL)
CASES["q_d20 verify"] = (["verify"], Q_D20)
for name, obj in (("q_racah_d8", Q_RACAH_D8), ("gfp_racah_d8", GFP_RACAH_D8)):
    for verb in VERBS[:3]:  # exit 0, 1 (not self-dual) and 0
        CASES[f"{name} {verb[0]}"] = (verb, obj)
CASES["gfp_d20 verify"] = (["verify"], GFP_D20)
# relatives is the one array verb that reads no budget and certifies nothing: its report is the eight arrays
for name, obj in (("q0", ARRAYS["q0"]), ("gfp_sd", GFP_SELF_DUAL), ("q_racah_d8", Q_RACAH_D8),
                  ("gfp_racah_d8", GFP_RACAH_D8)):
    CASES[f"{name} relatives"] = (["relatives"], obj)
CASES["search prime:7 d2"] = (["search", "--field", "prime:7", "--d", "2", "--limit", "4"], None)
CASES["search rational d2"] = (
    ["search", "--field", "rational", "--d", "2", "--limit", "2", "--seed", "7"], None)
# 40 arrays over 13 theta orders (PA5), characteristic d + 1, and an ExhaustedTrials exit 1
CASES["search prime:7 d3 self-dual"] = (
    ["search", "--field", "prime:7", "--d", "3", "--self-dual", "--limit", "40"], None)
CASES["search prime:5 d4 self-dual"] = (
    ["search", "--field", "prime:5", "--d", "4", "--self-dual", "--limit", "5"], None)
CASES["search rational d3 exhausted"] = (
    ["search", "--field", "rational", "--d", "3", "--max-trials", "300", "--seed", "1"], None)
# the acceptance recipe's self-dual rational lines
CASES["search rational d1 self-dual"] = (
    ["search", "--field", "rational", "--d", "1", "--self-dual", "--limit", "3", "--seed", "5"], None)
CASES["search rational d2 self-dual"] = (
    ["search", "--field", "rational", "--d", "2", "--self-dual", "--limit", "2", "--seed", "3",
     "--max-trials", "20000"], None)

GOLDEN = {
    'gf7_d0 bases': '16cb67a3554ecdbf9f4ce21feff1a71ffa0df645feb67a028a6594e26b65dfde',
    'gf7_d0 dualize': 'b6f5c724579fd9eb86d754272f4c0eafd02efe7541d5ae86231bd5468762021a',
    'gf7_d0 matrix-of-t --basis tau-vstard': '8c9cd91f6731726d5d43a103aa77a761c9b2a5bb78d09e8397573cb71b5fba68',
    'gf7_d0 verify': '386e2a44fecbb06f89f5dc6b24edc421055bf78e9834dd4116d82be95f550a83',
    'gf7_zero_phi verify': '8c712113dded8981aa1ed900c1f5073241fe700de3895c4348e9619acc5df978',
    'gfp_not_leonard dualize': 'd24dfb6410848e6a8d2e040fbd9abcd78591caaec7542300ad695d955f3af428',
    'gfp_d20 verify': 'f1ebf8fbf1e28f84765dd6111c38a834d28ed1fd6d9e77dcb6ff9f3162274300',
    'gfp_d8_not_leonard verify': '3fa3fff3c27df8de067b729a8edc990b6e554fe75e09490a051330f7dce6a3df',
    'gfp_d8_nsd dualize': 'aea5d841038352facecf2a4c3767082a0a80778ab2f937913d0eab15cae9ae84',
    'gfp_d8_sd bases': '69f38e28f59da9261f3f525c7d29b7304d88f6be4ab8201bcbd538857330add0',
    'gfp_d8_sd dualize': 'eea9a32937f23da219c0cbebc98c7423ca1e0de082cd8f59a7ce1ce597d1d7a6',
    'gfp_d8_sd matrix-of-t --basis tau-vstard': '88b7362e6cbf98d18a3f713611c912859f83b4a839be014f8889a0e0d8f67958',
    'gfp_not_leonard verify': '26a3cfeab493b1aaf7facfc8b89ee8c7786d4c2f72c814bb3251b0627a803b88',
    'gfp_nsd bases': 'c7055024028980816071125c9d7c4cebf86ba4271c6293ee44e8819c04fd611f',
    'gfp_nsd dualize': '5ecffc0ea67badc7631a61d74631ddc2d0465fda9dcbe962619dbe4301007b11',
    'gfp_nsd matrix-of-t --basis eta-vstar0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis etastar-v0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis tau-vstard': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis taustar-vd': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd verify': '3e7b555d141c8dc725e9bc15885537ee8aa18ac5485c8681c97ed2cd7ec7f8c2',
    'gfp_racah_d8 bases': '8296081f8da758bd05031078d9edf32fa4ac2caf2fcc91644331f5aee0b6616c',
    'gfp_racah_d8 dualize': '0ca2fd2d8f2768cceba179899fc28ae52404fbc7f9178b3d470b288ea300101c',
    'gfp_racah_d8 relatives': '12dae7489daca88cd190fa8442c1f24d5b03aca6391a1461bcfb3a528fd0e6e3',
    'gfp_racah_d8 verify': 'af9d46b85cd853d319757e55d03980e35f0e54ff688a09fca43270617c690002',
    'gfp_sd bases': 'fa4c5e7f14d4185c80efee033573cbd7eb6be15b3ce8d697f3e1c740630e34ae',
    'gfp_sd dualize': '073a569584f1c468aa705de38f3d29db20cc5ffc4358ffc5ba38a03ccec168f1',
    'gfp_sd matrix-of-t --basis eta-vstar0': '168c35ade058d0f44fadea9488c080deef649af02d88b9fd2179634d78779e9c',
    'gfp_sd matrix-of-t --basis etastar-v0': 'af2100ff5cc18baeeb87ba001e4afa8215927493ebbe985bede08616f194abdb',
    'gfp_sd matrix-of-t --basis tau-vstard': '839ad38cde2fbba8bbe3ff19e312480d137362d88996133729145fed698aae34',
    'gfp_sd matrix-of-t --basis taustar-vd': '95dc3d728c8365e4586b3e07ecdd9306a40ebc71c8b0275f58355e4803e61bef',
    'gfp_sd relatives': '59b37ffb302d0f2212c2e39d1b0989a71f5de964fd66ca97bace78f2b09b609d',
    'gfp_sd verify': '1a8a9e98d31aa5fa56eee1b05da5985bef3e36198f5b731debd0b70dfbbf5ba6',
    'q0 bases': '28242cc3f3233b666858681d6b043773cc92cafb035968989ebbda33d13364f2',
    'q0 dualize': '89cd70d700366d26cca750e8577847d084ec101f4b6cf99379b5716880f118ae',
    'q0 matrix-of-t --basis eta-vstar0': '1fe121dbc37e16329df9474a1d5a7d1424c0562208f3d0083c6be25311931248',
    'q0 matrix-of-t --basis etastar-v0': 'fdabf0b3150a466d6365dfde64fb28425cd3be08434b3a03d04d14950737a29e',
    'q0 matrix-of-t --basis tau-vstard': '41edbac21f887ea82a7ff3b29b1b98e276630d37be24ebf06a3399e491e1b9a1',
    'q0 matrix-of-t --basis taustar-vd': '7976beb83ac6293a6aa3438a195dde9025fc13ff60529f6902c3857d22d8621a',
    'q0 relatives': '9d85dc737fae4ed750bbe59e2a15ffafa9a21a698aa0c2246505bd5c800b6280',
    'q0 verify': '4c009070e5f33a0b98da5df377075980b669424ddb99ee8520448a4ca30d1dc0',
    'q0_not_leonard dualize': 'd24dfb6410848e6a8d2e040fbd9abcd78591caaec7542300ad695d955f3af428',
    'q0_not_leonard verify': 'd54810560238ccb6c58748537f294fc3d66e230553cecee8ed1c08e819cd26bc',
    'q1 bases': 'f8a88db197ba738a93271cf18db5b39494111d12c8759c8568983385238bcaed',
    'q1 dualize': 'c70078986a1d6517c91df19ccfe9fc9c7813391b9a8ee1a44ef74f689e280932',
    'q1 matrix-of-t --basis eta-vstar0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'q1 matrix-of-t --basis etastar-v0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'q1 matrix-of-t --basis tau-vstard': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'q1 matrix-of-t --basis taustar-vd': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'q1 verify': 'd1743f811389f85bf5356d735df0ce74cbbbc72f8f85374de48ebd08195b8b4c',
    'q2 bases': 'd473abcfc5f048e86d6431ae69e05e274607c2696eda39e738b58bd01f54b866',
    'q2 dualize': '0b9f2ef1a64d1e80a6a9d70043da46615f34dd0cf7aba4ddde844b17a72ce87f',
    'q2 matrix-of-t --basis eta-vstar0': '3f3bba583d50177ec2ccf37fdf91acbc71c32bb34af6f4b4405fe7356a139261',
    'q2 matrix-of-t --basis etastar-v0': 'df4f27fbb8281399eb8fb162cfe67b3ebfeeb1a3227307e22513341b009ee72e',
    'q2 matrix-of-t --basis tau-vstard': '3d6240a138044fc8a841cf56914df22670ace48ac043e9f1dd11d12c9fdbaa7d',
    'q2 matrix-of-t --basis taustar-vd': '407f7a7f7967956ee7e2f36b0e578396650262c1ea4c68590cbe2961c24f29a3',
    'q2 verify': '4a384e515331dd72e5acc3d36e82233590eceba2609a9f278226d34a3d877fd1',
    'q_racah_d8 bases': '71296ad2edd913aaa8f1c48ccf04162449496eb836b3a8e35dc79e8d19aaa2d7',
    'q_racah_d8 dualize': '87b5e1bd7e77b96089710d7fa3f6479b9afa9b3c839e1ffc829d8fae6211eec3',
    'q_racah_d8 relatives': 'b3c7093dfe2f5a91133ca8ca1154145ab988987152f4b75d91a195886929db6e',
    'q_racah_d8 verify': '548bac09c3b9ff3dea511fbcd03a250d5027d68047ddd882d890841873c5fe5c',
    'q_d20 verify': '5246db3943536001db2a7133f6840e668e4e421082a20d3668cefb0dc74058ff',
    'q_d8_not_leonard verify': '08cb2c15bdc7a854bf26cf432ac2b567d6655f9a49e6e585c6a7316989aaf8f6',
    'q_d0 bases': 'c22a2ff33c79d70791018d7205533f28ce8d7d0eaf60bc6afdae3f3a87896a97',
    'q_d0 dualize': '67d12e322957e69677b4488abfc0a3f07c0ee993f8dcb2b13f43f8a30cb1df24',
    'q_d0 matrix-of-t --basis tau-vstard': '036d8e729fb36b20ae15d40a330995776d332e2693edc926b613bdab81a91707',
    'q_d0 verify': 'a4401f677529946007d5e7897cd0f40445f84ce1243a01ce14a66e73ac55b606',
    'search prime:5 d4 self-dual': '48c5e416a45200a1ea9459a3327d95f51e426b005388344704356cfb3de3d8e4',
    'search prime:7 d2': '4b012d9f0bfd0b51f27b22da398ed23f8420d462dff5b41b04b8f13479910b1b',
    'search prime:7 d3 self-dual': 'd5f3ef55662c8fcbb2af1e84b7663364c50e7e6f3b9d5db439d31412fdd21516',
    'search rational d1 self-dual': '7065950df088b37ce0597817ecddee988512632b98b883f945380e9f218fc856',
    'search rational d2': '26c340aaf7b1e558e88aeda96540cdf61da86028a23b5de79e140adf12bdc84f',
    'search rational d2 self-dual': '593feb8f87d656578e87a0b572eca11643893fcc3772522f961ba5fac140c272',
    'search rational d3 exhausted': '7ea39e25fb2a2a6a800e1cbf3a0a37b98cda25fc3de3cc1186a96aaf79726d67',
}


def digest(argv, obj) -> str:
    """sha256 of the exit status, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        if obj is not None:
            path = os.path.join(tmp, "in.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            argv += ["--input", path]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert digest(*CASES[case]) == GOLDEN[case]


def _tool(name: str = "output_digests"):
    """tools/<name>.py as a module."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# the arrays of the golden calls up to d = 8, by name; the d = 20 ones are left out, as the dense reference forms
# (d+1)^2 products of two matrices per sweep and a null space in (d+1)^2 unknowns (`verify` alone takes about 6 s
# on GFP_D20 on a shared 2-vCPU Xeon)
GOLDEN_ARRAYS = {**ARRAYS, "q_d0": Q_D0, "gf7_d0": GF7_D0, "q0_not_leonard": Q_NOT_LEONARD,
                 "gfp_not_leonard": GFP_NOT_LEONARD, "q_d8_not_leonard": Q_D8_NOT_LEONARD,
                 "gfp_d8_not_leonard": GFP_D8_NOT_LEONARD, "gf7_zero_phi": GF7_ZERO_PHI, "gfp_d8_sd": GFP_D8_SELF_DUAL,
                 "gfp_d8_nsd": GFP_D8_NON_SELF_DUAL, "q_racah_d8": Q_RACAH_D8, "gfp_racah_d8": GFP_RACAH_D8}


@pytest.mark.parametrize("name", GOLDEN_ARRAYS)
def test_golden_arrays_match_the_reference(name):
    """The differential test (`reference.assert_agrees`) on each array."""
    agrees_on(systems.ParameterArray.from_json(GOLDEN_ARRAYS[name]))


@pytest.mark.parametrize("array", [Q_D20, GFP_D20], ids=["q_d20", "gfp_d20"])
def test_d20_idempotents_traces_and_projections_match_the_dense_closed_form(array):
    """At d = 20, which the differential test does not reach: the idempotents that a system built from an array
    forms on demand from its stored eigenbasis are the dense closed form (`reference.bidiagonal_idempotents`),
    `trace_products` reads the dense traces for every r, and the sequences E_i v and E*_i v on the anchors that
    `anchor_projections` reads are the dense products, the check passing.  E and E* are read last, as reading them
    forms them."""
    pa = systems.ParameterArray.from_json(array)
    s, f, d = systems.certify(pa), pa.field, pa.d
    E, Es = bidiagonal_idempotents(f, pa.theta), bidiagonal_idempotents(f, pa.theta_star, pa.varphi)
    for r in range(d + 1):
        assert systems.trace_products(s, r) == tuple((X * Y).trace() for X, Y in (
            (E[r], Es[0]), (E[r], Es[d]), (Es[r], E[0]), (Es[r], E[d]))), r
    anchors = du.choose_anchor_vectors(s)
    for basis_id, mats, v in (("e-vstar0", E, anchors.v0s), ("e-vstard", E, anchors.vds),
                              ("estar-v0", Es, anchors.v0), ("estar-vd", Es, anchors.vd)):
        assert du.build_basis(s, anchors, basis_id) == tuple(X * v for X in mats), basis_id
    assert du.verify_anchor_relations(s, anchors)["anchor_projections"].passed
    assert (s.E, s.Estar) == (tuple(E), tuple(Es))


D20_ARRAYS = {"q_d20": Q_D20, "gfp_d20": GFP_D20,
              "q_d20_nsd": krawtchouk({"kind": "rational"}, 20, lambda x: f"{x}/1", s_star=-4),
              "gfp_d20_nsd": krawtchouk(GFP, 20, gfp, s_star=-4)}


@pytest.mark.parametrize("array", D20_ARRAYS.values(), ids=D20_ARRAYS)
def test_d20_t_identities_match_their_dense_forms(array):
    """At d = 20, which the differential test does not reach, each check that `dualize` reads off T's
    eigen-coordinates W*^-1 T W and W^-1 T W* has the verdict and witness of its dense form, formed here: T T against
    lambda I and against the displayed expansion, T against the dense T*, each product formula as X w*_0 or X w_0
    for X = T and T*, and the daggers on the dense U T W and U T* W (X^dagger = Y exactly when (U X W)^T D = D U Y W
    for D = diag(m), the weights of `solve_gram`); T_on_flags that read off each component of W*^-1 T W and
    W^-1 T W*, and T_on_decompositions that of T x against the vectors of [T(z) T(w)]."""
    pa = systems.ParameterArray.from_json(array)
    s = systems.certify(pa)
    bundle = du.build_duality_bundle(s)
    t, d, f = bundle.t, pa.d, pa.field
    checks = lambda *reports: {c.name: (c.passed, c.witness) for report in reports for c in report.checks}
    got = checks(du.verify_duality_suite(s, bundle), du.verify_geometry_suite(s, bundle))
    assert all(passed for passed, _ in got.values()) == du.is_self_dual(pa)

    (W, U), (Ws, Us), e = s.eigenbasis(), s.eigenbasis(star=True), Matrix.identity(f, d + 1)
    t_star, square = du.duality_operator(s, star=True), t * t
    vp, ph, ph_tail = pa.split_products[0][d], pa.split_products[2][d], pa.split_products[3]
    tau_d, eta_d, taus_d, etas_d = systems.edge_values(pa)
    c1, c2, c3, c4 = eta_d * vp / (tau_d * etas_d), etas_d * vp / (taus_d * eta_d), vp / tau_d, vp / taus_d
    w, c, u = du._through(s, (True, 0), (False, d))
    expansion = du._outer_sum(c * f.invert(systems.nu_scalars(pa)[2]) * ph, s.root_family("eta", False, w), [
        r.scale(f.invert(ph_tail[j])) for j, r in enumerate(s.root_family("tau", True, u, covector=True))])
    # X E*_0 = c E_0 E*_0 and X E_0 = c E*_0 E_0 on the vectors w*_0 and w_0
    on_star = lambda X, c: X * Ws.column(0) == W.column(0).scale(c * U.row(0).dot(Ws.column(0)))
    on_e = lambda X, c: X * W.column(0) == Ws.column(0).scale(c * Us.row(0).dot(W.column(0)))
    # the daggers in the eigenbasis of A, where E_0 = e_0 e_0^T and E*_0 = k r^T
    m, hat = systems.solve_gram(s), du._in_eigenbasis(s)
    (K, Ks), DT = hat.eigenbasis(star=True), lambda X: X.transpose().scale_columns(m)
    k, r, x, xs = K.column(0), Ks.row(0), DT(U * t * W), DT(U * t_star * W)
    on_e0 = lambda XD, c: XD.row(0) == r.scale(c * k[0] * m[0])
    on_es0 = lambda XD, c: XD.transpose() * Vector(f, [a / b for a, b in zip(r, m)]) == e.column(0).scale(c * r[0])
    dense = {
        "T_dagger_displayed_sum": x == DT(du._displayed_dagger(hat)).transpose(),
        "T_star_dagger_displayed_sum": xs == DT(du._displayed_dagger(hat, star=True)).transpose(),
        "T_equals_T_star": t == t_star, "T_equals_T_dagger": x == x.transpose(),
        "T_equals_T_star_dagger": xs == x.transpose(),
        "T_squared_equals_lambda_identity": square == e.scale(bundle.lam),
        "product_T_E0star": on_star(t, c1), "product_Tstar_E0": on_e(t_star, c2),
        "product_E0star_Tdagger": on_es0(x, c1), "product_E0_Tstardagger": on_e0(xs, c2),
        "product_T_E0": on_e(t, c3), "product_Tstar_E0star": on_star(t_star, c4),
        "product_E0_Tdagger": on_e0(x, c3), "product_E0star_Tstardagger": on_es0(xs, c4),
        "T_squared_expansion": square == expansion,
    }
    assert {name: got[name] for name in dense} == {name: (ok, None) for name, ok in dense.items()}
    assert all(dense.values()) == du.is_self_dual(pa)
    C = {star: systems.change_of_basis(s, not star, t, star) for star in (False, True)}
    flags = [{"flag": z, "i": i} for z, image in du.T_FLAG_IMAGE.items() for i, spans in enumerate(
        du.spans_components(C["*" in z].submatrix(du._ORDER[image], du._ORDER[z]))) if not spans]
    assert got["T_on_flags"] == (not flags, flags[-1] if flags else None)
    decomps = {pair: du.build_decomposition(s, *pair).vectors for pair in du.DECOMPOSITION_PAIRS}
    tx = {x: t * x for x in {x for vectors in decomps.values() for x in vectors}}
    image = du.T_FLAG_IMAGE
    moved = [{"pair": f"[{z}{w}]", "i": i} for z, w in du.T_DECOMPOSITION_ORDER for i in range(d + 1)
             if not tx[decomps[(z, w)][i]].is_colinear(decomps[(image[z], image[w])][i])]
    assert got["T_on_decompositions"] == (not moved, moved[-1] if moved else None)


@pytest.mark.parametrize("array", D20_ARRAYS.values(), ids=D20_ARRAYS)
def test_d20_certified_geometry_matches_its_dense_forms(array):
    """At d = 20, which the differential test does not reach: on the certified system T_polynomial_form builds its
    core eta*_d(A*) tau_d(A) from three vector families, and decompositions_induce_flags and
    bases_span_decomposition_components hold from the certificate.  Each is held to its dense form, formed here: the
    dense core, factored (`linalg.rank_one_factors`) into the same sum; F^-1 X for each decomposition X in both of its flags
    (`duality.spans_components`, [z]^-1 U or U* in the flag's order, as U W = I); and each basis of
    BASIS_MEMBERSHIP against the vectors of its decomposition."""
    pa = systems.ParameterArray.from_json(array)
    s, d = systems.certify(pa), pa.d
    anchors = du.choose_anchor_vectors(s)
    (W, U), (tau_d, _, _, etas_d) = rank_one_factors([s.root_family("eta", True)[d] * s.root_family("tau")[d]]), \
        systems.edge_values(pa)
    dense = du._outer_sum(s.field.invert(tau_d * etas_d), s.root_family("eta", False, W.column(0))[::-1],
                          s.root_family("tau", True, U.row(0), covector=True))
    assert du.duality_operator_polynomial_form(s) == dense == du.duality_operator(s)
    inverse = lambda z: s.eigenbasis(z.endswith("*"))[1].submatrix(rows=du._ORDER[z])
    decomps = {pair: du.build_decomposition(s, *pair) for pair in du.DECOMPOSITION_PAIRS}
    assert all(all(du.spans_components(inverse(u) * Matrix.from_columns(s.field, vectors)))
               for dec in decomps.values() for u, vectors in ((dec.z, dec.vectors), (dec.w, dec.inversion_vectors())))
    assert all(x.is_colinear(y) for pair, ids in du.BASIS_MEMBERSHIP.items() for basis_id in ids
               for x, y in zip(du.build_basis(s, anchors, basis_id), decomps[pair].vectors, strict=True))
    checks = lambda *reports: {c.name: (c.passed, c.witness) for report in reports for c in report.checks}
    got = checks(du.verify_geometry_suite(s), du.verify_basis_family(s, anchors))
    assert [got[name] for name in ("decompositions_induce_flags", "bases_span_decomposition_components")] == [
        (True, None)] * 2


def test_output_digests_builds_the_q_racah_arrays_of_leonard_array():
    """tools/output_digests.py builds its q-Racah arrays without conftest, which needs pytest: the same arrays,
    theta* from (1, 3, 4) and, self-dual, from (1, 2, 7)."""
    tool = _tool()
    for field in (Field.rational(), Field.prime(GFP["p"])):
        n = field.from_int
        for d in tool.Q_RACAH_DS:
            for theta_star012 in ((1, 3, 4), (1, 2, 7)):
                want = leonard_array(field, d, (n(1), n(2), n(7)), tuple(map(n, theta_star012)), n(13) / n(6),
                                     n(5) / n(2))
                got = tool.q_racah(SimpleNamespace(systems=systems), field, d, theta_star012)
                assert got == want.to_json()
                assert du.is_self_dual(want) == (theta_star012 == (1, 2, 7))



def test_output_digests_builds_the_raised_krawtchouk_arrays_of_perturbed_arrays():
    """tools/output_digests.py builds its not-Leonard Krawtchouk arrays without the tests' helpers: the arrays of
    tests/reference.py::not_leonard_arrays, in the same order."""
    tool = _tool()
    program = SimpleNamespace(systems=systems)
    got = [array for field in FIELDS for d in tool.KRAWTCHOUK_DS for i in range(1, d + 1)
           if (array := tool.raised_krawtchouk(program, field, d, i)) is not None]
    assert got == [param.values[0].to_json() for param in not_leonard_arrays()]

if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {digest(*CASES[case])!r},")


REACHED_SOURCE = '''X = 1


def f(a):
    """doc"""
    try:
        b = (a +
             1)
    except ValueError:
        raise
    if (a and
            b):
        return b


class C:
    Y = 2

    @staticmethod
    def g():
        def h():
            return 1
        return h
'''


def test_reached_lines_reads_each_statement_of_a_function_body():
    """tools/reached_lines.py reads a body line as the first line of a statement inside a function, but its docstring
    and `try:`, and reaches a compound statement through the lines before its body, any other through any of its
    lines; module and class statements, and the def lines among them, are not body lines.  (The traced run over the
    digest calls takes about 10 s, so it is left to the CI report.)"""
    assert _tool("reached_lines").body_lines(REACHED_SOURCE) == {
        7: range(7, 9), 10: range(10, 11), 11: range(11, 13), 13: range(13, 14), 21: range(21, 22),
        22: range(22, 23), 23: range(23, 24)}
