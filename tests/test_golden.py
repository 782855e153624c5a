"""Golden output: sha256 of (exit status, stdout, stderr) for fixed CLI calls.

Refactors must leave every byte of these runs unchanged.  After an
intentional output change, print the new digests with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import FROZEN_ARRAYS
from leonard.cli import main

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
# in the A-eigenbasis and verify reports "intertwiner space has dimension 0".
Q_NOT_LEONARD = dict(FROZEN_ARRAYS[0], varphi=["-5/1", "-8/1", "-6/1"])
GFP_NOT_LEONARD = dict(GFP_SELF_DUAL, varphi=[2147470922, 2147466679, 2147470921])


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
for verb in VERBS[1:3] + VERBS[-1:]:
    CASES[f"gfp_d8_sd {' '.join(verb)}"] = (verb, GFP_D8_SELF_DUAL)
CASES["gfp_d8_nsd dualize"] = (["dualize"], GFP_D8_NON_SELF_DUAL)
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

GOLDEN = {
    'gf7_d0 bases': '16cb67a3554ecdbf9f4ce21feff1a71ffa0df645feb67a028a6594e26b65dfde',
    'gf7_d0 dualize': 'b6f5c724579fd9eb86d754272f4c0eafd02efe7541d5ae86231bd5468762021a',
    'gf7_d0 matrix-of-t --basis tau-vstard': '8c9cd91f6731726d5d43a103aa77a761c9b2a5bb78d09e8397573cb71b5fba68',
    'gf7_d0 verify': '386e2a44fecbb06f89f5dc6b24edc421055bf78e9834dd4116d82be95f550a83',
    'gfp_not_leonard dualize': 'd24dfb6410848e6a8d2e040fbd9abcd78591caaec7542300ad695d955f3af428',
    'gfp_d8_not_leonard verify': '4733f50b5aa639853695b1c5b516dc7a87a73165886b7efc8b2b6ff985d429f5',
    'gfp_d8_nsd dualize': 'aea5d841038352facecf2a4c3767082a0a80778ab2f937913d0eab15cae9ae84',
    'gfp_d8_sd bases': '69f38e28f59da9261f3f525c7d29b7304d88f6be4ab8201bcbd538857330add0',
    'gfp_d8_sd dualize': 'eea9a32937f23da219c0cbebc98c7423ca1e0de082cd8f59a7ce1ce597d1d7a6',
    'gfp_d8_sd matrix-of-t --basis tau-vstard': '88b7362e6cbf98d18a3f713611c912859f83b4a839be014f8889a0e0d8f67958',
    'gfp_not_leonard verify': 'af683b678ce187a28a7601ebb1c9e3f0b54fdcdaf975247acab6781666e8bcbc',
    'gfp_nsd bases': 'c7055024028980816071125c9d7c4cebf86ba4271c6293ee44e8819c04fd611f',
    'gfp_nsd dualize': '5ecffc0ea67badc7631a61d74631ddc2d0465fda9dcbe962619dbe4301007b11',
    'gfp_nsd matrix-of-t --basis eta-vstar0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis etastar-v0': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis tau-vstard': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd matrix-of-t --basis taustar-vd': '9989999fcf5e812ee159d9efb373e9f716fba42a46019049ad4fe02e126c0cfd',
    'gfp_nsd verify': '3e7b555d141c8dc725e9bc15885537ee8aa18ac5485c8681c97ed2cd7ec7f8c2',
    'gfp_sd bases': 'fa4c5e7f14d4185c80efee033573cbd7eb6be15b3ce8d697f3e1c740630e34ae',
    'gfp_sd dualize': '073a569584f1c468aa705de38f3d29db20cc5ffc4358ffc5ba38a03ccec168f1',
    'gfp_sd matrix-of-t --basis eta-vstar0': '168c35ade058d0f44fadea9488c080deef649af02d88b9fd2179634d78779e9c',
    'gfp_sd matrix-of-t --basis etastar-v0': 'af2100ff5cc18baeeb87ba001e4afa8215927493ebbe985bede08616f194abdb',
    'gfp_sd matrix-of-t --basis tau-vstard': '839ad38cde2fbba8bbe3ff19e312480d137362d88996133729145fed698aae34',
    'gfp_sd matrix-of-t --basis taustar-vd': '95dc3d728c8365e4586b3e07ecdd9306a40ebc71c8b0275f58355e4803e61bef',
    'gfp_sd verify': '1a8a9e98d31aa5fa56eee1b05da5985bef3e36198f5b731debd0b70dfbbf5ba6',
    'q0 bases': '28242cc3f3233b666858681d6b043773cc92cafb035968989ebbda33d13364f2',
    'q0 dualize': '89cd70d700366d26cca750e8577847d084ec101f4b6cf99379b5716880f118ae',
    'q0 matrix-of-t --basis eta-vstar0': '1fe121dbc37e16329df9474a1d5a7d1424c0562208f3d0083c6be25311931248',
    'q0 matrix-of-t --basis etastar-v0': 'fdabf0b3150a466d6365dfde64fb28425cd3be08434b3a03d04d14950737a29e',
    'q0 matrix-of-t --basis tau-vstard': '41edbac21f887ea82a7ff3b29b1b98e276630d37be24ebf06a3399e491e1b9a1',
    'q0 matrix-of-t --basis taustar-vd': '7976beb83ac6293a6aa3438a195dde9025fc13ff60529f6902c3857d22d8621a',
    'q0 verify': '4c009070e5f33a0b98da5df377075980b669424ddb99ee8520448a4ca30d1dc0',
    'q0_not_leonard dualize': 'd24dfb6410848e6a8d2e040fbd9abcd78591caaec7542300ad695d955f3af428',
    'q0_not_leonard verify': '93bcf38d30ac87a2ff8c0c91d03f61729205b4e8b0bb07c9bb3b5f88b5d400c3',
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
    'q_d8_not_leonard verify': '4d8e94e9da06d963627e794e305fa63b709fb50b43a1b5be723f9350d079683e',
    'q_d0 bases': 'c22a2ff33c79d70791018d7205533f28ce8d7d0eaf60bc6afdae3f3a87896a97',
    'q_d0 dualize': '67d12e322957e69677b4488abfc0a3f07c0ee993f8dcb2b13f43f8a30cb1df24',
    'q_d0 matrix-of-t --basis tau-vstard': '036d8e729fb36b20ae15d40a330995776d332e2693edc926b613bdab81a91707',
    'q_d0 verify': 'a4401f677529946007d5e7897cd0f40445f84ce1243a01ce14a66e73ac55b606',
    'search prime:5 d4 self-dual': '48c5e416a45200a1ea9459a3327d95f51e426b005388344704356cfb3de3d8e4',
    'search prime:7 d2': '4b012d9f0bfd0b51f27b22da398ed23f8420d462dff5b41b04b8f13479910b1b',
    'search prime:7 d3 self-dual': 'd5f3ef55662c8fcbb2af1e84b7663364c50e7e6f3b9d5db439d31412fdd21516',
    'search rational d2': '26c340aaf7b1e558e88aeda96540cdf61da86028a23b5de79e140adf12bdc84f',
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


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {digest(*CASES[case])!r},")
