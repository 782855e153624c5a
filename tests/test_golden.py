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
CASES["search prime:7 d2"] = (["search", "--field", "prime:7", "--d", "2", "--limit", "4"], None)
CASES["search rational d2"] = (
    ["search", "--field", "rational", "--d", "2", "--limit", "2", "--seed", "7"], None)

GOLDEN = {
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
    'search prime:7 d2': '4b012d9f0bfd0b51f27b22da398ed23f8420d462dff5b41b04b8f13479910b1b',
    'search rational d2': '26c340aaf7b1e558e88aeda96540cdf61da86028a23b5de79e140adf12bdc84f',
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
