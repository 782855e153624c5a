"""The differential test on a table of rows: `reference.assert_agrees` on each (input, form, verb) of ROWS.

A row is an array, the forms of `reference.FORMS` its system runs in, and its verbs, each with whether every check of
that verb passes there.  `matrix-of-t` has no such expectation: `assert_agrees` holds its matrices of T, A and A* to
B^-1 (M B) by Gauss-Jordan, and its report to the displayed shapes where that report is printed.  The rows are at
d = 12: the q-Racah arrays, whose entries grow with d, not self-dual and self-dual, over Q and GF(2^31-1), and the
self-dual Krawtchouk array conjugated to a dense basis, where a premise that holds only on the split form would show.
"""

import pytest

from conftest import krawtchouk
from reference import GFP, Q, agrees_on, passes, q_racah

# verb -> whether all its checks pass, None where the verb reports nothing to `assert_agrees`
ALL_PASS = {"verify": True, "dualize": True, "bases": True, "matrix-of-t": None}
ROWS = {
    **{f"q-racah-{name}-d12": (q_racah(field, 12), ("split",), {**ALL_PASS, "dualize": False})
       for field, name in ((Q, "Q"), (GFP, "GF(2^31-1)"))},
    **{f"self-dual-q-racah-{name}-d12": (q_racah(field, 12, (1, 2, 7)), ("split",), ALL_PASS)
       for field, name in ((Q, "Q"), (GFP, "GF(2^31-1)"))},
    "krawtchouk-GF(2^31-1)-d12-dense": (krawtchouk(GFP, 12), ("dense",), ALL_PASS),
}


@pytest.mark.parametrize("row, verb", [pytest.param(row, verb, id=f"{row}-{verb}") for row in ROWS
                                       for verb in ROWS[row][2]])
def test_row_agrees_with_the_reference(row, verb):
    pa, forms, passing = ROWS[row]
    for agreed in agrees_on(pa, forms, (verb,)):
        assert passing[verb] is None or passes(agreed, verb) == passing[verb]
