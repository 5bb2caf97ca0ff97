"""The CLI reports on a fixed corpus, byte for byte.

``tests/golden/cases.json`` lists about sixty command lines over all six
commands; ``tests/golden/expected.json`` holds the exit code, standard
output and standard error each gave when the corpus was recorded (see
``tests/golden/regenerate.py``).  A change that keeps the reports keeps
this test green; a change that means to alter one records the corpus
again and says why, or names the case in ``MOVED``.
"""

import json

import pytest

from golden import regenerate

EXPECTED = json.loads((regenerate.HERE / "expected.json").read_text())
CASES = regenerate.load_cases()

_VERIFY_EVEN = ("--verify compares the closed form against the tensor "
                "oracle and needs odd p")
_SPREAD = ("step 1: surgery class meets 2 pairs of the carried frame; only "
           "single-handle classes are supported, conjugate by a mapping "
           "cylinder first")
# Refusals that now come before the step that refused these cases when
# the corpus was recorded: the case, its recorded exit code, and the
# exit code and error it gives now.
MOVED = {
    # a composite program without a closure is refused before its map
    # is computed, so before the closed route refuses even order
    "tqft-composite-p8-closed-normalized": (2, 5, (
        "no built-in closure for a composite program; supply a surgery "
        "presentation of the closed-off manifold")),
    # --verify at even order is refused before the document is read
    "tqft-malformed-p8-verify": (2, 3, _VERIFY_EVEN),
    "tqft-composite-p8-normalized-verify": (5, 3, _VERIFY_EVEN),
    # a surgery class spread over two frame pairs is refused by the
    # program's one walk, before the routes are priced and before the
    # walk reaches the target
    "tqft-spread-p13-oracle": (6, 4, _SPREAD),
    "tqft-spread-wrong-target-p3": (4, 4, _SPREAD),
}


def test_every_case_has_a_record():
    assert sorted(case["name"] for case in CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_is_byte_identical(case):
    code, out, err = regenerate.replay(case)
    want = EXPECTED[case["name"]]
    if case["name"] in MOVED:
        recorded, now, error = MOVED[case["name"]]
        assert want["exit"] == recorded and want["stdout"] == ""
        want = {"exit": now, "stdout": "", "stderr": json.dumps(
            {"error": error, "exit_code": now}, indent=2) + "\n"}
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])
