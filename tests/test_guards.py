"""Mathematical guards raise ``ArithmeticError``, also under ``python -O``.

The oracle's checks are the exception: they raise ``AssertionError`` in
``induced_map_oracle``'s own frame, which the benchmark's defect list
keys on, also under ``python -O``.

Each case below reaches one guard by a direct call.  Three guards have
no case because no input reaches them: the unimodularity of
``symplectic_complete`` (the extended Euclid gives it), the output check
of ``symplectic_dual_basis`` (its input is checked to be a Lagrangian,
and the isotropy correction then makes the basis symplectic), and the
agreement of the three closed forms in ``cocycle_c`` (for any integer
matrix they are the same bilinear expression).
"""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from abtqft import cobordism
from abtqft.cobordism import _project_off, context_transfer
from abtqft.heisenberg import closed_context, induced_map_oracle
from abtqft.homology import (
    _check_adapted,
    cylinder_correspondence,
    index2_correspondence,
)

# identity cylinder on the torus: adapted rows (0, 1, 0, -1), (-1, 0, 1, 0)
# with dual rows (1, 0, 0, 0), (0, 0, 0, 1) and plus block (1,)
CYLINDER = cylinder_correspondence(((1, 0), (0, 1)), ((1, 0),), ((0, 1),))


def _adapted(**changes):
    fields = {name: getattr(CYLINDER, name)
              for name in type(CYLINDER).__slots__}
    fields.update(changes)
    return type(CYLINDER)(**fields)


def _degenerate_frame():
    """A duck-typed torus frame whose dual vector is zero, so every
    label rewrites to the same label."""
    return SimpleNamespace(p=3, g=1, L=((1, 0),), Ldual=((0, 0),),
                           labels=lambda: [(0,), (1,), (2,)])


CASES = {
    "transfer-not-a-relabeling": (
        lambda: context_transfer(_degenerate_frame(), closed_context(3, 1)),
        "transfer must be a relabeling"),
    "projection-not-orthogonal": (
        lambda: _project_off((1, 0), (2, 0), 1, 0, 2, 0),
        "class is not orthogonal to the surgery curve"),
    "projection-keeps-slot": (
        lambda: _project_off((0, 1), (1, 0), 1, 0, 1, 0),
        "projected class keeps a part in the surgered slot"),
    "adapted-rank": (
        lambda: _check_adapted(_adapted(adapted=CYLINDER.adapted[:1])),
        "adapted basis has 1 rows, expected 2"),
    "adapted-not-symplectic": (
        lambda: _check_adapted(_adapted(
            adapted_dual=CYLINDER.adapted_dual[::-1])),
        "adapted bases are not a symplectic basis of the boundary"),
    "plus-block-minus-part": (
        lambda: _check_adapted(_adapted(plus_block=(0,))),
        "plus-block dual row 0 has a minus part"),
}


# the even-order oracle defect: at p = 4, surgery on gamma = (1, 2) kills
# the designated class; under ``python -O`` the bare asserts let it
# through to a TypeError in the CLI's report
ORACLE_CASE = (
    lambda: induced_map_oracle(4, index2_correspondence(1, 0, 1, 2)),
    "oracle at p=4, g-=1, g+=0: a designated class is eliminated")


def test_the_reference_correspondence_passes():
    _check_adapted(CYLINDER)


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_raises_arithmetic_error(name):
    call, message = CASES[name]
    with pytest.raises(ArithmeticError) as info:
        call()
    assert str(info.value) == message


def test_oracle_guard_raises_in_its_own_frame():
    call, message = ORACLE_CASE
    with pytest.raises(AssertionError) as info:
        call()
    assert str(info.value) == message
    assert info.traceback[-1].name == "induced_map_oracle"


def test_guards_survive_optimised_mode():
    src = str(Path(cobordism.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from test_guards import CASES, ORACLE_CASE\n"
        "raised = 0\n"
        "for call, message in CASES.values():\n"
        "    try:\n"
        "        call()\n"
        "    except ArithmeticError as exc:\n"
        "        raised += str(exc) == message\n"
        "call, message = ORACLE_CASE\n"
        "try:\n"
        "    call()\n"
        "except AssertionError as exc:\n"
        "    raised += str(exc) == message\n"
        "print(__debug__, raised)\n" % (str(Path(__file__).parent),))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", str(len(CASES) + 1)]
