"""The value classes against frozen-dataclass references.

Each reference below is the frozen dataclass the class used to be, with
its old ``__post_init__``; matrix entries are read with
``operator.index``, as the classes now read them, so a float or a string
raises ``TypeError`` rather than being truncated or parsed.  Every case is built once from the package's
classes and once from the references; construction, validation errors,
equality, hashes and reprs must agree, and assignment must fail.
"""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from math import gcd
from operator import index
from pathlib import Path
from types import SimpleNamespace

import pytest

import test_mcg
from abtqft import cobordism, heisenberg, homology, mcg
from abtqft.homology import (
    _is_symplectic_basis,
    boundary_intersection,
    hnf,
    is_lagrangian,
    is_symplectic,
)

# -- the references ------------------------------------------------------


@dataclass(frozen=True)
class CobObject:
    g: int
    L: tuple

    def __post_init__(self):
        object.__setattr__(self, "L", hnf(self.L))
        if not is_lagrangian(self.L, self.g):
            raise ValueError("object Lagrangian must be a Lagrangian")


@dataclass(frozen=True)
class MappingCylinder:
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "matrix",
            tuple(tuple(index(v) for v in r) for r in self.matrix)
        )
        if not is_symplectic(self.matrix):
            raise ValueError("cylinder matrix must preserve the form")


@dataclass(frozen=True)
class Index1:
    position: int | None = None


@dataclass(frozen=True)
class Index2:
    handle: int
    alpha: int
    beta: int

    def __post_init__(self):
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError("surgery class must be primitive")


@dataclass(frozen=True)
class CobordismProgram:
    source: CobObject
    steps: tuple
    target: CobObject


@dataclass(frozen=True)
class HeisContext:
    p: int
    g_minus: int
    g_plus: int
    L: tuple
    Ldual: tuple

    def __post_init__(self):
        if self.p < 3 or self.p % 4 == 2:
            raise ValueError("order must be odd or divisible by 4")
        if len(self.L) != self.g or not _is_symplectic_basis(
                tuple(self.L) + tuple(self.Ldual), form=self.form):
            raise ValueError("L and Ldual must be a symplectic basis "
                             "with form(L[i], Ldual[j]) = delta_ij")

    @property
    def g(self):
        return self.g_minus + self.g_plus

    def form(self, x, y):
        return boundary_intersection(x, y, self.g_minus, self.g_plus)


@dataclass(frozen=True)
class MonomialOp:
    p: int
    entries: tuple


@dataclass(frozen=True)
class Correspondence:
    g_minus: int
    g_plus: int
    adapted: tuple
    adapted_dual: tuple
    plus_block: tuple
    source_L: tuple
    source_Ldual: tuple
    target_L: tuple
    target_Ldual: tuple


@dataclass(frozen=True)
class FreeWord:
    letters: tuple = ()

    def __post_init__(self):
        if any(not isinstance(x, int) or x == 0 for x in self.letters):
            raise ValueError("letters must be nonzero integers")
        object.__setattr__(self, "letters", mcg._reduce(self.letters))

    def __repr__(self):
        return "FreeWord(%r)" % (self.letters,)


@dataclass(frozen=True)
class MappingClass:
    g: int
    images: tuple
    matrix: tuple = field(init=False)

    def __post_init__(self):
        if len(self.images) != 2 * self.g:
            raise ValueError("need one image word per generator")
        images = tuple(
            w if isinstance(w, FreeWord) else FreeWord(tuple(w))
            for w in self.images
        )
        object.__setattr__(self, "images", images)
        # the word algebra of the package's FreeWord, on the same letters
        words = tuple(mcg.FreeWord(w.letters) for w in images)
        bnd = mcg.boundary_word(self.g)
        if bnd.substituted(words) != bnd:
            raise ValueError("substitution does not fix the boundary word")
        rows = []
        for i in range(1, self.g + 1):
            rows.append(words[2 * i - 2].homology(self.g))
        for i in range(1, self.g + 1):
            rows.append(words[2 * i - 1].homology(self.g))
        matrix = tuple(rows)
        if not is_symplectic(matrix):
            raise ValueError("substitution breaks the intersection form")
        object.__setattr__(self, "matrix", matrix)


@dataclass(frozen=True)
class BraidWord:
    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for tok in self.letters:
            body = tok[1:] if tok.startswith("-") else tok
            if (len(body) < 2 or body[0] not in "sab"
                    or not body[1:].isdigit() or int(body[1:]) < 1):
                raise ValueError("bad braid letter %r" % (tok,))


NAMES = ("CobObject", "MappingCylinder", "Index1", "Index2",
         "CobordismProgram", "HeisContext", "MonomialOp", "Correspondence",
         "FreeWord", "MappingClass", "BraidWord")
HOMES = {"CobObject": cobordism, "MappingCylinder": cobordism,
         "Index1": cobordism, "Index2": cobordism,
         "CobordismProgram": cobordism, "HeisContext": heisenberg,
         "MonomialOp": heisenberg, "Correspondence": homology,
         "FreeWord": mcg, "MappingClass": mcg, "BraidWord": test_mcg}
NEW = SimpleNamespace(**{n: getattr(HOMES[n], n) for n in NAMES})
REF = SimpleNamespace(**{n: globals()[n] for n in NAMES})

# -- the cases -------------------------------------------------------------

TORUS = ((1, 0),)
E2 = ((1, 0, 0, 0), (0, 1, 0, 0))
F2 = ((0, 0, 1, 0), (0, 0, 0, 1))
TWIST = ((1, 0), (1, 1))
SWAP_IMAGES = ((3,), (4,), (4, 3, -4, -3, 1, 3, 4, -3, -4),
               (4, 3, -4, -3, 2, 3, 4, -3, -4))

# (name, builder): each builder takes a namespace of the classes
VALID = [
    ("CobObject", lambda ns: ns.CobObject(1, TORUS)),
    ("CobObject", lambda ns: ns.CobObject(g=2, L=((0, 1, 0, 0),
                                                  (1, 0, 0, 0)))),
    ("CobObject", lambda ns: ns.CobObject(0, ())),
    ("MappingCylinder", lambda ns: ns.MappingCylinder(TWIST)),
    ("MappingCylinder", lambda ns: ns.MappingCylinder(
        matrix=[[0, -1], [1, 0]])),
    ("Index1", lambda ns: ns.Index1()),
    ("Index1", lambda ns: ns.Index1(0)),
    ("Index1", lambda ns: ns.Index1(position=2)),
    ("Index1", lambda ns: ns.Index1(((1, 0), (1, 1)))),
    ("Index2", lambda ns: ns.Index2(0, 1, 2)),
    ("Index2", lambda ns: ns.Index2(handle=1, alpha=-3, beta=2)),
    ("Index2", lambda ns: ns.Index2(0, 1, 0)),
    ("CobordismProgram", lambda ns: ns.CobordismProgram(
        ns.CobObject(1, TORUS), (ns.Index1(), ns.Index2(1, 1, 0)),
        ns.CobObject(1, TORUS))),
    ("CobordismProgram", lambda ns: ns.CobordismProgram(
        source=ns.CobObject(1, TORUS), steps=(ns.MappingCylinder(TWIST),),
        target=ns.CobObject(1, ((1, 1),)))),
    ("HeisContext", lambda ns: ns.HeisContext(5, 0, 2, E2, F2)),
    ("HeisContext", lambda ns: ns.HeisContext(
        p=4, g_minus=0, g_plus=1, L=((1, 0),), Ldual=((0, 1),))),
    ("HeisContext", lambda ns: ns.HeisContext(
        p=3, g_minus=1, g_plus=0, L=((1, 0),), Ldual=((0, -1),))),
    ("MonomialOp", lambda ns: ns.MonomialOp(3, (((0,), (1,), 2),))),
    ("MonomialOp", lambda ns: ns.MonomialOp(p=5, entries=())),
    ("MonomialOp", lambda ns: ns.MonomialOp(3, ())),
    ("Correspondence", lambda ns: ns.Correspondence(
        0, 1, TORUS, ((0, 1),), (0,), (), (), TORUS, ((0, 1),))),
    ("Correspondence", lambda ns: ns.Correspondence(
        g_minus=1, g_plus=1, adapted=E2, adapted_dual=F2,
        plus_block=(1,), source_L=TORUS, source_Ldual=((0, 1),),
        target_L=TORUS, target_Ldual=((0, 1),))),
    ("Correspondence", lambda ns: ns.Correspondence(1, 0, TORUS, None, (),
                                                    TORUS, None, (), ())),
    ("FreeWord", lambda ns: ns.FreeWord()),
    ("FreeWord", lambda ns: ns.FreeWord((1, 2, -2, 2))),
    ("FreeWord", lambda ns: ns.FreeWord(letters=[3, -4])),
    ("FreeWord", lambda ns: ns.FreeWord((1, -1))),
    ("MappingClass", lambda ns: ns.MappingClass(1, ((1,), (2, 1)))),
    ("MappingClass", lambda ns: ns.MappingClass(
        g=1, images=(ns.FreeWord((1, -2)), ns.FreeWord((2,))))),
    ("MappingClass", lambda ns: ns.MappingClass(2, SWAP_IMAGES)),
    ("BraidWord", lambda ns: ns.BraidWord()),
    ("BraidWord", lambda ns: ns.BraidWord(("s1", "-a2"))),
    ("BraidWord", lambda ns: ns.BraidWord(letters=["b12"])),
]

INVALID = [
    ("CobObject", lambda ns: ns.CobObject(2, ((1, 0, 0, 0), (0, 0, 1, 0)))),
    ("CobObject", lambda ns: ns.CobObject(1, ((2, 0),))),
    ("CobObject", lambda ns: ns.CobObject(1)),
    ("MappingCylinder", lambda ns: ns.MappingCylinder(((1, 1), (0, 2)))),
    ("MappingCylinder", lambda ns: ns.MappingCylinder((("a", 0), (0, 1)))),
    ("MappingCylinder", lambda ns: ns.MappingCylinder(5)),
    ("Index1", lambda ns: ns.Index1(0, 1)),
    ("Index2", lambda ns: ns.Index2(0, 2, 4)),
    ("Index2", lambda ns: ns.Index2(0, 0, 0)),
    ("Index2", lambda ns: ns.Index2(0, 1.5, 2)),
    ("Index2", lambda ns: ns.Index2(0, 1)),
    ("Index2", lambda ns: ns.Index2(0, 1, 2, handle=0)),
    ("CobordismProgram", lambda ns: ns.CobordismProgram(None, ())),
    ("CobordismProgram", lambda ns: ns.CobordismProgram(None, (), None,
                                                        spare=1)),
    ("HeisContext", lambda ns: ns.HeisContext(6, 0, 1, TORUS, ((0, 1),))),
    ("HeisContext", lambda ns: ns.HeisContext(2, 0, 1, TORUS, ((0, 1),))),
    ("HeisContext", lambda ns: ns.HeisContext(5, 0, 1, TORUS, ((0, 2),))),
    ("HeisContext", lambda ns: ns.HeisContext(5, 0, 2, TORUS, F2)),
    ("MonomialOp", lambda ns: ns.MonomialOp(3)),
    ("Correspondence", lambda ns: ns.Correspondence(0, 1)),
    ("FreeWord", lambda ns: ns.FreeWord((1, 0))),
    ("FreeWord", lambda ns: ns.FreeWord(("a",))),
    ("FreeWord", lambda ns: ns.FreeWord(3)),
    ("MappingClass", lambda ns: ns.MappingClass(1, ((1,),))),
    ("MappingClass", lambda ns: ns.MappingClass(1, ((2,), (1,)))),
    ("MappingClass", lambda ns: ns.MappingClass(1, ((1,), (0,)))),
    ("MappingClass", lambda ns: ns.MappingClass(1, ((1,), (2,)),
                                                matrix=TWIST)),
    ("BraidWord", lambda ns: ns.BraidWord(("s0",))),
    ("BraidWord", lambda ns: ns.BraidWord(("x1",))),
    ("BraidWord", lambda ns: ns.BraidWord(("-s",))),
    ("BraidWord", lambda ns: ns.BraidWord(5)),
]


def _outcome(build, ns):
    try:
        return build(ns), None
    except Exception as exc:  # the references raise what the classes raise
        return None, (type(exc), str(exc))


def _field_names(ref_cls):
    return [f.name for f in dataclasses.fields(ref_cls)]


def test_every_class_has_cases():
    assert {n for n, _ in VALID} == set(NAMES)
    # a class without checks of its own fails on a wrong argument count
    assert {n for n, _ in INVALID} == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_and_signature_match(name):
    new, ref = getattr(NEW, name), getattr(REF, name)
    assert list(new.__slots__) == _field_names(ref)
    got = inspect.signature(new.__init__).parameters
    want = inspect.signature(ref.__init__).parameters
    assert [(p.name, p.kind, p.default) for p in got.values()] == [
        (p.name, p.kind, p.default) for p in want.values()]


@pytest.mark.parametrize("index", range(len(VALID)))
def test_construction_matches_reference(index):
    name, build = VALID[index]
    new, ref = build(NEW), build(REF)
    assert type(new) is getattr(NEW, name)
    assert repr(new) == repr(ref)
    assert hash(new) == hash(ref)
    for fname in _field_names(type(ref)):
        assert repr(getattr(new, fname)) == repr(getattr(ref, fname))
    again = build(NEW)
    assert again == new and not again != new and hash(again) == hash(new)
    assert new != ref and ref != new


@pytest.mark.parametrize("index", range(len(INVALID)))
def test_validation_errors_match_reference(index):
    _, build = INVALID[index]
    new, new_err = _outcome(build, NEW)
    ref, ref_err = _outcome(build, REF)
    assert new is None and ref is None
    assert new_err == ref_err


def test_equality_across_all_cases_matches_reference():
    news = [build(NEW) for _, build in VALID]
    refs = [build(REF) for _, build in VALID]
    for i, (a, ra) in enumerate(zip(news, refs)):
        for b, rb in zip(news, refs):
            assert (a == b) == (ra == rb), (VALID[i][0], a, b)
            assert (a != b) == (ra != rb)
        # never equal to the bare field tuple
        fields = tuple(getattr(a, n) for n in type(a).__slots__)
        assert a != fields and fields != a
    # same fields, different classes
    assert NEW.FreeWord(()) != NEW.BraidWord(())
    assert NEW.Index1(TWIST) != NEW.MappingCylinder(TWIST)
    assert NEW.Index1(TWIST).__eq__(NEW.MappingCylinder(TWIST)) is (
        NotImplemented)


@pytest.mark.parametrize("index", range(len(VALID)))
def test_assignment_is_refused(index):
    _, build = VALID[index]
    obj = build(NEW)
    before = repr(obj)
    for fname in list(type(obj).__slots__) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(obj, fname, 1)
        with pytest.raises(AttributeError):
            delattr(obj, fname)
    assert repr(obj) == before


@pytest.mark.parametrize("index", range(len(VALID)))
def test_pickle_and_copy_keep_the_value(index):
    _, build = VALID[index]
    obj = build(NEW)
    for twin in (pickle.loads(pickle.dumps(obj)),
                 pickle.loads(pickle.dumps(obj, protocol=0)),
                 copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert twin == obj and repr(twin) == repr(obj)


def test_freeword_keeps_its_own_repr():
    assert repr(NEW.FreeWord((1, 2))) == "FreeWord((1, 2))"
    assert repr(NEW.MappingClass.identity(1)) == (
        "MappingClass(g=1, images=(FreeWord((1,)), FreeWord((2,))), "
        "matrix=((1, 0), (0, 1)))")


def _imported_modules(argv, doc=None):
    """Names of the modules a process imports, from -X importtime."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cobordism.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-X", "importtime"] + argv,
                          input=doc, capture_output=True, text=True,
                          env=env, timeout=120)
    lines = proc.stderr.splitlines()
    names = {line.rsplit("|", 1)[1].strip() for line in lines
             if line.startswith("import time:")}
    return proc.returncode, names


ENGINES = {"abtqft.surgery", "abtqft.homology", "abtqft.heisenberg",
           "abtqft.cobordism", "abtqft.mcg"}
# the engine modules each command loads: the rest of ENGINES stays out
LOADS = {
    "invariant": {"abtqft.surgery"},
    "refine": {"abtqft.surgery"},
    "lens": {"abtqft.surgery"},
    "heis": {"abtqft.homology", "abtqft.heisenberg"},
    "mcg": {"abtqft.homology", "abtqft.heisenberg", "abtqft.mcg"},
    "tqft": ENGINES - {"abtqft.mcg"},
}


def test_cli_processes_load_no_argparse_dataclasses_inspect_or_ast(tmp_path):
    _, bare = _imported_modules(["-c", "pass"])
    program = ('{"source": {"g": 1, "L": [[1, 0]]}, "steps": [{"kind": '
               '"index2", "handle": 0, "gamma": [1, 2]}], '
               '"target": {"g": 0, "L": []}}')
    vector = tmp_path / "vector.json"
    vector.write_text('{"entries": [{"label": [1], "value": "-3/4"}]}')
    runs = [
        (["invariant", "-", "--p", "5"], '{"B": [[2, 1], [1, 2]]}', 0),
        (["refine", "-", "--p", "8"], '{"B": [[2, 1], [1, 2]]}', 0),
        (["lens", "7", "3", "--p", "5"], None, 0),
        (["tqft", "-", "--p", "5"], program, 0),
        (["tqft", "-", "--p", "5", "--vector", str(vector)], program, 0),
        (["heis", "-", "--p", "5"], '{"op": "commutant", "g": 1}', 0),
        (["mcg", "-", "--p", "5"],
         '{"op": "weil", "g": 1, "f": {"word": ["ta"]}}', 0),
        (["lens", "7", "x", "--p", "5"], None, 2),
    ]
    unwanted = {"dataclasses", "inspect", "ast", "argparse", "gettext",
                "locale", "fractions", "decimal", "numbers"}
    for argv, doc, expect in runs:
        code, names = _imported_modules(["-m", "abtqft.cli"] + argv, doc)
        assert code == expect, argv
        assert "abtqft.cyclotomic" in names, argv
        # a usage error stops before any command runs
        loads = LOADS[argv[0]] if expect == 0 else set()
        assert names & ENGINES == loads, argv
        assert not unwanted & (names - bare), argv
