import argparse
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from abtqft import cli, mcg
from abtqft.cobordism import (
    Index1,
    MappingCylinder,
    ProgramError,
    canonical_context,
    load_program,
)
from abtqft.cyclotomic import (
    eta_kappa,
    field_order,
    from_rational,
    gauss_sum,
    make_root,
    q_power,
)
from abtqft.heisenberg import closed_context, finite_mul, to_finite
from abtqft.homology import (
    cylinder_correspondence,
    index1_correspondence,
    intersection,
)
from abtqft.mcg import (
    FreeWord,
    boundary_word,
    cocycle_c,
    projective_defect,
    twist_generators,
    weil_H,
    weil_intertwiner,
)
from abtqft.surgery import matrix_element, refinement_classes, z_lens


def _run(capsys, argv, expect=0):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == expect, (rc, err)
    if expect == 0:
        assert err == ""
        return json.loads(out)
    # no partial output on error paths
    assert out == ""
    return json.loads(err)


def _doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# -- invariant / refine / lens --------------------------------------------


def test_invariant_empty_link_is_eta(tmp_path, capsys):
    path = _doc(tmp_path, "empty.json", {"B": []})
    report = _run(capsys, ["invariant", path, "--p", "5"])
    eta, _ = eta_kappa(5)
    assert cli.parse_scalar(report["value"]) == eta
    assert report["signature"] == 0
    assert report["value"]["approx"]["re"].startswith("0.447213")
    assert report["value"]["approx"]["approximate"] is True


def test_invariant_zero_framed_unknot(tmp_path, capsys):
    path = _doc(tmp_path, "s2s1.json", {"B": [[0]]})
    report = _run(capsys, ["invariant", path, "--p", "4"])
    assert cli.parse_scalar(report["value"]) == from_rational(8, 1)
    block = report["refinement"]
    assert block["kind"] == "spin"
    assert block["sum_matches_total"] is True


def test_invariant_with_fixed_colors(tmp_path, capsys):
    B = [[0, 1], [1, 2]]
    path = _doc(tmp_path, "hopf.json",
                {"B": B, "fixed_colors": {"0": 1}})
    report = _run(capsys, ["invariant", path, "--p", "5"])
    expect = matrix_element(5, tuple(tuple(r) for r in B), {0: 1}, 1)
    assert cli.parse_scalar(report["value"]) == expect


def test_invariant_error_codes(tmp_path, capsys):
    bad = _doc(tmp_path, "bad.json", {"B": [[0, 1]]})
    _run(capsys, ["invariant", bad, "--p", "5"], expect=2)
    asym = _doc(tmp_path, "asym.json", {"B": [[0, 1], [2, 0]]})
    _run(capsys, ["invariant", asym, "--p", "5"], expect=2)
    ok = _doc(tmp_path, "ok.json", {"B": []})
    _run(capsys, ["invariant", ok, "--p", "6"], expect=3)
    _run(capsys, ["invariant", str(tmp_path / "missing.json"), "--p", "5"],
         expect=2)
    notjson = tmp_path / "plain.txt"
    notjson.write_text("not json")
    _run(capsys, ["invariant", str(notjson), "--p", "5"], expect=2)


def test_refine_reports_all_classes(tmp_path, capsys):
    path = _doc(tmp_path, "one.json", {"B": [[1]]})
    report = _run(capsys, ["refine", path, "--p", "8"])
    got = [tuple(c["class"]) for c in report["refinement"]["classes"]]
    assert got == list(refinement_classes(8, ((1,),)))
    assert report["refinement"]["sum_matches_total"] is True
    report = _run(capsys, ["refine", path, "--p", "16"])
    got = [tuple(c["class"]) for c in report["refinement"]["classes"]]
    assert got == list(refinement_classes(16, ((1,),)))
    assert report["refinement"]["sum_matches_total"] is True
    _run(capsys, ["refine", path, "--p", "5"], expect=3)


def test_lens_matches_library(capsys):
    report = _run(capsys, ["lens", "5", "2", "--p", "3"])
    assert cli.parse_scalar(report["value"]) == z_lens(3, 5, 2)
    _run(capsys, ["lens", "4", "2", "--p", "3"], expect=2)
    _run(capsys, ["lens", "-2", "1", "--p", "3"], expect=2)


# -- tqft ------------------------------------------------------------------


def _surgery_program(gamma):
    return {"source": {"g": 1, "L": [[1, 0]]},
            "steps": [{"kind": "index2", "handle": 0, "gamma": gamma}],
            "target": {"g": 0, "L": []}}


def test_tqft_longitude_surgery_evaluates_to_one(tmp_path, capsys):
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    vec = _doc(tmp_path, "vec.json",
               {"entries": [{"label": [1], "value": "1"}]})
    report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec,
                           "--verify"])
    entries = report["vector"]["entries"]
    assert len(entries) == 1 and entries[0]["label"] == []
    assert cli.parse_scalar(entries[0]["value"]) == from_rational(40, 1)
    assert "oracle" in report["verified"]


def test_tqft_meridian_surgery_kills_nonzero_colors(tmp_path, capsys):
    prog = _doc(tmp_path, "prog.json", _surgery_program([1, 0]))
    vec = _doc(tmp_path, "vec.json",
               {"entries": [{"label": [1], "value": "1"}]})
    report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec])
    assert report["vector"]["entries"] == []


def test_tqft_map_output_round_trips(tmp_path, capsys):
    prog = _doc(tmp_path, "prog.json", {
        "source": {"g": 1, "L": [[1, 0]]},
        "steps": [{"kind": "cylinder",
                   "matrix": [[1, 0], [1, 1]]}],
        "target": {"g": 1, "L": [[1, 0]]}})
    report = _run(capsys, ["tqft", prog, "--p", "3"])
    entries = report["map"]["entries"]
    assert len(entries) == 3
    got = {(tuple(e["target"]), tuple(e["source"])):
           cli.parse_scalar(e["value"]) for e in entries}
    for k in range(3):
        assert got[((k,), (k,))] == q_power(3, k * k)


def test_tqft_error_codes(tmp_path, capsys):
    _run(capsys, ["tqft", _doc(tmp_path, "a.json", {"steps": []}),
                  "--p", "3"], expect=2)
    mismatch = _doc(tmp_path, "b.json", {
        "source": {"g": 1, "L": [[1, 0]]}, "steps": [],
        "target": {"g": 0, "L": []}})
    _run(capsys, ["tqft", mismatch, "--p", "3"], expect=4)
    composite = _doc(tmp_path, "c.json", {
        "source": {"g": 1, "L": [[1, 0]]},
        "steps": [{"kind": "index1"},
                  {"kind": "index2", "handle": 1, "gamma": [0, 1]}],
        "target": {"g": 1, "L": [[1, 0]]}})
    _run(capsys, ["tqft", composite, "--p", "3", "--normalized"], expect=5)
    closure = _doc(tmp_path, "d.json", {"B": []})
    _run(capsys, ["tqft", composite, "--p", "3", "--normalized",
                  "--closure", closure])
    single = _doc(tmp_path, "e.json", _surgery_program([0, 1]))
    _run(capsys, ["tqft", single, "--p", "8", "--verify"], expect=3)


# -- heis ------------------------------------------------------------------


def test_heis_mul_matches_library(tmp_path, capsys):
    path = _doc(tmp_path, "mul.json",
                {"op": "mul", "g": 1, "x": [0, [1], [0]],
                 "y": [0, [0], [1]]})
    report = _run(capsys, ["heis", path, "--p", "5"])
    ctx = closed_context(5, 1)
    k, a, b = finite_mul(ctx, (0, (1,), (0,)), (0, (0,), (1,)))
    assert report["result"] == [k, list(a), list(b)]


def test_heis_act_and_matrix(tmp_path, capsys):
    act = _doc(tmp_path, "act.json", {
        "op": "act", "g": 1, "element": [1, [0], [1]],
        "vector": {"entries": [{"label": [0], "value": "1"}]}})
    report = _run(capsys, ["heis", act, "--p", "3"])
    entries = report["vector"]["entries"]
    assert len(entries) == 1 and entries[0]["label"] == [1]
    assert cli.parse_scalar(entries[0]["value"]) == q_power(3, 1)
    mat = _doc(tmp_path, "mat.json", {
        "op": "matrix", "g": 1, "element": [0, [1], [0]]})
    report = _run(capsys, ["heis", mat, "--p", "3"])
    got = {(tuple(e["target"]), tuple(e["source"])):
           cli.parse_scalar(e["value"])
           for e in report["map"]["entries"]}
    assert got == {((c,), (c,)): q_power(3, 2 * c) for c in range(3)}


def test_heis_commutant_is_trivial(tmp_path, capsys):
    for p in ("3", "4"):
        path = _doc(tmp_path, "c%s.json" % p, {"op": "commutant", "g": 1})
        report = _run(capsys, ["heis", path, "--p", p])
        assert report["dimension"] == 1


def test_heis_bad_documents(tmp_path, capsys):
    _run(capsys, ["heis", _doc(tmp_path, "a.json", {"op": "mul", "g": 0}),
                  "--p", "3"], expect=2)
    _run(capsys, ["heis", _doc(tmp_path, "b.json",
                               {"op": "spin", "g": 1}),
                  "--p", "3"], expect=2)
    _run(capsys, ["heis", _doc(tmp_path, "c.json",
                               {"op": "mul", "g": 1, "x": [0, [1]],
                                "y": [0, [0], [1]]}),
                  "--p", "3"], expect=2)


# -- mcg -------------------------------------------------------------------


def test_mcg_theta_report(tmp_path, capsys):
    path = _doc(tmp_path, "theta.json",
                {"op": "theta", "g": 1, "f": {"word": ["ta"]}})
    report = _run(capsys, ["mcg", path, "--p", "3"])
    assert report["theta"] == [0, -1]
    assert report["t"] == [1, 0]
    assert report["matrix"] == [[1, 0], [1, 1]]


def test_mcg_theta_from_explicit_images(tmp_path, capsys):
    path = _doc(tmp_path, "img.json",
                {"op": "theta", "g": 1,
                 "f": {"images": [[1], [2, 1]]}})
    report = _run(capsys, ["mcg", path, "--p", "5"])
    assert report["theta"] == [0, -1]
    broken = _doc(tmp_path, "broken.json",
                  {"op": "theta", "g": 1,
                   "f": {"images": [[2], [1]]}})
    _run(capsys, ["mcg", broken, "--p", "5"], expect=2)


def test_mcg_cocycle_with_measurement(tmp_path, capsys):
    path = _doc(tmp_path, "coc.json",
                {"op": "cocycle", "g": 1, "f": {"word": ["ta"]},
                 "h": {"word": ["tb"]}})
    report = _run(capsys, ["mcg", path, "--p", "3", "--verify"])
    assert report["c"] == 2
    assert "q^c" in report["verified"]
    _run(capsys, ["mcg", path, "--p", "4"], expect=3)


@pytest.mark.parametrize("g, f, h", [
    (1, ["ta", "tb'"], ["tb"]),
    (2, ["chain", "ta2"], ["swap", "tb1"]),
])
def test_mcg_cocycle_verify_builds_three_intertwiners(monkeypatch, capsys,
                                                      g, f, h):
    doc = {"op": "cocycle", "g": g, "f": {"word": f}, "h": {"word": h}}
    cf, ch = (cli._class_from(doc, key, g) for key in ("f", "h"))
    # the reference route: weil_H and a second intertwiner per class
    ctx = closed_context(3, g)
    classes = (cf, ch, cf * ch)
    c = cocycle_c(cf, ch, 3)
    lam_H = projective_defect(*(weil_H(x, ctx) for x in classes))
    lam_S = projective_defect(*(weil_intertwiner(x.matrix, ctx)
                                for x in classes))
    assert lam_H == lam_S * q_power(3, c)
    expected = {"command": "mcg", "op": "cocycle", "p": 3, "g": g, "c": c,
                "verified": "defect ratio matches q^c"}
    calls = []

    def counting(fsymp, ctx):
        calls.append(fsymp)
        return weil_intertwiner(fsymp, ctx)

    monkeypatch.setattr(mcg, "weil_intertwiner", counting)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["mcg", "-", "--p", "3", "--verify"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert calls == [x.matrix for x in classes]


def test_mcg_weil_report(tmp_path, capsys):
    path = _doc(tmp_path, "weil.json",
                {"op": "weil", "g": 1, "matrix": [[0, -1], [1, 0]]})
    report = _run(capsys, ["mcg", path, "--p", "3"])
    got = {(tuple(e["target"]), tuple(e["source"])):
           cli.parse_scalar(e["value"])
           for e in report["intertwiner"]["entries"]}
    ctx = closed_context(3, 1)
    assert got == weil_intertwiner(((0, -1), (1, 0)), ctx)
    bad = _doc(tmp_path, "badm.json",
               {"op": "weil", "g": 1, "matrix": [[1, 0], [0, 2]]})
    _run(capsys, ["mcg", bad, "--p", "3"], expect=2)
    unknown = _doc(tmp_path, "unk.json",
                   {"op": "weil", "g": 1, "f": {"word": ["nope"]}})
    _run(capsys, ["mcg", unknown, "--p", "3"], expect=2)


# -- document shape and integer fields -------------------------------------


@pytest.mark.parametrize("command, payload", [
    ("invariant", []),
    ("refine", [[1]]),
    ("tqft", []),
    ("heis", [1, 2]),
    ("mcg", []),
])
def test_non_object_document_is_malformed(monkeypatch, capsys, command,
                                          payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    p = "8" if command == "refine" else "5"
    report = _run(capsys, [command, "-", "--p", p], expect=2)
    assert "JSON object" in report["error"]


@pytest.mark.parametrize("command, payload", [
    ("invariant", {"B": [[True]]}),
    ("refine", {"B": [[True, False], [False, True]]}),
    ("heis", {"op": "mul", "g": True, "x": [0, [1], [0]],
              "y": [0, [0], [1]]}),
    ("mcg", {"op": "theta", "g": True, "f": {"word": ["ta"]}}),
    ("invariant", {"B": [[1.5]]}),
    ("heis", {"op": "mul", "g": 1, "x": [0, [1.0], [0]],
              "y": [0, [0], [1]]}),
])
def test_booleans_and_floats_are_not_integers(tmp_path, capsys, command,
                                              payload):
    p = "8" if command == "refine" else "5"
    path = _doc(tmp_path, "doc.json", payload)
    report = _run(capsys, [command, path, "--p", p], expect=2)
    assert "integer" in report["error"]


@pytest.mark.parametrize("where, value", [
    ("g", True), ("L", 1.0), ("handle", False), ("gamma", 1.5)])
def test_program_numbers_must_be_integers(tmp_path, capsys, where, value):
    prog = _surgery_program([1, 1])
    if where == "g":
        prog["source"]["g"] = value
    elif where == "L":
        prog["source"]["L"][0][0] = value
    elif where == "handle":
        prog["steps"][0]["handle"] = value
    else:
        prog["steps"][0]["gamma"][1] = value
    report = _run(capsys, ["tqft", _doc(tmp_path, "prog.json", prog),
                           "--p", "5"], expect=2)
    assert "expected an integer" in report["error"]


# -- every node of one valid document per command, replaced by a wrong shape


EXIT_CODES = {0, 2, 3, 4, 5}
WRONG_SHAPES = (True, 1.5, None, "x", [], {}, [[1]], -1)
VALID_DOCS = [
    ("invariant", "3", {"B": [[2, 1], [1, 2]], "fixed_colors": {"0": 1}}),
    ("refine", "4", {"B": [[1, 1], [1, 2]]}),
    ("tqft", "3", {"source": {"g": 1, "L": [[1, 0]]},
                   "steps": [{"kind": "cylinder",
                              "matrix": [[1, 0], [1, 1]]},
                             {"kind": "index1", "position": 1},
                             {"kind": "index2", "handle": 0,
                              "gamma": [0, 1]}],
                   "target": {"g": 1, "L": [[1, 0]]}}),
    ("heis", "3", {"op": "mul", "g": 1, "x": [1, [1], [0]],
                   "y": [0, [0], [2]]}),
    ("heis", "3", {"op": "act", "g": 1, "element": [0, [1], [1]],
                   "vector": {"entries": [
                       {"label": [1], "value": "1/2"},
                       {"label": [2], "value": {
                           "order": 24,
                           "coeffs": ["1", "0", "0", "0", "0", "0", "0",
                                      "0"]}}]}}),
    ("heis", "3", {"op": "matrix", "g": 1, "element": [2, [0], [1]]}),
    ("mcg", "3", {"op": "cocycle", "g": 1, "f": {"word": ["ta", "tb'"]},
                  "h": {"images": [[1, -2], [2]]}}),
    ("mcg", "3", {"op": "weil", "g": 1, "matrix": [[0, -1], [1, 0]]}),
]


def _node_paths(node, path=()):
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, path + (i,))


def _replaced(doc, path, value):
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


SHAPE_CASES = [
    pytest.param(command, p, _replaced(doc, path, value),
                 id="%s-%s-%s=%s" % (command, doc.get("op", ""),
                                     ".".join(map(str, path)),
                                     json.dumps(value)))
    for command, p, doc in VALID_DOCS
    for path in _node_paths(doc)
    for value in WRONG_SHAPES
]


def test_shape_sweep_documents_are_valid(monkeypatch, capsys):
    for command, p, doc in VALID_DOCS:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        argv = [command, "-", "--p", p]
        _run(capsys, argv + ["--verify"] if command == "mcg" else argv)


@pytest.mark.parametrize("command, p, doc", SHAPE_CASES)
def test_wrong_shapes_exit_with_a_documented_code(monkeypatch, capsys,
                                                  command, p, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    argv = [command, "-", "--p", p]
    rc = cli.main(argv + ["--verify"] if command == "mcg" else argv)
    capsys.readouterr()
    assert rc in EXIT_CODES


# ``fixed_colors`` is an object keyed by canonical decimal indices: a
# falsy non-object no longer reads as "no fixed colours", and no two keys
# may name one index ("0" and " 0") or read as another ("1_0" as 10)
BAD_FIXED_COLORS = [False, 0, "", [], None, [[0, 1]], "0",
                    {"0": 1, " 0": 2}, {"1_0": 1}, {"01": 1}, {"-0": 1},
                    {"+1": 1}, {"1 ": 1}, {"\u0661": 1}, {"": 1},
                    {"0": True}, {"0": 1.5}, {"0": "1"}, {"0": None},
                    {"2": 1}, {"10": 1}]


@pytest.mark.parametrize("fixed", BAD_FIXED_COLORS,
                         ids=[json.dumps(f) for f in BAD_FIXED_COLORS])
def test_malformed_fixed_colors_exit_2(monkeypatch, capsys, fixed):
    doc = {"B": [[0, 1], [1, 2]], "fixed_colors": fixed}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    report = _run(capsys, ["invariant", "-", "--p", "5"], expect=2)
    assert "fixed_colors" in report["error"]


def test_fixed_colors_index_given_twice_exits_2(monkeypatch, capsys):
    # json keeps the last of two equal keys; the index may appear once
    text = '{"B": [[0, 1], [1, 2]], "fixed_colors": {"0": 1, "0": 2}}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    report = _run(capsys, ["invariant", "-", "--p", "5"], expect=2)
    assert "twice" in report["error"]
    # elsewhere a repeated key keeps its last value, as before
    text = '{"B": [[9]], "B": [[0, 1], [1, 2]], "fixed_colors": {"0": 2}}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    report = _run(capsys, ["invariant", "-", "--p", "5"])
    assert report["size"] == 2 and report["fixed_colors"] == {"0": 2}


def test_empty_fixed_colors_is_the_invariant(monkeypatch, capsys):
    reports = []
    for doc in ({"B": [[0, 1], [1, 2]]},
                {"B": [[0, 1], [1, 2]], "fixed_colors": {}}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        reports.append(_run(capsys, ["invariant", "-", "--p", "5"]))
    assert reports[0] == reports[1]
    assert "fixed_colors" not in reports[1]


def test_fixed_colors_keys_are_indices(monkeypatch, capsys):
    B = [[0, 1, 0], [1, 2, 1], [0, 1, 3]]
    doc = {"B": B, "fixed_colors": {"2": -1, "0": 7}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    report = _run(capsys, ["invariant", "-", "--p", "5"])
    assert report["fixed_colors"] == {"0": 7, "2": -1}
    expect = matrix_element(5, tuple(tuple(r) for r in B), {0: 7, 2: -1}, 2)
    assert cli.parse_scalar(report["value"]) == expect


def test_vector_value_of_another_order_is_malformed(monkeypatch, capsys):
    doc = {"op": "act", "g": 1, "element": [0, [1], [1]],
           "vector": {"entries": [{"label": [2], "value": {
               "order": 3, "coeffs": ["1", "0"]}}]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    report = _run(capsys, ["heis", "-", "--p", "3"], expect=2)
    assert "order 3" in report["error"]


def _scalar_vector(first):
    """A vector document whose one value is a Q(zeta_40) scalar with
    ``first`` as its constant coefficient."""
    return {"entries": [{"label": [1], "value": {
        "order": 40, "coeffs": [first] + [0] * 15}}]}


@pytest.mark.parametrize("first", [0.1, 0.5, True, False, "1/0"])
def test_tqft_vector_scalar_refuses_floats_and_booleans(tmp_path, capsys,
                                                        first):
    # 0.1 was read as 3602879701896397/36028797018963968, true as 1 and
    # "1/0" ended in a ZeroDivisionError traceback
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    vec = _doc(tmp_path, "vec.json", _scalar_vector(first))
    report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec],
                  expect=2)
    assert report["error"].startswith("bad scalar document")


def test_tqft_vector_scalar_takes_integers_and_fraction_strings(tmp_path,
                                                               capsys):
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    for first, want in ((3, 3), ("-3/4", Fraction(-3, 4))):
        vec = _doc(tmp_path, "vec.json", _scalar_vector(first))
        report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec])
        value = report["vector"]["entries"][0]["value"]
        assert cli.parse_scalar(value) == from_rational(40, want)


@pytest.mark.parametrize("value", [0.5, True, "1/0"])
def test_tqft_vector_bare_value_refuses_floats_booleans_and_zero_division(
        tmp_path, capsys, value):
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    vec = _doc(tmp_path, "vec.json",
               {"entries": [{"label": [1], "value": value}]})
    report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec],
                  expect=2)
    assert report["error"].startswith("bad vector value")


# -- serialization ---------------------------------------------------------


def test_scalar_documents_round_trip():
    eta, kappa = eta_kappa(5)
    samples = [eta, kappa, gauss_sum(3)[0], q_power(7, 3),
               from_rational(24, -7) / from_rational(24, 3)]
    for x in samples:
        doc = json.loads(json.dumps(cli.scalar_doc(x, 12)))
        assert cli.parse_scalar(doc) == x


def test_json_rationals_read_as_fraction_reads_them():
    # the plain forms are read on integers, the rest by Fraction
    for text in ("3", "-3/4", "+6/8", "-0/5", "007/014", " 1.5e1 ", "1_0/4"):
        r = Fraction(text)
        assert cli._json_rational(text) == (r.numerator, r.denominator)
    for text, error in (("1/0", ZeroDivisionError),
                        ("3/00", ZeroDivisionError), ("abc", ValueError),
                        ("+7/-2", ValueError), ("", ValueError),
                        ("/2", ValueError), ("-", ValueError),
                        ("\u00b2/4", ValueError)):
        with pytest.raises(error) as got:
            cli._json_rational(text)
        with pytest.raises(error) as want:
            Fraction(text)
        assert str(got.value) == str(want.value)


def test_digits_are_capped(tmp_path, capsys):
    path = _doc(tmp_path, "empty.json", {"B": []})
    report = _run(capsys, ["invariant", path, "--p", "3", "--digits", "40"])
    assert report["value"]["approx"]["digits"] == cli.MAX_DIGITS


def test_exact_zero_parts_print_zero():
    # purely imaginary and purely real sums whose other part cancels
    # exactly; floating evaluation leaves noise such as -2.0e-28 there
    x = 2 - 4 * make_root(40, 4) + 2 * make_root(40, 8) - 2 * make_root(40, 12)
    assert x == -x.conjugate()
    assert cli.scalar_doc(x, 12)["approx"]["re"] == "0.0"
    y = -make_root(72, 17) - make_root(72, 19)
    assert y == -y.conjugate()
    assert cli.scalar_doc(y, 6)["approx"]["re"] == "0.0"


def test_real_gauss_sums_have_zero_imaginary_part():
    # sqrt(p') at every tested order, and the real Gauss sums g(p)
    for p in (3, 4, 5, 7, 8, 9, 11, 12, 13, 16):
        eta, _ = eta_kappa(p)
        for x in (eta, eta.inverse()):
            assert cli.scalar_doc(x, 12)["approx"]["im"] == "0.0"
        g = gauss_sum(p)[1]
        if g == g.conjugate():
            assert cli.scalar_doc(g, 12)["approx"]["im"] == "0.0"


def _digits_commands(tmp_path):
    matrix = _doc(tmp_path, "m.json", {"B": [[1]]})
    return [
        ["invariant", matrix, "--p", "5"],
        ["refine", matrix, "--p", "8"],
        ["lens", "5", "2", "--p", "5"],
        ["tqft", _doc(tmp_path, "prog.json", _surgery_program([0, 1])),
         "--p", "5"],
        ["heis", _doc(tmp_path, "heis.json",
                      {"op": "inverse", "g": 1, "x": [1, [1], [0]]}),
         "--p", "5"],
        ["mcg", _doc(tmp_path, "mcg.json",
                     {"op": "theta", "g": 1, "f": {"word": ["ta"]}}),
         "--p", "5"],
    ]


@pytest.mark.parametrize("digits", ["0", "-1"])
def test_digits_below_one_are_usage_errors(tmp_path, capsys, digits):
    for argv in _digits_commands(tmp_path):
        assert cli.main(argv + ["--digits", digits]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and "--digits" in err and "Traceback" not in err
        assert cli.main(argv + ["--digits", "1"]) == 0, argv
        capsys.readouterr()


# The imports README promises for a CLI process: no command loads these
# modules, and each loads only the package modules listed for it.
NEVER_IMPORTED = ("argparse", "dataclasses", "decimal", "fractions",
                  "mpmath", "numbers")
_SURGERY = {"cli", "cyclotomic", "value", "surgery"}
START_UP = {
    # name: (argv with a document marker, document, package modules)
    "invariant": ([["invariant", "DOC", "--p", "5"],
                   ["invariant", "FIXED", "--p", "13"]],
                  {"B": [[2, 1, 0], [1, 2, 3], [0, 3, 9]]}, _SURGERY),
    "refine": ([["refine", "DOC", "--p", "8"]],
               {"B": [[1, 1], [1, 2]]}, _SURGERY),
    "lens": ([["lens", "7", "3", "--p", "5"],
              ["lens", "11", "3", "--p", "45"]], None, _SURGERY),
    "tqft": ([["tqft", "DOC", "--p", "5", "--normalized", "--closure",
               "CLOSURE"]],
             _surgery_program([0, 1]),
             {"cli", "cyclotomic", "value", "cobordism", "heisenberg",
              "homology", "surgery"}),
    "heis": ([["heis", "DOC", "--p", "3"]],
             {"op": "mul", "g": 1, "x": [1, [1], [0]], "y": [0, [0], [2]]},
             {"cli", "cyclotomic", "value", "heisenberg", "homology"}),
    "mcg": ([["mcg", "DOC", "--p", "3", "--verify"]],
            {"op": "cocycle", "g": 1, "f": {"word": ["ta", "tb'"]},
             "h": {"images": [[1, -2], [2]]}},
            {"cli", "cyclotomic", "value", "mcg", "heisenberg",
             "homology"}),
}


@pytest.mark.parametrize("command", sorted(START_UP))
def test_cli_start_up_imports(tmp_path, command):
    runs, doc, package = START_UP[command]
    paths = {
        "DOC": _doc(tmp_path, "doc.json", doc),
        "FIXED": _doc(tmp_path, "fixed.json",
                      {"B": [[2, 1, 0], [1, 2, 3], [0, 3, 9]],
                       "fixed_colors": {"1": 4}}),
        "CLOSURE": _doc(tmp_path, "closure.json", {"B": [[0, 1], [1, 3]]}),
    }
    argvs = [[paths.get(a, a) for a in argv] for argv in runs]
    code = (
        "import contextlib, io, json, sys\n"
        "import abtqft.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in %r]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n" % (argvs,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_cli_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout)
    assert codes == [0] * len(argvs)
    assert [m for m in NEVER_IMPORTED if m in modules] == []
    assert {m.split(".", 1)[1] for m in modules
            if m.startswith("abtqft.")} == package


# -- the process -----------------------------------------------------------


def _cli_env():
    """The environment of a child interpreter that imports this tree's
    package, with its assertions on."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _process(argv, doc=None, runner=("-m", "abtqft.cli")):
    return subprocess.run(
        [sys.executable, *runner, *argv], capture_output=True, text=True,
        input="" if doc is None else json.dumps(doc), env=_cli_env(),
        timeout=120)


_COMPOSITE = {"source": {"g": 1, "L": [[1, 0]]},
              "steps": [{"kind": "index1"},
                        {"kind": "index2", "handle": 1, "gamma": [0, 1]}],
              "target": {"g": 1, "L": [[1, 0]]}}


@pytest.mark.parametrize("argv, doc, code", [
    (["lens", "7", "3", "--p", "5"], None, 0),
    (["lens", "-h"], None, 0),
    (["invariant", "-", "--p", "5"], {"B": [[0, 1]]}, 2),
    (["frobnicate"], None, 2),
    (["lens", "7", "x", "--p", "5"], None, 2),
    (["invariant", "-", "--p", "6"], {"B": []}, 3),
    (["tqft", "-", "--p", "3"], {"source": {"g": 1, "L": [[1, 0]]},
                                 "steps": [], "target": {"g": 0, "L": []}},
     4),
    (["tqft", "-", "--p", "3", "--normalized"], _COMPOSITE, 5),
    (["heis", "-", "--p", "13"], {"op": "commutant", "g": 4}, 6),
])
def test_process_reports_like_main(monkeypatch, capsys, argv, doc, code):
    proc = _process(argv, doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_process_crash_keeps_its_traceback():
    # the even-order oracle's designated-class assertion, a known defect
    proc = _process(["tqft", "-", "--p", "4"], _surgery_program([1, 2]))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback")
    assert "induced_map_oracle" in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("AssertionError")


def test_process_report_larger_than_a_pipe_buffer_arrives_whole(monkeypatch,
                                                               capsys):
    doc = {"op": "matrix", "g": 2, "element": [1, [1, 2], [3, 4]]}
    proc = _process(["heis", "-", "--p", "13"], doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert cli.main(["heis", "-", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert len(out) > 1 << 16
    assert (proc.returncode, proc.stdout) == (0, out)


def test_profiler_still_reports_at_exit():
    proc = _process(["lens", "7", "3", "--p", "5"],
                    runner=("-m", "cProfile", "-m", "abtqft.cli"))
    assert proc.returncode == 0, proc.stderr
    report, _, stats = proc.stdout.partition("\n}\n")
    assert json.loads(report + "}")["command"] == "lens"
    assert "function calls" in stats and "Ordered by" in stats


class _Exited(Exception):
    """What the stand-in for ``os._exit`` raises."""


def _no_hooks(monkeypatch):
    def fake_exit(code):
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)


def test_run_ends_the_process_after_the_flush(monkeypatch, capsys):
    _no_hooks(monkeypatch)
    with pytest.raises(_Exited) as exited:
        cli.run(["lens", "7", "3", "--p", "5"])
    assert exited.value.args == (0,)
    assert json.loads(capsys.readouterr().out)["command"] == "lens"
    with pytest.raises(_Exited) as exited:
        cli.run(["lens", "4", "2", "--p", "3"])
    assert exited.value.args == (2,)


@pytest.mark.parametrize("hook", ["gettrace", "getprofile"])
def test_run_exits_normally_under_a_tracer_or_profiler(monkeypatch, capsys,
                                                        hook):
    _no_hooks(monkeypatch)
    monkeypatch.setattr(sys, hook, lambda: print)
    assert cli.run(["lens", "7", "3", "--p", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "lens"


def test_run_exits_normally_when_a_flush_fails(monkeypatch):
    class BrokenPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    _no_hooks(monkeypatch)
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert cli.run(["lens", "7", "3", "--p", "5"]) == 0


def test_run_lets_an_exception_out_of_main_through(monkeypatch):
    def crash(argv=None):
        raise AssertionError("designated class")

    _no_hooks(monkeypatch)
    monkeypatch.setattr(cli, "main", crash)
    with pytest.raises(AssertionError, match="designated class"):
        cli.run([])


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["abtqft"].partition(":")
    assert getattr(import_module(module), attr) is cli.run


# -- work caps -------------------------------------------------------------


def test_colour_sums_over_the_cap_are_refused(tmp_path, capsys):
    eye = [[int(i == j) for j in range(8)] for i in range(8)]
    big = _doc(tmp_path, "big.json", {"B": eye})
    for argv in (["invariant", big, "--p", "13"],
                 ["refine", big, "--p", "12"],
                 ["lens", "30", "29", "--p", "13"],
                 ["lens", "1000000000000", "999999999999", "--p", "5"]):
        report = _run(capsys, argv, expect=6)
        assert "cap" in report["error"]
    fixed = _doc(tmp_path, "fixed.json",
                 {"B": eye, "fixed_colors": {"0": 1, "1": 2}})
    _run(capsys, ["invariant", fixed, "--p", "13"], expect=6)
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    _run(capsys, ["tqft", prog, "--p", "13", "--normalized", "--closure",
                  big], expect=6)
    long_gamma = _doc(tmp_path, "gamma.json",
                      _surgery_program([999999999999, 1000000000000]))
    _run(capsys, ["tqft", long_gamma, "--p", "5", "--normalized"], expect=6)


def _genus_two_surgery(handle=1):
    return {"source": {"g": 1, "L": [[1, 0]]},
            "steps": [{"kind": "index1"},
                      {"kind": "index2", "handle": handle, "gamma": [0, 1]}],
            "target": {"g": 1, "L": [[1, 0]]}}


def test_oracle_over_the_cap_is_refused(tmp_path, capsys):
    # an index-2 step at genus 2 tensors p'^5 pairs: 13^5 = 371,293
    prog = _doc(tmp_path, "prog.json", _genus_two_surgery())
    report = _run(capsys, ["tqft", prog, "--p", "13", "--mode", "oracle"],
                  expect=6)
    assert "tensor pairs" in report["error"]
    _run(capsys, ["tqft", prog, "--p", "13", "--verify"], expect=6)
    # 7^5 = 16,807 pairs pass once, not twice (main run plus --verify)
    _run(capsys, ["tqft", prog, "--p", "7", "--mode", "oracle", "--verify"],
         expect=6)
    # the closed route enumerates no tensor pairs
    _run(capsys, ["tqft", prog, "--p", "13"])
    # an invalid program is reported as such, not as too large
    bad = _genus_two_surgery(handle=0)
    bad["target"] = {"g": 2, "L": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    _run(capsys, ["tqft", _doc(tmp_path, "bad.json", bad), "--p", "13",
                  "--mode", "oracle"], expect=4)


def _refused_quickly(capsys, argv):
    start = time.perf_counter()
    report = _run(capsys, argv, expect=6)
    assert time.perf_counter() - start < 1.0
    assert "cap" in report["error"]
    return report


def _standard_object(g):
    return {"g": g, "L": [[int(j == i) for j in range(2 * g)]
                          for i in range(g)]}


def test_tqft_labels_over_the_cap_are_refused(tmp_path, capsys):
    # 13^6 = 4.8 M labels at the source; this ran past 10 s before
    six = _standard_object(6)
    doc = _doc(tmp_path, "six.json",
               {"source": six, "steps": [], "target": six})
    report = _refused_quickly(capsys, ["tqft", doc, "--p", "13"])
    assert "genus-6 Schrodinger module" in report["error"]
    # the genus after a step counts too: 13^4 labels after an index-1 step
    three, four = _standard_object(3), _standard_object(4)
    grow = _doc(tmp_path, "grow.json", {"source": three,
                                        "steps": [{"kind": "index1"}],
                                        "target": four})
    report = _refused_quickly(capsys, ["tqft", grow, "--p", "13"])
    assert "genus-4 Schrodinger module" in report["error"]
    # an invalid program is reported as such, not as too large
    bad = _doc(tmp_path, "bad.json",
               {"source": six, "steps": [], "target": three})
    _run(capsys, ["tqft", bad, "--p", "13"], expect=4)
    # genus 2 at p = 13 has 169 labels and still answers
    two = _standard_object(2)
    ok = _doc(tmp_path, "two.json",
              {"source": two, "steps": [], "target": two})
    report = _run(capsys, ["tqft", ok, "--p", "13"])
    assert len(report["map"]["entries"]) == 13 ** 2


def test_invariant_cap_goes_before_the_signature(monkeypatch, tmp_path,
                                                 capsys):
    # an exact signature of a 120 x 120 matrix took 13 s before the cap
    n = 120
    B = [[2 if i == j else int(abs(i - j) == 1) for j in range(n)]
         for i in range(n)]
    doc = _doc(tmp_path, "big.json", {"B": B})
    _refused_quickly(capsys, ["invariant", doc, "--p", "5"])
    fixed = _doc(tmp_path, "fixed.json", {"B": B, "fixed_colors": {"0": 1}})
    _refused_quickly(capsys, ["invariant", fixed, "--p", "5"])

    def no_signature(B):
        raise AssertionError("signature computed for a refused job")

    monkeypatch.setattr("abtqft.surgery.signature", no_signature)
    _run(capsys, ["invariant", doc, "--p", "5"], expect=6)


def test_vector_order_is_checked_before_its_field(monkeypatch, capsys):
    # building the field of order 10^8 ran past 10 s before
    doc = {"op": "act", "g": 1, "element": [0, [1], [1]],
           "vector": {"entries": [{"label": [0], "value": {
               "order": 100000000, "coeffs": ["1"]}}]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    report = _run(capsys, ["heis", "-", "--p", "3"], expect=2)
    assert time.perf_counter() - start < 1.0
    assert report["error"] == "vector value of order 100000000, expected 24"


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("argv, stream", [
    (["lens", "7", "3", "--p", "5"], "stdout"),
    (["lens", "7", "3", "--p", "6"], "stderr"),
])
def test_each_report_is_one_write(monkeypatch, capsys, argv, stream):
    code = cli.main(argv)
    expected = getattr(capsys.readouterr(), stream[3:])
    counting = _CountingStream()
    monkeypatch.setattr(sys, stream, counting)
    assert cli.main(argv) == code
    assert counting.writes == 1
    assert counting.getvalue() == expected
    doc = json.loads(expected)
    assert expected == json.dumps(doc, indent=2,
                                  sort_keys=stream == "stdout") + "\n"


def test_heis_and_mcg_over_the_cap_are_refused(tmp_path, capsys):
    # 13^8 unknowns (and 13^4 labels) for a genus-4 commutant system
    commutant = _doc(tmp_path, "c.json", {"op": "commutant", "g": 4})
    _refused_quickly(capsys, ["heis", commutant, "--p", "13"])
    # 13^4 = 28,561 unknowns pass the label cap but not the unknowns cap
    small = _doc(tmp_path, "s.json", {"op": "commutant", "g": 2})
    report = _refused_quickly(capsys, ["heis", small, "--p", "13"])
    assert "unknowns" in report["error"]
    matrix = _doc(tmp_path, "m.json", {
        "op": "matrix", "g": 4, "element": [0, [0] * 4, [0] * 4]})
    report = _refused_quickly(capsys, ["heis", matrix, "--p", "13"])
    assert "labels" in report["error"]
    # 13^8 averaging terms for one genus-2 intertwiner
    weil = _doc(tmp_path, "w.json",
                {"op": "weil", "g": 2, "f": {"word": ["ta1"]}})
    _refused_quickly(capsys, ["mcg", weil, "--p", "13"])
    # --verify runs three intertwiners of 5^8 = 390,625 terms each
    cocycle = _doc(tmp_path, "k.json", {"op": "cocycle", "g": 2,
                                        "f": {"word": ["ta1"]},
                                        "h": {"word": ["tb2"]}})
    _refused_quickly(capsys, ["mcg", cocycle, "--p", "5", "--verify"])
    # mul and inverse enumerate no labels
    mul = _doc(tmp_path, "x.json", {"op": "mul", "g": 4,
                                    "x": [1, [1] * 4, [2] * 4],
                                    "y": [2, [0] * 4, [1] * 4]})
    _run(capsys, ["heis", mul, "--p", "13"])


def _heis_elements(g, short=False):
    n = 1 if short else g
    return {"x": [1, [1] * n, [2] * n], "y": [2, [0] * n, [1] * n]}


def test_heis_genus_is_bounded_before_the_frame(monkeypatch, tmp_path,
                                                capsys):
    # a genus-g frame costs O(g^3) to check; these ran past 5 s before
    for op, g, short in (("mul", 100000, False), ("inverse", 3000, True),
                         ("mul", 2000, False), ("inverse", 2000, False)):
        doc = dict(_heis_elements(g, short), op=op, g=g)
        report = _refused_quickly(
            capsys, ["heis", _doc(tmp_path, "g.json", doc), "--p", "13"])
        assert "genus-%d frame" % g in report["error"]
    # the largest admitted genus
    g = cli.MAX_GENUS
    full = _doc(tmp_path, "f.json", dict(_heis_elements(g), op="mul", g=g))
    assert _run(capsys, ["heis", full, "--p", "13"])["result"] == [
        (3 + 2 * g) % 13, [1] * g, [3] * g]
    # below the cap, a wrong length and an unknown op are reported
    # before any frame is built
    def no_frame(p, g):
        raise AssertionError("frame built for a malformed document")

    monkeypatch.setattr("abtqft.heisenberg.closed_context", no_frame)
    short = _doc(tmp_path, "s.json", dict(_heis_elements(g, True),
                                          op="mul", g=g))
    report = _run(capsys, ["heis", short, "--p", "13"], expect=2)
    assert report["error"] == "group element 'x' does not match genus %d" % g
    unknown = _doc(tmp_path, "u.json", {"op": "pow", "g": 10 ** 6})
    _run(capsys, ["heis", unknown, "--p", "13"], expect=2)


def test_heis_and_mcg_caps_admit_jobs_below_them(tmp_path, capsys):
    # 3^4 = 81 unknowns; 13^2 = 169 labels
    commutant = _doc(tmp_path, "c.json", {"op": "commutant", "g": 2})
    assert _run(capsys, ["heis", commutant, "--p", "3"])["dimension"] == 1
    matrix = _doc(tmp_path, "m.json", {
        "op": "matrix", "g": 2, "element": [1, [1, 2], [3, 4]]})
    assert len(_run(capsys, ["heis", matrix, "--p", "13"])["map"][
        "entries"]) == 13 ** 2
    # 5^8 = 390,625 averaging terms in one intertwiner
    weil = _doc(tmp_path, "w.json",
                {"op": "weil", "g": 2, "f": {"word": ["ta1"]}})
    _run(capsys, ["mcg", weil, "--p", "5"])
    # three intertwiners of 3^8 = 6,561 terms each
    cocycle = _doc(tmp_path, "k.json", {"op": "cocycle", "g": 2,
                                        "f": {"word": ["ta1"]},
                                        "h": {"word": ["tb2"]}})
    _run(capsys, ["mcg", cocycle, "--p", "3", "--verify"])
    # the benchmark's heis and mcg documents: genus 1 at p' <= 7
    assert 7 ** 2 <= cli.MAX_COMMUTANT_UNKNOWNS
    assert 7 <= cli.MAX_LABELS
    assert 3 * 7 ** 4 <= cli.MAX_AVERAGING_TERMS


def test_mcg_compositions_over_the_letter_cap_are_refused(tmp_path,
                                                        capsys):
    # chain and swap grow the image words fastest at genus 2
    word = ["chain", "swap"] * 30
    path = _doc(tmp_path, "t.json", {"op": "theta", "g": 2,
                                     "f": {"word": word}})
    report = _refused_quickly(capsys, ["mcg", path, "--p", "5"])
    assert report["error"] == (
        "mapping class 'f' of genus 2: twist 10 (swap) composes 189050 "
        "image letters, over the cap of 100000")
    # a seeded 60-twist word; its first 50 twists make a class of
    # 781,157 image letters
    names = sorted(twist_generators(2))
    rng = random.Random(50)
    word = [rng.choice(names) for _ in range(60)]
    path = _doc(tmp_path, "r.json", {"op": "theta", "g": 2,
                                     "f": {"word": word}})
    report = _refused_quickly(capsys, ["mcg", path, "--p", "5"])
    assert report["error"].startswith(
        "mapping class 'f' of genus 2: twist 30 (chain') composes ")
    # --verify composes f h: each class is admitted, their product not
    d = boundary_word(1) ** 400
    images = [(d.inverse() * FreeWord((k,)) * d).letters for k in (1, 2)]
    # each letter of h's images costs the length of f's image of it
    count = sum(len(images[abs(x) - 1]) for w in images for x in w)
    path = _doc(tmp_path, "k.json", {"op": "cocycle", "g": 1,
                                     "f": {"images": images},
                                     "h": {"images": images}})
    assert count > 2 * 10 ** 7
    assert _run(capsys, ["mcg", path, "--p", "3"])["c"] == 0
    report = _refused_quickly(capsys, ["mcg", path, "--p", "3", "--verify"])
    assert report["error"] == (
        "mapping class 'f h' of genus 1: the product f h composes %d "
        "image letters, over the cap of %d" % (count, cli.MAX_WORD_LETTERS))


def _main_on_stdin(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    try:
        sys.stdin = io.StringIO(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, err.getvalue()


# An exhaustive search over every genus-2 word of at most six twists
# finds at most 5,906 image letters in one composition (chain swap chain
# swap chain swap), and at most 6,940 in the product f h of a cocycle
# document whose f and h hold six twists together.
@settings(max_examples=30)
@given(st.data())
def test_mcg_documents_of_at_most_six_twists_are_admitted(data):
    g = data.draw(st.integers(1, 2))
    total = data.draw(st.integers(0, 6))
    word = data.draw(st.lists(st.sampled_from(sorted(twist_generators(g))),
                              min_size=total, max_size=total))
    cut = data.draw(st.integers(0, total))
    theta_doc = {"op": "theta", "g": g, "f": {"word": word}}
    cocycle_doc = {"op": "cocycle", "g": g, "f": {"word": word[:cut]},
                   "h": {"word": word[cut:]}}
    for doc, extra in ((theta_doc, []), (cocycle_doc, ["--verify"])):
        assert _main_on_stdin(["mcg", "--p", "3", "-"] + extra,
                              json.dumps(doc)) == (0, "")


def test_the_fastest_growing_short_word_is_admitted():
    word = ["chain", "swap"] * 3
    doc = json.dumps({"op": "theta", "g": 2, "f": {"word": word}})
    assert _main_on_stdin(["mcg", "--p", "5", "-"], doc) == (0, "")


def test_caps_admit_the_largest_benchmark_jobs(tmp_path, capsys):
    # 4^5 = 1,024 tensor pairs (p = 8, genus 2) and 10^5 colourings
    prog = _doc(tmp_path, "prog.json", _genus_two_surgery())
    _run(capsys, ["tqft", prog, "--p", "8"])
    assert 2 * 4 ** 5 <= cli.MAX_TENSOR_PAIRS
    assert 10 ** 5 <= cli.MAX_COLORINGS
    chain = _doc(tmp_path, "chain.json", {"B": [[2, 1], [1, 2]]})
    _run(capsys, ["invariant", chain, "--p", "13"])


def test_unknown_command_is_a_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


# -- argument parsing ------------------------------------------------------


def _reference_digits(text):
    """The argparse type of ``--digits``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %d" % value)
    return value


def build_parser():
    """The argparse parser the table-driven ``cli.parse_args`` replaced,
    kept as the reference for the language it accepts."""
    parser = argparse.ArgumentParser(
        prog="abtqft",
        description="Exact invariants of closed 3-manifolds and exact "
                    "TQFT maps at a root of unity of order p.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True):
        if with_input:
            sp.add_argument("input", help="JSON document ('-' for stdin)")
        sp.add_argument("--p", type=int, required=True,
                        help="order of the root of unity (p >= 3, "
                             "p != 2 mod 4)")
        sp.add_argument("--digits", type=_reference_digits,
                        default=cli.MAX_DIGITS,
                        help="approximation digits, at least 1 (capped "
                             "at %d)" % cli.MAX_DIGITS)

    sp = sub.add_parser("invariant", help="closed-manifold invariant of a "
                        "linking presentation")
    common(sp)
    sp.set_defaults(func=cli.cmd_invariant)

    sp = sub.add_parser("refine", help="parity refinements at p = 0 mod 4")
    common(sp)
    sp.set_defaults(func=cli.cmd_refine)

    sp = sub.add_parser("lens", help="lens space invariant")
    sp.add_argument("beta", type=int)
    sp.add_argument("alpha", type=int)
    common(sp, with_input=False)
    sp.set_defaults(func=cli.cmd_lens)

    sp = sub.add_parser("tqft", help="map of a surgery program")
    common(sp)
    sp.add_argument("--mode", choices=("auto", "closed", "oracle"),
                    default="auto")
    sp.add_argument("--vector", help="JSON vector document to apply")
    sp.add_argument("--normalized", action="store_true",
                    help="multiply by the closed-off invariant")
    sp.add_argument("--closure",
                    help="linking matrix document for --normalized on "
                         "composite programs")
    sp.add_argument("--verify", action="store_true",
                    help="check closed form against the tensor oracle")
    sp.set_defaults(func=cli.cmd_tqft)

    sp = sub.add_parser("heis", help="finite Heisenberg group utilities")
    common(sp)
    sp.set_defaults(func=cli.cmd_heis)

    sp = sub.add_parser("mcg", help="mapping class utilities")
    common(sp)
    sp.add_argument("--verify", action="store_true",
                    help="measure the projective defect ratio")
    sp.set_defaults(func=cli.cmd_mcg)
    return parser


REFERENCE = build_parser()
FIELDS = ("p", "digits", "input", "beta", "alpha", "mode", "vector",
          "normalized", "closure", "verify")


def _reference_outcome(argv):
    """What argparse makes of argv: "help", "error", or the handler and
    every field a handler reads.  Where argparse drops a value ``--``
    and leaves an empty list, which no handler can take (a ``TypeError``
    out of ``int`` comparisons or ``open``), the new parser refuses."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = REFERENCE.parse_args(argv)
        except SystemExit as exc:
            return "error" if exc.code else "help"
    fields = {f: getattr(ns, f) for f in FIELDS if hasattr(ns, f)}
    if [] in fields.values():
        return "error"
    return ns.func, fields


def _outcome(argv):
    try:
        ns = cli.parse_args(argv)
    except cli.CliError as exc:
        return "error" if exc.code else "help"
    return ns.func, {f: getattr(ns, f) for f in FIELDS if hasattr(ns, f)}


def _positionals(command):
    return ["7", "3"] if command == "lens" else ["doc.json"]


def _enumerated_corpus():
    """Every argument form the language has, for all six commands."""
    yield from ([], ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"],
                ["--help=1"], ["frobnicate"], ["-5"], ["--"], ["--x"],
                ["--x", "-h"], ["-h", "tqft", "--v"], ["--", "lens", "7",
                                                      "3", "--p", "5"])
    for command in cli.COMMANDS:
        pos = _positionals(command)
        p5 = ["--p", "5"]
        yield from (
            [command] + pos + p5,
            [command] + pos + ["--p=5"],
            [command] + p5 + pos,
            [command, pos[0]] + p5 + pos[1:],
            [command] + pos + ["--dig", "3"] + p5,
            [command] + pos + ["--d=3", "--p=5"],
            [command] + pos + ["--digits=", "--p=5"],
            [command] + pos + p5 + ["--digits", "0"],
            [command] + pos + p5 + ["--digits", "-1"],
            [command] + pos + p5 + ["--digits", "x"],
            [command] + pos + ["--p", "x"],
            [command] + pos + ["--p", "5.0"],
            [command] + pos + ["--p", "-5"],
            [command] + pos + ["--p", " 5 "],
            [command] + pos + ["--p", "3", "--p", "5"],
            [command] + pos + ["--p=x", "--p", "5"],
            [command] + pos + p5 + ["--digits", "2", "--digits", "4"],
            [command] + pos,
            [command] + p5,
            [command] + pos + p5 + ["extra"],
            [command] + pos + p5 + ["--x"],
            [command] + pos + p5 + ["--x", "-h"],
            [command] + pos + p5 + ["-x"],
            [command] + pos + ["--p"],
            [command] + pos + ["--p", "--digits", "3"],
            [command] + pos + ["--p", "--", "5"],
            [command, "-h"],
            [command, "--help"],
            [command, "--h"],
            [command, "-hh"],
            [command, "-h=h"],
            [command, "-hx"],
            [command, "--help=x"],
            [command, "-h", "--p", "x"],
            [command] + pos + ["--p", "x", "-h"],
            [command] + pos + ["--bogus", "-h"],
            [command] + p5 + ["--"] + pos,
            [command] + pos + ["--", "--p", "5"],
            [command] + p5 + ["--"] + pos + ["--"],
            [command] + p5 + ["--", "--"] + pos[1:],
            [command] + pos + p5 + ["--"],
            [command] + pos + ["--p=--"],
            [command] + pos + ["--p=--", "--p", "5"],
            [command] + pos + ["--p=--", "-h"],
            [command, "-"] + p5,
            [command, "a b"] + p5,
            [command, "--x y"] + p5,
            [command, ""] + p5,
            ["--x", command] + pos + p5,
            ["--p", "5", command] + pos,
            [command] + pos + p5 + [command],
        )
        for option in ("--p", "--digits", "--help"):
            for k in range(3, len(option) + 1):
                yield [command] + pos + p5 + [option[:k], "4"]
                yield [command] + pos + p5 + [option[:k] + "=4"]
    for alpha in ("-3", "-3.5", "-x", "-.5", "--3"):
        yield ["lens", "7", alpha, "--p", "5"]
    yield ["lens", "-7", "3", "--p", "5"]
    yield ["lens", "--p", "5", "7", "3"]
    yield ["lens", "x", "3", "--p", "5"]
    yield ["lens", "7", "3", "9", "--p", "5"]
    yield ["lens", "--p", "5", "7", "--", "--"]
    for extra in (["--mode", "closed"], ["--mode", "oracle"], ["--mode=auto"],
                  ["--mode", "fast"], ["--mo", "oracle"], ["--m=closed"],
                  ["--v"], ["--ve"], ["--vec", "v.json"], ["--ver"],
                  ["--vector=v.json"], ["--norm"], ["--normalized=1"],
                  ["--normalized="], ["--n"], ["--c", "c.json"],
                  ["--closure=c.json"], ["--closure"], ["--verify"],
                  ["--verify", "--verify"], ["--vector", "-"],
                  ["--mode", "closed", "--mode", "oracle"],
                  ["--vector=--"], ["--mode=--"]):
        yield ["tqft", "doc.json", "--p", "5"] + extra
        yield ["tqft"] + extra + ["--p", "5", "doc.json"]
    for extra in (["--verify"], ["--v"], ["--ve"], ["--verify=1"],
                  ["--mode", "closed"]):
        yield ["mcg", "doc.json", "--p", "5"] + extra


def test_enumerated_corpus_parses_as_argparse_did():
    corpus = [list(argv) for argv in _enumerated_corpus()]
    kinds = set()
    for argv in corpus:
        want = _reference_outcome(argv)
        assert _outcome(argv) == want, argv
        kinds.add(want if isinstance(want, str) else "args")
    assert kinds == {"help", "error", "args"} and len(corpus) > 500


ALPHABET = ("5", "-3", "x", "--", "-h", "--p", "--p=--", "--v", "--x")


def test_short_command_lines_parse_as_argparse_did():
    # every command line of at most three arguments from ALPHABET
    for command in [None] + list(cli.COMMANDS):
        head = [] if command is None else [command]
        for n in range(4):
            for rest in itertools.product(ALPHABET, repeat=n):
                argv = head + list(rest)
                assert _outcome(argv) == _reference_outcome(argv), argv


_OPTION_NAMES = ("--p", "--digits", "--mode", "--vector", "--normalized",
                 "--closure", "--verify", "--help")
_options = st.sampled_from(_OPTION_NAMES).flatmap(
    lambda name: st.integers(2, len(name)).map(lambda k: name[:k]))
_ODD_VALUES = ("6", "2", "0", "-1", "-3", "-5", "4001", "x", "1.5", "-1.5",
               "1e3", "", " 5", "auto", "-", "--", "-h", "a b")
_values = st.sampled_from(("3", "4", "5", "8", "12", "13") + _ODD_VALUES)
# the options of each command beyond --p, and the values that fit them
_MORE_OPTIONS = {"tqft": ("--digits", "--mode", "--vector", "--normalized",
                          "--closure", "--verify"),
                 "mcg": ("--digits", "--verify")}
_FITTING = {"--digits": ("1", "3", "12", "40"),
            "--mode": ("auto", "closed", "oracle")}


def _tokens(names):
    """Arguments from the grammar: commands, option names and their
    prefixes, ``=``-joined values, values (non-integers and negative
    numbers among them), documents, ``-``, ``--`` and ``-h``."""
    return st.one_of(
        st.sampled_from(list(cli.COMMANDS) + ["frobnicate"]),
        _options,
        st.tuples(_options, _values).map("=".join),
        _values,
        st.sampled_from(list(names) + ["-h", "-hh", "-x"]))


@st.composite
def _command_lines(draw, docs):
    """A command; its positionals, ``--p`` and up to two more of its
    options, mostly with values that fit, in any order and spelling; and
    a little noise anywhere.  ``docs`` maps each command, "vector" and
    "closure" to the documents that fit them, and None to all."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))

    def value(fitting, odd=_ODD_VALUES):
        return draw(st.sampled_from(fitting if draw(st.integers(0, 5))
                                    else odd))

    def spelled(name, text):
        if draw(st.booleans()):
            name = name[:draw(st.integers(3, len(name)))]
        if text is None:
            return [name]
        return [name + "=" + text] if draw(st.booleans()) else [name, text]

    if command == "lens":
        items = [[value(("7", "5", "3", "2", "1", "0", "-3"))]
                 for _ in range(2)]
    else:
        items = [[value(docs[command] + ("-",), docs[None])]]
    orders = ("4", "8", "12") if command == "refine" else (
        "3", "4", "5", "8", "12", "13")
    items.append(spelled("--p", value(orders)))
    more = _MORE_OPTIONS.get(command, ("--digits",))
    for name in draw(st.lists(st.sampled_from(more), max_size=2)):
        if name in ("--normalized", "--verify"):
            items.append(spelled(name, None))
        else:
            items.append(spelled(name, value(
                _FITTING.get(name) or docs[name[2:]])))
    argv = [command] + [a for item in draw(st.permutations(items))
                        for a in item]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(_tokens(docs[None])))
    return argv


_ONE_DOC = dict.fromkeys(list(cli.COMMANDS) + ["vector", "closure", None],
                         ("doc.json",))


@given(st.one_of(_command_lines(_ONE_DOC),
                 st.lists(_tokens(("doc.json",)), max_size=6)))
def test_parsing_matches_argparse_on_drawn_command_lines(argv):
    assert _outcome(argv) == _reference_outcome(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["--x", "-h"], ["lens", "-h"],
    ["tqft", "--help"], ["mcg", "x", "--p", "5", "-hh"],
    ["heis", "--bogus", "--h"], ["-h", "tqft", "--v"],
])
def test_help_goes_to_stdout_with_exit_0(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: abtqft") and err == ""
    command = argv[0] if argv[0] in cli.COMMANDS else None
    assert out.startswith("usage: abtqft " + (command or "[-h]"))


@pytest.mark.parametrize("argv, named", [
    (["lens", "7", "x", "--p", "5"], "alpha"),
    (["lens", "7", "--p", "5"], "alpha"),
    (["tqft", "-", "--p", "5", "--v"], "--v"),
    (["tqft", "-", "--p", "5", "--mode", "fast"], "--mode"),
    (["tqft", "-", "--p", "5", "--normalized=1"], "--normalized"),
    (["invariant", "-", "--p"], "--p"),
    (["invariant", "-"], "--p"),
    (["invariant", "-", "--p=--"], "--p"),
    (["lens", "--p", "5", "7", "--", "--"], "alpha"),
    (["heis", "-", "--p", "5", "--x"], "--x"),
    (["heis", "-", "--p", "5", "again"], "again"),
    (["frobnicate"], "frobnicate"),
    (["--help=1"], "--help"),
    ([], "command"),
])
def test_usage_errors_name_the_argument(capsys, argv, named):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: abtqft")
    last = err.splitlines()[-1]
    assert last.startswith("abtqft") and ": error: " in last
    assert named in last and "Traceback" not in err


def test_parsed_values_reach_the_handlers(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"op": "theta", "g": 1, "f": {"word": ["ta"]}})))
    report = _run(capsys, ["mcg", "--p=5", "--dig", "3", "-"])
    ta = twist_generators(1)["ta"]
    assert report["p"] == 5
    assert report["t"] == list(mcg.t_dual(mcg.theta(ta), 5))
    report = _run(capsys, ("lens", "--p", "3", "--p", "5", "--digits=4",
                           "7", "--", "-3"))
    assert (report["beta"], report["alpha"], report["p"]) == (7, -3, 5)
    assert cli.parse_scalar(report["value"]) == z_lens(5, 7, -3)
    assert report["value"]["approx"]["digits"] == 4


# -- work caps: the field ---------------------------------------------------


@pytest.mark.parametrize("argv, doc", [
    (["invariant", "-", "--p", "4001"], {"B": []}),
    (["lens", "1", "0", "--p", "4001"], None),
    (["heis", "-", "--p", "4001"],
     {"op": "matrix", "g": 1, "element": [1, [1], [0]]}),
    (["refine", "-", "--p", "8192"], {"B": [[1]]}),
    (["tqft", "-", "--p", "4001"], _surgery_program([0, 1])),
    (["heis", "-", "--p", "513"], {"op": "commutant", "g": 1}),
    (["heis", "-", "--p", "1001"], {"op": "act", "g": 1,
                                    "element": [0, [1], [1]]}),
    (["mcg", "-", "--p", "4001"],
     {"op": "weil", "g": 1, "f": {"word": ["ta"]}}),
    (["mcg", "-", "--p", "4001", "--verify"],
     {"op": "cocycle", "g": 1, "f": {"word": ["ta"]},
      "h": {"word": ["tb"]}}),
])
def test_orders_over_the_field_cap_are_refused(monkeypatch, capsys, argv,
                                               doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    report = _run(capsys, argv, expect=6)
    assert time.perf_counter() - start < 1
    p = int(argv[-1] if argv[-1] != "--verify" else argv[-2])
    assert "field of order %d" % field_order(p) in report["error"]
    assert field_order(p) > cli.MAX_FIELD_ORDER


@pytest.mark.parametrize("doc", [
    {"op": "mul", "g": 1, "x": [1, [1], [0]], "y": [0, [0], [1]]},
    {"op": "inverse", "g": 1, "x": [1, [1], [0]]},
    {"op": "theta", "g": 1, "f": {"word": ["ta", "tb"]}},
    {"op": "cocycle", "g": 1, "f": {"word": ["ta"]}, "h": {"word": ["tb"]}},
])
def test_jobs_without_a_field_ignore_the_field_cap(monkeypatch, capsys, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    command = "heis" if doc["op"] in ("mul", "inverse") else "mcg"
    start = time.perf_counter()
    report = _run(capsys, [command, "-", "--p", "4001"])
    assert time.perf_counter() - start < 1
    assert report["op"] == doc["op"] and report["p"] == 4001


def test_field_cap_admits_the_orders_in_use():
    # cocycle --verify runs up to p = 23 in the tests, the benchmark up
    # to p = 13; the cap sits between p = 511 and p = 513
    assert max(field_order(p) for p in range(3, 24)) <= cli.MAX_FIELD_ORDER
    assert field_order(511) <= cli.MAX_FIELD_ORDER < field_order(513)


# -- the whole CLI under fuzzing --------------------------------------------


def _two_adic(n):
    return (n & -n).bit_length() - 1


def _hits_oracle_assert(p, prog):
    """Whether the tensor oracle meets its designated-class assertion,
    a known defect at even p: an index-2 step whose class has a
    coefficient beta in the carried frame with the 2-adic valuation of
    p'.  The rule of ``hits_oracle_assert`` in the benchmark's jobs."""
    if p % 2:
        return False
    ctx = canonical_context(p, prog.source)
    L, Ldual = ctx.L, ctx.Ldual
    for step in prog.steps:
        if isinstance(step, MappingCylinder):
            corr = cylinder_correspondence(step.matrix, L, Ldual)
        elif isinstance(step, Index1):
            corr = index1_correspondence(L, Ldual, step.position)
        else:
            g, k = len(L), step.handle
            gamma = tuple(step.alpha * (i == k) + step.beta * (i == g + k)
                          for i in range(2 * g))
            betas = [intersection(u, gamma) for u in L]
            alphas = [intersection(gamma, w) for w in Ldual]
            support = [i for i in range(g) if alphas[i] or betas[i]]
            beta = betas[support[0]] if len(support) == 1 else 0
            pp = p // 2
            return beta != 0 and _two_adic(beta) == _two_adic(pp)
        L, Ldual = corr.target_L, corr.target_Ldual
    return False


FUZZ_DOCS = {
    "inv.json": {"B": [[2, 1], [1, 2]]},
    "fixed.json": {"B": [[0, 1], [1, 2]], "fixed_colors": {"0": 1}},
    "prog.json": _surgery_program([0, 1]),
    "meridian.json": _surgery_program([1, 0]),
    "composite.json": {"source": {"g": 1, "L": [[1, 0]]},
                       "steps": [{"kind": "cylinder",
                                  "matrix": [[1, 1], [0, 1]]},
                                 {"kind": "index2", "handle": 0,
                                  "gamma": [0, 1]}],
                       "target": {"g": 0, "L": []}},
    "vector.json": {"entries": [{"label": [1], "value": "1/2"}]},
    "mul.json": {"op": "mul", "g": 1, "x": [1, [1], [0]],
                 "y": [0, [0], [2]]},
    "matrix.json": {"op": "matrix", "g": 1, "element": [2, [0], [1]]},
    "commutant.json": {"op": "commutant", "g": 1},
    "theta.json": {"op": "theta", "g": 1, "f": {"word": ["ta", "tb"]}},
    "cocycle.json": {"op": "cocycle", "g": 1, "f": {"word": ["ta"]},
                     "h": {"word": ["tb"]}},
    "weil.json": {"op": "weil", "g": 1, "f": {"word": ["tb"]}},
    "array.json": [1, 2],
    "bool.json": {"B": [[True]]},
    "pow.json": {"op": "pow", "g": 1},
}
FUZZ_TEXTS = dict({name: json.dumps(doc) for name, doc in FUZZ_DOCS.items()},
                  **{"truncated.json": '{"B": [[1', "empty.json": ""})
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_TEXTS.items():
        (folder / name).write_text(text)
    return folder


def _meets_oracle_assert(argv, stdin):
    """Whether a command line runs the tensor oracle on a program that
    meets the known designated-class assertion."""
    try:
        args = cli.parse_args(argv)
    except cli.CliError:
        return False
    if args.func is not cli.cmd_tqft or args.p < 3 or args.p % 4 == 2:
        return False
    try:
        if args.input == "-":
            doc = json.loads(stdin)
        else:
            with open(args.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        prog = load_program(doc) if isinstance(doc, dict) else None
    except (OSError, ValueError, ProgramError):
        return False
    return prog is not None and _hits_oracle_assert(args.p, prog)


FUZZ_FITTING = {
    "invariant": ("inv.json", "fixed.json"), "refine": ("inv.json",),
    "lens": (), "tqft": ("prog.json", "meridian.json", "composite.json"),
    "heis": ("mul.json", "matrix.json", "commutant.json"),
    "mcg": ("theta.json", "cocycle.json", "weil.json"),
    "vector": ("vector.json",), "closure": ("inv.json",),
    None: tuple(sorted(FUZZ_TEXTS)) + ("missing.json",)}


@given(st.data())
def test_the_cli_exits_with_a_documented_code(fuzz_dir, data):
    docs = {key: tuple(str(fuzz_dir / name) for name in names)
            for key, names in FUZZ_FITTING.items()}
    argv = data.draw(st.one_of(_command_lines(docs),
                               st.lists(_tokens(docs[None]), max_size=6)))
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    fitting = FUZZ_FITTING[command] if command else ()
    stdin = FUZZ_TEXTS[data.draw(st.sampled_from(
        fitting if fitting and data.draw(st.integers(0, 3))
        else sorted(FUZZ_TEXTS)))]
    assume(not _meets_oracle_assert(argv, stdin))
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    try:
        sys.stdin = io.StringIO(stdin)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    assert code in DOCUMENTED_EXITS, (argv, err.getvalue())
    event("exit %d" % code)
    if code == 0 and not out.getvalue().startswith("usage: abtqft"):
        assert json.loads(out.getvalue())["command"] == command
