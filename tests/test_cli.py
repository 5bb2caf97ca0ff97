import argparse
import contextlib
import io
import itertools
import json
import os
import random
import re
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
    _field,
    _rational,
    approx_parts,
    eta_kappa,
    field_order,
    from_rational,
    gauss_sum,
    make_root,
    p_prime,
    q_power,
)
from abtqft.heisenberg import closed_context, finite_mul, to_finite
from abtqft.homology import (
    combine,
    cylinder_correspondence,
    hnf,
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
from abtqft.surgery import (
    matrix_element,
    refinement_classes,
    z_invariant,
    z_lens,
)
import reference


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
    cf, ch = (cli._class_from(cli._Work("test"), doc, key, g)
              for key in ("f", "h"))
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


@pytest.mark.parametrize("entries, error", [
    ([{"label": [5], "value": "1"}], "vector labels must lie in (Z/3)^1"),
    ([{"label": [-1], "value": "1"}], "vector labels must lie in (Z/3)^1"),
    ([{"label": [1], "value": "1"}, {"label": [1], "value": "2"}],
     "vector label [1] is given twice"),
])
def test_malformed_vector_labels_exit_2(monkeypatch, capsys, entries, error):
    # each of these printed an empty vector, or the last value, with exit 0
    doc = {"op": "act", "g": 1, "element": [0, [0], [0]],
           "vector": {"entries": entries}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert _run(capsys, ["heis", "-", "--p", "3"], expect=2)["error"] == error


def test_tqft_vector_labels_outside_the_module_exit_2(tmp_path, capsys):
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    vec = _doc(tmp_path, "vec.json",
               {"entries": [{"label": [7], "value": "1"}]})
    report = _run(capsys, ["tqft", prog, "--p", "5", "--vector", vec],
                  expect=2)
    assert report["error"] == "vector labels must lie in (Z/5)^1"


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
    # the plain forms are read on integers, the rest by Fraction; the
    # CLI hands the strings to the one reader in cyclotomic
    for text in ("3", "-3/4", "+6/8", "-0/5", "007/014", " 1.5e1 ", "1_0/4"):
        r = Fraction(text)
        assert _rational(cli._json_rational(text)) == (r.numerator,
                                                       r.denominator)
    for text, error in (("1/0", ZeroDivisionError),
                        ("3/00", ZeroDivisionError), ("abc", ValueError),
                        ("+7/-2", ValueError), ("", ValueError),
                        ("/2", ValueError), ("-", ValueError),
                        ("\u00b2/4", ValueError)):
        with pytest.raises(error) as got:
            _rational(cli._json_rational(text))
        with pytest.raises(error) as want:
            Fraction(text)
        assert str(got.value) == str(want.value)


def test_scalar_doc_approx_is_the_display_parts():
    x = eta_kappa(5)[0] * make_root(40, 3)
    approx = cli.scalar_doc(x, 7)["approx"]
    assert (approx["re"], approx["im"]) == approx_parts(x, 7)


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
               "CLOSURE"],
              ["tqft", "DOC", "--p", "5", "--vector", "VECTOR"]],
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
        # ASCII rationals are read on integers, without fractions
        "VECTOR": _doc(tmp_path, "vector.json", {"entries": [
            {"label": [0], "value": "-3/4"}, {"label": [1], "value": "+2"},
            {"label": [2], "value": "007/014"}]}),
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
        input="" if doc is None else _dumps(doc), env=_cli_env(),
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


# -- the work budget -------------------------------------------------------


REFUSAL = re.compile(
    r"^(?P<instance>[a-z]+ [^:]*at p = \d+(, g = \d+)?): (?P<step>.+) "
    r"brings the predicted work to (?P<us>\d+) us, over the budget of "
    r"(?P<budget>\d+) us$")


def _refused(capsys, argv, step=None, within=1.0):
    """Run a job the budget refuses: exit 6 within a second, with a
    message naming the instance, the step with its parameters, the
    predicted work and the budget."""
    start = time.perf_counter()
    report = _run(capsys, argv, expect=6)
    assert time.perf_counter() - start < within
    match = REFUSAL.match(report["error"])
    assert match, report["error"]
    assert int(match["us"]) > int(match["budget"]) == cli.BUDGET_US
    if step is not None:
        assert step in match["step"], report["error"]
    return report


def test_colour_sums_over_the_budget_are_refused(tmp_path, capsys):
    eye = [[int(i == j) for j in range(10)] for i in range(10)]
    big = _doc(tmp_path, "big.json", {"B": eye})
    for argv in (["invariant", big, "--p", "12"],
                 ["refine", big, "--p", "12"],
                 ["lens", "30", "29", "--p", "12"],
                 ["lens", "1000000000000", "999999999999", "--p", "5"]):
        _refused(capsys, argv)
    fixed = _doc(tmp_path, "fixed.json",
                 {"B": eye, "fixed_colors": {"0": 1, "1": 2}})
    _refused(capsys, ["invariant", fixed, "--p", "12"],
             "the colour sum over 8 components, 6^8 colourings")
    prog = _doc(tmp_path, "prog.json", _surgery_program([0, 1]))
    _refused(capsys, ["tqft", prog, "--p", "12", "--normalized",
                      "--closure", big], "colour sum over 10 components")
    long_gamma = _doc(tmp_path, "gamma.json",
                      _surgery_program([999999999999, 1000000000000]))
    _refused(capsys, ["tqft", long_gamma, "--p", "5", "--normalized"],
             "signature(s) of a 300 x 300 linking matrix")


def test_odd_order_sums_are_gauss_sums_the_budget_admits(tmp_path, capsys):
    # both were refused as 509^2 and 13^20 colourings; nothing is
    # enumerated at odd order
    report = _run(capsys, ["lens", "7", "3", "--p", "509"])
    assert cli.parse_scalar(report["value"]) == z_lens(509, 7, 3)
    rng = random.Random(20)
    B = [[0] * 20 for _ in range(20)]
    for i in range(20):
        for j in range(i, 20):
            B[i][j] = B[j][i] = rng.randint(-3, 3)
    doc = _doc(tmp_path, "b.json", {"B": B})
    report = _run(capsys, ["invariant", doc, "--p", "13"])
    assert cli.parse_scalar(report["value"]) == z_invariant(13, B)


def _genus_two_surgery(handle=1):
    return {"source": {"g": 1, "L": [[1, 0]]},
            "steps": [{"kind": "index1"},
                      {"kind": "index2", "handle": handle, "gamma": [0, 1]}],
            "target": {"g": 1, "L": [[1, 0]]}}


def test_oracle_over_the_budget_is_refused(tmp_path, capsys):
    # an index-2 step at genus 2 tensors p'^5 pairs: 13^5 = 371,293
    prog = _doc(tmp_path, "prog.json", _genus_two_surgery())
    _refused(capsys, ["tqft", prog, "--p", "13", "--mode", "oracle"],
             "the tensor oracle over 371293 tensor pairs")
    _refused(capsys, ["tqft", prog, "--p", "13", "--verify"],
             "tensor pairs")
    # one run of 7^5 = 16,807 pairs took 15.8 s
    _refused(capsys, ["tqft", prog, "--p", "7", "--mode", "oracle"],
             "the tensor oracle over 16807 tensor pairs")
    # the closed route enumerates no tensor pairs
    _run(capsys, ["tqft", prog, "--p", "13"])
    # an invalid program is reported as such, not as too large
    bad = _genus_two_surgery(handle=0)
    bad["target"] = {"g": 2, "L": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    _run(capsys, ["tqft", _doc(tmp_path, "bad.json", bad), "--p", "13",
                  "--mode", "oracle"], expect=4)


@pytest.mark.parametrize("mode, routes", [
    ("auto", ["closed", "oracle"]),
    ("closed", ["closed", "oracle"]),
    ("oracle", ["oracle", "closed"]),
])
@pytest.mark.parametrize("doc, normalized", [
    (_genus_two_surgery(), False),
    (_surgery_program([1, 2]), True),
])
def test_tqft_verify_runs_each_route_once(monkeypatch, tmp_path, capsys,
                                          mode, routes, doc, normalized):
    from abtqft import cobordism

    prog = _doc(tmp_path, "prog.json", doc)
    argv = ["tqft", prog, "--p", "3", "--mode", mode] + (
        ["--normalized"] if normalized else [])
    expected = _run(capsys, argv)
    program = load_program(doc)
    reference = (cobordism.normalized_map(3, program, None, mode)
                 if normalized else cobordism.F_program(3, program, mode))
    assert expected["map"] == cli._map_doc(reference, cli.MAX_DIGITS)
    calls = []
    real = cobordism.F_program

    def counting(p, program, mode="auto"):
        calls.append(mode)
        return real(p, program, mode)

    monkeypatch.setattr(cobordism, "F_program", counting)
    report = _run(capsys, argv + ["--verify"])
    assert calls == routes
    assert report.pop("verified") == "closed form equals tensor oracle"
    assert report == expected


def _standard_object(g):
    return {"g": g, "L": [[int(j == i) for j in range(2 * g)]
                          for i in range(g)]}


def _identity_cylinders(g, steps):
    identity = [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]
    return {"source": _standard_object(g),
            "steps": [{"kind": "cylinder", "matrix": identity}] * steps,
            "target": _standard_object(g)}


def test_tqft_labels_over_the_budget_are_refused(tmp_path, capsys):
    # 13^6 = 4.8 M labels at the source; this ran past 10 s before
    six = _standard_object(6)
    doc = _doc(tmp_path, "six.json",
               {"source": six, "steps": [], "target": six})
    _refused(capsys, ["tqft", doc, "--p", "13"],
             "genus-6 Schrodinger module")
    # the genus after a step counts too: 21^4 labels after an index-1 step
    three, four = _standard_object(3), _standard_object(4)
    grow = _doc(tmp_path, "grow.json", {"source": three,
                                        "steps": [{"kind": "index1"}],
                                        "target": four})
    _refused(capsys, ["tqft", grow, "--p", "21"],
             "genus-4 Schrodinger module, 21^4 labels")
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


def test_invariant_budget_goes_before_the_signature(monkeypatch, tmp_path,
                                                    capsys):
    # an exact signature of a 120 x 120 matrix took 13 s before caps
    n = 300
    B = [[2 if i == j else int(abs(i - j) == 1) for j in range(n)]
         for i in range(n)]
    doc = _doc(tmp_path, "big.json", {"B": B})
    fixed = _doc(tmp_path, "fixed.json", {"B": B, "fixed_colors": {"0": 1}})

    def no_signature(B):
        raise AssertionError("signature computed for a refused job")

    monkeypatch.setattr("abtqft.surgery.signature", no_signature)
    for path in (doc, fixed):
        _refused(capsys, ["invariant", path, "--p", "5"],
                 "2 signature(s) of a 300 x 300 linking matrix")


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


def test_heis_and_mcg_over_the_budget_are_refused(tmp_path, capsys):
    # 13^8 unknowns (and 13^4 labels) for a genus-4 commutant system
    commutant = _doc(tmp_path, "c.json", {"op": "commutant", "g": 4})
    _refused(capsys, ["heis", commutant, "--p", "13"])
    # 13^4 = 28,561 unknowns
    small = _doc(tmp_path, "s.json", {"op": "commutant", "g": 2})
    _refused(capsys, ["heis", small, "--p", "13"],
             "the genus-2 commutant system of 13^4 unknowns")
    matrix = _doc(tmp_path, "m.json", {
        "op": "matrix", "g": 4, "element": [0, [0] * 4, [0] * 4]})
    _refused(capsys, ["heis", matrix, "--p", "13"],
             "the genus-4 Schrodinger module's 13^4 labels")
    # 13^8 averaging terms for one genus-2 intertwiner
    weil = _doc(tmp_path, "w.json",
                {"op": "weil", "g": 2, "f": {"word": ["ta1"]}})
    _refused(capsys, ["mcg", weil, "--p", "13"],
             "1 Weil intertwiner(s) of genus 2 averaging 13^8 terms each")
    # --verify runs three intertwiners of 7^8 = 5,764,801 terms each
    cocycle = _doc(tmp_path, "k.json", {"op": "cocycle", "g": 2,
                                        "f": {"word": ["ta1"]},
                                        "h": {"word": ["tb2"]}})
    _refused(capsys, ["mcg", cocycle, "--p", "7", "--verify"],
             "3 Weil intertwiner(s) of genus 2 averaging 7^8 terms each")
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
    largest = max(g for g in range(1, 1000) if g ** 3 * cli.NS_PER_ITEM[
        "frame"] <= 1000 * cli.BUDGET_US)
    for op, g, short in (("mul", 100000, False), ("inverse", 3000, True),
                         ("mul", 2000, False), ("inverse", 2000, False),
                         ("mul", largest + 1, False)):
        doc = dict(_heis_elements(g, short), op=op, g=g)
        _refused(capsys, ["heis", _doc(tmp_path, "g.json", doc), "--p",
                          "13"], "the genus-%d frame" % g)
    g = 100
    full = _doc(tmp_path, "f.json", dict(_heis_elements(g), op="mul", g=g))
    assert _run(capsys, ["heis", full, "--p", "13"])["result"] == [
        (3 + 2 * g) % 13, [1] * g, [3] * g]
    # a wrong length and an unknown op are reported before any frame is
    # built
    def no_frame(p, g):
        raise AssertionError("frame built for a malformed document")

    monkeypatch.setattr("abtqft.heisenberg.closed_context", no_frame)
    short = _doc(tmp_path, "s.json", dict(_heis_elements(g, True),
                                          op="mul", g=g))
    report = _run(capsys, ["heis", short, "--p", "13"], expect=2)
    assert report["error"] == "group element 'x' does not match genus %d" % g
    unknown = _doc(tmp_path, "u.json", {"op": "pow", "g": 10 ** 6})
    _run(capsys, ["heis", unknown, "--p", "13"], expect=2)


def test_heis_and_mcg_budget_admits_jobs_below_it(tmp_path, capsys):
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


def test_mcg_compositions_over_the_budget_are_refused(tmp_path, capsys):
    # chain and swap grow the image words fastest at genus 2
    word = ["chain", "swap"] * 30
    path = _doc(tmp_path, "t.json", {"op": "theta", "g": 2,
                                     "f": {"word": word}})
    report = _refused(capsys, ["mcg", path, "--p", "5"])
    assert report["error"] == (
        "mcg theta at p = 5, g = 2: twist 14 (swap) of mapping class 'f' "
        "composes 6396642 image letters brings the predicted work to "
        "2369453 us, over the budget of 2000000 us")
    # a seeded 60-twist word; its first 50 twists make a class of
    # 781,157 image letters
    names = sorted(twist_generators(2))
    rng = random.Random(50)
    word = [rng.choice(names) for _ in range(60)]
    path = _doc(tmp_path, "r.json", {"op": "theta", "g": 2,
                                     "f": {"word": word}})
    # the twists before the refused one compose within the budget, which
    # takes ~0.8 s here
    report = _refused(capsys, ["mcg", path, "--p", "5"],
                      within=cli.BUDGET_US / 10 ** 6)
    assert report["error"].startswith(
        "mcg theta at p = 5, g = 2: twist 45 (ta2') of mapping class 'f' "
        "composes 1191566 image letters")
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
    report = _refused(capsys, ["mcg", path, "--p", "3", "--verify"],
                      "the product f h of mapping class 'f h' composes %d "
                      "image letters" % count)


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


def _predicted(monkeypatch, argv, doc=None):
    """The predicted work of a job the budget admits, in us, read from
    the ``_Work`` totals of a run to its end."""
    totals = []

    class Recording(cli._Work):
        def __init__(self, instance):
            super().__init__(instance)
            totals.append(self)

    monkeypatch.setattr(cli, "_Work", Recording)
    text = "" if doc is None else json.dumps(doc)
    assert _main_on_stdin(argv, text) == (0, "")
    return sum(work.us for work in totals)


def _benchmark_documents():
    """The largest document of every shape the benchmark's cli-jobs
    workload sends: orders 3, 4, 5, 7, 8 and 12; invariants and
    refinements of at most 3 components with entries in [-3, 3]; lens
    chains of p'^len <= 10^3; genus-1 tqft programs, verified at odd p;
    heis mul and inverse at genus 2 and the other ops at genus 1; mcg
    words of at most four twists, cocycle and weil at genus 1 and odd
    p."""
    B = [[3, -3, 3], [-3, 3, -3], [3, -3, 3]]
    words = {1: ["ta", "tb", "ta'", "tb'"], 2: ["chain", "swap"] * 2}
    one = _standard_object(1)
    for p in (3, 4, 5, 7, 8, 12):
        pp, odd = p_prime(p), p % 2 == 1
        yield ["invariant", "--p", str(p), "-"], {"B": B}
        yield ["invariant", "--p", str(p), "-"], {
            "B": B, "fixed_colors": {"0": 1}}
        if p % 4 == 0:
            yield ["refine", "--p", str(p), "-"], {"B": B}
        n = max(n for n in range(1, 20) if pp ** n <= 10 ** 3)
        yield ["lens", str(n + 1), str(n), "--p", str(p)], None
        verify = ["--verify"] if odd else []
        for step in ({"kind": "index2", "handle": 0, "gamma": [-7, 3]},):
            yield ["tqft", "--p", str(p), "-"] + verify, {
                "source": one, "steps": [step], "target": {"g": 0, "L": []}}
        yield ["tqft", "--p", str(p), "-"] + verify, {
            "source": one, "steps": [{"kind": "cylinder",
                                      "matrix": [[2, 1], [1, 1]]}],
            "target": {"g": 1, "L": [[2, 1]]}}
        for op, g in (("mul", 2), ("inverse", 2), ("act", 1),
                      ("matrix", 1), ("commutant", 1)):
            doc = {"op": op, "g": g, "x": [1, [1] * g, [0] * g],
                   "y": [0, [0] * g, [1] * g], "element": [1, [1], [1]],
                   "vector": {"entries": [{"label": [0], "value": "1"}]}}
            yield ["heis", "--p", str(p), "-"], doc
        for g in (1, 2):
            yield ["mcg", "--p", str(p), "-"], {
                "op": "theta", "g": g, "f": {"word": words[g]}}
        if odd:
            for op in ("cocycle", "weil"):
                yield ["mcg", "--p", str(p), "--verify", "-"], {
                    "op": op, "g": 1, "f": {"word": words[1]},
                    "h": {"word": words[1][::-1]}}


def test_benchmark_documents_take_a_tenth_of_the_budget(monkeypatch):
    for argv, doc in _benchmark_documents():
        assert _predicted(monkeypatch, argv, doc) <= cli.BUDGET_US // 10, (
            argv, doc)


def test_largest_benchmark_jobs_are_admitted(tmp_path, capsys):
    # 4^5 = 1,024 tensor pairs (p = 8, genus 2)
    prog = _doc(tmp_path, "prog.json", _genus_two_surgery())
    _run(capsys, ["tqft", prog, "--p", "8"])
    chain = _doc(tmp_path, "chain.json", {"B": [[2, 1], [1, 2]]})
    _run(capsys, ["invariant", chain, "--p", "13"])


def _work_of(charge):
    """The total a charge adds to a fresh job, with the budget lifted."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BUDGET_US", 10 ** 100)
        work = cli._Work("a job")
        charge(work)
    return work.us


def _predictions(p, n, g, runs):
    """The predicted work of one job of each kind at order p, n
    components, genus g and ``runs`` oracle runs or extra intertwiners."""
    program = {"source": _standard_object(g),
               "steps": [{"kind": "index1"},
                         {"kind": "index2", "handle": g, "gamma": [0, 1]}],
               "target": _standard_object(g)}
    routes = {"closed", "oracle"} if runs else {"closed"}
    charges = [
        lambda w: (w.field(p), cli._charge_invariant(w, p, [[3] * n] * n,
                                                      signatures=2)),
        lambda w: cli._charge_invariant(w, p, [[2] * n] * n, signatures=2,
                                        refine=True),
        lambda w: cli._charge_weil(w, p, g, runs + 1),
        lambda w: cli._charge_routes(w, p, w.field(p), cli._charge_validation(
            w, program, p), routes),
    ] + [lambda w, op=op: cli._charge_heis(w, p, g, op)
         for op in ("mul", "inverse", "act", "matrix", "commutant")]
    return [_work_of(charge) for charge in charges]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_predicted_work_never_falls_as_a_job_grows(data):
    # within one parity of p: odd orders sum by Gauss sums, even ones
    # enumerate; p' and the field's order and degree all grow
    even = data.draw(st.booleans())
    orders = st.integers(1, 60).map(lambda k: 4 * k if even else 2 * k + 1)
    p1, p2 = sorted(data.draw(st.lists(orders, min_size=2, max_size=2)))
    m1, m2 = field_order(p1), field_order(p2)
    assume(p_prime(p1) <= p_prime(p2) and m1 <= m2)
    assume(_field(m1).phi <= _field(m2).phi)
    n1, n2 = sorted(data.draw(st.lists(st.integers(1, 40), min_size=2,
                                       max_size=2)))
    g1, g2 = sorted(data.draw(st.lists(st.integers(1, 6), min_size=2,
                                       max_size=2)))
    r1, r2 = sorted(data.draw(st.lists(st.integers(0, 1), min_size=2,
                                       max_size=2)))
    small = _predictions(p1, n1, g1, r1)
    large = _predictions(p2, n2, g2, r2)
    assert all(a <= b for a, b in zip(small, large)), (small, large)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 2), st.data())
def test_predicted_work_never_falls_as_a_word_grows(g, data):
    names = sorted(twist_generators(g))
    word = data.draw(st.lists(st.sampled_from(names), max_size=8))
    totals = [_work_of(lambda w: cli._class_from(
        w, {"f": {"word": word[:k]}}, "f", g)) for k in range(len(word) + 1)]
    assert totals == sorted(totals)


# each kind of work, far over the budget: refused within a second, before
# the step that would run it
OVER_BUDGET = [
    ("colourings", ["invariant", "--p", "12", "-"],
     {"B": [[int(i == j) for j in range(12)] for i in range(12)]},
     "colour sum over 12 components, 6^12 colourings"),
    ("pivots", ["invariant", "--p", "13", "-"],
     {"B": [[int(abs(i - j) <= 1) for j in range(400)] for i in range(400)]},
     "signature(s) of a 400 x 400 linking matrix"),
    ("pivot_bits", ["invariant", "--p", "13", "-"],
     {"B": [[10 ** 4000 * (i == j) for j in range(40)] for i in range(40)]},
     "signature(s) of a 40 x 40 linking matrix"),
    ("histogram", ["invariant", "--p", "789", "-"],
     {"B": [[int(i == j) for j in range(20)] for i in range(20)]},
     "the Gauss sum over 20 components at p = 789"),
    ("field", ["lens", "1", "0", "--p", "1001"], None,
     "the cyclotomic field of order 8008"),
    ("tensor_pairs", ["tqft", "--p", "13", "--mode", "oracle", "-"],
     _genus_two_surgery(), "the tensor oracle over 371293 tensor pairs"),
    ("entries", ["tqft", "--p", "13", "-"],
     {"source": _standard_object(6), "steps": [],
      "target": _standard_object(6)}, "genus-6 Schrodinger module"),
    ("printed", ["heis", "--p", "509", "-"],
     {"op": "matrix", "g": 1, "element": [1, [1], [0]]},
     "the genus-1 Schrodinger module's 509^1 labels"),
    ("unknowns", ["heis", "--p", "61", "-"], {"op": "commutant", "g": 1},
     "the genus-1 commutant system of 61^2 unknowns"),
    ("terms", ["mcg", "--p", "61", "-"],
     {"op": "weil", "g": 1, "f": {"word": ["tb"]}},
     "1 Weil intertwiner(s) of genus 1 averaging 61^4 terms each"),
    ("steps", ["tqft", "--p", "3", "-"], _identity_cylinders(1, 80000),
     "validating 80000 step(s) up to genus 1"),
    ("words", ["tqft", "--p", "3", "-"],
     {"source": _standard_object(1),
      "steps": [{"kind": "cylinder",
                 "matrix": [[10 ** 4000, 10 ** 4000 - 1], [1, 1]]}] * 20,
      "target": _standard_object(1)}, "validating 20 step(s) up to "
                                      "genus 1"),
    ("frame", ["mcg", "--p", "5", "-"],
     {"op": "theta", "g": 400,
      "f": {"images": [[k] for k in range(1, 801)]}},
     "the genus-400 class 'f'"),
    ("letters", ["mcg", "--p", "5", "-"],
     {"op": "theta", "g": 2, "f": {"word": ["chain", "swap"] * 10}},
     "of mapping class 'f' composes"),
]


# a refinement block far over the budget by its 2^15 signatures (11 s),
# though its colour sums, 2^15 colourings, fit
REFINEMENT_OVER_BUDGET = (
    "refinement", ["refine", "--p", "4", "-"],
    {"B": [[0] * 15 for _ in range(15)]}, "refinement block of 2^15 classes")


@pytest.mark.parametrize("argv, doc, step", [
    pytest.param(argv, doc, step, id=kind)
    for kind, argv, doc, step in OVER_BUDGET + [REFINEMENT_OVER_BUDGET]])
def test_each_kind_of_work_is_refused_before_it_runs(monkeypatch, capsys,
                                                     argv, doc, step):
    def not_run(*args, **kwargs):
        raise AssertionError("an expensive step ran for a refused job")

    for name in ("abtqft.surgery.signature", "abtqft.surgery.z_lens",
                 "abtqft.cobordism.F_program",
                 "abtqft.heisenberg.closed_context",
                 "abtqft.mcg.weil_intertwiner", "abtqft.mcg.theta"):
        monkeypatch.setattr(name, not_run)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    _refused(capsys, argv, step)


def test_every_kind_of_work_has_a_refusal_test():
    assert {kind for kind, *_ in OVER_BUDGET} == set(cli.NS_PER_ITEM)


def _never(monkeypatch, *names):
    def not_run(*args, **kwargs):
        raise AssertionError("a step ran for a job refused before it")

    for name in names:
        monkeypatch.setattr(name, not_run)


@pytest.mark.parametrize("doc, step", [
    ({"source": _standard_object(200), "steps": [],
      "target": _standard_object(200)}, "validating 0 step(s) up to "
                                        "genus 200"),
    *[(doc, step) for kind, _, doc, step in OVER_BUDGET
      if kind in ("steps", "words")]])
def test_program_is_priced_before_it_is_built(monkeypatch, capsys, doc,
                                              step):
    # building a genus-200 identity program took 1.7 s in hnf before the
    # budget refused it; too many steps, or too many bits of the carried
    # entries, are refused from the document too
    _never(monkeypatch, "abtqft.cobordism.hnf",
           "abtqft.cobordism.load_program", "abtqft.cobordism.validate",
           "abtqft.cobordism.F_program")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    _refused(capsys, ["tqft", "--p", "3", "-"], step)


def test_program_is_priced_at_the_largest_genus_it_reaches(monkeypatch,
                                                           capsys):
    # 40 index-1/index-2 pairs never leave genus 2; priced at the source
    # genus plus the index-1 steps, genus 41, they were refused (56.5 s
    # predicted), and they run in 0.03 s
    pair = [{"kind": "index1"},
            {"kind": "index2", "handle": 1, "gamma": [1, 0]}]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(
        {"source": _standard_object(1), "steps": pair * 40,
         "target": _standard_object(1)})))
    start = time.perf_counter()
    entries = _run(capsys, ["tqft", "--p", "3", "-"])["map"]["entries"]
    assert time.perf_counter() - start < 1.0
    assert len(entries) == 3


def test_verify_at_even_order_is_refused_first(monkeypatch, capsys):
    # before the field, the document or any map is built
    _never(monkeypatch, "abtqft.cli._Work.field", "abtqft.cli._read_doc",
           "abtqft.cobordism.load_program", "abtqft.cobordism.F_program")
    for p in ("4", "8"):
        report = _run(capsys, ["tqft", "--p", p, "--verify", "-"], expect=3)
        assert "needs odd p" in report["error"]


def test_composite_without_closure_is_refused_before_its_map(monkeypatch,
                                                             capsys):
    _never(monkeypatch, "abtqft.cobordism.F_program")
    for p in ("3", "8"):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_COMPOSITE)))
        report = _run(capsys, ["tqft", "--p", p, "--normalized", "-"],
                      expect=5)
        assert "no built-in closure" in report["error"]


def test_largest_refinement_block_at_p4_is_admitted():
    # 4,096 classes of the 12 x 12 zero matrix: once refused because each
    # class re-solved the mod-2 system to list them all
    B = [[0] * 12 for _ in range(12)]
    start = time.perf_counter()
    proc = _process(["refine", "--p", "4", "-"], {"B": B})
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.5
    block = json.loads(proc.stdout)["refinement"]
    classes = [tuple(c["class"]) for c in block["classes"]]
    assert classes == reference.refinement_classes(4, B)
    for i in (0, 1, 2 ** 11, len(classes) - 1):
        assert cli.parse_scalar(block["classes"][i]["value"]) == (
            reference.refined_invariant(4, B, classes[i]))
    assert block["sum_matches_total"] is True


def _transvection(v, sign):
    """The matrix of x -> x + sign (x . v) v, acting on row vectors."""
    n = len(v)
    return [[int(i == j) + sign * intersection(
        tuple(int(k == i) for k in range(n)), v) * v[j] for j in range(n)]
        for i in range(n)]


def _pushed_program(g, matrices):
    """Cylinders on ``matrices`` from the standard object of genus g to
    the standard Lagrangian pushed through them."""
    L = [tuple(int(i == j) for j in range(2 * g)) for i in range(g)]
    for F in matrices:
        L = [combine(u, F) for u in L]
    return {"source": _standard_object(g),
            "steps": [{"kind": "cylinder", "matrix": F} for F in matrices],
            "target": {"g": g, "L": [list(r) for r in hnf(L)]}}


def _twist_cylinders(g, steps):
    """Cylinders on a hyperbolic word of twists, so the carried entries
    grow at every step: along a_k and inversely along b_k on each
    handle, then along a_k - a_(k+1)."""
    unit = [tuple(int(i == j) for j in range(2 * g)) for i in range(2 * g)]
    word = [_transvection(unit[k + h * g], 1 - 2 * h)
            for k in range(g) for h in (0, 1)]
    word += [_transvection(tuple(a - b for a, b in zip(unit[k], unit[k + 1])),
                           1) for k in range(g - 1)]
    return _pushed_program(g, [word[i % len(word)] for i in range(steps)])


def _transvection_cylinders(g, steps, bound=10 ** 15):
    """Cylinders on transvections along vectors with entries below
    ``bound``, drawn with ``random.Random(5)``: the entries the walk
    carries, and the final change of frame reads, grow fast."""
    rng = random.Random(5)
    return _pushed_program(g, [
        _transvection([rng.randrange(bound) for _ in range(2 * g)], 1)
        for _ in range(steps)])


def _long_transvection_cylinders(g, steps):
    return _transvection_cylinders(g, steps, 10 ** 30)


def _dumps(doc):
    """``json.dumps`` of a test's input document, whose integers may have
    more digits than the interpreter writes by default; the program
    reads it under its own limits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return json.dumps(doc)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(doc)
    finally:
        sys.set_int_max_str_digits(limit)


def test_genus_eight_transvections_end_in_time():
    # eight cylinders on 15-digit transvections at genus 8: the final
    # change of frame once rewrote each of the 3^8 labels through the
    # carried 786-bit entries, and this job, admitted, ran for 3.5-6.3 s
    start = time.perf_counter()
    proc = _process(["tqft", "--p", "3", "-"], _transvection_cylinders(8, 8))
    assert proc.returncode in (0, 6), proc.stderr
    assert time.perf_counter() - start < 2.5


@pytest.mark.parametrize("g, program, steps", [
    (1, _identity_cylinders, 24231), (3, _identity_cylinders, 13505),
    (5, _identity_cylinders, 4985), (8, _identity_cylinders, 757),
    (1, _twist_cylinders, 22759), (3, _twist_cylinders, 6692),
    (5, _twist_cylinders, 2390), (8, _twist_cylinders, 517),
    (8, _transvection_cylinders, 11), (5, _long_transvection_cylinders, 21)])
def test_largest_cylinder_program_is_admitted(monkeypatch, capsys, g,
                                              program, steps):
    # the largest programs the budget admits at p = 3, priced by `steps`
    # and, as the carried entries grow, by `words`, end in time in a
    # fresh process; the twists' target at genus 1 has 4,757 digits, more
    # than the interpreter reads by default
    start = time.perf_counter()
    proc = _process(["tqft", "--p", "3", "-"], program(g, steps))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.5
    entries = json.loads(proc.stdout)["map"]["entries"]
    labels = set(itertools.product(range(3), repeat=g))
    assert {tuple(e["source"]) for e in entries} == labels
    assert {tuple(e["target"]) for e in entries} == labels
    if program is _identity_cylinders:
        assert all(e["source"] == e["target"] for e in entries)
    # one step more is refused, before any map is computed
    _never(monkeypatch, "abtqft.cobordism.F_program")
    monkeypatch.setattr("sys.stdin", io.StringIO(_dumps(
        program(g, steps + 1))))
    _refused(capsys, ["tqft", "--p", "3", "-"], within=2.5)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int to str conversion")
@pytest.mark.parametrize("digits, code", [(33774, 6), (40000, 6),
                                          (40001, 2)])
def test_program_entries_are_read_as_far_as_the_budget_admits(
        monkeypatch, capsys, digits, code):
    # one genus-1 cylinder [[N, N - 1], [1, 1]] with N = 10^(digits - 1):
    # its entries are read past the interpreter's limit of 4,300 digits
    # as far as the budget could admit them, and the price refuses them
    # (exit 6) before the reading bound does (exit 2)
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr("sys.stdin", io.StringIO(
        '{"source": {"g": 1, "L": [[1, 0]]}, "steps": [{"kind": '
        '"cylinder", "matrix": [[1%s, %s], [1, 1]]}], "target": {"g": 1, '
        '"L": [[1, 0]]}}' % ("0" * (digits - 1), "9" * (digits - 1))))
    if code == 6:
        _refused(capsys, ["tqft", "--p", "3", "-"], "validating 1 step(s)")
    else:
        report = _run(capsys, ["tqft", "--p", "3", "-"], expect=2)
        assert report["error"].startswith("cannot read input document")
    assert sys.get_int_max_str_digits() == limit


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


# -- the work budget: the field ---------------------------------------------


@pytest.mark.parametrize("argv, doc", [
    (["invariant", "-", "--p", "4001"], {"B": []}),
    (["lens", "1", "0", "--p", "4001"], None),
    (["heis", "-", "--p", "4001"],
     {"op": "matrix", "g": 1, "element": [1, [1], [0]]}),
    (["refine", "-", "--p", "8192"], {"B": [[1]]}),
    (["tqft", "-", "--p", "4001"], _surgery_program([0, 1])),
    (["heis", "-", "--p", "1001"], {"op": "commutant", "g": 1}),
    (["heis", "-", "--p", "1001"], {"op": "act", "g": 1,
                                    "element": [0, [1], [1]]}),
    (["mcg", "-", "--p", "4001"],
     {"op": "weil", "g": 1, "f": {"word": ["ta"]}}),
    (["mcg", "-", "--p", "4001", "--verify"],
     {"op": "cocycle", "g": 1, "f": {"word": ["ta"]},
      "h": {"word": ["tb"]}}),
])
def test_orders_over_the_field_budget_are_refused(monkeypatch, capsys, argv,
                                                  doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    p = int(argv[-1] if argv[-1] != "--verify" else argv[-2])
    _refused(capsys, argv, "the cyclotomic field of order %d"
             % field_order(p))
    assert field_order(p) ** 2 * cli.NS_PER_ITEM["field"] > (
        1000 * cli.BUDGET_US)


@pytest.mark.parametrize("doc", [
    {"op": "mul", "g": 1, "x": [1, [1], [0]], "y": [0, [0], [1]]},
    {"op": "inverse", "g": 1, "x": [1, [1], [0]]},
    {"op": "theta", "g": 1, "f": {"word": ["ta", "tb"]}},
    {"op": "cocycle", "g": 1, "f": {"word": ["ta"]}, "h": {"word": ["tb"]}},
])
def test_jobs_without_a_field_ignore_the_field_budget(monkeypatch, capsys,
                                                      doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    command = "heis" if doc["op"] in ("mul", "inverse") else "mcg"
    start = time.perf_counter()
    report = _run(capsys, [command, "-", "--p", "4001"])
    assert time.perf_counter() - start < 1
    assert report["op"] == doc["op"] and report["p"] == 4001


def test_field_budget_admits_the_orders_in_use():
    # cocycle --verify runs up to p = 23 in the tests, the benchmark up
    # to p = 13; the field alone takes the budget between p = 789 and 791
    work = cli._Work("the fields in use")
    for p in range(3, 24):
        if p % 4 != 2:
            assert work.field(p) == _field(field_order(p)).phi
    assert work.us <= cli.BUDGET_US // 100
    cli._Work("p = 789").field(789)
    with pytest.raises(cli.CliError):
        cli._Work("p = 791").field(791)


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
