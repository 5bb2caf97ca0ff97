"""The work functions beside the kernels.

* The command line charges with them exactly the steps and items it
  charged with its own formulas, kept in ``reference``: on the golden
  corpus, on every kind of work far over the budget, and on drawn jobs
  of every command, malformed ones included.
* Each work function counts at least the work its kernel does, and
  exactly that where its formula is exact: the kernels are instrumented
  here, at small sizes and at odd and even order.
"""

import contextlib
import io
import json
import random
import sys
from math import gcd

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from abtqft import cli, cobordism, heisenberg, mcg, surgery
from abtqft.cyclotomic import field_degree, p_prime
from abtqft.heisenberg import (closed_context, commutant_dim, commutant_work,
                               monomial_of, to_finite)
from abtqft.mcg import (MappingClass, averaging_work, composition_work,
                        twist_generators, weil_intertwiner)
from abtqft.surgery import (chain_matrix, colour_sum_work, continued_fraction,
                            lens_size, linking_size, refinement_count,
                            refinement_work)
from golden import regenerate
import reference
from test_cli import (OVER_BUDGET, REFINEMENT_OVER_BUDGET, _dumps,
                      _twist_cylinders)


# -- the same charges as the command line's own formulas -------------------


def _charged(run, argv, text):
    """The (step, items) pairs ``run(argv)`` charges through ``cli._Work``
    with ``text`` on standard input, up to its end or its refusal."""
    records = []

    class Recording(cli._Work):
        def add(self, step, **items):
            records.append((step, items))
            super().add(step, **items)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_Work", Recording)
        patch.setattr(sys, "stdin", io.StringIO(text))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run(argv)
    return records


def _same_charges(argv, text=""):
    charged = _charged(cli.main, argv, text)
    assert charged == _charged(reference.charges, argv, text), argv
    return charged


@pytest.mark.parametrize("case", regenerate.load_cases(),
                         ids=lambda case: case["name"])
def test_golden_jobs_are_charged_as_before(monkeypatch, case):
    monkeypatch.chdir(regenerate.HERE)
    text = ((regenerate.HERE / case["stdin"]).read_text()
            if "stdin" in case else "")
    _same_charges(case["argv"], text)


@pytest.mark.parametrize("argv, doc", [
    pytest.param(argv, doc, id=kind)
    for kind, argv, doc, _ in OVER_BUDGET + [REFINEMENT_OVER_BUDGET]])
def test_jobs_over_the_budget_are_charged_as_before(argv, doc):
    charged = _same_charges(argv, "" if doc is None else _dumps(doc))
    assert charged  # refused at its last charge


_INTS = st.one_of(st.integers(-4, 4), st.sampled_from([10 ** 30, -2 ** 70]))
_JUNK = st.sampled_from([1.5, True, None, "x", [], {}, [[1]]])


@st.composite
def _matrices(draw):
    n = draw(st.integers(0, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(_INTS)
    return draw(st.one_of(
        st.just(rows), _JUNK,
        st.lists(st.lists(st.one_of(_INTS, _JUNK), max_size=3), max_size=3)))


@st.composite
def _invariant_jobs(draw):
    command = draw(st.sampled_from(["invariant", "refine"]))
    doc = {"B": draw(_matrices())}
    if command == "invariant" and draw(st.booleans()):
        doc["fixed_colors"] = draw(st.one_of(_JUNK, st.dictionaries(
            st.sampled_from(["0", "1", "3", "01", "x"]), _INTS, max_size=2)))
    p = draw(st.sampled_from(["3", "4", "5", "6", "8", "12", "13", "16",
                              "1001"]))
    return [command, "-", "--p", p], json.dumps(doc)


_LENS = st.one_of(st.integers(-5, 60),
                  st.sampled_from([10 ** 12, 999999999999, 10 ** 40]))


@st.composite
def _lens_jobs(draw):
    beta, alpha = draw(_LENS), draw(_LENS)
    p = draw(st.sampled_from(["3", "4", "5", "8", "12", "13", "1001"]))
    return ["lens", str(beta), str(alpha), "--p", p], ""


def _standard(g):
    return {"g": g, "L": [[int(j == i) for j in range(2 * g)]
                          for i in range(g)]}


_OBJECTS = st.one_of(st.sampled_from([0, 1, 2]).map(_standard),
                     st.sampled_from([{"g": -1, "L": []}, {"g": "x", "L": []},
                                      {"g": 10 ** 9, "L": [[1, 0]]}]), _JUNK)
_STEPS = st.one_of(
    st.just({"kind": "index1"}),
    st.builds(lambda pos: {"kind": "index1", "position": pos},
              st.integers(0, 2)),
    st.builds(lambda handle, gamma: {"kind": "index2", "handle": handle,
                                     "gamma": gamma},
              st.integers(0, 2),
              st.sampled_from([[0, 1], [1, 0], [1, 2], [-7, 3]])),
    st.sampled_from([{"kind": "cylinder", "matrix": [[2, 1], [1, 1]]},
                     {"kind": "cylinder", "matrix": [[1, 0], [0, 1]]},
                     {"kind": "cylinder", "matrix": [
                         [int(i == j) for j in range(4)] for i in range(4)]},
                     {"kind": "cylinder", "matrix": [[2 ** 80, 1], [1, 0]]},
                     {"kind": "twist"}]),
    _JUNK)


@st.composite
def _tqft_jobs(draw, closure):
    doc = {"source": draw(_OBJECTS),
           "steps": draw(st.one_of(st.lists(_STEPS, max_size=4), _JUNK)),
           "target": draw(_OBJECTS)}
    if draw(st.integers(0, 4)) == 0:
        # the genus-1 programs that validate
        doc = draw(st.sampled_from([
            {"source": _standard(1), "steps": [], "target": _standard(1)},
            {"source": _standard(1), "steps": [
                {"kind": "index2", "handle": 0, "gamma": [-7, 3]}],
             "target": _standard(0)},
            {"source": _standard(1), "steps": [
                {"kind": "index1"},
                {"kind": "index2", "handle": 1, "gamma": [0, 1]}],
             "target": _standard(1)}]))
    argv = ["tqft", "-", "--p", draw(st.sampled_from(["3", "4", "8", "13"]))]
    argv += draw(st.sampled_from([[], ["--mode", "closed"],
                                  ["--mode", "oracle"]]))
    for flag in ("--verify", "--normalized"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.booleans()):
        argv += ["--closure", closure]
    return argv, json.dumps(doc)


@st.composite
def _heis_jobs(draw):
    g = draw(st.sampled_from([1, 2, 4, 165, 10 ** 9, 0, "x"]))
    n = g if g in (1, 2, 4) and draw(st.booleans()) else 1
    doc = {"op": draw(st.sampled_from(["mul", "inverse", "act", "matrix",
                                       "commutant", "pow", None])),
           "g": g, "x": [1, [1] * n, [0] * n], "y": [0, [0] * n, [1] * n],
           "element": draw(st.one_of(st.just([1, [1] * n, [1] * n]), _JUNK)),
           "vector": {"entries": [{"label": [0] * n, "value": "1"}]}}
    p = draw(st.sampled_from(["3", "4", "5", "13", "61", "509"]))
    return ["heis", "-", "--p", p], json.dumps(doc)


@st.composite
def _classes(draw, g):
    names = sorted(twist_generators(g)) if g in (1, 2) else ["ta"]
    return draw(st.one_of(
        st.builds(lambda word: {"word": word}, st.lists(
            st.one_of(st.sampled_from(names), _JUNK), max_size=4)),
        st.just({"images": [[k] for k in range(1, 2 * g + 1)]
                 if g in (1, 2, 400) else [[1]]}),
        st.just({"images": [[1, 1]]}), _JUNK))


@st.composite
def _mcg_jobs(draw):
    g = draw(st.sampled_from([1, 2, 400, 10 ** 9]))
    doc = {"op": draw(st.sampled_from(["theta", "cocycle", "weil", "x"])),
           "g": g, "f": draw(_classes(g)), "h": draw(_classes(g))}
    if g in (1, 2) and draw(st.booleans()):
        doc["matrix"] = draw(st.one_of(st.just(
            [[int(i == j) for j in range(2 * g)] for i in range(2 * g)]),
            _JUNK))
    argv = ["mcg", "-", "--p", draw(st.sampled_from(["3", "4", "7", "13",
                                                     "61"]))]
    if draw(st.booleans()):
        argv.append("--verify")
    return argv, json.dumps(doc)


@pytest.fixture(scope="module")
def closure(tmp_path_factory):
    path = tmp_path_factory.mktemp("closure") / "closure.json"
    path.write_text(json.dumps({"B": [[2, 1], [1, 2]]}))
    return str(path)


_JOBS = {"invariant": lambda closure: _invariant_jobs(),
         "lens": lambda closure: _lens_jobs(), "tqft": _tqft_jobs,
         "heis": lambda closure: _heis_jobs(),
         "mcg": lambda closure: _mcg_jobs()}


@pytest.mark.parametrize("command", sorted(_JOBS))
@settings(max_examples=150)
@given(st.data())
def test_drawn_jobs_are_charged_as_before(closure, command, data):
    argv, text = data.draw(_JOBS[command](closure))
    event("%s, %d charge(s)" % (argv[0], min(len(_same_charges(argv, text)),
                                              4)))


# -- no less work than the kernels do --------------------------------------


def _symmetric(rng, n, bound=3):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randint(-bound, bound)
    return B


def _counting(patch, module, name, measure):
    """Wrap ``module.name`` so each call adds ``measure(args, result)`` to
    the returned one-element list."""
    total = [0]
    real = getattr(module, name)

    def counted(*args):
        result = real(*args)
        total[0] += measure(args, result)
        return result

    patch.setattr(module, name, counted)
    return total


@pytest.mark.parametrize("p", [4, 8, 12, 16])
@pytest.mark.parametrize("n, fixed", [(0, 0), (1, 0), (3, 0), (3, 1), (4, 2)])
def test_even_order_sums_enumerate_the_priced_colourings(p, n, fixed):
    # the counts _phase_sum hands to exponent_sum cover each colouring once
    B = _symmetric(random.Random(n + p), n)
    colours = {i: (i + 1) % p_prime(p) for i in range(fixed)}
    with pytest.MonkeyPatch.context() as patch:
        counted = _counting(patch, surgery, "exponent_sum",
                            lambda args, _: sum(args[1].values()))
        if fixed:
            surgery.matrix_element(p, B, colours, fixed)
        else:
            surgery.z_invariant(p, B)
    work = colour_sum_work(p, n, n - fixed)
    assert set(work) == {"colourings"}
    assert counted[0] * (n * n + 16) == work["colourings"]


@pytest.mark.parametrize("p", [3, 5, 9, 15, 45])
@pytest.mark.parametrize("n, fixed", [(1, 0), (3, 0), (4, 1), (5, 2)])
def test_gauss_sums_histogram_no_more_than_priced(p, n, fixed):
    # each diagonal entry mod m = l^k convolves two histograms of m slots;
    # m^2 summed over the prime powers of p is p^2 at most, and equal for
    # a prime power
    B = _symmetric(random.Random(n * p), n)
    colours = {i: i + 1 for i in range(fixed)}
    with pytest.MonkeyPatch.context() as patch:
        steps = _counting(patch, surgery, "_diagonal_form",
                          lambda args, out: len(out) * args[3] ** 2)
        surgery.matrix_element(p, B, colours, fixed)
    work = colour_sum_work(p, n, n - fixed)
    assert steps[0] <= work["histogram"]
    if len(surgery._prime_powers(p)) == 1:
        assert steps[0] == work["histogram"]
    assert work["pivots"] == (n - fixed) ** 3


@pytest.mark.parametrize("p", [4, 8, 16])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_refinement_block_is_priced_per_class(p, n):
    # one signature per class, and class sums that cover each colouring
    # at most once
    B = _symmetric(random.Random(n), n, bound=2)
    count = refinement_count(B)
    with pytest.MonkeyPatch.context() as patch:
        signatures = _counting(patch, surgery, "signature",
                               lambda args, _: 1)
        colourings = _counting(patch, surgery, "exponent_sum",
                               lambda args, _: sum(args[1].values()))
        for cls in surgery.refinement_classes(p, B):
            surgery.refined_invariant(p, B, cls)
    work = refinement_work(p, *linking_size(B), count)
    assert signatures[0] == count == work["pivots"] // n ** 3
    assert colourings[0] * (n * n + 16) <= work["colourings"]
    assert work["printed"] == count * (field_degree(p) + 64)


@settings(max_examples=100)
@given(st.integers(-3, 400), st.integers(-400, 400))
def test_lens_size_is_the_chain_z_lens_surgers(beta, alpha):
    if beta > 0 and gcd(alpha, beta) == 1:
        chain = (chain_matrix(continued_fraction(beta, alpha % beta))
                 if alpha % beta else ())
    else:
        chain = ((0,),)
    assert lens_size(beta, alpha) == linking_size(chain)


def _relations(patch):
    """The relations ``heisenberg._monomial_rows`` is fed, counted."""
    total = [0]
    real = heisenberg._monomial_rows

    def counted(p, relations):
        for relation in relations:
            total[0] += 1
            yield from real(p, (relation,))

    patch.setattr(heisenberg, "_monomial_rows", counted)
    return total


@pytest.mark.parametrize("p", [3, 4, 5, 8])
@pytest.mark.parametrize("steps", [
    [{"kind": "index2", "handle": 0, "gamma": [-7, 3]}],
    [{"kind": "index1"}, {"kind": "index2", "handle": 1, "gamma": [0, 1]}],
    [{"kind": "index1"}, {"kind": "index2", "handle": 0, "gamma": [1, 3]},
     {"kind": "index1", "position": 0},
     {"kind": "index2", "handle": 1, "gamma": [1, 0]}],
])
def test_oracle_relations_are_the_priced_ones(p, steps):
    # the 2g relation rows of each tensor pair, over every index-2 step
    g = 1 - sum(step["kind"] == "index2" for step in steps) + sum(
        step["kind"] == "index1" for step in steps)
    doc = {"source": _standard(1), "steps": steps, "target": _standard(g)}
    walk = cobordism.validate(cobordism.load_program(doc))
    with pytest.MonkeyPatch.context() as patch:
        relations = _relations(patch)
        cobordism.F_program(p, walk, "oracle")
    oracle = cobordism.program_work(doc, p)[4]
    assert relations[0] * field_degree(p) == oracle["tensor_pairs"]


@pytest.mark.parametrize("p, g", [(3, 1), (4, 1), (5, 1), (8, 1), (3, 2),
                                  (4, 2)])
def test_commutant_solves_the_priced_unknowns(p, g):
    # p'^(2g) unknowns from 2g operators of p'^g entries each, and each
    # operator relates every unknown once
    ctx = closed_context(p, g)
    basis = [monomial_of(ctx, to_finite(ctx, 0, tuple(
        int(j == i) for j in range(2 * g)))) for i in range(2 * g)]
    with pytest.MonkeyPatch.context() as patch:
        relations = _relations(patch)
        commutant_dim(basis, ctx.labels())
    phi, work = field_degree(p), commutant_work(p, g)
    unknowns = len(ctx.labels()) ** 2
    assert unknowns * phi == work["unknowns"]
    assert sum(len(op.entries) for op in basis) * phi == work["entries"]
    assert relations[0] == 2 * g * unknowns


@pytest.mark.parametrize("p, g", [(3, 1), (4, 1), (5, 1), (8, 1), (3, 2),
                                  (4, 2)])
def test_schur_averaging_takes_no_more_terms_than_priced(p, g):
    names = sorted(twist_generators(g))
    rng = random.Random(p * g)
    ctx = closed_context(p, g)
    for _ in range(3):
        f = MappingClass.identity(g)
        for name in rng.choices(names, k=3):
            f = f * twist_generators(g)[name]
        with pytest.MonkeyPatch.context() as patch:
            terms = _counting(patch, mcg, "exponent_sum",
                              lambda args, _: sum(args[1].values()))
            weil_intertwiner(f.matrix, ctx)
        assert 0 < terms[0] <= averaging_work(p, g)["terms"]


@settings(max_examples=50)
@given(st.integers(1, 2), st.data())
def test_composition_expands_the_priced_letters(g, data):
    names = sorted(twist_generators(g))
    lib = twist_generators(g)
    f, h = (MappingClass.identity(g) for _ in range(2))
    for name in data.draw(st.lists(st.sampled_from(names), max_size=4)):
        f = f * lib[name]
    for name in data.draw(st.lists(st.sampled_from(names), max_size=4)):
        h = h * lib[name]
    with pytest.MonkeyPatch.context() as patch:
        letters = _counting(patch, mcg, "_reduce",
                            lambda args, _: len(args[0]))
        f * h
    assert letters[0] == composition_work(f, h)["letters"]


@pytest.mark.parametrize("p", [3, 4, 5, 8])
@pytest.mark.parametrize("doc", [
    {"source": _standard(1), "steps": [
        {"kind": "index2", "handle": 0, "gamma": [-7, 3]}],
     "target": _standard(0)},
    {"source": _standard(1), "steps": [
        {"kind": "index1"}, {"kind": "index2", "handle": 1, "gamma": [0, 1]}],
     "target": _standard(1)},
    _twist_cylinders(2, 3),
])
def test_routes_build_no_more_map_entries_than_priced(p, doc):
    # the entries of each step's map and of the change of frame, which
    # F_program composes onto the map so far, on either route
    walk = cobordism.validate(cobordism.load_program(doc))
    *_, maps, _, pairs = cobordism.program_work(doc, p)
    for route in ("closed", "oracle") if p % 2 else ("oracle",):
        with pytest.MonkeyPatch.context() as patch:
            entries = _counting(patch, cobordism, "compose_maps",
                                lambda args, _: len(args[0]))
            cobordism.F_program(p, walk, route)
        assert entries[0] * field_degree(p) <= maps["entries"]
        if not pairs:
            # cylinders only: the one change of frame, a relabelling
            assert entries[0] * field_degree(p) == maps["entries"]
