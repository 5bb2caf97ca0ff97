"""Tests of the benchmark's own machinery: derived counts, self time,
percentiles, wrapper hygiene and the metric tables.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from abtqft import cobordism, cyclotomic, heisenberg, homology, mcg  # noqa
from abtqft import surgery  # noqa: E402


def traced(fn):
    tracer = tracing.Tracer()
    with tracer.installed():
        fn()
    return tracer


# -- derived counts against hand counts -----------------------------------


def test_colorings_hand_counts():
    B = ((1, 1), (1, 2))
    # p = 3: colors run over Z/3, so 3^2 for two free components, 3 when
    # one of them is held at a fixed color
    tracer = traced(lambda: surgery.z_invariant(3, B))
    assert tracer.counts["surgery.colorings"] == 9
    tracer = traced(lambda: surgery.matrix_element(3, B, {0: 1}, 1))
    assert tracer.counts["surgery.colorings"] == 3
    tracer = traced(lambda: surgery.z_invariant(3, ((2,),)))
    assert tracer.counts["surgery.colorings"] == 3
    # p = 8: p' = 4 and each color keeps one parity, two values apiece
    B8 = ((2, 1), (1, 2))
    cls = surgery.refinement_classes(8, B8)[0]
    tracer = traced(lambda: surgery.refined_invariant(8, B8, cls))
    assert tracer.counts["surgery.colorings"] == 2 * 2


def test_tensor_pair_hand_counts():
    # index-2 surgery on a torus at p = 3: one incoming and one
    # correspondence handle give 3 * 3 tensor pairs, two generators of
    # the incoming group give one relation row per pair each, and one
    # class survives
    corr = homology.index2_correspondence(1, 0, 1, 2)
    tracer = traced(lambda: heisenberg.induced_map_oracle(3, corr))
    assert tracer.counts["heisenberg.tensor_pairs"] == 9
    assert tracer.counts["heisenberg.relation_rows"] == 18
    assert tracer.counts["heisenberg.surviving"] == 1
    m = run.layer_metrics(tracer.records, tracer.counts, {}, 0.0, 1)
    assert m["heisenberg.survival_ratio"] == pytest.approx(1 / 9)


def test_averaging_terms_hand_count():
    # genus 1 at p = 3: the group has 3^2 * 3^2 central-free elements
    ctx = heisenberg.closed_context(3, 1)
    tracer = traced(lambda: mcg.weil_intertwiner(((1, 1), (0, 1)), ctx))
    assert tracer.counts["mcg.averaging_terms"] == 81


# -- spans and self time ---------------------------------------------------


def test_self_time_of_nested_records():
    # [name, start, end, parent, job, calls, total]
    records = [
        ["outer", 0.0, 10.0, None, 0, 1, 10.0],
        ["a", 1.0, 4.0, 0, 0, 1, 3.0],
        ["leaf", 1.5, 2.5, 1, 0, 4, 1.0],    # rolled up: 4 calls
        ["b", 5.0, 7.0, 0, 0, 1, 2.0],
        ["other", 11.0, 12.0, None, 1, 1, 1.0],
    ]
    assert tracing.self_times(records) == [5.0, 2.0, 1.0, 2.0, 1.0]


def test_traced_self_times_partition_the_wall():
    tracer = traced(lambda: surgery.z_invariant(5, ((1, 2), (2, -1))))
    totals = tracing.layer_totals(tracer.records)
    own = sum(s for _, s, _ in totals.values())
    top = sum(rec[tracing.TOTAL] for rec in tracer.records
              if rec[tracing.PARENT] is None)
    assert own == pytest.approx(top)
    calls, own_z, inclusive_z = totals["surgery.z_invariant"]
    assert calls == 1
    assert 0 < own_z < inclusive_z
    assert totals["surgery.signature"][0] == 1
    assert totals["cyclotomic.eta_kappa"][0] == 1
    parents = {rec[tracing.NAME]: rec[tracing.PARENT]
               for rec in tracer.records}
    assert tracer.records[parents["surgery.signature"]][0] == \
        "surgery.z_invariant"


def test_reimported_names_are_traced():
    # cobordism calls induced_map_oracle through its own import
    prog = cobordism.CobordismProgram(
        cobordism.CobObject(1, ((1, 0),)), (cobordism.Index2(0, 1, 2),),
        cobordism.CobObject(0, ()))
    tracer = traced(lambda: cobordism.F_program(3, prog, "oracle"))
    totals = tracing.layer_totals(tracer.records)
    assert totals["heisenberg.induced_map_oracle"][0] == 1
    assert totals["cobordism.validate"][0] == 1
    assert totals["homology.correspondence"][0] >= 1


def test_wrappers_are_removed_on_exit():
    def snapshot():
        mods = [cyclotomic, homology, heisenberg, surgery, cobordism, mcg]
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        out.update({("CycNum", k): v
                    for k, v in vars(cyclotomic.CycNum).items()})
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert surgery.z_invariant is not before[
                ("abtqft.surgery", "z_invariant")]
            raise RuntimeError("leave the block early")
    after = snapshot()
    assert set(after) == set(before)
    assert all(after[k] is before[k] for k in before)


# -- statistics ------------------------------------------------------------


def test_percentiles():
    xs = list(range(1, 101))
    assert run.percentile(xs, 50) == pytest.approx(50.5)
    assert run.percentile(xs, 90) == pytest.approx(90.1)
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([4, 1, 3, 2], 0) == 1
    assert run.percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_sample_count_rule():
    # with interpolated percentiles, ten samples lie beyond p90 from 92
    # samples on; a run of a hundred jobs has them
    assert run.samples_beyond(100, 90) == 10
    assert run.samples_beyond(92, 90) == 10
    assert run.samples_beyond(91, 90) == 9
    assert run.samples_beyond(1000, 99) == 10
    assert run.samples_beyond(20, 50) == 10
    assert run.samples_beyond(19, 50) == 9


def test_runs_hold_whole_rounds():
    # stop at the first round end after --seconds of timed wall and
    # MIN_SAMPLES jobs
    class FakeJob:
        def __init__(self, i):
            self.round_end = i % 30 == 29

    def count(seconds):
        results, wall, _ = run.timed_rounds(
            (FakeJob(i) for i in range(10 ** 4)),
            lambda job: run.Result(job, None, None, 1.0), lambda r: None,
            (lambda: 1.0, 1.0), seconds)
        assert wall == len(results)
        return len(results)

    assert count(130) == 150
    assert count(5) == 120


# -- workloads and metric tables ---------------------------------------------


def test_streams_are_seeded():
    def labels(seed):
        stream = jobs.TqftOracle(seed).stream()
        return [next(stream).label for _ in range(30)]

    assert labels(7) == labels(7)
    assert labels(7) != labels(8)


def test_known_defect_is_named():
    w = jobs.TqftOracle(0)
    src = jobs.source_object(1)
    steps = (cobordism.Index2(0, 1, 2),)
    prog = cobordism.CobordismProgram(src, steps,
                                      jobs.push_target(src, steps))
    job = jobs.Job("index2", 4, "p=4 beta=2", prog=prog)
    result = run.run_one(w, job)
    assert result.error == "oracle_designated_class_assert"


def test_oracle_defect_rule():
    # the rule that keeps the oracle's assert out of the timed jobs
    # agrees with the oracle
    src = jobs.source_object(1)
    for p, beta, hits in ((4, 2, True), (4, 1, False), (4, 4, False),
                          (12, 2, True), (12, 3, False), (8, 4, True),
                          (8, 2, False), (3, 2, False)):
        steps = (cobordism.Index2(0, 1, beta),)
        prog = cobordism.CobordismProgram(src, steps,
                                          jobs.push_target(src, steps))
        assert jobs.hits_oracle_assert(p, prog) == hits
        if hits:
            with pytest.raises(AssertionError):
                cobordism.F_program(p, prog, "oracle")
        else:
            cobordism.F_program(p, prog, "oracle")


def test_defect_cases_reproduce():
    for workload in (jobs.ClosedInvariants(0), jobs.TqftOracle(0)):
        table, unexpected = run.run_defect_cases(workload)
        assert not unexpected
        assert all(row["reproduced"] == row["cases"] > 0
                   for row in table.values())
    assert run.run_defect_cases(jobs.WeilCocycle(0)) == ({}, [])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
