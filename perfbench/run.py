#!/usr/bin/env python3
"""Closed-loop benchmark of the abtqft engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs the workload's jobs back to back in this
process (``cli-jobs`` runs one CLI child process at a time), whole rounds
of them until S seconds of timed wall have passed.  Each output is
checked off the clock right after its job and then dropped, so memory
does not grow with the number of jobs.  After the loop, off the clock,
the workload's defect cases run: fixed inputs that hit the engine's known
defects, which the timed jobs leave out.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``attempted`` and ``failed`` count the timed
jobs; the defect cases are counted by name in the run record.

A traced run first repeats the untraced loop, then replays the same jobs
with the timing wrappers of ``tracing.py`` installed, and requires the
replay to produce byte-identical outputs.  The full run record (and the
spans of a traced run) is written to ``.perfbench/`` in the checkout.
"""

import argparse
import compileall
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 11    # fresh processes timed for setup_s
PREFETCH = 20        # jobs generated during setup
MIN_SAMPLES = 100    # jobs per run, so that p90 has ten samples beyond it
# Set-up time is scaled by the start-up time of a bare interpreter, timed
# right before each probe, and so are the job times of a workload whose
# jobs start a process.  The calibration loop below tracks the speed of
# computing, not that of starting a process and importing modules, which
# moves with the load on the host.
REFERENCE_START_S = 0.05
BARE_INTERPRETER = [sys.executable, "-c", "print('ready', flush=True)"]
# Job times are scaled to a reference machine speed.  The speed of the
# shared VMs this runs on moves by up to 1.5x within a minute; a short
# fixed loop timed between consecutive jobs (off the clock) tracks it.
# The loop does the kinds of work the engine does (Fraction arithmetic,
# big integers, tuple-keyed dicts), which tracks the host's speed for
# these jobs better than a loop of small-integer arithmetic.
CALIBRATION_LOOP = 300
REFERENCE_CALIBRATION_S = 0.001

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# reported in the run record; they are zero on some workloads, so the
# final line carries them as ``attempted`` and ``failed`` instead
RATES = {"error_rate": "ratio", "check_fail_rate": "ratio"}

CLI_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.json_s": "s",
    "cli.output_bytes": "bytes",
    "cli.spawn_s": "s",
}
DERIVED = {
    "surgery.colorings": "count",
    "surgery.colorings_per_s": "1/s",
    "heisenberg.tensor_pairs": "count",
    "heisenberg.relation_rows": "count",
    "heisenberg.survival_ratio": "ratio",
    "mcg.averaging_terms": "count",
    "trace.overhead_frac": "ratio",
    "trace.jobs": "count",
}
COLOR_SPANS = ("surgery.z_invariant", "surgery.refined_invariant",
               "surgery.matrix_element")


def per_layer_units():
    from tracing import TARGETS

    units = {}
    for name in TARGETS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(DERIVED)
    units.update(CLI_LAYER)
    return units


# -- statistics ---------------------------------------------------------


def percentile(values, q):
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, q):
    """Samples strictly above the q-th percentile of n samples."""
    return n - int((n - 1) * q / 100.0) - 1


# -- setup ----------------------------------------------------------------


def make_workload(name, seed):
    import jobs

    if name == "cli-jobs":
        return jobs.CliJobs(seed, SRC)
    return jobs.WORKLOADS[name](seed)


def setup(name, seed):
    """Imports, the first inputs and warm field tables: everything the
    first timed job should not pay for."""
    workload = make_workload(name, seed)
    stream = workload.stream()
    first = list(itertools.islice(stream, PREFETCH))
    workload.warm()
    return workload, itertools.chain(first, stream)


def time_to_ready(cmd, env):
    """Wall time from starting a process to its first line, ``ready``."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError("%s failed with exit %d"
                           % (" ".join(cmd[1:]), proc.returncode))
    return t1 - t0


def probe_setup(name, seed):
    """Set-up time of fresh processes, each timed right after a bare
    interpreter start: (median ratio of the two times, scaled by
    REFERENCE_START_S; median set-up time; median bare start time)."""
    import jobs

    env = jobs.cli_env(SRC)
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    bare, times = [], []
    for _ in range(SETUP_PROBES):
        bare.append(time_to_ready(BARE_INTERPRETER, env))
        times.append(time_to_ready(cmd, env))
    ratio = statistics.median(t / b for t, b in zip(times, bare))
    return (ratio * REFERENCE_START_S, statistics.median(times),
            statistics.median(bare))


# -- the closed loop ------------------------------------------------------


def calibrate():
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    t0 = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, CALIBRATION_LOOP):
        acc += Fraction(i % 11 - 5, i % 13 + 1)
        table[i, i % 7] = [i * 0x9E3779B97F4A7C15, acc]
    return perf_counter() - t0


def speed_probe(workload):
    """(probe, its time at the reference speed): what the workload's job
    times are scaled by.  A job that is a process start is scaled by the
    start of a bare interpreter, the others by the calibration loop."""
    if workload.spawns:
        import jobs

        env = jobs.cli_env(SRC)
        return (lambda: time_to_ready(BARE_INTERPRETER, env),
                REFERENCE_START_S)
    return calibrate, REFERENCE_CALIBRATION_S


class Result:
    __slots__ = ("job", "out", "error", "seconds", "scaled", "digest",
                 "reasons")

    def __init__(self, job, out, error, seconds):
        self.job = job
        self.out = out
        self.error = error
        self.seconds = seconds
        self.scaled = seconds
        self.digest = None
        self.reasons = []


def run_one(workload, job, **kw):
    t0 = perf_counter()
    try:
        out = workload.run(job, **kw)
        error = workload.failure(job, out)
    except Exception as exc:  # the job boundary: every failure is counted
        import jobs

        out, error = None, jobs.classify_exception(job.p, exc)
    return Result(job, out, error, perf_counter() - t0)


def timed_rounds(jobs, run, settle, probe, seconds=None):
    """Run jobs back to back, with a run of the speed probe ``(measure,
    reference)`` between consecutive jobs, and ``settle`` each result off
    the clock after the probe that follows it.  A job's scaled time is its
    time times the reference over the mean of the probes around it.  The
    garbage collector runs off the clock before each job, so that the
    garbage of a check or of an earlier job is not collected in the next
    one.  With
    ``seconds``, stop at the first round end after that much timed wall
    and MIN_SAMPLES jobs, so a run holds whole rounds.  Returns (results,
    timed wall, scaled wall)."""
    measure, reference = probe
    results = []
    wall = scaled = 0.0
    gc.collect()
    before = measure()
    for job in jobs:
        result = run(job)
        after = measure()
        result.scaled = result.seconds * 2 * reference / (before + after)
        before = after
        settle(result)
        gc.collect()
        results.append(result)
        wall += result.seconds
        scaled += result.scaled
        if (seconds is not None and job.round_end and wall >= seconds
                and len(results) >= MIN_SAMPLES):
            break
    return results, wall, scaled


def digest_only(workload):
    """A settle step that keeps the output's digest and drops the output,
    so memory does not grow with the number of jobs."""
    def settle(result):
        if result.error is not None:
            result.digest = "error|" + result.error
        else:
            result.digest = workload.digest(result.job, result.out)
        result.out = None
    return settle


def check_and_digest(workload):
    """A settle step that also runs the job's output check."""
    import jobs

    keep_digest = digest_only(workload)

    def settle(result):
        if result.error is None:
            try:
                result.reasons = workload.check(result.job, result.out)
            except Exception as exc:  # a check that raises has failed
                result.reasons = [jobs.classify_exception(result.job.p, exc)]
        keep_digest(result)
    return settle


def run_defect_cases(workload):
    """Run the workload's defect cases, each with its check, off the
    clock.  Returns ({defect: {"cases", "reproduced"}}, the reasons that
    are not the defect a case was made for)."""
    settle = check_and_digest(workload)
    table = {}
    unexpected = []
    for defect, job in workload.defect_cases():
        result = run_one(workload, job)
        settle(result)
        reasons = ([result.error] if result.error is not None
                   else result.reasons)
        row = table.setdefault(defect, {"cases": 0, "reproduced": 0})
        row["cases"] += 1
        row["reproduced"] += defect in reasons
        unexpected += ["defect case %s: %s" % (job.label, r)
                       for r in reasons if r != defect]
    return table, unexpected


def traced_replay(workload, results):
    """Replay the jobs of an untraced loop under the tracer; returns
    (spans, counts, cli stats, scaled wall, digests)."""
    from tracing import Tracer

    if workload.name == "cli-jobs":
        return _traced_cli(workload, results)
    tracer = Tracer(scan=(sys.modules["jobs"],))
    ids = itertools.count()

    def run(job):
        tracer.job = next(ids)
        return run_one(workload, job)

    with tracer.installed():
        replay, _, scaled = timed_rounds([r.job for r in results], run,
                                         digest_only(workload),
                                         speed_probe(workload))
    return (tracer.records, tracer.counts, {}, scaled,
            [r.digest for r in replay])


def _traced_cli(workload, results):
    """The CLI replay: each child runs ``cli_child.py``, which writes its
    spans to a file that is read back here."""
    from tracing import JOB, PARENT

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / "child-spans.json"
    records = []
    counts = Counter()
    cli = Counter()
    ids = itertools.count()

    def run(job):
        res = run_one(workload, job, spans_path=spans_path)
        with open(spans_path, encoding="utf-8") as fh:
            child = json.load(fh)
        spans_path.unlink()
        i, offset = next(ids), len(records)
        for rec in child["records"]:
            rec[JOB] = i
            if rec[PARENT] is not None:
                rec[PARENT] += offset
        records.extend(child["records"])
        counts.update(child["counts"])
        cli["cli.import_s"] += child["import_s"]
        cli["cli.spawn_s"] += res.seconds - child["in_child_s"]
        if res.out is not None:
            cli["cli.output_bytes"] += len(res.out[1])
        return res

    replay, _, scaled = timed_rounds([r.job for r in results], run,
                                     digest_only(workload),
                                     speed_probe(workload))
    return (records, counts, dict(cli), scaled,
            [r.digest for r in replay])


def write_spans(name, seed, records):
    from tracing import FIELDS

    OUT.mkdir(exist_ok=True)
    with open(OUT / ("spans-%s-%d.json" % (name, seed)), "w",
              encoding="utf-8") as fh:
        json.dump([dict(zip(FIELDS, rec)) for rec in records], fh)


# -- metrics ----------------------------------------------------------------


def layer_metrics(records, counts, cli, overhead, njobs):
    from tracing import TARGETS, layer_totals

    totals = layer_totals(records)
    cli = dict(cli)
    cli["cli.json_s"] = totals.get("cli.json", (0, 0.0, 0.0))[1]
    cli["cli.main.self_s"] = totals.get("cli.main", (0, 0.0, 0.0))[1]
    m = {}
    for name in TARGETS:
        calls, own, _ = totals.get(name, (0, 0.0, 0.0))
        m[name + ".calls"] = calls
        m[name + ".self_s"] = own
    colorings = counts.get("surgery.colorings", 0)
    color_time = sum(totals.get(n, (0, 0.0, 0.0))[2] for n in COLOR_SPANS)
    pairs = counts.get("heisenberg.tensor_pairs", 0)
    m.update({
        "surgery.colorings": colorings,
        "surgery.colorings_per_s": colorings / color_time if color_time
        else 0.0,
        "heisenberg.tensor_pairs": pairs,
        "heisenberg.relation_rows": counts.get("heisenberg.relation_rows", 0),
        "heisenberg.survival_ratio":
            counts.get("heisenberg.surviving", 0) / pairs if pairs else 0.0,
        "mcg.averaging_terms": counts.get("mcg.averaging_terms", 0),
        "trace.overhead_frac": overhead,
        "trace.jobs": njobs,
    })
    for name in CLI_LAYER:
        m[name] = cli.get(name, 0)
    return m


def machine_info():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha()}


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 \
        else "unknown"


def failure_table(results):
    """(errors, check failures, {reason: count}, unexpected reasons)."""
    import jobs

    errors = checks = 0
    reasons = Counter()
    for r in results:
        if r.error is not None:
            errors += 1
            reasons["error: " + r.error] += 1
        elif r.reasons:
            checks += 1
            for reason in r.reasons:
                reasons["check: " + reason] += 1
    unexpected = sorted(k for k in reasons
                        if k.split(": ", 1)[1] not in jobs.KNOWN_DEFECTS)
    return errors, checks, reasons, unexpected


def print_record(record):
    print("perfbench %(workload)s seed=%(seed)d seconds=%(seconds)s "
          "trace=%(trace)d" % record)
    print("  machine: %s" % json.dumps(record["machine"], sort_keys=True))
    print("  jobs: %(attempted)d attempted, %(errors)d errors, "
          "%(check_failures)d check failures; %(samples)d timing samples, "
          "%(beyond_p90)d beyond p90" % record)
    for defect, row in sorted(record["known_defects"].items()):
        print("  known defect %s: %d of %d defect cases fail with it"
              % (defect, row["reproduced"], row["cases"]))
    for name, value in record["end_to_end"].items():
        print("  %-28s %14.6g %s" % (name, value["value"], value["unit"]))
    for name, value in record.get("per_layer", {}).items():
        print("  %-40s %14.6g %s" % (name, value["value"], value["unit"]))
    import jobs

    for reason, n in sorted(record["failures"].items()):
        key = reason.split(": ", 1)[1]
        tag = "known defect" if key in jobs.KNOWN_DEFECTS else "UNEXPECTED"
        print("  failure %5d  [%s] %s" % (n, tag, reason))
    if not record["outputs_identical"]:
        print("  traced replay changed job outputs")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closed-invariants", "tqft-oracle",
                             "weil-cocycle", "cli-jobs"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "abtqft" / "__init__.py").is_file():
        print("perfbench: no abtqft sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    import abtqft

    if Path(abtqft.__file__).resolve().parent != SRC / "abtqft":
        print("perfbench: abtqft imported from outside %s" % SRC,
              file=sys.stderr)
        return 2
    # the build: byte-compile the sources the CLI children import
    compileall.compile_dir(str(SRC), quiet=1)

    workload, job_iter = setup(args.workload, args.seed)
    results, wall, scaled_wall = timed_rounds(
        job_iter, lambda job: run_one(workload, job),
        check_and_digest(workload), speed_probe(workload), args.seconds)
    rusage = (resource.RUSAGE_CHILDREN if args.workload == "cli-jobs"
              else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(rusage).ru_maxrss / 1024.0

    errors, checks, reasons, unexpected = failure_table(results)
    known_defects, unexpected_cases = run_defect_cases(workload)
    unexpected += unexpected_cases
    n = len(results)
    times = [r.seconds for r in results]
    scaled = [r.scaled for r in results]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info(), "attempted": n, "errors": errors,
        "check_failures": checks, "samples": n,
        "beyond_p90": samples_beyond(n, 90),
        "failures": dict(reasons), "known_defects": known_defects,
        "unexpected": unexpected,
        "outputs_identical": True,
    }
    if args.trace:
        spans, counts, cli, traced_wall, traced = traced_replay(workload,
                                                                results)
        write_spans(args.workload, args.seed, spans)
        record["outputs_identical"] = traced == [r.digest for r in results]
        units = per_layer_units()
        values = layer_metrics(spans, counts, cli,
                               traced_wall / scaled_wall - 1.0, n)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        record["per_layer"] = metrics
    else:
        setup_s, setup_unscaled, bare_start = probe_setup(args.workload,
                                                          args.seed)
        record["bare_start_s"] = bare_start
        values = {
            "setup_s": setup_s,
            "job_p50_s": percentile(scaled, 50),
            "job_p90_s": percentile(scaled, 90),
            "jobs_per_s": (n - errors) / scaled_wall,
            "peak_rss_mb": peak_rss_mb,
        }
        record["unscaled"] = {
            "setup_s": setup_unscaled,
            "job_p50_s": percentile(times, 50),
            "job_p90_s": percentile(times, 90),
            "jobs_per_s": (n - errors) / wall,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    rates = {"error_rate": errors / n, "check_fail_rate": checks / n}
    record["end_to_end"] = {
        **({} if args.trace else metrics),
        **{k: {"value": rates[k], "unit": u} for k, u in RATES.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("run-%s-%d-trace%d.json" % (args.workload, args.seed,
                                                  args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print_record(record)
    correct = not unexpected and record["outputs_identical"]
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": errors + checks, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
