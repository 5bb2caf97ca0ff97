"""A register of mutants: one-line breaks of the program that the suite
must notice, each with the tests expected to kill it.

Run from the root of a source checkout, outside the suite (pytest
collects only ``test_*.py``):

    python tests/mutants.py [NAME ...]

The killers of every mutant run first on an unchanged copy of ``src/``,
where they must pass.  Then, for each mutant (all, or those named), the
runner copies ``src/`` to a temporary directory, replaces the snippet in
the module by its replacement (the snippet must occur exactly once
there) and runs the mutant's killers with that copy first on the path.
A mutant is killed when a killer fails.  The exit status is 0 when every
mutant is killed, and 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Each mutant: its name, the module under ``src/abtqft``, the exact
# snippet, its replacement, and the test ids expected to kill it.
MUTANTS = [
    # a rate cut to a tenth admits ten times the work of its kind: at the
    # frame's, `heis mul` at genus 340, which ran for 7.6 s
    ("frame-rate-tenth", "cli.py", '"frame": 450,', '"frame": 45,', [
        "tests/test_cli.py::test_one_size_more_is_refused_at_its_kind"
        "[frame]",
        "tests/test_cli.py::test_heis_genus_is_bounded_before_the_frame"]),
    ("colourings-rate-tenth", "cli.py", '"colourings": 200,',
     '"colourings": 20,', [
         "tests/test_cli.py::test_one_size_more_is_refused_at_its_kind"
         "[colourings]"]),
    ("histogram-rate-tenth", "cli.py", '"histogram": 100,',
     '"histogram": 10,', [
         "tests/test_cli.py::test_one_size_more_is_refused_at_its_kind"
         "[histogram]"]),
    # a float or string entry of a linking matrix truncated, not refused
    ("surgery-entries-int", "surgery.py",
     "B = tuple(tuple(index(v) for v in row) for row in B)",
     "B = tuple(tuple(int(v) for v in row) for row in B)", [
         "tests/test_surgery.py::test_matrix_entries_must_be_integers"]),
    # a work function that drifts from the price the command line charged
    ("oracle-work-one-row", "heisenberg.py",
     'return {"tensor_pairs": 2 * g * oracle_pairs(p, g)',
     'return {"tensor_pairs": g * oracle_pairs(p, g)', [
         "tests/test_work.py::test_golden_jobs_are_charged_as_before",
         "tests/test_work.py::test_oracle_relations_are_the_priced_ones"]),
]


def _copy(tmp, mutant=None):
    """``src/`` copied under ``tmp``, with ``mutant`` applied."""
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
        "__pycache__", "*.egg-info"))
    if mutant is not None:
        name, module, snippet, replacement, _ = mutant
        path = src / "abtqft" / module
        text = path.read_text(encoding="utf-8")
        if text.count(snippet) != 1:
            raise SystemExit("%s: the snippet occurs %d times in %s"
                             % (name, text.count(snippet), module))
        path.write_text(text.replace(snippet, replacement), encoding="utf-8")
    return src


def _killers_pass(src, killers):
    """Whether ``killers`` pass with the package of ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]]
                      if os.environ.get("PYTHONPATH") else [])))
    env.pop("PYTHONOPTIMIZE", None)
    where = subprocess.run(
        [sys.executable, "-c", "import abtqft; print(abtqft.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).resolve().is_relative_to(src.resolve()):
        raise SystemExit("the copy is not the package imported: %s" % where)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *killers], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode == 0


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit("no such mutant: %s" % ", ".join(sorted(unknown)))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        killers = sorted({k for m in chosen for k in m[4]})
        if not _killers_pass(_copy(tmp), killers):
            raise SystemExit("the killers fail on the unchanged source")
    survivors = []
    for mutant in chosen:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            survived = _killers_pass(_copy(tmp, mutant), mutant[4])
        print("%-24s %s in %.1f s" % (mutant[0], "SURVIVED" if survived
                                      else "killed",
                                      time.perf_counter() - began),
              flush=True)
        if survived:
            survivors.append(mutant[0])
    print("%d of %d mutants killed in %.1f s"
          % (len(chosen) - len(survivors), len(chosen),
             time.perf_counter() - start))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
