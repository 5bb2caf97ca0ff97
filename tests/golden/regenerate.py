"""Record in ``expected.json`` the exit code, standard output and standard
error of ``abtqft.cli.main`` on each case of ``cases.json`` that has no
record yet; the records already there are kept as they are.

Run from the root of a source checkout whose reports are the reference:

    PYTHONPATH=src python tests/golden/regenerate.py

To record a case again, delete its entry from ``expected.json`` first.
Each case runs in this directory, so its document paths are relative
to it; a case with ``stdin`` reads that file as its standard input.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def replay(case):
    """(exit code, stdout, stderr) of one case, run in this directory."""
    from abtqft import cli

    stdin = io.StringIO(
        (HERE / case["stdin"]).read_text() if "stdin" in case else "")
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = sys.stdin, os.getcwd()
    try:
        sys.stdin = stdin
        os.chdir(HERE)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    finally:
        sys.stdin = saved
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def load_cases():
    return json.loads((HERE / "cases.json").read_text())


def main():
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    new = [case for case in load_cases() if case["name"] not in expected]
    for case in new:
        code, out, err = replay(case)
        expected[case["name"]] = {"exit": code, "stdout": out, "stderr": err}
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d new of %d cases" % (len(new), len(expected)))


if __name__ == "__main__":
    main()
