"""Traced CLI child: install the timing wrappers, then run the CLI.

    python3 perfbench/cli_child.py SPANS_FILE CLI_ARGUMENTS...

Behaves like ``python -m abtqft.cli CLI_ARGUMENTS...`` (same output, same
exit code, same traceback on an uncaught exception) and in addition
writes the spans, the derived counts, the import time and the time spent
inside this process to SPANS_FILE as JSON.
"""

from time import perf_counter

STARTED = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    from abtqft import cli
    import_s = perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer(extra=(("cli.main", "abtqft.cli", "main"),
                           ("cli.json", "json", "load"),
                           ("cli.json", "json", "dump")))
    tracer.job = 0
    try:
        with tracer.installed():
            return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s,
                       "in_child_s": perf_counter() - STARTED,
                       "records": tracer.records,
                       "counts": dict(tracer.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main())
