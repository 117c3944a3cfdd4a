"""Run ``sphmult.cli`` with the benchmark's tracer installed.

Usage: ``python bench/tracechild.py <sphmult cli arguments>``.  Behaves
like ``python -m sphmult.cli`` (same output and exit code), and writes its
per-function totals as one ``BENCH-TRACE <json>`` line on stderr at exit.
"""

from __future__ import annotations

import json
import sys

import tracing

MARKER = "BENCH-TRACE "


def main(argv: list[str]) -> int:
    import sphmult.cli  # noqa: F401  (load every module before wrapping)
    import sphmult.verify  # noqa: F401

    tracer = tracing.Tracer(max_spans=0)
    tracer.install()
    try:
        code = sphmult.cli.main(argv)
    finally:
        tracer.uninstall()
        totals = {
            name: {"calls": s.calls, "self_s": s.self_s, "fail": s.fail,
                   "fail_by_class": s.fail_by_class, "counters": s.counters}
            for name, s in tracer.stats().items()
        }
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(totals) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
