"""Traced stand-in for ``python -m permemc.cli``, used by the cli workload's traced run.

Usage: launcher.py <report.json> <cli args...>

It records the CPU time of interpreter start (process creation to the first
statement here) and of ``import permemc.cli``, installs the benchmark's
layer wrappers, calls ``permemc.cli.main(args)`` and writes those times,
the per-span aggregates and the spans to the report file.
"""

import time

started = time.process_time()

import json  # noqa: E402
import sys  # noqa: E402

report_path, cli_args = sys.argv[1], sys.argv[2:]

t0 = time.process_time()
import permemc.cli  # noqa: E402

imported = time.process_time()

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.job = 0
code = 2
try:
    code = permemc.cli.main(cli_args)
except SystemExit as exc:  # argparse usage errors
    code = exc.code if isinstance(exc.code, int) else 2
finally:
    sys.stdout.flush()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "startup_s": started,
                "import_s": imported - t0,
                **tracer.snapshot(),
                "spans": tracer.spans,
            },
            fh,
        )
sys.exit(code)
