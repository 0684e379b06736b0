"""Run ``repro-serve`` with the span tracer installed.

Usage: ``python3 perfbench/gateway.py --summary OUT.json -- <repro-serve flags>``

The traced ``serve_http`` run starts the gateway through this file
instead of ``python -m repro.serve.cli``.  It installs
:class:`perfbench.tracing.SpanTracer` on the bridge's entry points
(``SimBridge.submit`` and ``SimBridge.run_pending``), hands the remaining arguments to
``repro.serve.cli.main``, and once the gateway has drained writes a
JSON summary (span counts and times per entry point, self time per
layer, in CPU time, and the process CPU time) to ``--summary`` and the spans themselves to
``--summary`` with ``.spans.tsv.gz`` appended.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--summary" or argv[2] != "--":
        print("usage: gateway.py --summary OUT.json -- <repro-serve flags>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[1], argv[3:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.tracing import SpanTracer
    from repro.serve import cli

    # Only the bridge's entry points, timed in CPU time: the split of
    # the gateway's CPU between the simulation and everything else.
    cpu0 = time.process_time()
    with SpanTracer(layers=("serve",), callbacks=False, clock=time.process_time_ns) as tracer:
        code = cli.main(cli_args)
    cpu_s = time.process_time() - cpu0
    tracer.write(summary_path + ".spans.tsv.gz")
    summary = {
        "cpu_s": cpu_s,
        "calls": dict(tracer.calls),
        "total_ns": dict(tracer.total_ns),
        "self_ns": dict(tracer.self_ns),
        "spans": tracer.span_count,
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
