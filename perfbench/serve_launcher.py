"""Run ``repro serve``, optionally with the benchmark's trace wrappers.

Usage: ``python3 perfbench/serve_launcher.py [--trace-out FILE] serve ARGS...``
with ``src`` on ``PYTHONPATH``.  After the server drains and exits, prints one
JSON line ``{"event": "exit", "code": ..., "maxrss_kb": ...}`` and, with
``--trace-out``, writes the recorded spans to ``FILE``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracing.install_serve(tracer)
    code = cli_main(argv)
    if tracer is not None:
        with open(trace_out, "w") as handle:
            json.dump([span for span in tracer.spans if span is not None], handle)
    print(
        json.dumps(
            {
                "event": "exit",
                "code": code,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }
        ),
        flush=True,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
