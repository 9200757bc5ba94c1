"""Run the densem command line from source, as the installed ``densem`` script does.

Usage: python3 perfbench/densem_cli.py ARGS...   (with src/ on PYTHONPATH)

When PERFBENCH_TRACE_FILE names a file, the import of ``densem.cli`` and the
command are timed as spans ``cli.import`` and ``cli.command``, densem's
public functions are wrapped as in the in-process traced run, and the spans
are written to that file on exit.
"""

import os
import sys
import time

if __name__ == "__main__":
    trace_file = os.environ.get("PERFBENCH_TRACE_FILE")
    start = time.perf_counter_ns()
    from densem.cli import main

    if not trace_file:
        sys.exit(main())

    from spans import Tracer, instrument

    tracer = Tracer()
    tracer.op = 0
    tracer.spans.append([0, "cli.import", start, time.perf_counter_ns(), None, 0, None])
    instrument(tracer)
    span = tracer.begin("cli.command")
    code = 0
    try:
        main()
    except SystemExit as exit_:
        code = exit_.code
    finally:
        tracer.end(span)
        tracer.write(trace_file)
    sys.exit(code)
