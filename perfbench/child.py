"""One measured `lave` invocation in a fresh interpreter.

    python3 child.py RESULT_JSON MODE [LAVE_ARGV...]

The import of `lave.cli` and the call `lave.cli.main(argv)` are timed.
MODE is `run`, or `trace` to wrap every public layer function in the span
recorder first; spans go to RESULT_JSON's sibling `spans.json`. The parent
sets PYTHONPATH to the checkout's `src` and pins BLAS/OpenMP threads before
this interpreter starts, so the import cost here is the one a CLI user pays.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(args) -> int:
    result_path = Path(args[0])
    mode = args[1]
    argv = args[2:]

    start = time.perf_counter()
    import lave.cli

    setup_s = time.perf_counter() - start
    recorder = None
    if mode == "trace":
        from trace_spans import SpanRecorder

        recorder = SpanRecorder(run_id=result_path.parent.name)
        recorder.install()
    start = time.perf_counter()
    if recorder is None:
        code = lave.cli.main(argv)
    else:
        with recorder.span("cli.main"):
            code = lave.cli.main(argv)
    run_s = time.perf_counter() - start
    if recorder is not None:
        recorder.write(result_path.with_name("spans.json"))
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lave_file": lave.cli.__file__,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
