"""One benchmark job in a fresh interpreter.

    python3 perfbench/shim.py SRC_DIR TRACE_FILE|- JOB_ID CLI_ARGS...

Runs ``spinwigner.cli.main(CLI_ARGS)`` from SRC_DIR and exits with its
return code. With a TRACE_FILE the layer functions are wrapped first and
the spans are written there when the job ends; with ``-`` nothing but the
CLI is imported.
"""

import sys


def run() -> int:
    src, trace_file, job, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    if trace_file == "-":
        from spinwigner.cli import main

        return main(argv)
    import tracer

    recorder = tracer.Recorder(job)
    main = tracer.install(recorder)
    try:
        return main(argv)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    raise SystemExit(run())
