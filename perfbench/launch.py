"""Child process for one benchmarked `lowcontrast` command.

Usage: ``python3 launch.py READY_FILE TRACE_FILE ARG...``

Imports ``lowcontrast.cli``, writes ``time.monotonic()`` to READY_FILE
(set-up ends once the CLI could parse argv), installs the layer tracer
when TRACE_FILE is not ``-``, then runs the package exactly as
``python -m lowcontrast ARG...`` does, exit code included.
"""
import runpy
import sys
import time


def main() -> None:
    ready_file, trace_file, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import lowcontrast.cli  # noqa: F401

    ready = time.monotonic()
    with open(ready_file, "w") as fh:
        fh.write(repr(ready))
    tracer = None
    if trace_file != "-":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    sys.argv = ["lowcontrast", *args]
    try:
        runpy.run_module("lowcontrast", run_name="__main__", alter_sys=True)
    finally:
        if tracer is not None:
            tracer.write(trace_file)


if __name__ == "__main__":
    main()
