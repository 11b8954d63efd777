"""Run one eqcartan command under the benchmark tracer (traced runs only).

Usage: python3 bench/clitrace.py SPANS_OUT [eqcartan arguments ...]

The import of eqcartan.cli is timed before the tracer is installed and
recorded as ``import_s``; the command's spans and counters are written to
SPANS_OUT as JSON.  The exit code is the command's own.
"""

import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import eqcartan.cli
    import_s = time.perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.instance():
            return eqcartan.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
