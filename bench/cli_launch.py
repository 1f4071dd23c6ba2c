"""Run the fkdv command line with the benchmark's spans installed.

    python3 bench/cli_launch.py SPANS_JSON <fkdv arguments...>

Times ``import fkdv.cli``, wraps the same public functions as the in-process
runs plus ``fkdv.cli.main``, runs ``main`` on the remaining arguments and
writes {"import_ms", "absent", "spans"} to SPANS_JSON.  Exits with main's code.
"""

import json
import sys
import time

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import fkdv.cli
    import_ms = 1e3 * (time.perf_counter() - start)
    tracer = tracing.Tracer()
    absent = tracing.install(tracer, tracing.WRAPS + (tracing.CLI_WRAP,))
    try:
        return fkdv.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_ms": import_ms, "absent": absent,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
