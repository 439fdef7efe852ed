"""Run one hypdet CLI command in this fresh interpreter and record its timing.

    python3 perfbench/child.py RECORD TRACE [hypdet arguments ...]

RECORD is a JSON file written on return with the clock (``time.monotonic``,
which is system-wide) at ``cli.main`` entry and return, and the exit code.
The parent notes the same clock before it starts this process, so set-up time
is entry minus spawn and wall time is return minus entry.  With TRACE = 1 the
layer tracer is installed before entry and its metrics go into RECORD.  With
no hypdet arguments the process only sets up: it imports the program, notes
the entry clock and exits (a set-up probe).
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hypdet import cli  # noqa: E402  (imports hypdet, numpy and scipy)


def environment():
    """Versions of the interpreter and numerical libraries this process runs on."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"hypdet imported from {cli.__file__}, not from this checkout")
    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install(cli)
    entry = time.monotonic()
    rc = cli.main(argv) if argv else 0
    ret = time.monotonic()
    record = {"entry": entry, "return": ret, "rc": rc}
    if not argv:
        record["env"] = environment()
    if tracer is not None:
        record["metrics"] = tracer.metrics(ret - entry)
        record["layers"] = tracer.layer_self()
        record["spans"] = {k: list(v) for k, v in sorted(tracer.by_name().items())}
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
