"""Run one circ-elgamal command in this interpreter with the tracer installed.

    python3 perfbench/traced_cli.py SPANS_FILE REQUEST_ID ARG...

ARG... are the command's own arguments, as `python -m circulant_elgamal.cli`
takes them. The spans and counters go to SPANS_FILE; the time spent
installing the wrappers and writing that file goes to the last stderr
line as `bookkeeping_s=<seconds>`, so the caller can leave it out of the
process time. Exits with the command's own exit code.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from circulant_elgamal import cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, request_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    tracer = Tracer()
    tracer.request_id = request_id
    tracer.install()
    installed = time.perf_counter() - t0
    rc = cli.main(argv)  # the traced wrapper, since install() rebound it
    t1 = time.perf_counter()
    tracer.dump(spans_path)
    sys.stdout.flush()
    print(f"bookkeeping_s={installed + time.perf_counter() - t1}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
