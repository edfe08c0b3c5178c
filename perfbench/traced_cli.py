"""Run one `l1svm` command with tracing on, then write its spans.

    python3 perfbench/traced_cli.py SPANS_JSON <l1svm arguments...>

The exit code is the command's own.
"""

from __future__ import annotations

import sys
import time

from layers import TARGETS
from spans import Tracer, dump


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import l1svm.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install("l1svm", TARGETS)
    code = l1svm.cli.main(argv)
    dump(tracer.spans, out, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
