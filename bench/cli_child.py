"""Run one quathw command with every public function traced.

Usage: python3 bench/cli_child.py [quathw arguments...]

The command's output and exit code are those of the ``quathw`` script.
After it, one stderr line starting with ``CHILD_MARKER`` carries the spans
and the traced window as JSON.
"""

import json
import sys
import time

from tracer import CHILD_MARKER, Tracer


def main() -> int:
    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.span("cli.import"):
        import quathw.cli
    tracer.install()
    try:
        return quathw.cli.main(sys.argv[1:])
    finally:
        end = time.perf_counter_ns()
        tracer.uninstall()
        sys.stdout.flush()
        print(CHILD_MARKER + json.dumps({"op": [start, end], "spans": tracer.spans}),
              file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
