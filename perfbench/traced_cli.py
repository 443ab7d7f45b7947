"""Run one ``cimmino`` CLI request with layer spans recorded.

Usage:  python perfbench/traced_cli.py SPANS.json CIMMINO-ARGS...

Same process shape as ``python -m cimmino CIMMINO-ARGS...``; the spans of
the request are written to SPANS.json when ``cimmino.cli.main`` returns or
raises.
"""

import sys

import cimmino.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cimmino.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
