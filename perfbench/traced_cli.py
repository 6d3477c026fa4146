"""Run the greenreg command line once with span wrappers installed.

Usage: python traced_cli.py SPANS_JSON GREENREG_ARG...

Imports ``greenreg.cli``, wraps the package's public functions, calls
``greenreg.cli.main`` with the remaining arguments, writes the tracer's
dump to SPANS_JSON and exits with the command's status.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import greenreg.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.begin_op(0)
    try:
        return greenreg.cli.main(argv)
    finally:
        tracer.end_op()
        out.write_text(json.dumps(tracer.dump()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
