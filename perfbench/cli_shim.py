"""Traced stand-in for the `entrocut` console script, used by cli_cold runs with --trace 1.

Usage: python3 cli_shim.py SPANS_PATH [entrocut arguments ...]

Times the import of `entrocut.cli`, wraps the module calls (tracer.py),
runs `entrocut.cli.main` on the arguments and writes the spans to
SPANS_PATH, also when main raises.  Exit status and output are main's.
"""

import sys

from tracer import Tracer


def run() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    op = tracer.open("op")
    try:
        imp = tracer.open("cli.import")
        try:
            import entrocut.cli
        finally:
            tracer.close(imp)
        tracer.install()
        return entrocut.cli.main(argv)
    finally:
        tracer.close(op)
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(run())
