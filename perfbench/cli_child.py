"""Run the explor command line in this process, optionally with spans.

    python3 perfbench/cli_child.py [--spans PATH] COMMAND [ARGS...]

Without ``--spans`` this is the ``explor`` entry point and nothing more. With
it, the package's functions are wrapped for the length of the command and the
spans are written to PATH as JSON when it returns.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    import explor.cli

    if argv[:1] != ["--spans"]:
        return explor.cli.main(argv)
    from tracing import Tracer, install

    path, argv = argv[1], argv[2:]
    tracer = Tracer()
    restore = install(tracer)
    try:
        return explor.cli.main(argv)
    finally:
        restore()
        with open(path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
