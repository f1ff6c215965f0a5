#!/usr/bin/env python3
"""Run the braidseq CLI with layer spans and write them when it exits.

Usage:  python3 perfbench/traced_cli.py SPANS.json.gz OP_ID CLI_ARGS...

The exit code and the standard output are the CLI's own.  The ``cli.main``
span starts once the package is imported and the wrappers are installed, so
interpreter start-up and imports show as time no layer accounts for.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    spans_path, op_id, *cli_args = sys.argv[1:]
    tracer = spans.Tracer()
    tracer.op_id = int(op_id)
    from braidseq import cli
    spans.install(tracer)
    code = 0
    idx = tracer.open("cli.main")
    try:
        cli.main.main(args=cli_args, prog_name="braidseq")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        spans.dump(tracer.to_dict(), spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
