import contextlib
import io
import sys

from braidseq import cli


class CliResult:
    def __init__(self, exit_code: int, output: str, exc_info):
        self.exit_code = exit_code
        self.output = output
        self.exc_info = exc_info


def invoke(args) -> CliResult:
    """Run ``cli.main(args)`` in this process.  ``output`` holds stdout and
    stderr in the order they were written; ``exc_info`` is that of the
    ``SystemExit`` or other exception that ended the run, None if it
    returned (exit code 0)."""
    buf = io.StringIO()
    exit_code, exc_info = 0, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            exit_code, exc_info = exc.code or 0, sys.exc_info()
        except Exception:
            exit_code, exc_info = 1, sys.exc_info()
    return CliResult(exit_code, buf.getvalue(), exc_info)
