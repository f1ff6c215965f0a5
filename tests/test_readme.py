"""README examples run as documented: every line of the CLI block exits 0,
and the library example prints what its comment says."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from conftest import invoke

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block_after(heading: str, lang: str) -> str:
    section = README.split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


CLI_LINES = [line for line in _block_after("## CLI", "sh").splitlines()
             if line.startswith("braidseq ")]


def test_readme_cli_block_is_found():
    assert len(CLI_LINES) >= 10


@pytest.mark.parametrize("line", CLI_LINES)
def test_readme_cli_line_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    res = invoke(shlex.split(line)[1:])
    assert res.exit_code == 0, res.output


def test_readme_library_example_prints_its_comment():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block_after("## Library example", "python"), {})
    assert out.getvalue().splitlines()[-1] == "True linear_piece 87"
