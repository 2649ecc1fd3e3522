"""The README's library quickstart runs as written."""

import contextlib
import io
import re
from pathlib import Path

from zenolock import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md quickstart", "exec"), {})
    # p_success and the fidelity, one per print
    assert len(printed.getvalue().splitlines()) == 2


def test_usage_block_is_the_cli_usage():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line runs", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    assert block == cli._USAGE + "\n"
