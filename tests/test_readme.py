"""The README's library examples run against the current API."""

import re
from pathlib import Path

import weakhj

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md: Library quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "certified-no-violation certified-no-violation"


def test_every_exported_name_resolves():
    missing = [name for name in weakhj.__all__ if not hasattr(weakhj, name)]
    assert missing == []
