"""Every `python` block of README.md runs as written, in a fresh folder
that holds a `synth` image `in.pgm`, so an API change cannot leave the
README's library examples stale.

`pytest tests/test_readme.py` checks whichever `contrastkit` is imported:
the source tree with `PYTHONPATH=src`, the installed package without."""

import re
from pathlib import Path

from contrastkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    """Each `python` block of README.md, padded with blank lines so that a
    traceback gives its README line."""
    text = README.read_text(encoding="utf-8")
    return [
        "\n" * text.count("\n", 0, m.start(1)) + m.group(1)
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


def test_every_readme_python_block_runs(tmp_path, monkeypatch):
    blocks = python_blocks()
    assert blocks
    for i, block in enumerate(blocks):
        folder = tmp_path / str(i)
        folder.mkdir()
        monkeypatch.chdir(folder)
        assert main(["synth", "in.pgm", "--width", "64", "--height", "64", "--lo", "100", "--hi", "156",
                     "--seed", "7"]) == 0
        exec(compile(block, str(README), "exec"), {"__name__": "__readme__"})
