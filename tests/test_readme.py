"""The fenced ``python`` blocks of README.md run as written, in order, and
each ``coherence-bath`` command of its ``sh`` blocks exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from coherence_bath.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
    assert blocks, "README.md has no python blocks"
    namespace = {}  # later blocks use names the earlier ones define
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)


def _cli_commands() -> list[list[str]]:
    """The arguments of each ``coherence-bath`` line of the (possibly indented)
    ``sh`` blocks, with backslash-continued lines joined."""
    commands = []
    for _, block in re.findall(r"^( *)```sh\n(.*?)^\1```", TEXT, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["coherence-bath"]:
                commands.append(words[1:])
    return commands


def test_readme_has_cli_examples():
    assert len(_cli_commands()) >= 5


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out paths are relative
    assert main(argv) == 0, capsys.readouterr().err
