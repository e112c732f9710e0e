"""The fenced ``python`` blocks of README.md run as written, in order."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no python blocks"
    namespace = {}  # later blocks use names the earlier ones define
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), namespace)
