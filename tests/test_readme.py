"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # the fenced python block under "## Library tour", executed as is
    section = README.read_text().split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README}:Library tour", "exec"), {})
