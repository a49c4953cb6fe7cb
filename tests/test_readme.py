"""The README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs():
    block = re.search(r"^## Python API\n\n```python\n(.*?)^```$",
                      README.read_text(encoding="utf-8"), re.M | re.S)
    assert block, "README has no Python API code block"
    exec(compile(block[1], str(README), "exec"), {})
