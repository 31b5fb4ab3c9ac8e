"""README's python examples run as written, in order, in one namespace."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
