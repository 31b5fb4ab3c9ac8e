"""README's python examples run as written, in order, in one namespace,
and its usage line names exactly the parser's flags."""

import re
from pathlib import Path

import pytest

from curlforce.cli import main

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_synopsis_flags_match_parser(capsys):
    (synopsis,) = re.findall(r"^curlforce <command> .*$", _README.read_text(),
                             re.MULTILINE)
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == flags - {"--help"}
