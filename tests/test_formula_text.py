"""Formula text is plain Python, and names are its only placeholders.

A body sets d0, d1, ..., an angle function's order is the name U0..U3 (for
the function passed as U) and an order text reads its values by the name
values.  core._rename is the one substitution: it replaces each whole
name, never an attribute, in a single pass, and _paste and systems._angles
both go through it.  No source keeps a str.format field ({0}) or a braced
placeholder ({U0}, {f}) in its text.
"""

import ast
import re
from pathlib import Path

import curlforce
from curlforce.core import _rename

_SOURCES = sorted(Path(curlforce.__file__).resolve().parent.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in _SOURCES]


def test_rename_replaces_whole_names_only():
    text = "d0 = x.d0 + dd0 + d00 + (d0)\n"
    assert _rename(text, {"d0": "g"}) == "g = x.d0 + dd0 + d00 + (g)\n"


def test_rename_is_one_pass():
    assert _rename("a = b - a\n", {"a": "b", "b": "a"}) == "b = a - b\n"


def test_empty_map_returns_the_text():
    text = "d0 = values[0] * cos(theta)\n"
    assert _rename(text, {}) == text


def test_rename_is_defined_only_in_core():
    defined = {name for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_rename"}
    assert defined == {"core.py"}


def test_no_braced_placeholder_in_any_string():
    # f-strings included: their literal parts are str constants too
    braced = re.compile(r"\{(\d+|[A-Z]\d|f)\}")
    found = [(name, node.lineno, node.value)
             for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and braced.search(node.value)]
    assert found == []
