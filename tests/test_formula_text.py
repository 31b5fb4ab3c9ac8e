"""Formula text is plain Python, and names are its only placeholders.

A body sets d0, d1, ..., an angle function's order is the name U0..U3 (for
the function passed as U) and an order text reads its values by the name
values.  core._rename is the one substitution: it replaces each whole
name, never an attribute, in a single pass, and _paste and systems._angles
both go through it, _angles once for all the functions it expands.  _paste
reads a text's names from one parse (core._names): it feeds only the inputs
the text names and prefixes only the names the text binds, its inputs and
its constants, so core compiles text only in _compile.  No source keeps a
str.format field ({0}) or a braced placeholder ({U0}, {f}) in its text.
"""

import ast
import re
from pathlib import Path

import curlforce
from curlforce.core import _paste, _rename
from curlforce.systems import AngleFunction, _angles

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


def test_paste_feeds_only_the_inputs_the_text_names():
    text = "d0 = r * x.s + s0\n"
    feed = {"": "y[0]", "r": "y[1]", "s": "y[2]", "s0": "y[3]", "u": "y[4]"}
    assert _paste(text, feed) == "r = y[1]\ns0 = y[3]\n" + text


def test_prefix_renames_bound_names_inputs_and_constants_only():
    text = "h = abs(k * cos(r))\nd0 = h if h == h else nan\n"
    assert _paste(text, feed={"r": "z0"}, free=("k",), prefix="p_",
                  outs=("d0",)) == ("p_r = z0\n"
                                    "p_h = abs(p_k * cos(p_r))\n"
                                    "d0 = p_h if p_h == p_h else nan\n")


def test_angles_expand_two_functions_in_one_pass():
    U, V = AngleFunction.constant(2.0), AngleFunction.cos(3.0, 0.5)
    text, values = _angles("d0 = U0 + V1 + values\n", U=U, V=V)
    assert text == "d0 = U[0] + (V[1] * sin(V[4] * theta)) + values\n"
    assert values == {"U": U._values, "V": V._values}


def test_core_compiles_text_only_in_compile():
    tree = dict(_trees())["core.py"]

    def calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "compile"]
    [helper] = [n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_compile"]
    assert len(calls(tree)) == 1
    assert calls(helper) == calls(tree)
