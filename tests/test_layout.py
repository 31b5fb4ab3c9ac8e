"""Where the formula-text helpers live.

Every generated formula is pasted, powered, bound and compiled by one set
of helpers in core (_indent, _words, _paste, _compile, _bind, _power);
the modules that write formula text import them from there, so no private
helper crosses between integrate, systems and analysis, and only core
compiles or executes text.
"""

import ast
from pathlib import Path

import curlforce

_HELPERS = {"_indent", "_words", "_paste", "_compile", "_bind", "_power"}
_SOURCES = sorted(Path(curlforce.__file__).resolve().parent.glob("*.py"))


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in _SOURCES]


def test_only_core_compiles_or_executes_text():
    calls = {(name, node.func.id)
             for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("compile", "exec")}
    assert calls == {("core.py", "compile"), ("core.py", "exec")}


def test_formula_helpers_are_defined_once_in_core():
    defined = {(name, node.name)
               for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in _HELPERS}
    assert defined == {("core.py", helper) for helper in _HELPERS}


def test_no_helper_is_imported_from_a_peer_module():
    crossing = {(name, alias.name)
                for name, tree in _trees() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").rpartition(".")[2] in ("integrate",
                                                               "systems")
                for alias in node.names if alias.name in _HELPERS}
    assert crossing == set()
