import ast
from pathlib import Path

import fullgroup_lab

PACKAGE = Path(fullgroup_lab.__file__).parent


def test_no_global_caches_in_the_package():
    # a functools cache on a module-level function lives as long as the
    # process and grows with every distinct argument
    banned = {"lru_cache", "cache"}
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 9
    hits = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                hits += [f"{path.name}: {a.name}" for a in node.names if a.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                hits.append(f"{path.name}:{node.lineno}: functools.{node.attr}")
    assert hits == []


MUTATORS = {"setdefault", "update", "append", "add", "__setitem__"}


def _module_names(tree: ast.Module) -> set[str]:
    return {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name)}


def _module_writes(tree: ast.Module, name: str) -> list[str]:
    """Where a function of the module writes into a module-level name: a
    subscript store or delete, a `global` statement, or a mutating call."""
    module = _module_names(tree)
    hits = []
    for func in tree.body + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        local = {a.arg for n in nodes if isinstance(n, ast.arguments)
                 for a in n.posonlyargs + n.args + n.kwonlyargs + [n.vararg, n.kwarg] if a}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module - local
        for n in nodes:
            if isinstance(n, ast.Global):
                hits.append(f"{name}:{n.lineno}: global {', '.join(n.names)}")
            elif (isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del))
                  and isinstance(n.value, ast.Name) and n.value.id in shared):
                hits.append(f"{name}:{n.lineno}: {n.value.id}[...] written")
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in MUTATORS and isinstance(n.func.value, ast.Name)
                  and n.func.value.id in shared):
                hits.append(f"{name}:{n.lineno}: {n.func.value.id}.{n.func.attr}(...)")
    return hits


def test_no_function_writes_module_level_state():
    # a module-level dict or list that functions fill is a cache that lives
    # as long as the process; module-level names are read-only constants
    hits, names = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names |= _module_names(tree)
        hits += _module_writes(tree, path.name)
    assert {"_JSON_KINDS", "FIBONACCI_RULES", "_HANDLERS", "SHANNON_QUANTILES"} <= names
    assert hits == []


def test_the_module_state_guard_sees_each_kind_of_write():
    source = """
CACHE = {}
SEEN = []
COUNT = 0
READ = {"a": 1}

def store(key):
    CACHE[key] = key

def remember(key):
    SEEN.append(key)
    CACHE.setdefault(key, key)

def bump():
    global COUNT
    COUNT += 1

def read(key, CACHE=None):
    CACHE = {} if CACHE is None else CACHE
    CACHE[key] = READ[key]
    return READ.get(key)

class Holder:
    def put(self, key):
        CACHE.__setitem__(key, key)
"""
    hits = _module_writes(ast.parse(source), "m.py")
    assert [h.split(": ", 1)[1] for h in hits] == [
        "CACHE[...] written", "SEEN.append(...)", "CACHE.setdefault(...)",
        "global COUNT", "CACHE.__setitem__(...)"]


def _unused_imports(tree: ast.Module, name: str) -> list[str]:
    """Names a module imports at top level and never reads: a read is a Name
    node anywhere in the module, annotations included; strings, docstrings
    among them, are not reads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name.split(".")[0]): node.lineno for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {(a.asname or a.name): node.lineno for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name}:{line}: {alias}" for alias, line in imported.items() if alias not in read]


def test_every_import_is_read():
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            hits += _unused_imports(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert hits == []


def test_the_unused_import_guard_reads_names_not_text():
    source = """
'''Uses json and math only in this docstring.'''
from __future__ import annotations

import json
import math
import os.path
import numpy as np
from typing import Mapping
from .errors import SpecMismatch as Mismatch, ValidationError

def f(doc: Mapping) -> int:
    raise Mismatch(os.path.join("a", "b"))
"""
    hits = _unused_imports(ast.parse(source), "m.py")
    assert [h.split(": ", 1)[1] for h in hits] == ["json", "math", "np", "ValidationError"]


def test_the_language_table_alone_orders_and_locates_factors():
    # `LanguageTable.words` is the sorted index of the factors: no module
    # bisects a sorted tuple or sorts a factor set again
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                hits += [f"{path.name}: import bisect" for a in node.names if a.name == "bisect"]
            elif isinstance(node, ast.ImportFrom) and node.module == "bisect":
                hits.append(f"{path.name}: from bisect import")
            elif (path.name != "subshifts.py" and isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "sorted"
                  and any(isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute)
                          and inner.func.attr == "factors"
                          for arg in node.args for inner in ast.walk(arg))):
                hits.append(f"{path.name}:{node.lineno}: sorted(...factors(...))")
    assert hits == []
