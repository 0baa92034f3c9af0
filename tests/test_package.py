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
