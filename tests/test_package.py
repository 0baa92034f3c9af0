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
