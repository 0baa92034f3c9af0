import ast
import copy
from pathlib import Path

import numpy as np
import pytest

import fullgroup_lab
from fullgroup_lab import (
    ExplicitSpec,
    FullShiftSpec,
    SturmianSpec,
    SubstitutionFixedPoint,
    SubstitutionSpec,
    ToeplitzSpec,
    fibonacci_generators,
    fibonacci_spec,
    sample_orbit_walks,
    uniform_measure,
)

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


def _dataclass_imports(tree: ast.Module, name: str) -> list[str]:
    """Where a module imports `dataclasses`, at any depth."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits += [f"{name}:{node.lineno}: import {a.name}" for a in node.names
                     if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            hits.append(f"{name}:{node.lineno}: from {node.module} import")
    return hits


def test_no_module_imports_dataclasses():
    # a dataclass execs its generated methods when its class is made, about
    # 0.6 ms each at import; the package's value classes are plain classes
    # and NamedTuples
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += _dataclass_imports(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert hits == []


def test_the_dataclass_guard_sees_each_form_of_import():
    source = """
import json
import dataclasses
import dataclasses as dc, math

def make():
    from dataclasses import dataclass, field
    return dataclass
"""
    hits = _dataclass_imports(ast.parse(source), "m.py")
    assert hits == ["m.py:3: import dataclasses", "m.py:4: import dataclasses",
                    "m.py:7: from dataclasses import"]


def test_no_text_or_factor_budget_is_a_parameter():
    # the byte budget is one constant of `errors`, read by `afford` where
    # each check is made, so no caller can pass a budget of its own
    banned = {"limit", "cap", "budget", "max_bytes", "max_text", "max_factors"}
    hits = []
    for name in ("subshifts.py", "points.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                hits += [f"{name}:{node.lineno}: {a.arg}"
                         for a in args.posonlyargs + args.args + args.kwonlyargs
                         if a.arg in banned]
    assert hits == []


# The raises of ResourceLimit that are not the byte budget's, each a cap that
# bounds time or a limit that is not about memory
RESOURCE_LIMIT_RAISES = [
    "errors.py:afford",  # the byte budget
    "cli.py:_check_rows",  # table rows: time
    "subshifts.py:_spell_paths",  # letters of a shift of finite type's paths: time
    "subshifts.py:_FullShiftLanguage.count",  # count bits: time
    "subshifts.py:_PathLanguage.count",  # count bits: time
    "cocycles.py:CayleyBall._grow_layer",  # the ball's element cap, --cap
    "fileio.py:check_cells",  # the decimal digits Python converts
    "points.py:_LevelPoint._side",  # REACH, the letters level words reach
]


def _resource_limit_raises(tree: ast.Module, name: str) -> list[str]:
    """The scope, as module:Class.function, of each raise of ResourceLimit
    in a module, called or not, by name or as an attribute, in source order."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "ResourceLimit":
                    hits.append(f"{name}:{'.'.join(scope) or '<module>'}")
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + [child.name] if named else scope)

    visit(tree, [])
    return hits


def test_every_memory_refusal_goes_through_afford():
    # a site that allocates in proportion to user input turns its need into
    # bytes and calls `errors.afford`; only the caps named above raise
    # ResourceLimit themselves
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        hits += _resource_limit_raises(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert sorted(hits) == sorted(RESOURCE_LIMIT_RAISES)


def test_the_resource_limit_guard_sees_each_form_of_raise():
    source = """
from . import errors
from .errors import ResourceLimit

def afford(nbytes, what):
    raise ResourceLimit(what)

def _check_rows(n):
    if n:
        raise errors.ResourceLimit(f"{n} rows")
    raise ValueError(n)

class Table:
    def words(self, n):
        raise ResourceLimit

    def count(self, n):
        def inner():
            raise ResourceLimit("inner") from None
        return inner

raise ResourceLimit("at import")
"""
    hits = _resource_limit_raises(ast.parse(source), "cli.py")
    assert hits == ["cli.py:afford", "cli.py:_check_rows", "cli.py:Table.words",
                    "cli.py:Table.count.inner", "cli.py:<module>"]
    assert [h for h in hits if h in RESOURCE_LIMIT_RAISES] == ["cli.py:_check_rows"]


# calls that make a directory or write a file, by attribute or by bare name
WRITE_CALLS = {"mkdir", "makedirs", "write_text", "write_bytes",
               "write_table", "write_json", "write_manifest"}


def _file_writes(tree: ast.Module, name: str) -> list[str]:
    """Each call of a name in WRITE_CALLS, as module:function: name, where
    function is the top-level definition that holds it, in source order."""
    hits = []
    for top in tree.body:
        named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        calls = [n for n in ast.walk(top) if isinstance(n, ast.Call)]
        for call in sorted(calls, key=lambda n: (n.lineno, n.col_offset)):
            callee = getattr(call.func, "attr", getattr(call.func, "id", None))
            if callee in WRITE_CALLS:
                hits.append(f"{name}:{top.name if named else '<module>'}: {callee}")
    return hits


def test_only_publish_makes_the_output_directory_or_writes_a_file():
    # each command computes all its outputs first and hands them to one
    # publish step, so a refusal leaves no output directory
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    hits = _file_writes(tree, "cli.py")
    assert hits and all(h.startswith("cli.py:_publish: ") for h in hits), hits


def test_the_publish_guard_sees_each_form_of_write():
    source = """
from pathlib import Path
from . import fileio
from .fileio import write_table

def _publish(args, files):
    args.out.mkdir(parents=True)
    fileio.write_manifest(args.out, files)

def cmd_walk(args):
    (args.out / "point_window.txt").write_text("ab\\n")
    fileio.write_json(args.out / "tail_fit.json", {})
    write_table(args.out / "tail", (), [], "csv")

class Report:
    def save(self, path):
        def inner():
            Path(path).write_bytes(b"")
        return inner

fileio.write_table(Path("t"), (), [], "csv")
"""
    hits = _file_writes(ast.parse(source), "cli.py")
    assert hits == ["cli.py:_publish: mkdir", "cli.py:_publish: write_manifest",
                    "cli.py:cmd_walk: write_text", "cli.py:cmd_walk: write_json",
                    "cli.py:cmd_walk: write_table", "cli.py:Report: write_bytes",
                    "cli.py:<module>: write_table"]


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


TEXT_NAMES = {"threading", "MAX_TEXT", "substitution_iterate", "StandardWords"}


def _point_state(tree: ast.Module, name: str) -> list[str]:
    """Where a points module names a lock, the text budget or a text
    builder, or a method other than `__init__` writes an attribute of
    `self` or an item of one."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits += [f"{name}:{node.lineno}: import {a.name}" for a in node.names
                     if a.name in TEXT_NAMES]
        elif isinstance(node, ast.ImportFrom):
            hits += [f"{name}:{node.lineno}: import {a.name}" for a in node.names
                     if {node.module, a.name} & TEXT_NAMES]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            label = node.id if isinstance(node, ast.Name) else node.attr
            if label in TEXT_NAMES:
                hits.append(f"{name}:{node.lineno}: {label}")
    methods = [f for c in tree.body if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef) and f.name != "__init__"]
    for method in methods:
        for node in ast.walk(method):
            target = node.value if isinstance(node, ast.Subscript) else node
            if (isinstance(node, (ast.Attribute, ast.Subscript))
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name) and target.value.id == "self"):
                hits.append(f"{name}:{node.lineno}: {method.name} writes self.{target.attr}")
    return hits


def test_a_point_holds_no_text_no_lock_and_no_state_a_read_changes():
    # a point is a position rule: each read spells its window from tables
    # built at construction, so it needs no lock, no cached side and no
    # text budget
    tree = ast.parse((PACKAGE / "points.py").read_text(encoding="utf-8"))
    assert _point_state(tree, "points.py") == []


def test_the_point_state_guard_sees_each_kind_of_write():
    source = """
import threading
from .subshifts import MAX_TEXT, substitution_iterate as iterate

class P:
    def __init__(self):
        self.ok = {}

    def read(self, k):
        self.cache = subshifts.StandardWords(k)
        self.ok[k] = k
        del self.gone
        local = {}
        local[k] = self.ok
        return local
"""
    hits = _point_state(ast.parse(source), "m.py")
    assert [h.split(": ", 1)[1] for h in hits] == [
        "import threading", "import MAX_TEXT", "import substitution_iterate",
        "StandardWords", "read writes self.cache", "read writes self.ok",
        "read writes self.gone"]


STANDARD_WORD_FIELDS = {"cf", "swap_letters"}


def _standard_word_reads(tree: ast.Module, name: str) -> list[str]:
    """Where a module reads a Sturmian spec's continued fraction or letter
    swap, in source order."""
    nodes = sorted((node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr in STANDARD_WORD_FIELDS),
                   key=lambda node: (node.lineno, node.col_offset))
    return [f"{name}:{node.lineno}: {node.attr}" for node in nodes]


def test_points_read_no_standard_word_rule():
    # the standard-word rule and its letter swap are written once, in
    # `subshifts.level_words`; a point reads the level words it builds
    tree = ast.parse((PACKAGE / "points.py").read_text(encoding="utf-8"))
    assert _standard_word_reads(tree, "points.py") == []


def test_the_standard_word_guard_sees_each_read():
    source = """
class P:
    def __init__(self, spec, cf=(1,)):
        self.base = "ba" if spec.swap_letters else "ab"
        self.rule = lambda k: (("a", spec.cf[(k - 1) % len(cf)]), ("b", 1))
"""
    hits = _standard_word_reads(ast.parse(source), "m.py")
    assert hits == ["m.py:4: swap_letters", "m.py:5: cf"]


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


def _bytes_key_reads(tree: ast.Module, name: str) -> list[str]:
    """Where a module reads `_row_keys` anywhere but in the body of an `if`
    inside `_distinct_rows`: the fallback that runs only when a row hash
    collides."""
    hits = []

    def visit(node, func: str, fallback: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func, fallback = getattr(node, "name", "<lambda>"), False
        label = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if (label == "_row_keys" and isinstance(node.ctx, ast.Load)
                and not (func == "_distinct_rows" and fallback)):
            hits.append(f"{name}:{node.lineno}: {func}")
        body = node.body if isinstance(node, ast.If) else ()
        for child in ast.iter_child_nodes(node):
            visit(child, func, fallback or any(child is b for b in body))

    visit(tree, "<module>", False)
    return hits


def test_the_ball_sorts_bytes_keys_only_when_a_row_hash_collides():
    # deduplication sorts one uint64 hash per row; the void keys of whole
    # rows sort with a generic byte compare, so they decide only a collision
    tree = ast.parse((PACKAGE / "cocycles.py").read_text(encoding="utf-8"))
    assert _bytes_key_reads(tree, "cocycles.py") == []


def test_the_bytes_key_guard_sees_each_read_outside_the_fallback():
    source = """
def _distinct_rows(rows, collides):
    keys = _row_keys(rows)
    if collides:
        keys = _row_keys(rows)
    else:
        keys = cocycles._row_keys(rows)
    if _row_keys(rows) is None:
        return lambda r: _row_keys(r)
    return keys

def dedup(rows):
    if rows:
        return _row_keys(rows)
"""
    hits = _bytes_key_reads(ast.parse(source), "m.py")
    assert hits == ["m.py:3: _distinct_rows", "m.py:7: _distinct_rows",
                    "m.py:8: _distinct_rows", "m.py:9: <lambda>", "m.py:14: dedup"]


def test_the_language_table_picks_its_engine_without_type_tests():
    # each family's language is one engine, picked once from one mapping;
    # a method of `LanguageTable` that tests a type is a family ladder
    tree = ast.parse((PACKAGE / "subshifts.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "LanguageTable")
    hits = [f"{method.name}:{node.lineno}"
            for method in table.body if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"]
    assert hits == []


def test_the_installed_command_is_the_entry_that_freezes_the_heap():
    # the installed command skips the interpreter's final collection only
    # through `cli.run`; `gc.freeze` anywhere else would put the cyclic
    # garbage of in-process `main` calls out of the collector's reach.  The
    # one other site is the package's import, which unfreezes at once
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"fullgroup-lab": "fullgroup_lab.cli:run"}
    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            callers += [f"{path.name}: {getattr(top, 'name', '<module>')}"
                        for n in ast.walk(top) if isinstance(n, ast.Attribute)
                        and n.attr == "freeze"]
    assert callers == ["__init__.py: <module>", "cli.py: run"]
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert _freezes_left_frozen(init) == []


def _method_call(stmt: ast.stmt, name: str) -> bool:
    """Whether `stmt` is a bare call of a method `name`, like `gc.freeze()`."""
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute) and stmt.value.func.attr == name)


def _freezes_left_frozen(tree: ast.Module) -> list[int]:
    """Lines of the `freeze` reads that are not a `freeze()` statement with
    `unfreeze()` as the next statement."""
    paired = set()
    for node in ast.walk(tree):
        for block in (getattr(node, f, None) for f in ("body", "orelse", "finalbody")):
            if isinstance(block, list):
                paired |= {id(a.value.func) for a, b in zip(block, block[1:])
                           if _method_call(a, "freeze") and _method_call(b, "unfreeze")}
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and n.attr == "freeze" and id(n) not in paired)


def test_the_freeze_pair_guard_sees_a_freeze_left_standing():
    source = """
import gc
try:
    pass
finally:
    if on:
        gc.freeze()
        gc.unfreeze()
        gc.freeze()
        x = 1
    else:
        gc.freeze()
keep = gc.freeze
done = [gc.freeze(), gc.unfreeze()]
"""
    assert _freezes_left_frozen(ast.parse(source)) == [9, 12, 13, 14]


def _value_cases():
    """(make, repr, field tuple) of each immutable value class: two calls of
    `make` build equal objects independently."""
    fib = "SubstitutionSpec(rules=(('a', 'ab'), ('b', 'a')), seed='a')"
    elements = ("(('alpha', <CocycleElement depth=2 max_shift=1>), "
                "('beta', <CocycleElement depth=2 max_shift=1>), "
                "('gamma', <CocycleElement depth=1 max_shift=1>))")
    atoms = ("(('alpha', <CocycleElement depth=2 max_shift=1>, Fraction(1, 3)), "
             "('beta', <CocycleElement depth=2 max_shift=1>, Fraction(1, 3)), "
             "('gamma', <CocycleElement depth=1 max_shift=1>, Fraction(1, 3)))")

    def gens():
        return fibonacci_generators(fibonacci_spec())

    def fields(obj, names):
        return tuple(getattr(obj, name) for name in names)

    return {
        "sturmian": (lambda: SturmianSpec((1, 2), swap_letters=True),
                     "SturmianSpec(cf=(1, 2), swap_letters=True)", ((1, 2), True)),
        "substitution": (lambda: SubstitutionSpec.from_rules({"b": "a", "a": "ab"}, "a"), fib,
                         ((("a", "ab"), ("b", "a")), "a")),
        "toeplitz": (lambda: ToeplitzSpec("a?b", "?"), "ToeplitzSpec(pattern='a?b', hole='?')",
                     ("a?b", "?")),
        "full-shift": (lambda: FullShiftSpec(("a", "b")), "FullShiftSpec(letters=('a', 'b'))",
                       (("a", "b"),)),
        "explicit": (lambda: ExplicitSpec(("a", "b"), ("bb", "bb")),
                     "ExplicitSpec(letters=('a', 'b'), forbidden=('bb',))",
                     (("a", "b"), ("bb",))),
        "generator-set": (gens, f"GeneratorSet(spec={fib}, elements={elements})",
                          lambda g: fields(g, ("spec", "elements"))),
        "step-measure": (lambda: uniform_measure(gens()),
                         f"StepMeasure(spec={fib}, atoms={atoms})",
                         lambda m: fields(m, ("spec", "atoms"))),
    }


@pytest.mark.parametrize("case", list(_value_cases()))
def test_value_classes_compare_hash_and_print_by_their_fields_and_are_immutable(case):
    # specs, generator sets and step measures are dictionary keys and error
    # message text: equal by their fields within their own class only, never
    # equal to a bare tuple, hashed as the tuple of those fields, printed as
    # Class(field=value, ...), and never changed after construction
    make, text, values = _value_cases()[case]
    a, b = make(), make()
    values = values(a) if callable(values) else values
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert hash(a) == hash(values)
    assert a != values and values != a
    assert repr(a) == text and copy.copy(a) == a
    for name in ("spec", "cf", "pattern", "letters", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b and repr(a) == text


def test_a_walk_sample_lists_its_arrays_in_its_attribute_dict():
    # traced runs sum the bytes of every ndarray in vars(sample)
    spec = fibonacci_spec()
    sample = sample_orbit_walks(uniform_measure(fibonacci_generators(spec)),
                                SubstitutionFixedPoint(spec), 5, 7, 1)
    fields = vars(sample)
    assert {"n", "trials", "seed", "max_shift", "summary"} <= set(fields)
    assert {k: v.shape for k, v in fields.items() if isinstance(v, np.ndarray)} == {
        "max_abs": (7,), "final": (7,)}
