"""File formats: spec documents, generator sets, points, tables, manifests.

All documents are UTF-8 JSON with sorted keys and no trailing whitespace;
CSV uses '.' decimals and repr floats, so a rerun with the same inputs
reproduces every output byte for byte.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .cocycles import GeneratorSet, element_from_dict, fibonacci_generators
from .errors import ResourceLimit, ValidationError, unique_dict
from .points import (
    ExplicitPoint,
    MechanicalPoint,
    PeriodicPoint,
    Point,
    SubstitutionFixedPoint,
    ToeplitzPoint,
)
from .subshifts import (
    SturmianSpec,
    SubshiftSpec,
    SubstitutionSpec,
    ToeplitzSpec,
    build_spec,
    json_field,
    spec_to_dict,
)


def dumps_json(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: Path, doc: Any) -> None:
    path.write_text(dumps_json(doc), encoding="utf-8")


def load_json(path: Path) -> Any:
    try:
        # a key given twice in one object is refused: a repeated generator
        # name would otherwise drop a generator without an error
        return json.loads(Path(path).read_text(encoding="utf-8"),
                          object_pairs_hook=partial(unique_dict, error=ValidationError,
                                                    what="key"))
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
        raise ValidationError(f"cannot read JSON document {path}: {exc}") from exc


def load_spec(path: Path) -> SubshiftSpec:
    doc = load_json(path)
    if not isinstance(doc, Mapping):
        raise ValidationError(f"spec document {path} is not an object")
    return build_spec(doc)


def save_spec(path: Path, spec: SubshiftSpec, point: Mapping | None = None) -> None:
    doc = spec_to_dict(spec)
    if point is not None:
        doc["point"] = dict(point)
    write_json(path, doc)


def point_from_dict(spec: SubshiftSpec, desc: Mapping) -> Point:
    field = partial(json_field, desc, where="point description")
    kind = desc.get("kind")
    if kind == "substitution_fixed_point":
        if not isinstance(spec, SubstitutionSpec):
            raise ValidationError("substitution_fixed_point needs a substitution spec")
        left, right = field("left", "a string", None), field("right", "a string", None)
        power = field("power", "an integer", None)
        return SubstitutionFixedPoint(spec, left, right, power)
    if kind == "mechanical":
        if not isinstance(spec, SturmianSpec):
            raise ValidationError("mechanical points need a sturmian spec")
        return MechanicalPoint(spec, field("intercept", "an integer", 0))
    if kind == "toeplitz":
        if not isinstance(spec, ToeplitzSpec):
            raise ValidationError("toeplitz points need a toeplitz spec")
        return ToeplitzPoint(spec, field("anchor", "an integer", 0))
    if kind == "periodic":
        return PeriodicPoint(field("word", "a string"), field("phase", "an integer", 0))
    if kind == "explicit":
        return ExplicitPoint(field("left_period", "a string"), field("center", "a string", ""),
                             field("right_period", "a string"))
    raise ValidationError(f"unknown point kind {kind!r}")


def load_point_descriptor(spec_path: Path) -> Mapping | None:
    return json_field(load_json(spec_path), "point", "an object", None)


def parse_fraction(value) -> Fraction:
    # a JSON true or false is an int to isinstance, but no weight
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"weights must be exact rationals like '1/3', got {value!r}")


def load_generator_set(path: Path, spec: SubshiftSpec) -> tuple[GeneratorSet, dict[str, Fraction] | None]:
    """Load a generator-set document against an already-loaded spec.

    The document may reference its spec by path (checked for consistency),
    name the builtin family, or carry explicit cocycle tables.  Optional
    weights are exact rationals keyed by generator name.
    """
    doc = load_json(path)
    if not isinstance(doc, Mapping):
        raise ValidationError(f"generator document {path} is not an object")
    ref = doc.get("spec")
    if isinstance(ref, str):
        ref_spec = load_spec((Path(path).parent / ref).resolve())
        if ref_spec != spec:
            raise ValidationError("generator file references a different spec")
    elif isinstance(ref, Mapping):
        if build_spec(ref) != spec:
            raise ValidationError("generator file embeds a different spec")
    elif ref is not None:
        raise ValidationError(f"generator document field 'spec' must be a path or an object, "
                              f"got {ref!r}")

    if doc.get("builtin") == "fibonacci":
        gens = fibonacci_generators(spec)
    elif "generators" in doc:
        tables = json_field(doc, "generators", "an object", where="generator document")
        # names are distinct, so the sort never compares two elements
        named = sorted((str(name), element_from_dict(spec, data)) for name, data in tables.items())
        gens = GeneratorSet(spec, tuple(named))
    else:
        raise ValidationError("generator document needs 'builtin' or 'generators'")

    weights = json_field(doc, "weights", "an object", None, where="generator document")
    if weights is not None:
        weights = {name: parse_fraction(w) for name, w in weights.items()}
        if set(weights) != set(gens.names):
            raise ValidationError("weights must cover exactly the generator names")
    return gens, weights


def save_generator_set(path: Path, gens: GeneratorSet, spec_ref: str | None = None,
                       weights: Mapping[str, Fraction] | None = None) -> None:
    doc: dict[str, Any] = {
        "generators": {name: g.to_dict() for name, g in gens.elements},
    }
    if spec_ref is not None:
        doc["spec"] = spec_ref
    if weights is not None:
        doc["weights"] = {name: str(w) for name, w in weights.items()}
    write_json(path, doc)


def format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return repr(float(value))
    return str(value)


def check_cells(rows: Iterable[Sequence]) -> Iterator[Sequence]:
    """Yield each row, but refuse with ResourceLimit, before the next row is
    asked for, one holding an integer of more decimal digits than `str` and
    `json` convert: sys.get_int_max_str_digits() (4,300 by default, 0 for no
    limit).  Drain it before the output directory is made; the process-wide
    limit is left as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = 10 ** limit
    for row in rows:
        if limit and any(isinstance(v, int) and abs(v) >= too_long for v in row):
            raise ResourceLimit(
                f"a table cell has more than {limit} decimal digits, the most Python "
                f"converts to text (sys.get_int_max_str_digits)"
            )
        yield row


def write_table(path_base: Path, headers: Sequence[str], rows: Sequence[Sequence],
                fmt: str) -> Path:
    """Write a rectangular table as CSV or as a JSON array of objects."""
    if fmt == "csv":
        path = path_base.with_suffix(".csv")
        lines = [",".join(headers)]
        lines.extend(",".join(format_cell(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        path = path_base.with_suffix(".json")
        doc = [dict(zip(headers, [_jsonable(v) for v in row])) for row in rows]
        write_json(path, doc)
    else:
        raise ValidationError(f"unknown table format {fmt!r}")
    return path


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def write_manifest(out_dir: Path, command: str, argv: Sequence[str],
                   parameters: Mapping, outputs: Sequence[str]) -> Path:
    doc = {
        "tool": "fullgroup-lab",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "parameters": {k: _jsonable(v) for k, v in sorted(parameters.items())},
        "outputs": sorted(outputs),
    }
    path = out_dir / "manifest.json"
    write_json(path, doc)
    return path
