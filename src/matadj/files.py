"""JSON file formats for matroids and adjoint maps.

Matroid files (UTF-8 JSON), three variants:

    {"name": ..., "n": 3, "bases": [[0,1],[0,2],[1,2]]}
    {"name": ..., "n": 7, "field": {"prime": 2}, "matrix": [[...], ...]}
    {"name": ..., "n": 4, "field": "rational", "matrix": [["1","0",...], ...]}

A matroid dict gives exactly one of "bases" and "matrix".  Matrix rows are
coordinates; columns are elements.  GF(p) entries are integers; rational
entries are integers or strings that ``Fraction`` parses, such as "1/2",
checked by ``Representation``.  Element sets serialize as
sorted integer arrays.  Adjoint map files:

    {"source": <matroid-dict>, "target": <matroid-dict>,
     "map": [{"flat": [...], "image": [...]}, ...],
     "hyperplane_order": [[...], ...]}

The hyperplane order is repeated explicitly so files cannot drift from a
re-derivation; the loader cross-checks it against the table, and a loaded
map's order is always the one derived from its table.
"""
from __future__ import annotations

import json
from os import PathLike
from pathlib import Path

from .adjoint import AdjointMap
from .catalog import by_name
from .errors import InputError, expect
from .linalg import Representation
from .matroid import Matroid, checked_basis_masks
from .sets import ElementSet, bits, label_mask

Source = str | Path | dict


def canonical_json(obj) -> str:
    """Byte-deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _path(path, kinds: str = "a path") -> Path:
    if not isinstance(path, (str, PathLike)):
        raise InputError(f"expected {kinds}, got {type(path).__name__}")
    return Path(path)


def _read(source: Source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        text = _path(source, "a path or a dict").read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {source}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{source}: expected a JSON object at top level")
    return data


# ---------------------------------------------------------------------------
# matroids
# ---------------------------------------------------------------------------

def matroid_to_dict(M: Matroid, name: str | None = None, rep: Representation | None = None) -> dict:
    """M as a matroid dict, by ``rep``'s matrix if given, else by its bases."""
    if name is not None and not isinstance(name, str):
        raise InputError(f"'name' must be a string, got {type(name).__name__}")
    if rep is not None:
        expect(rep, Representation)
        if rep.matroid() != M:
            raise InputError("representation does not match the matroid's bases")
        if rep.field == "rational":
            field = "rational"
            matrix = [[str(col[i]) for col in rep.columns] for i in range(rep.dim)]
        else:
            field = {"prime": rep.field}
            matrix = [[col[i] for col in rep.columns] for i in range(rep.dim)]
        out = {"n": M.n, "field": field, "matrix": matrix}
    else:
        out = {"n": M.n, "bases": sorted(bits(b) for b in M._basis_masks)}
    if name is not None:
        out["name"] = name
    return out


def _read_fields(data: dict) -> tuple[str | None, int]:
    """(name, n) of a matroid dict: a name, when present and not null, must
    be a string, n an int, the dict gives at most one of 'bases' and
    'matrix', and 'bases' is a list of lists.  A key that no reader reads is
    refused: one not named here or 'field', a 'field' next to 'bases', and a
    key other than 'prime' in a 'field' dict."""
    unknown = [key for key in data if key not in ("name", "n", "bases", "field", "matrix")]
    if unknown:
        raise InputError(f"matroid file has unknown keys {unknown}; it takes only 'name', 'n', 'bases', "
                         "'field' and 'matrix'")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"'name' must be a string, got {type(name).__name__}")
    n = data.get("n")
    if type(n) is not int:
        raise InputError("matroid file needs an integer 'n'")
    if "bases" in data and "matrix" in data:
        raise InputError("matroid file gives both 'bases' and 'matrix'; it needs exactly one")
    if "bases" in data and "field" in data:
        raise InputError("matroid file gives 'field' with 'bases'; a field goes only with 'matrix'")
    field = data.get("field")
    unknown = [key for key in field if key != "prime"] if isinstance(field, dict) else []
    if unknown:
        raise InputError(f"'field' has unknown keys {unknown}; it takes only 'prime'")
    bases = data.get("bases", [])
    if not isinstance(bases, list) or not all(isinstance(b, list) for b in bases):
        raise InputError("'bases' must be a list of lists")
    return name, n


def load_matroid(source: Source) -> tuple[Matroid, Representation | None, str | None]:
    """Returns (matroid, representation-or-None, name-or-None); see ``_read_fields``."""
    data = _read(source)
    name, n = _read_fields(data)
    if "bases" in data:
        return Matroid(n, data["bases"], provenance={"op": "file", "name": name}), None, name
    if "matrix" in data:
        field = data.get("field")
        if isinstance(field, dict) and "prime" in field:
            field = field["prime"]
            if isinstance(field, bool) or not isinstance(field, int):
                raise InputError(f"'prime' must be an integer, got {field!r}")
        elif field != "rational":
            raise InputError("'field' must be \"rational\" or {\"prime\": p}")
        matrix = data["matrix"]
        if not isinstance(matrix, list) or not matrix:
            raise InputError("'matrix' must be a non-empty list of rows")
        for row in matrix:
            if not isinstance(row, list) or len(row) != n:
                raise InputError(f"each matrix row needs exactly n={n} entries")
        # the entries are checked, and parsed, by Representation
        columns = tuple(tuple(row[j] for row in matrix) for j in range(n))
        rep = Representation(field, columns, len(matrix))
        matroid = rep.matroid(provenance={"op": "file", "name": name})
        return matroid, rep, name
    raise InputError("matroid file needs either 'bases' or 'matrix'")


def save_matroid(M: Matroid, path: str | Path, name: str | None = None,
                 rep: Representation | None = None) -> None:
    expect(M, Matroid)
    _path(path).write_text(canonical_json(matroid_to_dict(M, name, rep)), encoding="utf-8")


# ---------------------------------------------------------------------------
# adjoint maps
# ---------------------------------------------------------------------------

def adjoint_to_dict(phi: AdjointMap) -> dict:
    if phi._order is None:
        raise InputError("cannot serialize a map whose hyperplane restriction is not point-bijective")
    table = phi._table
    return {
        "source": matroid_to_dict(phi.source),
        "target": matroid_to_dict(phi.target),
        "map": [{"flat": bits(f), "image": bits(table[f])} for f in phi.source.flats().canonical_masks],
        "hyperplane_order": [bits(h) for h in phi._order],
    }


def _resolve_matroid(spec, role: str) -> Matroid:
    if isinstance(spec, str):
        return by_name(spec).matroid
    if isinstance(spec, dict):
        return load_matroid(spec)[0]
    raise InputError(f"adjoint file: '{role}' must be a matroid object or a catalog name")


def _describes(spec, M: Matroid, role: str) -> bool:
    """Whether an embedded matroid is M.  A bases list is validated, with the
    fields that ``load_matroid`` checks, and compared as a set, without a
    Matroid built from it: M passed the exchange check when it was built, so
    equal bases pass it too.  A matrix is compared through its column
    matroid, a name through the catalog."""
    if isinstance(spec, dict) and "bases" in spec:
        _, n = _read_fields(spec)
        return n == M.n and set(checked_basis_masks(spec["bases"], n)) == set(M._basis_masks)
    return _resolve_matroid(spec, role) == M


def _labels(values, n: int, what: str) -> int:
    if not isinstance(values, list):
        raise InputError(f"{what} must be a list of integers, got {values!r}")
    return label_mask(values, n, what)


def load_adjoint(source: Source, source_matroid: Matroid | None = None,
                 target_matroid: Matroid | None = None) -> AdjointMap:
    """Load a map file; explicit matroids override (and are checked against)
    any embedded ones.  Entries and the hyperplane order are read straight
    to masks."""
    data = _read(source)
    if "map" not in data or not isinstance(data["map"], list):
        raise InputError("adjoint file needs a 'map' list")

    def pick(key: str, override: Matroid | None) -> Matroid:
        embedded = data.get(key)
        if override is None:
            if embedded is None:
                raise InputError(f"adjoint file has no '{key}' and none was supplied")
            return _resolve_matroid(embedded, key)
        expect(override, Matroid)
        if embedded is not None and not _describes(embedded, override, key):
            raise InputError(f"embedded '{key}' matroid disagrees with the supplied one")
        return override

    M = pick("source", source_matroid)
    Mp = pick("target", target_matroid)
    table = {}
    for entry in data["map"]:
        if not isinstance(entry, dict) or "flat" not in entry or "image" not in entry:
            raise InputError("each map entry needs 'flat' and 'image' arrays")
        f = _labels(entry["flat"], M.n, "map flat")
        if f in table:
            raise InputError(f"duplicate map entry for flat {ElementSet._trusted(f, M.n)!r}")
        table[f] = _labels(entry["image"], Mp.n, "map image")
    stored = data.get("hyperplane_order")
    order = None
    if stored is not None:
        if not isinstance(stored, list) or not all(isinstance(h, list) for h in stored):
            raise InputError("'hyperplane_order' must be a list of lists")
        order = tuple(_labels(h, M.n, "hyperplane_order entry") for h in stored)
        hyperplanes = M.flats().hyperplane_masks
        # the hyperplanes are distinct, so equal lengths and sets make a permutation
        if len(order) != len(hyperplanes) or set(order) != set(hyperplanes):
            raise InputError("stored hyperplane_order is not a permutation of the source hyperplanes")
    phi = AdjointMap._of_masks(M, Mp, table)
    if order is not None and phi._order is not None and phi._order != order:
        raise InputError("stored hyperplane_order disagrees with the map table")
    return phi


def save_adjoint(phi: AdjointMap, path: str | Path) -> None:
    expect(phi, AdjointMap)
    _path(path).write_text(canonical_json(adjoint_to_dict(phi)), encoding="utf-8")


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def write_catalog_fixtures(directory: str | Path) -> list:
    """Write every catalog entry as a matroid JSON file; returns the paths."""
    from .catalog import catalog

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for entry in catalog():
        path = directory / f"{entry.name}.json"
        save_matroid(entry.matroid, path, name=entry.name, rep=entry.representation)
        paths.append(path)
    return paths
