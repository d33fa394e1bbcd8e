"""JSON conventions shared by the CLI, the shipped example files and tests.

Complex numbers serialize as [re, im] pairs and matrices as row-major nested
arrays.  Semigroups are addressable inline, as "builtin:family:size"
references, or as paths to semigroup files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import SizeLimit
from .harmonic import MatrixMap
from .positivity import Dilation, MatrixAlgebraRep
from .semigroup import MAX_DIM, SemigroupTable, check_order, from_builtin, inverse_structure


_JSON_TYPES = {"integer": int, "object": dict, "array": list}


def _expect(x, json_type: str, what: str):
    """x when it is a JSON value of the named type, else ValueError: a bool, a float or a
    string is not an integer, and nothing is coerced to one."""
    if isinstance(x, bool) or not isinstance(x, _JSON_TYPES[json_type]):
        raise ValueError(f"{what} must be a JSON {json_type}, got {json.dumps(x, default=str)[:40]}")
    return x


def check_dim(n: int, what: str) -> None:
    """Refuse a target or representation dimension above MAX_DIM before allocating for it."""
    if n > MAX_DIM:
        raise SizeLimit(f"{what} {n} exceeds the cap {MAX_DIM}")


def matrix_to_json(m) -> list:
    """[re, im] pairs of a complex matrix as row-major nested lists, or of each matrix in a stack."""
    a = np.asarray(m, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def semigroup_to_json(t: SemigroupTable) -> dict:
    return {
        "name": t.name,
        "elements": list(t.element_names),
        "zero": None if t.zero is None else t.element_names[t.zero],
        "table": t.table.tolist(),
    }


def semigroup_from_json(obj: dict) -> SemigroupTable:
    names = tuple(str(x) for x in _expect(obj["elements"], "array", "elements"))
    check_order(len(names), "semigroup")
    for row in _expect(obj["table"], "array", "table"):
        for x in _expect(row, "array", "table row"):
            _expect(x, "integer", "table entry")
    zero = obj.get("zero")
    return SemigroupTable(
        name=str(obj.get("name", "semigroup")),
        element_names=names,
        zero=None if zero is None else names.index(zero),
        table=np.asarray(obj["table"], dtype=np.int32),
    )


def resolve_semigroup(ref, base_dir: Path | None = None) -> SemigroupTable:
    """Accept an inline object, a builtin reference, or a file path."""
    if isinstance(ref, dict):
        return semigroup_from_json(ref)
    ref = str(ref)
    if ref.startswith("builtin:"):
        return from_builtin(ref)
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    with open(path) as fh:
        return semigroup_from_json(json.load(fh))


def map_to_json(f: MatrixMap, semigroup_ref: str | None = None) -> dict:
    t, values = f.structure.table, matrix_to_json(f.values)
    return {
        "semigroup": semigroup_ref if semigroup_ref is not None else semigroup_to_json(t),
        "target_dim": f.dim,
        "basis": f.basis,
        "values": {t.element_names[s]: values[s] for s in f.structure.nonzero},
    }


def map_fields(obj: dict, base_dir: Path | None = None) -> tuple[SemigroupTable, int, str, np.ndarray]:
    """The semigroup table, target dim, basis tag and values of a map object, parsed only."""
    table = resolve_semigroup(obj["semigroup"], base_dir)
    n = _expect(obj["target_dim"], "integer", "target_dim")
    if n < 1:
        raise ValueError(f"target_dim must be >= 1, got {n}")
    check_dim(n, "target_dim")
    vals = np.zeros((table.order, n, n), dtype=complex)
    for name, rows in _expect(obj["values"], "object", "values").items():
        vals[table.index_of(name)] = matrix_from_json(rows)
    return table, n, str(obj["basis"]), vals


def read_map(path: str | Path) -> tuple[SemigroupTable, int, str, np.ndarray]:
    with open(path) as fh:
        return map_fields(json.load(fh), base_dir=Path(path).parent)


def load_map(path: str | Path) -> MatrixMap:
    table, n, basis, vals = read_map(path)
    return MatrixMap(inverse_structure(table), n, basis, vals)


def save_map(f: MatrixMap, path: str | Path, semigroup_ref: str | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(map_to_json(f, semigroup_ref), fh, indent=2, sort_keys=True)
        fh.write("\n")


def rep_to_json(rho: MatrixAlgebraRep) -> dict:
    mats = matrix_to_json(rho.matrices)
    return {
        "source_dim": rho.m,
        "rep_dim": rho.dim,
        "matrices": {f"e_{i + 1}_{j + 1}": mats[i][j] for i in range(rho.m) for j in range(rho.m)},
    }


def rep_from_json(obj: dict) -> MatrixAlgebraRep:
    m = _expect(obj["source_dim"], "integer", "source_dim")
    d = _expect(obj["rep_dim"], "integer", "rep_dim")
    if min(m, d) < 1:
        raise ValueError(f"source_dim and rep_dim must be >= 1, got {m} and {d}")
    check_order(m * m + 1, f"matrix_units:{m}")  # the semigroup the probe builds for it
    check_dim(d, "rep_dim")
    matrices = _expect(obj["matrices"], "object", "matrices")
    mats = np.zeros((m, m, d, d), dtype=complex)
    for i in range(m):
        for j in range(m):
            mats[i, j] = matrix_from_json(matrices[f"e_{i + 1}_{j + 1}"])
    return MatrixAlgebraRep(m, d, mats)


def load_rep(path: str | Path) -> MatrixAlgebraRep:
    with open(path) as fh:
        return rep_from_json(json.load(fh))


def dilation_to_json(d: Dilation) -> dict:
    st, names, k = d.structure, d.structure.table.element_names, d.structure.class_of
    pi = [matrix_to_json(p) for p in d.pi]  # pi(s) = pi_k(g(s)), read as ``Dilation.block`` reads it
    return {
        "dilation_dim": d.dim,
        "summands": {names[e]: {"dim": int(d.dims[e]), "offset": int(d.offsets[e])}
                     for e in st.idempotents},
        "v": matrix_to_json(d.v),
        "pi": {names[s]: pi[k[s]][st.grid_index[s] % len(pi[k[s]])] for s in st.nonzero},
        "residuals": {
            "reconstruction": d.reconstruction_residual,
            "identity": d.identity_residual,
            "multiplicativity": d.multiplicativity_residual,
            "star": d.star_residual,
        },
    }
