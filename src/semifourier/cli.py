"""Command-line front door.

Verb-style subcommands load semigroups and maps from files (or builtin
references), run the analyses and emit deterministic JSON or text reports.
Exit codes: 0 analysis completed (verdicts live in the payload); on a
failure, the ``exit_code`` that the error's type names in ``errors`` (a
ParseError comes only from reading the inputs, an option out of range or an
unwritable --out), or 5 when it names none: an internal failure, a bug signal.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .cxmat import DEFAULT_TOL
from .errors import Error, NotPositiveDefinite, ParseError
from .harmonic import (
    MatrixMap,
    as_groupoid,
    fourier_transform_all,
    from_groupoid,
    induced_irreps,
    invert_to_map,
    plancherel_check,
)
from .jsonio import (
    dilation_to_json,
    load_rep,
    map_to_json,
    matrix_to_json,
    read_map,
    resolve_semigroup,
)
from .maps import choi, convolve
from .positivity import (
    bochner_check,
    cp_check,
    cp_correspondence_probe,
    pd_check,
    stinespring,
)
from .semigroup import MAX_DIM, build_matrix_units, groupoid_basis_matrices, inverse_structure

INTERNAL_EXIT = 5  # the code of an exception whose type names none


def _fail(exc: BaseException, kind: str | None = None) -> int:
    code = getattr(type(exc), "exit_code", INTERNAL_EXIT)
    if isinstance(exc, ParseError) and exc.__cause__ is not None:  # report what could not be read
        exc = exc.__cause__
    error: dict = {"kind": kind or type(exc).__name__}
    if isinstance(exc, Error) and len(exc.args) > 1:
        error["message"] = str(exc.args[0])
        error["witness"] = exc.args[1]
    else:
        error["message"] = str(exc)
    if code == INTERNAL_EXIT:  # where it happened, as data rather than a printed traceback
        error["frames"] = [f"{Path(fr.filename).name}:{fr.lineno} {fr.name}"
                           for fr in traceback.extract_tb(exc.__traceback__)]
    diag = {"error": error}
    sys.stderr.write(json.dumps(diag, sort_keys=True, default=str) + "\n")
    return code


def _parse(load, *args):
    """Run one loader of the parse phase (``read_map``, ``load_rep``,
    ``resolve_semigroup``), or the writer of ``--out``.  Its untyped
    failures (an unreadable file, bad JSON, a missing key, a malformed table
    or value, a table entry or dimension that is not a JSON integer, an
    integer too large for its array, an unwritable path) become ParseError;
    the library's typed errors pass through with their own exit codes."""
    try:
        return load(*args)
    except Error:
        raise
    except (OSError, ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc


def _load_map(path):  # parsed under _parse, derived outside it: a failure there is internal
    table, n, basis, vals = _parse(read_map, path)
    return MatrixMap(inverse_structure(table), n, basis, vals)


def _render_text(obj, indent: str = "") -> str:
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_render_text(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                lines.append(_render_text(val, indent + "  "))
            else:
                lines.append(f"{indent}- {val}")
    else:
        lines.append(f"{indent}{obj}")
    return "\n".join(line for line in lines if line)


def _emit(args, command: str, result: dict) -> None:
    report = {
        "version": __version__,
        "command": command,
        "config": {
            "tol": args.tol,
            "seed": args.seed,
            "format": args.format,
            "inputs": getattr(args, "_inputs", []),
        },
        "result": result,
    }
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _render_text(report) + "\n"
    if args.out:
        _parse(Path(args.out).write_text, text)
    else:
        sys.stdout.write(text)


def _residual_summary(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# --- subcommand implementations ---------------------------------------------

def cmd_analyze(args) -> dict:
    table = _parse(resolve_semigroup, args.semigroup, Path.cwd())
    st = inverse_structure(table)
    names = table.element_names
    reps = induced_irreps(st, seed=args.seed)
    m, m_inv = groupoid_basis_matrices(st)
    roundtrip_exact = bool(
        np.array_equal(m @ m_inv, np.eye(len(st.nonzero), dtype=np.int64))
    )
    mobius_entries = [
        [names[t], names[s], int(st.mobius[t, s])]
        for t in st.nonzero
        for s in st.nonzero
        if st.leq[t, s]
    ]
    dims = [r.dim for r in reps]
    return {
        "semigroup": table.name,
        "order": table.order,
        "idempotents": [names[e] for e in st.idempotents],
        "dclasses": [
            {
                "index": k,
                "size": len(cls),
                "elements": [names[x] for x in cls],
                "rank": st.ranks[k],
                "base_idempotent": names[st.base_idempotents[k]],
                "subgroup_order": len(cls) // st.ranks[k] ** 2,  # |D_k| = r_k^2 |G_k|
            }
            for k, cls in enumerate(st.dclasses)
        ],
        "mobius": mobius_entries,
        "irrep_dims": dims,
        "wedderburn": {
            "sum_d_squared": sum(d * d for d in dims),
            "expected": table.order - 1,
            "ok": sum(d * d for d in dims) == table.order - 1,
        },
        "groupoid_roundtrip_exact": roundtrip_exact,
    }


def cmd_fourier(args) -> dict:
    f = _load_map(args.map)
    st = f.structure
    data = fourier_transform_all(f, induced_irreps(st, seed=args.seed))
    result = {
        "semigroup": st.table.name,
        "target_dim": f.dim,
        "transforms": {
            rep.irrep_id: {"dim": rep.dim, "matrix": matrix_to_json(t.matrix)}
            for rep, t in zip(data.reps, data.transforms)
        },
    }
    if st.matrix_units_size is not None:
        result["choi_consistency_residual"] = _residual_summary(
            data.transforms[0].matrix, choi(f).matrix
        )
    return result


def cmd_invert(args) -> dict:
    f = _load_map(args.map)
    recovered = invert_to_map(fourier_transform_all(f, induced_irreps(f.structure, seed=args.seed)))
    return {
        "semigroup": f.structure.table.name,
        "roundtrip_residual": _residual_summary(recovered.values, as_groupoid(f).values),
        "natural_map": map_to_json(from_groupoid(recovered))["values"],
    }


def cmd_plancherel(args) -> dict:
    f = _load_map(args.map)
    g = _load_map(args.map2)
    reps = induced_irreps(f.structure, seed=args.seed)
    lhs, rhs, residual = plancherel_check(f, g, reps)
    return {
        "lhs": matrix_to_json(lhs),
        "rhs": matrix_to_json(rhs),
        "residual": residual,
    }


def cmd_convolve(args) -> dict:
    f = _load_map(args.map)
    g = _load_map(args.map2)
    conv = convolve(f, g)
    reps = induced_irreps(f.structure, seed=args.seed)
    tc, tf, tg = (fourier_transform_all(x, reps).transforms for x in (conv, f, g))
    worst = max((_residual_summary(c.matrix, a.matrix @ b.matrix) for c, a, b in zip(tc, tf, tg)),
                default=0.0)
    return {
        "convolution": map_to_json(conv)["values"],
        "fourier_product_residual": worst,
    }


def cmd_check(args) -> dict:
    f = _load_map(args.map)
    tol = args.tol
    if args.which == "pd":
        slices = {mode: pd_check(f, mode, tol) for mode in ("natural", "groupoid", "blocks")}
        return {
            "which": "pd",
            "modes": {
                mode: {"verdict": s.verdict, "witness": s.witness}
                for mode, s in slices.items()
            },
            "agree": len({s.verdict for s in slices.values()}) == 1,
        }
    if args.which == "cp":
        verdict, witness = cp_check(f, tol)
        return {"which": "cp", "verdict": verdict, "witness": witness}
    report = bochner_check(f, seed=args.seed, tol=tol)
    return {
        "which": "bochner",
        "pd_verdict": report.pd.verdict,
        "pd_witness": report.pd.witness,
        "transforms": [
            {"irrep": rid, "psd": ok, "witness": lo}
            for rid, ok, lo in report.transform_verdicts
        ],
        "transforms_verdict": report.transforms_verdict,
        "agree": report.agrees,
    }


def cmd_stinespring(args) -> dict:
    f = _load_map(args.map)
    try:
        dil = stinespring(as_groupoid(f), tol=args.tol)
    except NotPositiveDefinite as exc:
        return {"verdict": "NotPositiveDefinite", "detail": str(exc)}
    return {**dilation_to_json(dil), "verdict": "ok"}


def cmd_cpprobe(args) -> dict:
    rho = _parse(load_rep, args.rep)
    st = inverse_structure(build_matrix_units(rho.m))
    report = cp_correspondence_probe(
        rho, st, trials=args.trials, seed=args.seed, n=args.target_dim, tol=args.tol
    )
    return {
        "trials": report.trials,
        "agreements": report.agreements,
        "perfect": report.perfect,
        "disagreements": [
            {"trial": t, "kind": kind, "transform_witness": fw, "choi_witness": cw}
            for t, kind, fw, cw in report.disagreements
        ],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semifourier",
        description="Harmonic analysis on finite inverse semigroups.",
    )
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure report for a semigroup")
    p.add_argument("semigroup", help="path or builtin:family:size reference")
    p.set_defaults(func=cmd_analyze, inputs=lambda a: [a.semigroup])

    p = sub.add_parser("fourier", help="Fourier transforms of a map")
    p.add_argument("map")
    p.set_defaults(func=cmd_fourier, inputs=lambda a: [a.map])

    p = sub.add_parser("invert", help="Fourier transform, invert, report residual")
    p.add_argument("map")
    p.set_defaults(func=cmd_invert, inputs=lambda a: [a.map])

    p = sub.add_parser("plancherel", help="both Plancherel sides for two maps")
    p.add_argument("map")
    p.add_argument("map2")
    p.set_defaults(func=cmd_plancherel, inputs=lambda a: [a.map, a.map2])

    p = sub.add_parser("convolve", help="convolve two maps, check the convolution theorem")
    p.add_argument("map")
    p.add_argument("map2")
    p.set_defaults(func=cmd_convolve, inputs=lambda a: [a.map, a.map2])

    p = sub.add_parser("check", help="positivity checks for a map")
    p.add_argument("map")
    p.add_argument("--which", choices=("pd", "cp", "bochner"), default="bochner")
    p.set_defaults(func=cmd_check, inputs=lambda a: [a.map])

    p = sub.add_parser("stinespring", help="GNS dilation of a positive definite map")
    p.add_argument("map")
    p.set_defaults(func=cmd_stinespring, inputs=lambda a: [a.map])

    p = sub.add_parser("cpprobe", help="CP vs transform-positivity agreement table")
    p.add_argument("rep")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--target-dim", type=int, default=2)
    p.set_defaults(func=cmd_cpprobe, inputs=lambda a: [a.rep])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for option, ok, rule in (("--tol", np.isfinite(args.tol) and args.tol > 0, "finite and positive"),
                             ("--seed", args.seed >= 0, ">= 0"),
                             ("--trials", getattr(args, "trials", 1) >= 1, ">= 1"),
                             ("--target-dim", 1 <= getattr(args, "target_dim", 1) <= MAX_DIM,
                              f"between 1 and {MAX_DIM}")):
        if not ok:
            return _fail(ParseError(f"{option} must be {rule}"), "BadOption")
    args._inputs = args.inputs(args)
    try:
        _emit(args, args.command, args.func(args))
    except Exception as exc:  # the exit code is the error type's; 5 for a bug
        return _fail(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
