"""One workload process: set up, make inputs, run whole passes of ops, write raw results.

Started by run.py with BLAS pinned to one thread.  setup_s is measured from
the top of this file, before numpy or semifourier is imported, to the end of
the workload's set-up.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Runner  # noqa: E402

import numpy as np  # noqa: E402  (first import of numpy in this process)
import workloads  # noqa: E402

MIN_OPS = 100  # so that at least 10 ops lie beyond op_p90_ms


def blas_info() -> dict:
    """OpenBLAS version and the thread count it actually uses (queried, not assumed)."""
    import ctypes
    import glob
    import os

    info = {"blas_version": None, "blas_threads": None}
    try:
        info["blas_version"] = np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        info["blas_threads"] = fn()
    return info


def run_op(runner: Runner, op, pass_no: int, traced: bool) -> dict:
    runner.trace = traced
    outcome, detail = "ok", ""
    with runner.op(op.kind, dict(op.attrs, op_pass=pass_no)):
        try:
            op.run()
        except workloads.GateFailure as exc:
            outcome, detail = exc.kind, str(exc)
        except Exception as exc:  # any exception outside a documented verdict is a failed op
            outcome, detail = type(exc).__name__, str(exc)[:300]
    known = outcome != "ok" and workloads.is_known_defect(op.kind, outcome, op.attrs)
    return {"kind": op.kind, "ms": runner.op_ms, "outcome": outcome,
            "known": known, "detail": detail, "traced": traced, "pass": pass_no,
            "attrs": {k: v for k, v in op.attrs.items() if k != "argv"}}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    root = Path(__file__).resolve().parent.parent
    runner = Runner(trace=bool(args.trace))
    wl = workloads.WORKLOADS[args.workload](runner, args.seed, args.smoke, root, Path(args.workdir), T0)
    wl.setup()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["spans"] = runner.spans
        Path(args.out).write_text(json.dumps(result))
        return 0

    wl.make_inputs()
    # A pass is the seed's fixed op sequence; runs are whole passes, so every run
    # has the same op mix.  After each pass, the mean pass length so far sets how
    # many passes fill --seconds, so a host that slows down mid-run does not
    # stretch the run.  In a traced run, passes alternate traced / untraced.
    ops_per_pass = len(wl.ops(0))
    min_passes = max(2 if args.trace else 1, math.ceil(MIN_OPS / ops_per_pass))
    if args.smoke:
        min_passes = 2 if args.trace else 1
    records = []
    pass_wall = {True: 0.0, False: 0.0}
    passes = min_passes
    pass_no = 0
    while pass_no < passes:
        ops = wl.ops(pass_no)
        order = np.random.default_rng([args.seed, pass_no, 3]).permutation(len(ops))
        traced = bool(args.trace) and pass_no % 2 == 0
        t0 = time.perf_counter()
        for i in order:
            records.append(run_op(runner, ops[i], pass_no, traced))
        pass_wall[traced] += time.perf_counter() - t0
        pass_no += 1
        if not args.smoke:
            mean_pass = sum(pass_wall.values()) / pass_no
            passes = max(min_passes, round(args.seconds / mean_pass))
    if args.trace:
        for op in wl.probes():
            rec = run_op(runner, op, -1, True)
            rec["probe"] = True
            records.append(rec)
    # the scale sweep: untraced, and neither timed nor counted as ops
    sweep = [run_op(runner, op, -1, False) for op in wl.sweep_ops()]

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli_verbs"
                               else resource.RUSAGE_SELF)
    result.update(
        ops=records,
        sweep=sweep,
        passes=pass_no,
        ops_per_pass=ops_per_pass,
        wall_s=pass_wall[False] + pass_wall[True],
        traced_wall_s=pass_wall[True],
        untraced_wall_s=pass_wall[False],
        peak_rss_kb=usage.ru_maxrss,
        residuals=wl.gate.residuals,
        bochner_disagreements=wl.gate.bochner_disagreements,
        counts=wl.counts,
        spans=runner.spans,
        env=dict(blas_info(), numpy=np.__version__, python=sys.version.split()[0]),
    )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
