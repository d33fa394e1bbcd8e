"""Smoke test of the benchmark itself: tiny sizes, about half a minute.

    python3 perfbench/smoke.py

Checks that
  1. every workload, with --trace 0 and --trace 1, passes its gate and emits
     exactly the metrics BENCHMARK.json names, each with its unit;
  2. the correctness gate flags deliberately corrupted results: a perturbed
     inversion and a flipped PD verdict; known defects match only their regime;
  3. without the sources (only BENCHMARK.json and perfbench/), the benchmark
     fails with a non-zero exit code and prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            proc = run_bench(ROOT, w["name"], trace)
            if proc.returncode != 0:
                sys.exit(f"{w['name']} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
            assert not (missing or extra or wrong), (w["name"], trace, missing, extra, wrong)
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            print(f"ok   metrics  {w['name']:15s} trace={trace}: {len(got)} names with units")


def check_gate() -> None:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import semifourier
    from semifourier import harmonic, positivity

    import workloads
    from tracing import Runner
    from worker import run_op

    runner = Runner(trace=False)
    wl = workloads.Rook4Maps(runner, 0, True, ROOT, ROOT, 0.0)
    wl.setup()
    wl.make_inputs()
    ops = {(op.kind, op.attrs.get("map"), op.attrs.get("n")): op for op in wl.ops(0)}

    def outcome(key) -> dict:
        return run_op(runner, ops[key], 0, False)

    invert = harmonic.invert_to_map

    def perturbed_invert(data):
        m = invert(data)
        vals = m.values.copy()
        vals[m.structure.nonzero[0]] += 1e-6
        return semifourier.MatrixMap(m.structure, m.dim, m.basis, vals)

    pd_check = positivity.pd_check

    def flipped_pd_check(f, mode="natural", *a, **k):
        s = pd_check(f, mode, *a, **k)
        return dataclasses.replace(s, verdict=not s.verdict)

    key_inv = ("invert_to_map", "random", 1)
    key_pd = ("pd_check_natural", "gram", 2)
    assert outcome(key_inv)["outcome"] == "ok"
    assert outcome(key_pd)["outcome"] == "ok"
    harmonic.invert_to_map = perturbed_invert
    positivity.pd_check = flipped_pd_check
    try:
        bad_inv = outcome(key_inv)
        bad_pd = outcome(key_pd)
    finally:
        harmonic.invert_to_map = invert
        positivity.pd_check = pd_check
    assert bad_inv["outcome"] == "residual:inversion" and not bad_inv["known"], bad_inv
    assert bad_pd["outcome"] == "verdict:pd_natural" and not bad_pd["known"], bad_pd
    print(f"ok   gate     perturbed inversion -> {bad_inv['outcome']}; "
          f"flipped verdict -> {bad_pd['outcome']}")

    known = workloads.is_known_defect
    assert known("stinespring", "ValueError", {"scale": 1e-12})
    assert known("stinespring", "ReconstructionFailure", {"scale": 1e12})
    assert not known("stinespring", "ValueError", {"scale": 1e12})
    assert not known("stinespring", "ReconstructionFailure", {"scale": 1e-3})
    assert not known("stinespring", "NotPositiveDefinite", {"scale": 1e-12})
    print("ok   gate     known defects match only their own regime")


def check_without_sources() -> None:
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=build))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "rook4_maps", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print(f"ok   bare     without sources: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_metrics()
    check_gate()
    check_without_sources()
    print("smoke: all checks passed")
