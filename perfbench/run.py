"""semifourier benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload rook4_maps --seed 0 --seconds 15 --trace 0

Run from the repository root.  It benchmarks the code under src/ as it
stands (PYTHONPATH=src, no install step).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  A correctness-gate breach is printed to stderr and the
exit code is 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rook4_maps", "channels", "cli_verbs")
SETUP_RUNS = 5  # fresh-interpreter set-ups per run; setup_s is their median
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150

LAYERS = ("semigroup", "grouprep", "harmonic", "maps", "positivity", "jsonio", "cli")
FUNCTIONS = (
    "semigroup.from_builtin", "semigroup.inverse_structure", "semigroup.maximal_subgroup",
    "grouprep.unitary_irreps",
    "harmonic.induced_irreps", "harmonic.fourier_transform_all", "harmonic.invert_to_map",
    "harmonic.plancherel_check", "harmonic.schur_residual",
    "maps.convolve", "maps.choi",
    "positivity.pd_check_natural", "positivity.pd_check_groupoid", "positivity.pd_check_blocks",
    "positivity.bochner_check", "positivity.stinespring", "positivity.cp_check",
    "positivity.cp_correspondence_probe",
    "jsonio.load_map",
    "cli.import", "cli.main",
)
COUNTS = (
    ("semigroup.order", "count"), ("semigroup.dclasses", "count"),
    ("semigroup.validate_bytes", "bytes"),
    ("grouprep.max_group_order", "count"), ("grouprep.irreps", "count"),
    ("harmonic.max_irrep_dim", "count"),
    ("positivity.pd_matrix_dim", "count"), ("positivity.dilation_dim", "count"),
    ("positivity.mult_pairs", "count"),
    ("jsonio.bytes_in", "bytes"), ("jsonio.bytes_out", "bytes"),
)
RESIDUALS = (
    ("harmonic.inversion_residual_rel", "inversion"),
    ("harmonic.plancherel_residual_rel", "plancherel"),
    ("maps.convolution_residual_rel", "convolution"),
    ("positivity.reconstruction_residual_rel", "reconstruction"),
)
KNOWN_FAILURE_KINDS = ("ValueError", "ReconstructionFailure")
# ROADMAP Grounding note: I_4, target dim 2, single runs on a 2-core box
GROUNDING = (
    ("semigroup.inverse_structure", None, 119, 119),
    ("harmonic.induced_irreps", None, 136, 136),
    ("maps.convolve", 2, 141, 190),
    ("positivity.pd_check_natural", 2, 121, 121),
    ("positivity.pd_check_groupoid", 2, 59, 59),
)


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, workdir: Path, tag: str, setup_only: bool) -> dict:
    out = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(out.read_text())


def environment(worker_env: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return dict(
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        cpu=cpu,
        host=platform.node(),
        **worker_env,
        pinned=PINNED_ENV,
    )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(main: dict, setups: list[float]) -> dict:
    lat = [r["ms"] for r in main["ops"]]
    return {
        "ops_per_s": metric(len(lat) / main["wall_s"], "1/s"),
        "op_p50_ms": metric(statistics.median(lat), "ms"),
        "op_p90_ms": metric(statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(main["peak_rss_kb"] / 1024.0, "MB"),
    }


def span_tables(spans: list) -> tuple[dict, dict]:
    """Self time per span id, and the op root span id of every span (None outside ops)."""
    by_id = {s[0]: s for s in spans}
    self_s = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] is not None:
            self_s[s[1]] -= s[4] - s[3]
    root = {}
    for s in spans:
        r = s
        while r[1] is not None:
            r = by_id[r[1]]
        root[s[0]] = r[0] if r[2].startswith("op.") else None
    return self_s, root


def count_kinds(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in records:
        counts[r["outcome"]] = counts.get(r["outcome"], 0) + 1
    return counts


def per_layer(main: dict, setup_spans: list[list], fail_counts: dict, sweep_counts: dict) -> dict:
    """Per-layer metrics of a traced run; a layer or function never called reads 0."""
    spans = main["spans"]
    self_s, root = span_tables(spans)
    op_spans = [s for s in spans if s[2].startswith("op.")]
    n_ops = max(1, len(op_spans))
    op_time = sum(s[4] - s[3] for s in op_spans) or 1.0
    out: dict = {}
    for layer in LAYERS:
        mine = [s for s in spans if root[s[0]] is not None and s[2].split(".", 1)[0] == layer]
        busy = sum(self_s[s[0]] for s in mine)
        out[f"{layer}.self_ms"] = metric(busy * 1e3 / n_ops, "ms/op")
        out[f"{layer}.share"] = metric(busy / op_time, "ratio")
        out[f"{layer}.calls"] = metric(len(mine) / n_ops, "calls/op")
    durations: dict[str, list[float]] = {}
    for s in spans + setup_spans:
        durations.setdefault(s[2], []).append((s[4] - s[3]) * 1e3)
    for name in FUNCTIONS:
        d = durations.get(name)
        out[f"{name}_ms"] = metric(statistics.median(d) if d else 0.0, "ms")
    for name, unit in COUNTS:
        out[name] = metric(main["counts"].get(name, 0), unit)
    for name, key in RESIDUALS:
        out[name] = metric(main["residuals"].get(key, 0.0), "ratio")
    out["positivity.bochner_disagreements"] = metric(main["bochner_disagreements"], "count")
    out["bench.failed_op_frac"] = metric(sum(fail_counts.values()) / max(1, len(main["ops"])), "ratio")
    for kind in KNOWN_FAILURE_KINDS:  # failed ops of the run's one scale sweep
        out[f"bench.failed_{kind}"] = metric(sweep_counts.get(kind, 0), "count")
    timed = [r for r in main["ops"] if not r.get("probe")]
    traced = sum(r["traced"] for r in timed)
    untraced = len(timed) - traced
    ratio = 0.0
    if traced and untraced:
        ratio = (traced / main["traced_wall_s"]) / (untraced / main["untraced_wall_s"])
    out["trace.ops_per_s_ratio"] = metric(ratio, "ratio")
    return out


def grounding_lines(main: dict, setup_spans: list[list]) -> list[str]:
    """The I_4 per-call p50s of a rook4_maps traced run beside the ROADMAP Grounding note."""
    spans = main["spans"]
    by_id = {s[0]: s for s in spans}
    _, root = span_tables(spans)
    lines = ["grounding (ROADMAP Grounding note, I_4, target dim 2) vs this run's p50:"]
    for name, n, lo, hi in GROUNDING:
        if n is None:  # set-up calls: every set-up process of the run
            d = [s[4] - s[3] for s in spans + setup_spans if s[2] == name]
        else:
            d = [s[4] - s[3] for s in spans if s[2] == name
                 and root[s[0]] is not None and by_id[root[s[0]]][5].get("n") == n]
        if not d:
            continue
        p50 = statistics.median(d) * 1e3
        nearest = min(max(p50, lo), hi)
        note = f"{lo}" if lo == hi else f"{lo}-{hi}"
        lines.append(f"  {name:32s} note {note:>8s} ms   measured {p50:8.1f} ms "
                     f"(n={len(d)})   gap {100.0 * (p50 - nearest) / nearest:+.0f}%")
    return lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, one pass: checks the benchmark itself")
    args = p.parse_args()
    if not (ROOT / "src" / "semifourier" / "__init__.py").is_file():
        print(f"error: no semifourier sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        # set-ups before and after the main run, so that they sample more of the
        # host's slow and fast phases than a burst would
        n_setups = 2 if args.smoke else SETUP_RUNS
        before = (n_setups - 1) // 2
        setups = [run_worker(args, workdir, f"setup{i}", True) for i in range(before)]
        main_run = run_worker(args, workdir, "main", False)
        setups += [run_worker(args, workdir, f"setup{i}", True) for i in range(before, n_setups - 1)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = main_run["ops"]
    failures = [r for r in ops if r["outcome"] != "ok"]
    fail_counts = count_kinds(failures)
    sweep = main_run["sweep"]
    sweep_failures = [r for r in sweep if r["outcome"] != "ok"]
    sweep_counts = count_kinds(sweep_failures)
    unexpected = failures + [r for r in sweep_failures if not r["known"]]
    setup_times = [s["setup_s"] for s in setups] + [main_run["setup_s"]]
    setup_spans = [sp for s in setups for sp in s.get("spans", [])]

    print(f"semifourier benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' smoke' if args.smoke else ''}")
    print("env " + json.dumps(environment(main_run["env"]), sort_keys=True))
    print(f"ops {len(ops)} in {main_run['passes']} passes of {main_run['ops_per_pass']}, "
          f"wall {main_run['wall_s']:.2f} s; set-up samples {[round(t, 3) for t in setup_times]}")
    print(f"failed {len(failures)}/{len(ops)} ({len(failures) / max(1, len(ops)):.4f}) by kind "
          + json.dumps(fail_counts, sort_keys=True))
    if sweep:
        print(f"scale sweep (not counted as ops): failed {len(sweep_failures)}/{len(sweep)} by kind "
              + json.dumps(sweep_counts, sort_keys=True) + "; known defects (ROADMAP item 4): "
              + str(sum(r["known"] for r in sweep_failures)))
    if args.trace:
        metrics = per_layer(main_run, setup_spans, fail_counts, sweep_counts)
    else:
        metrics = end_to_end(main_run, setup_times)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace and args.workload == "rook4_maps" and not args.smoke:
        print("\n".join(grounding_lines(main_run, setup_spans)))
    for r in unexpected[:20]:
        print(f"CORRECTNESS GATE BREACH: {r['kind']} {r['attrs']}: {r['outcome']}: {r['detail']}",
              file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
