"""Run the benchmark on two revisions in alternating pairs and summarise them.

    python3 tools/bench_pairs.py --base REV --head REV --seeds 7919,1,2,3,4,5,6,7,8,9 \
        --seconds 36 --out BENCH_N.json

Run from the repository root.  Each revision is exported with `git archive`
into its own new directory and `perfbench/run.py` runs there, so only
committed files take part.  Pair i runs every workload with the i-th seed on
both sides; the base goes first in even pairs and the head first in odd
ones, so a drift in the host's speed falls on both sides alike.

With `--trace 0` the output keeps the end-to-end metrics of every run and,
per workload and metric, each side's median and quartiles, the head/base
ratio of the medians and the pairs the head won (ties count for neither
side; "better" comes from the base's BENCHMARK.json).  `beyond_bound` marks
a metric whose head median is worse than the base median by more than that
metric's relative `bound` in the base's BENCHMARK.json; such metrics are
listed again at the end of the run.  With `--trace 1` it keeps the
per-layer metrics of every run and their medians per side.  The output file
is rewritten after every run, so an interrupted session keeps what it
measured.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("rook4_maps", "channels", "cli_verbs")
RUN_TIMEOUT_S = 1200


def export(rev: str, into: Path) -> Path:
    """Extract the tree of rev into a new directory under into."""
    dest = Path(tempfile.mkdtemp(prefix="rev-", dir=into))
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout), mode="r:") as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return {"exit": proc.returncode, "env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def beyond_bound(base: float, head: float, better: str, bound: float) -> bool:
    """Whether head is worse than base by more than bound, relative to base."""
    worse = (head - base) if better == "lower" else (base - head)
    return worse > bound * abs(base)


def summarise(runs: list[dict], spec: dict[str, dict], trace: int) -> dict:
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        sides: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                sides.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [(s["base"], s["head"]) for _, s in sorted(sides.items()) if len(s) == 2]
        if not pairs:
            continue
        table = {}
        for name in pairs[0][0]["metrics"]:
            base = [b["metrics"][name] for b, _ in pairs]
            head = [h["metrics"][name] for _, h in pairs]
            row = {"base": quartiles(base), "head": quartiles(head)}
            if row["base"]["median"]:
                row["head_over_base"] = row["head"]["median"] / row["base"]["median"]
            if not trace and name in spec:
                better = spec[name]["better"]
                sign = 1 if better == "higher" else -1
                row["better"] = better
                row["head_wins"] = sum(sign * (h - b) > 0 for b, h in zip(base, head))
                row["base_iqr_over_median"] = (row["base"]["q3"] - row["base"]["q1"]) / row["base"]["median"]
                row["beyond_bound"] = beyond_bound(row["base"]["median"], row["head"]["median"],
                                                   better, spec[name]["bound"])
            table[name] = row
        out[workload] = {
            "pairs": len(pairs),
            "seeds": [b["seed"] for b, _ in pairs],
            "failed_ops": {"base": sum(b["failed"] for b, _ in pairs),
                           "head": sum(h["failed"] for _, h in pairs)},
            "all_correct": all(b["correct"] and h["correct"] for b, h in pairs),
            "metrics": table,
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", required=True, help="git revision of the change")
    p.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workdir", default=None, help="where the exported trees go (default: system temp)")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    into = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    try:
        return measure(args, seeds, workloads, into)
    finally:
        shutil.rmtree(into, ignore_errors=True)


def measure(args, seeds: list[int], workloads: list[str], into: Path) -> int:
    trees = {"base": export(args.base, into), "head": export(args.head, into)}
    revs = {side: subprocess.run(["git", "rev-parse", rev], check=True, capture_output=True,
                                 text=True).stdout.strip()
            for side, rev in (("base", args.base), ("head", args.head))}
    spec = {m["name"]: m for m in json.loads((trees["base"] / "BENCHMARK.json").read_text())["end_to_end"]}

    runs: list[dict] = []
    for i, seed in enumerate(seeds):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                r = run_once(trees[side], workload, seed, args.seconds, args.trace)
                runs.append({"pair": i, "seed": seed, "workload": workload, "side": side, **r})
                print(f"pair {i} seed {seed} {workload} {side}: exit {r['exit']} failed {r['failed']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in list(r["metrics"].items())[:5]), flush=True)
                report = {
                    "revisions": revs,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "seeds": seeds,
                    "host": runs[0]["env"],
                    "summary": summarise(runs, spec, args.trace),
                    "runs": [{k: v for k, v in x.items() if k != "env"} for x in runs],
                }
                Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, w in report["summary"].items():
        for name, row in w["metrics"].items():
            if row.get("beyond_bound"):
                print(f"BEYOND BOUND {workload} {name}: head median {row['head']['median']:.4g} "
                      f"vs base {row['base']['median']:.4g} (bound {spec[name]['bound']})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
