"""Compare the CLI reports of two revisions byte by byte.

    python3 tools/cli_reports.py --base REV --head REV [--seeds 0,7919]

Run from the repository root.  Each revision is exported with `git archive`
into its own new directory (as `tools/bench_pairs.py` does), and every
command of the benchmark's `cli_verbs` workload, as listed by `CliVerbs.argvs`
in the head's `perfbench/workloads.py`, runs in both trees as
`python -m semifourier.cli --seed S ...`.  Each command whose stdout, stderr
or exit code differs is printed with a diff of its two reports and, when both
stdouts are JSON reports of one layout, the largest change of a float in
their results, in units in the last place (ulp) of the base result's largest
float ([re, im] parts count apart).  Exits 1 if any report differs, else 0.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

RUN_TIMEOUT_S = 300
DIFF_LINES = 40


def cli_verbs(head: Path):
    """The head's cli_verbs workload class, imported from its own tree."""
    sys.path[:0] = [str(head / "perfbench"), str(head / "src")]
    from workloads import CliVerbs

    return CliVerbs


def report(tree: Path, cli_seed: int, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-m", "semifourier.cli", "--seed", str(cli_seed)] + argv
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def show_diff(base: tuple, head: tuple) -> None:
    if base[0] != head[0]:
        print(f"  exit code: base {base[0]}, head {head[0]}")
    for name, a, b in (("stdout", base[1], head[1]), ("stderr", base[2], head[2])):
        if a != b:
            lines = list(difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                              b.decode(errors="replace").splitlines(),
                                              f"base {name}", f"head {name}", lineterm=""))
            print("\n".join("  " + line for line in lines[:DIFF_LINES]))
            if len(lines) > DIFF_LINES:
                print(f"  ... {len(lines) - DIFF_LINES} more diff lines")


def floats(obj, path=()):
    """(path, value) of every float in a parsed JSON value, in key order; ints, bools
    and strings are skipped, so dimensions and offsets do not count as entries."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from floats(obj[key], path + (key,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from floats(v, path + (i,))
    elif isinstance(obj, float):
        yield path, obj


def ulp_movement(base: bytes, head: bytes) -> str | None:
    """The largest float change between two JSON reports' results in ulps of the
    base result's largest float, or None when either is not JSON or the layouts differ."""
    try:
        a, b = (list(floats(json.loads(out)["result"])) for out in (base, head))
    except (ValueError, KeyError, TypeError):
        return None
    if [p for p, _ in a] != [p for p, _ in b]:
        return None
    largest = max((abs(x) for _, x in a), default=0.0)
    change = max((abs(x - y) for (_, x), (_, y) in zip(a, b)), default=0.0)
    return (f"largest float change {change:.3g} = {change / math.ulp(largest):.3g} ulp "
            f"of the largest float {largest:.6g}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--head", required=True, help="git revision of the change")
    p.add_argument("--seeds", default="0", help="comma-separated benchmark seeds")
    args = p.parse_args()

    into = Path(tempfile.mkdtemp(prefix="cli-reports-"))
    try:
        trees = {"base": export(args.base, into), "head": export(args.head, into)}
        workload = cli_verbs(trees["head"])
        total = differ = 0
        for seed in (int(s) for s in args.seeds.split(",")):
            verbs = workload(None, seed, False, trees["head"], into, 0.0)
            cli_seed = verbs.cli_seed
            for argv in verbs.argvs():
                base = report(trees["base"], cli_seed, argv)
                head = report(trees["head"], cli_seed, argv)
                total += 1
                if base != head:
                    differ += 1
                    print(f"DIFFERS --seed {cli_seed} {' '.join(argv)}", flush=True)
                    movement = ulp_movement(base[1], head[1])
                    print(f"  {movement or 'reports are not JSON results of one layout'}")
                    show_diff(base, head)
        print(f"{total - differ} of {total} CLI reports byte-identical, {differ} differ")
        return 1 if differ else 0
    finally:
        shutil.rmtree(into, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
