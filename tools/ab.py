"""A/B benchmark of the working tree against a parent revision, in pairs.

    python3 tools/ab.py --parent HEAD~1 --workload pipeline --pairs 10 --seconds 10

The change is the tree this script lives in, as it stands on disk.  The
parent revision is checked out with ``git worktree add`` into a temporary
directory, which is removed afterwards.  Each pair runs both trees' own
``bench/run.py`` with one fresh seed: the parent first in odd pairs, the
change first in even ones, so that drift of the host falls on both sides
alike.  The summary is written to ``BENCH_<workload>.json`` at the root of
the change.  For each metric it holds the median and quartiles of both
sides, the parent's IQR and the change's wins out of the pairs
(``BENCHMARK.json`` says which direction is better).  It also holds every
run's seed, ``correct``, ``failed`` and host line.  A run that reports
``correct: false`` fails the tool (exit 1), and no file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


class ABError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def run_bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run of ``tree``: its host line, its verdict and
    its metrics' values."""
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ABError(f"{tree}: bench/run.py seed {seed} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "host": lines[0],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """The summary of ``pairs``, each {"parent": run, "change": run}: per
    metric, both sides' quartiles, the parent's IQR and the change's wins,
    where ``better[name]`` is "lower" (the default) or "higher".  Raises
    ABError if any run reports ``correct: false``."""
    for i, pair in enumerate(pairs, 1):
        for side in SIDES:
            if not pair[side]["correct"]:
                raise ABError(f"pair {i}: the {side} run (seed {pair[side]['seed']}) "
                              "reports correct: false")
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        summary = {}
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            summary[side] = {"median": median, "q1": q1, "q3": q3}
        parent_iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
        shift = summary["change"]["median"] - summary["parent"]["median"]
        metrics[name] = {
            "better": better.get(name, "lower"),
            **summary,
            "parent_iqr": parent_iqr,
            "median_change": shift,
            "beyond_parent_iqr": abs(shift) > parent_iqr,
            "wins": sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"])),
        }
    return {"pairs": len(pairs), "metrics": metrics}


def better_directions(root: str) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    rev = subprocess.run(["git", "rev-parse", "--verify", f"{args.parent}^{{commit}}"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    trees = {"change": ROOT}
    base = random.SystemRandom().randrange(1, 1_000_000)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as tmp:
        trees["parent"] = os.path.join(tmp, "tree")
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", trees["parent"], rev],
                       cwd=ROOT, check=True)
        try:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]  # pair 1 (i = 0): parent first
                pair = {}
                for side in order:
                    pair[side] = run_bench(trees[side], args.workload, base + i, args.seconds)
                    print(f"pair {i + 1} {side}: {json.dumps(pair[side]['metrics'])}",
                          file=sys.stderr)
                pairs.append(pair)
        except ABError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 1
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", trees["parent"]],
                           cwd=ROOT, check=False)
    try:
        summary = summarize(pairs, better_directions(ROOT))
    except ABError as exc:
        print(f"ab: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "parent": rev,
        "seconds": args.seconds,
        "host": pairs[0]["change"]["host"],
        **summary,
        "runs": pairs,
    }
    out = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, m in summary["metrics"].items():
        print(f"{name:14s} parent {m['parent']['median']:.4f} change {m['change']['median']:.4f} "
              f"(parent IQR {m['parent_iqr']:.4f}), change better in {m['wins']}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
