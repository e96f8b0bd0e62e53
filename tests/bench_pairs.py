"""Run the benchmark on two revisions in alternating pairs and compare them.

Run from inside the repository's git work tree:

    python tests/bench_pairs.py PARENT CHANGE --workload gate_inline --pairs 5 \\
        --seconds 6 --seed 1

Each revision is copied with ``git archive`` into a temporary directory and
byte-compiled, and each copy runs its own ``perfbench/run.py --workload W
--trace 0``.  Pair ``i`` runs both copies on seed ``S0 + i``; the copy that
goes first alternates from pair to pair.  The JSON printed holds the
revisions, the Python version, ``nproc``, ``/proc/loadavg`` before and
after, every run's metrics and, per end-to-end metric of ``BENCHMARK.json``
(read, never written): both medians and quartiles, the pairs the change
won, whether the gap in the medians passes the parent's interquartile range
in the better direction, and whether the change's median stays inside the
metric's bound of the parent's.  The exit code is 1 when any run is not
``correct``.  pytest does not collect this file.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _checkout(rev: str, dest: Path) -> None:
    """A fresh copy of rev's committed files, byte-compiled."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    compileall.compile_dir(dest, quiet=1)


def _run(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run of a copy: its last JSON line, or not correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"] and proc.returncode == 0, "failed": result["failed"],
            "attempted": result["attempted"], "metrics": metrics}


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3


def compare(runs: list, metrics: list) -> dict:
    """Per end-to-end metric of BENCHMARK.json: the two sides' medians and
    quartiles, the pairs the change won, and the two tests of the gap."""
    table = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(run["parent"]["metrics"][name], run["change"]["metrics"][name])
                 for run in runs if name in run["parent"].get("metrics", {})
                 and name in run["change"].get("metrics", {})]
        if not pairs:
            continue
        parent, change = ([pair[k] for pair in pairs] for k in (0, 1))
        q_parent, q_change = _quartiles(parent), _quartiles(change)
        gain = (q_parent[1] - q_change[1]) if lower else (q_change[1] - q_parent[1])
        # The bound is a share of the parent's median that the change may lose.
        table[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent_median": q_parent[1], "change_median": q_change[1],
            "parent_quartiles": q_parent, "change_quartiles": q_change,
            "pairs": len(pairs),
            "pairs_won": sum(c < p if lower else c > p for p, c in pairs),
            "gap_beats_parent_iqr": gain > q_parent[2] - q_parent[0],
            "within_bound": -gain <= spec["bound"] * abs(q_parent[1]),
        }
    return table


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision compared against")
    parser.add_argument("change", help="the revision measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--seed", type=int, default=1, help="pair i runs seed SEED + i")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in zip(SIDES, (args.parent, args.change))}
    # Both sides get the same environment, and neither the caller's package.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    report = {
        "revisions": {side: {"rev": rev, "commit": commits[side]}
                      for side, rev in zip(SIDES, (args.parent, args.change))},
        "workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
        "seed": args.seed, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_before": _loadavg(),
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _checkout(commits[side], trees[side])
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                run[side] = _run(trees[side], args.workload, seed, args.seconds, env)
            runs.append(run)
    report["loadavg_after"] = _loadavg()
    report["correct"] = all(run[side]["correct"] for run in runs for side in SIDES)
    report["metrics"] = compare(runs, spec["end_to_end"])
    report["runs"] = runs
    print(json.dumps(report, indent=1))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
