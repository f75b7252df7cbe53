"""Run bench/run.py on a git revision and on the working tree in alternating
pairs, and write the runs and their summary to BENCH_<name>.json.

    python3 scripts/bench_pairs.py --rev HEAD --name colorkernels --seed 23 \\
        --seconds 20 --workload ladder-color=10 --workload scan-stream=3

Run from anywhere inside the repository.  The revision ("parent") is
extracted with ``git archive`` into a temporary directory, so no worktree
is made and nothing under .git is written; the working tree is the
"change".  Each ``--workload NAME=PAIRS`` runs PAIRS pairs, one run at a
time with ``--trace 0``: even pairs run the parent first, odd pairs the
change.  Each run's ``env.git_sha`` names its side: the parent's commit, or
for the change HEAD's commit plus the sha256 of ``git diff --binary HEAD --
src bench``, the code the runs use (once committed, the same hash comes from
``git diff --binary PARENT COMMIT -- src bench``).  For every metric the summary gives each side's quartiles
(q1, median, q3, inclusive method), the change's median over the parent's,
and in how many pairs the change read better, ties counting for neither;
which direction is better comes from BENCHMARK.json.  A metric with a
bound in BENCHMARK.json also gets a verdict (see ``verdict``).  The file
also records each side's line count of src/**/*.py (``src_lines``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shlex
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload and metric: both sides' quartiles, the ratio of the
    medians, the change's wins over the pairs and, for a metric in bounds,
    its verdict; plus failures per side.  A run is {"side", "workload",
    "pair", "result"}, result being the last line bench/run.py printed."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs: dict[int, dict[str, dict]] = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        row: dict = {}
        for metric in dict.fromkeys(m for r in mine for m in r["result"]["metrics"]):
            sides = {side: [r["result"]["metrics"][metric]["value"] for r in mine
                            if r["side"] == side and metric in r["result"]["metrics"]]
                     for side in ("parent", "change")}
            entry = {side: _quartiles(vals) for side, vals in sides.items()}
            base = entry["parent"]["median"]
            entry["change_over_parent"] = \
                entry["change"]["median"] / base if base else None
            whole = [p for p in pairs.values() if len(p) == 2
                     and all(metric in p[s]["metrics"] for s in p)]
            wins = sum(_better(better.get(metric, "lower"),
                               p["change"]["metrics"][metric]["value"],
                               p["parent"]["metrics"][metric]["value"])
                       for p in whole)
            entry["change_wins"] = f"{wins}/{len(whole)}"
            if metric in (bounds or {}) and all(sides.values()):
                entry["verdict"] = verdict(entry, better.get(metric, "lower"),
                                           bounds[metric], wins, len(whole))
            row[metric] = entry
        row["failed"] = {side: sum(r["result"]["failed"] for r in mine
                                   if r["side"] == side)
                         for side in ("parent", "change")}
        row["correct"] = all(r["result"]["correct"] for r in mine)
        out[workload] = row
    return out


def verdict(entry: dict, direction: str, bound: float, wins: int,
            pairs: int) -> str:
    """"gain" when of at least ten pairs the change wins at least 9 in 10
    and the medians lie further apart, its way, than the parent's q3 - q1;
    "worse" when the change's median is worse than the parent's by more
    than the bound, a fraction of the parent's median; "unresolved" when
    the parent's q3 - q1 is wider than that bound and the change did not
    win every pair; else "within bound"."""
    parent, change = entry["parent"], entry["change"]
    sign = 1 if direction == "higher" else -1
    ahead = sign * (change["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if pairs >= 10 and 10 * wins >= 9 * pairs and ahead > spread:
        return "gain"
    if -ahead > bound * abs(parent["median"]):
        return "worse"
    if spread > bound * abs(parent["median"]) and wins < pairs:
        return "unresolved"
    return "within bound"


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"q1": v, "median": v, "q3": v, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _better(direction: str, change: float, parent: float) -> bool:
    return change > parent if direction == "higher" else change < parent


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    return {m["name"]: m["better"]
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def bounds(benchmark: dict) -> dict[str, float]:
    """Metric name -> bound, for the metrics BENCHMARK.json bounds."""
    return {m["name"]: m["bound"]
            for m in benchmark["end_to_end"] + benchmark["per_layer"]
            if "bound" in m}


def host(env: dict) -> str:
    return f"{env['cpu']}, {env['nproc']} CPUs, Python {env['python']}"


def working_tree() -> str:
    """HEAD's commit and the sha256 of the working tree's diff against it
    under src/ and bench/."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    diff = subprocess.run(["git", "diff", "--binary", "HEAD", "--", "src",
                           "bench"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    return f"{head}+src-bench-diff-sha256:{hashlib.sha256(diff).hexdigest()}"


def src_lines(tree: Path) -> int:
    """Lines of src/**/*.py under the tree, counted as wc -l does."""
    return sum(f.read_bytes().count(b"\n")
               for f in (tree / "src").rglob("*.py"))


def exit_on_sigterm(signum, frame):
    """A SIGTERM handler that exits as sys.exit does: `with` blocks unwind,
    so a temporary directory is removed and subprocess.run kills its
    child."""
    raise SystemExit(128 + signum)


def extract(rev: str, into: Path) -> str:
    """Unpack the files of rev into the directory; return its commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as f:
        f.extractall(into, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, dict]:
    """One bench/run.py run in the tree: its last two lines, the run's
    environment with the units done, and the result."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    head, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(head), json.loads(result)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", required=True, help="the parent revision")
    ap.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME=PAIRS")
    ap.add_argument("--note", default="", help="free text kept in the file")
    args = ap.parse_args(argv)
    plan = []
    for spec in args.workload:
        name, _, count = spec.partition("=")
        if not count.isdigit():
            ap.error(f"--workload {spec}: expected NAME=PAIRS")
        plan.append((name, int(count)))

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = directions(benchmark)
    runs: list[dict] = []
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    with tempfile.TemporaryDirectory() as tmp:
        sha = extract(args.rev, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        shas = {"parent": sha, "change": working_tree()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for workload, count in plan:
            for pair in range(count):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    head, result = run_once(trees[side], workload, args.seed,
                                            args.seconds)
                    head["env"]["git_sha"] = shas[side]
                    runs.append({"side": side, "workload": workload,
                                 "pair": pair, "seed": args.seed, **head,
                                 "result": result})
                    print(side, workload, pair, json.dumps(result["metrics"]),
                          file=sys.stderr)
    doc = {
        "what": f"bench/run.py on {args.rev} ({sha}) as parent and on the "
                f"working tree ({shas['change']}) as change, one run at a "
                "time, alternating which side runs first in each pair",
        "command": shlex.join(["python3", "scripts/bench_pairs.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "note": args.note,
        "host": host(runs[0]["env"]) if runs else None,
        "src_lines": lines,
        "summary": summarize(runs, better, bounds(benchmark)),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
