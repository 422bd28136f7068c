#!/usr/bin/env python3
"""Before-and-after numbers for two commits: process start-up, the exact
kernels and the benchmark's workloads, run as alternating pairs.

    python3 scripts/bench_pairs.py PARENT_REV CHANGE_REV --out BENCH_N.json

Each revision is exported with ``git archive`` into its own directory, so
both sides run the same way from a clean tree.  Then, for each side in
turn (the side that goes first alternates from one pair to the next):

- start-up: ``STARTUP_RUNS`` fresh interpreters that time
  ``import quartint.cli`` in process and count the modules it loads (the
  cold start-up of a whole CLI process is the ``setup_s`` of every
  workload record below);
- kernels: ``PAIRS`` fresh interpreters, each of which runs each kernel of
  ``KERNEL_PROBE`` ``KERNEL_RUNS`` times in process and keeps the median;
- workloads: ``PAIRS`` runs of ``perfbench/run.py --trace 0`` per
  workload, each with its own seed and the ``run_seconds`` that
  ``BENCHMARK.json`` sets.

The output file holds the medians and quartiles of each side, the number
of pairs the change won, the per-invocation medians and every run's
metrics; the quartiles are those of ``perfbench/compare.py``.  Run it from
the root of a checkout; it uses only the standard library.
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
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from compare import BENCHMARK, quartiles  # noqa: E402

STARTUP_RUNS = 21
PAIRS = 10  # the fewest pairs that can show a gain (9 of 10 must win)
SECONDS = json.loads(BENCHMARK.read_text())["run_seconds"]
WORKLOADS = ("conjecture-scans", "verify-all", "row-sweeps")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
SIDES = ("parent", "change")

# Times ``import quartint.cli`` in a fresh interpreter.  json is imported
# after the timing, so the probe does not load part of what it measures.
IMPORT_PROBE = """
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import quartint.cli
elapsed = time.perf_counter() - start
new = sorted(set(sys.modules) - before)
import json
print(json.dumps({"import_s": elapsed, "modules": new}))
"""

# Times the exact kernels in process: the median of KERNEL_RUNS runs of each.
# The cached kernels start cold on every run, the chain with cold rows too,
# since it reads its right-hand sums off them.  "T(1..N) as the sweeps read
# it" is what t-bounds, t-monotone and limit-gap read: T stepped by the
# recurrence (recurrence.t_stepped, with its direct-sum seeds and
# checkpoints), or the direct sum in a tree that has no stepped T.  The
# hypineq margins are the 931 points of a conjecture-scans pass (m <= 50, the
# grid of offset 5/8), with the per-m margin polynomials cold in a tree that
# caches them.  The chain and "S and chain sums as verify --all reads them"
# start with the left sums of S cold in a tree that keeps them per row; the
# latter runs the chain and then the s-monotone witness on the same rows.
# "left_sums(2..150) as s-monotone reads them" is that witness alone over
# cold rows, the sweep of verify --property s-monotone --max-m 150.  The
# binomial-pair-bound and i-logconcave kernels are those records' witnesses
# at verify --all's ranges; i-logconcave reads rows made before its timer
# starts (WARM), as in verify --all, where the row suites have made them.
# The depth-7 i-logconcave kernel is the same witness over rows m <= 60, the
# sweep of scan ilogconcave --max-m 60 --depth 7.
KERNEL_RUNS = 3
KERNEL_PROBE = f"""
import json, statistics, time
from fractions import Fraction
from quartint import coefficients, conjectures, hypergeometric, recurrence, suites, tfunction

def cold_rows():
    coefficients._scaled_row.cache_clear()
    for cache in ("left_sums", "_chain_binomials"):
        getattr(getattr(tfunction, cache, None), "cache_clear", lambda: None)()

def t_direct_1_501():
    tfunction.t_direct.cache_clear()
    return [tfunction.t_direct(m) for m in range(1, 502)]

def t_as_the_sweeps_read_it(top):
    tfunction.t_direct.cache_clear()
    t = getattr(recurrence, "t_stepped", tfunction.t_direct)
    if t is not tfunction.t_direct:
        recurrence._stepped.clear()
    return [t(m) for m in range(1, top + 1)]

def t_hypergeometric_1_100():
    getattr(tfunction.t_hypergeometric, "cache_clear", lambda: None)()
    return [tfunction.t_hypergeometric(m) for m in range(1, 101)]

def chain_150():
    cold_rows()
    return [tfunction.inequality_chain_check(m, ell) for m in range(2, 151) for ell in range(m // 2)]

def s_and_chain_100():
    cold_rows()
    chain = [tfunction.inequality_chain_check(m, ell) for m in range(2, 101) for ell in range(m // 2)]
    return chain, [suites._s_monotone_witness(m) for m in range(2, 101)]

def s_monotone_150():
    cold_rows()
    return [suites._s_monotone_witness(m) for m in range(2, 151)]

def hypineq_margins_931():
    getattr(getattr(conjectures, "margin_polynomial", None), "cache_clear", lambda: None)()
    grid = [Fraction(5, 8) + Fraction(i, 4) for i in range(19)]
    return [conjectures.hyp_inequality_margin(m, x) for m in range(2, 51) for x in grid]

kernels = {{
    "t_integral(1..100)": lambda: [tfunction.t_integral(m) for m in range(1, 101)],
    "t_via_w(1..100)": lambda: [tfunction.t_via_w(m) for m in range(1, 101)],
    "t_hypergeometric(1..100)": t_hypergeometric_1_100,
    "t_integral(2000)": lambda: tfunction.t_integral(2000),
    "t_direct(1..501)": t_direct_1_501,
    "T(1..501) as the sweeps read it": lambda: t_as_the_sweeps_read_it(501),
    "T(1..2001) as the sweeps read it": lambda: t_as_the_sweeps_read_it(2001),
    "inequality_chain_check(m <= 150)": chain_150,
    "S and chain sums as verify --all reads them (m <= 100)": s_and_chain_100,
    "left_sums(2..150) as s-monotone reads them": s_monotone_150,
    "i-logconcave witness, rows m <= 60, depth 7": lambda: [suites._ilogconcave_witness(m, 7) for m in range(61)],
    "series_coefficients(1, -801, -3200)": lambda: hypergeometric.series_coefficients(1, -801, -3200),
    "hyp_inequality_margin(931 scan points)": hypineq_margins_931,
    "geometric_tail_bound(2..2000)": lambda: [tfunction.geometric_tail_bound(m) for m in range(2, 2001)],
    "binomial-pair-bound, m <= 120": lambda: [suites._pair_witness(m) for m in range(1, 121)],
    "i-logconcave, rows m <= 100, depth 3": lambda: [suites._ilogconcave_witness(m, 3) for m in range(101)],
}}
WARM = {{"i-logconcave, rows m <= 100, depth 3": lambda: [coefficients.scaled_row(m) for m in range(101)]}}
medians = {{}}
for name, kernel in kernels.items():
    times = []
    for _ in range({KERNEL_RUNS}):
        WARM.get(name, lambda: None)()
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    medians[name] = statistics.median(times)
print(json.dumps(medians))
"""


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; return its full commit id."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")
    return subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True, check=True).stdout.strip()


def pinned_env(tree: Path) -> dict[str, str]:
    """The environment perfbench gives every CLI process."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(tree / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C",
    }


def probe(tree: Path, code: str) -> dict:
    """The JSON that ``code`` prints, run in a fresh interpreter on ``tree``."""
    done = subprocess.run(
        [sys.executable, "-c", code], env=pinned_env(tree), cwd=tree, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def perfbench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run; its full record from .perfbench_out."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} failed:\n{done.stderr}")
    path = next(line.split("record:", 1)[1].strip() for line in done.stdout.splitlines() if "record:" in line)
    return json.loads((tree / path).read_text())


def orders(pairs: int):
    """The sides of each pair in run order: odd pairs run the change first."""
    for i in range(pairs):
        yield i, SIDES[::-1] if i % 2 else SIDES


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides' median and quartiles, the relative change of the median,
    and the number of pairs (paired by run order) that the change won."""
    summary = {}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(values)
        summary |= {f"{side}_median": median, f"{side}_q1": q1, f"{side}_q3": q3}
    summary["change_vs_parent"] = summary["change_median"] / summary["parent_median"] - 1
    summary["pairs_change_better"] = sum(c < p for p, c in zip(parent, change))
    summary["median_gain_exceeds_parent_iqr"] = (
        summary["parent_median"] - summary["change_median"] > summary["parent_q3"] - summary["parent_q1"]
    )
    return summary


def command(args: argparse.Namespace) -> str:
    """The command line that gives these numbers; --out and --workdir only
    say where files go, so they are left out."""
    return (
        f"python3 scripts/bench_pairs.py {args.parent_rev} {args.change_rev} --out FILE "
        f"--first-seed {args.first_seed} --workloads {' '.join(args.workloads)}"
    )


def host() -> str:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return f"{model or platform.machine()}, {len(os.sched_getaffinity(0))} CPUs, Python {platform.python_version()}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--workdir", type=Path, default=None, help="where the two trees go (default: a temp dir)")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir))
    try:
        trees = {side: work / side for side in SIDES}
        commits = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent_rev, args.change_rev))}
        result = {
            "what": f"scripts/bench_pairs.py {args.parent_rev} {args.change_rev}: the import of quartint.cli, "
            f"the exact kernels and the perfbench workloads of both commits, as alternating pairs",
            "command": command(args),
            "host": host(),
            "loadavg_at_start": list(os.getloadavg()),
            "commits": commits,
        }

        # start-up: one discarded probe per side writes the .pyc files
        for side in SIDES:
            probe(trees[side], IMPORT_PROBE)
        inproc, modules = defaultdict(list), {}
        for _, order in orders(STARTUP_RUNS):
            for side in order:
                imported = probe(trees[side], IMPORT_PROBE)
                inproc[side].append(imported["import_s"])
                modules[side] = imported["modules"]
        result["startup"] = {
            "runs": STARTUP_RUNS,
            "import_quartint_cli_s": compare(inproc["parent"], inproc["change"]),
            "modules_loaded_by_import": {side: len(modules[side]) for side in SIDES},
            "modules_only_at_parent": sorted(set(modules["parent"]) - set(modules["change"])),
            "modules_only_at_change": sorted(set(modules["change"]) - set(modules["parent"])),
        }

        kernels = defaultdict(lambda: defaultdict(list))
        for _, order in orders(PAIRS):
            for side in order:
                for name, seconds in probe(trees[side], KERNEL_PROBE).items():
                    kernels[name][side].append(seconds)
        result["kernels"] = {
            "pairs": PAIRS,
            "runs_per_interpreter": KERNEL_RUNS,
            **{name: compare(times["parent"], times["change"]) for name, times in kernels.items()},
        }

        seed = args.first_seed
        result["workloads"], result["records"] = {}, defaultdict(list)
        for workload in args.workloads:
            runs = defaultdict(list)
            for i, order in orders(PAIRS):
                for side in order:
                    record = perfbench_run(trees[side], workload, seed + i, SECONDS)
                    runs[side].append(record)
                    result["records"][workload].append(
                        {"side": side, "seed": seed + i, "correct": record["correct"],
                         "attempted": record["attempted"], "failed": record["failed"],
                         **{m: record["metrics"][m]["value"] for m in METRICS}}
                    )
                    print(f"{workload} pair {i} {side}: wall_s {record['metrics']['wall_s']['value']:.3f}", file=sys.stderr)
            summary = {"seeds": list(range(seed, seed + PAIRS)), "seconds": SECONDS}
            for metric in METRICS:
                summary[metric] = compare(*([r["metrics"][metric]["value"] for r in runs[side]] for side in SIDES))
            summary["correct"] = all(r["correct"] for side in SIDES for r in runs[side])
            summary["failed"] = sum(r["failed"] for side in SIDES for r in runs[side])
            summary["invocation_wall_s_median"] = {}
            for side in SIDES:
                walls = defaultdict(list)
                for record in runs[side]:
                    for p in record["detail"]["passes"]:
                        for key, _, wall, _ in p["invocations"]:
                            walls[key].append(wall)
                summary["invocation_wall_s_median"][side] = {k: statistics.median(v) for k, v in sorted(walls.items())}
            result["workloads"][workload] = summary
            seed += PAIRS
    finally:
        shutil.rmtree(work)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
