#!/usr/bin/env python3
"""quartint benchmark: cold CLI runs end to end, and a traced run per layer.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's invocation list runs again and again, each
invocation a cold ``python -m quartint.cli`` process, for the number of whole
passes that comes nearest to ``--seconds``; wall, CPU and peak RSS are the
medians over the passes.
Set-up time is the median of several cold ``quartint coeffs --m 0`` runs.
With ``--trace 1`` the traced run in ``traced.py`` reports the per-layer
metrics instead.  Either way every output is checked against the oracle and
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record goes to
``.perfbench_out/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
import workloads

# A run must end within 180 s; no pass starts that could not end before this.
RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 9
SETUP_ARGS = ("coeffs", "--m", "0")
SETUP_EXPECTED = "1"


def measure_setup(deadline: float) -> list[float]:
    """Median-ready samples of a cold start, after one discarded warm-up that
    compiles the ``.pyc`` files."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        res = harness.run_cold(SETUP_ARGS, timeout=deadline - time.perf_counter())
        if res.returncode != 0 or res.stdout.strip() != SETUP_EXPECTED:
            raise SystemExit(
                f"perfbench: `quartint {' '.join(SETUP_ARGS)}` gave exit {res.returncode}, "
                f"output {res.stdout.strip()!r}: {res.stderr.strip()}"
            )
        if i:
            samples.append(res.wall_s)
    return samples


def run_pass(invs, deadline: float) -> tuple[float, list[harness.ColdResult]]:
    start = time.perf_counter()
    results = [harness.run_cold(inv.args, timeout=deadline - time.perf_counter()) for inv in invs]
    return time.perf_counter() - start, results


def untraced_run(workload: str, seed: int, seconds: int, oracle: dict, deadline: float) -> dict:
    setup = measure_setup(deadline)
    invs = workloads.invocations(workload, seed)
    tally, passes = workloads.Tally(), []
    window = time.perf_counter()
    while True:
        wall, results = run_pass(invs, deadline)
        passes.append(
            {
                "wall_s": wall,
                "cpu_s": sum(r.cpu_s for r in results),
                "peak_rss_mb": max(r.peak_rss_mb for r in results),
                "invocations": [[inv.key, r.returncode, r.wall_s, r.cpu_s] for inv, r in zip(invs, results)],
            }
        )
        for inv, r in zip(invs, results):
            tally.add(inv, workloads.check(inv, r.returncode, r.stdout, oracle))
        # Whole passes only: stop at the count whose total is nearest to
        # --seconds, and never start one that could overrun the deadline.
        typical = statistics.median(p["wall_s"] for p in passes)
        now = time.perf_counter()
        if now - window + typical / 2 > seconds or now + 1.5 * typical > deadline:
            break

    def median_of(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    metrics = {
        "wall_s": (median_of("wall_s"), "s"),
        "cpu_s": (median_of("cpu_s"), "s"),
        "peak_rss_mb": (median_of("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {"error_rate": (tally.failed / tally.attempted, "ratio")}
    detail = {"passes": passes, "setup_samples_s": setup}
    return {"tally": tally, "metrics": metrics, "extra": extra, "detail": detail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    harness.require_program()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    meta = harness.run_meta(args.workload, args.seed, args.seconds, args.trace)
    oracle = workloads.load_oracle()
    if args.trace:
        import traced

        run = traced.traced_run(args.seed, oracle, deadline)
    else:
        run = untraced_run(args.workload, args.seed, args.seconds, oracle, deadline)

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(run["metrics"]) != declared:
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {sorted(declared ^ set(run['metrics']))}")

    tally: workloads.Tally = run["tally"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    record = {
        "meta": meta,
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in run["extra"].items()},
        "notes": tally.note_lines(),
        "detail": run["detail"],
    }
    results_dir = harness.OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = meta["started"].replace(":", "").replace("-", "")[:15]
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={meta['python']} nproc={meta['nproc']} load={meta['loadavg_at_start'][0]:.2f} "
        f"git={meta['git_sha'] or 'none'} src={meta['source_sha256'][:12]}"
    )
    for name, (value, unit) in {**run["metrics"], **run["extra"]}.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for note in tally.note_lines():
        print(f"  {note}")
    print(f"  record: {path.relative_to(harness.ROOT)}")
    print(
        json.dumps(
            {"correct": record["correct"], "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
