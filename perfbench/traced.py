"""The traced run behind ``--trace 1``: per-layer metrics for all three
workloads.

1. Every invocation of every workload (drawn from the seed, with ``--jobs 1``)
   runs in this process through ``quartint.cli.main``, twice: untraced, then
   with the tracer installed.  The ``lru_cache``s are cleared before each
   call, so each one starts as cold as a new process.  The difference of
   the two wall times is ``trace.overhead_s``.
2. Kernels at fixed sizes are timed untraced, each on cold caches.
3. The ``row-sweeps`` list runs as cold processes with ``--jobs 2`` and with
   ``--jobs 1``; this gives ``suites.pool.*`` and checks that the serial and
   parallel reports are identical apart from ``config.jobs``.

``busy_s`` is self time: a span's duration less its child spans.  Three
entry points that only dispatch report their inclusive time instead:
``suites.run_suite.<property>`` (the suite's whole sweep),
``hypergeometric.hyp2f1`` (the series evaluation under it) and
``conjectures.hyp_inequality_margin`` (its four series).  Calls into
``exact`` and ``polynomial`` are counted, and their time is part of the
caller's.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
import types
from fractions import Fraction

import harness
import workloads
from tracer import SPAN_LAYERS, Stats, Tracer

SUITE_NAMES = (
    "delta-signs",
    "ilogconcave",
    "inequality-chain",
    "logconcave",
    "min-functional",
    "monotone-t",
    "ratio-monotone",
    "recurrence",
    "s-monotone",
    "t-bounds",
    "t-crosscheck",
    "unimodal",
)
PREDICATES = ("is_unimodal", "is_logconcave", "is_ratio_monotone", "is_i_logconcave")
GK15_NODES = 15
# Kernels faster than this are timed three times and the median kept.
SHORT_KERNEL_S = 0.25


def _call_main(cli, args: tuple[str, ...]) -> tuple[int, str]:
    """``quartint.cli.main`` in this process: exit code and stdout, as a cold
    process would end."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error ends a real process with exit 1
            rc = 1
    return rc, out.getvalue()


def _kernels(q) -> list[tuple[str, object]]:
    def l_power(row, depth):
        for _ in range(depth):
            row = q.seqprops.l_operator(row)
        return row

    def quadrature_case():
        try:
            q.quadrature.evaluate_quartic_integral(50, -0.9, 1e-12)
        except q.quadrature.QuadratureConvergenceError:
            pass

    grid = [Fraction(1, 2) + Fraction(i, 4) for i in range(19)]
    return [
        ("tfunction.t_direct.m500_s", lambda: q.tfunction.t_direct(500)),
        ("tfunction.t_direct.m2000_s", lambda: q.tfunction.t_direct(2000)),
        ("coefficients.scaled_row.m400_s", lambda: q.coefficients.scaled_row(400)),
        (
            "tfunction.inequality_chain_check.m200_s",
            lambda: [q.tfunction.inequality_chain_check(200, ell) for ell in range(100)],
        ),
        ("tfunction.s_sum.m400_s", lambda: [q.tfunction.s_sum(400, ell) for ell in range(200)]),
        ("seqprops.l_operator.row60_depth8_s", lambda: l_power(q.coefficients.coefficient_row(60).values, 8)),
        (
            "conjectures.hyp_inequality_margin.m80_s",
            lambda: [q.conjectures.hyp_inequality_margin(80, x) for x in grid],
        ),
        ("quadrature.m50_a-0.9_s", quadrature_case),
    ]


def traced_run(seed: int, oracle: dict, deadline: float) -> dict:
    sys.path.insert(0, str(harness.SRC))
    q = types.SimpleNamespace(
        **{
            name: importlib.import_module(f"quartint.{name}")
            for name in ("cli", "coefficients", "conjectures", "quadrature", "seqprops", "tfunction")
        }
    )
    # the cached originals; the tracer replaces the module attributes
    rows_cache, t_cache = q.coefficients._scaled_row, q.tfunction.t_direct

    def cold_caches():
        rows_cache.cache_clear()
        t_cache.cache_clear()

    tally = workloads.Tally()
    clock = time.perf_counter
    invs = [inv.with_jobs(1) for w in workloads.WORKLOADS for inv in workloads.invocations(w, seed)]
    # discarded warm-up, so one-time lazy imports do not land in the first call
    _call_main(q.cli, ("coeffs", "--m", "0"))

    tracer = Tracer()
    origin = clock()
    untraced_s = traced_s = 0.0
    rows_requested = rows_computed = 0
    for request, inv in enumerate(invs):
        cold_caches()
        start = clock()
        rc, out = _call_main(q.cli, inv.args)
        untraced_s += clock() - start
        tally.add(inv, workloads.check(inv, rc, out, oracle))

        tracer.install()
        tracer.request = request
        cold_caches()
        start = clock()
        try:
            rc, out = _call_main(q.cli, inv.args)
        finally:
            traced_s += clock() - start
            tracer.uninstall()
        info = rows_cache.cache_info()
        rows_requested += info.hits + info.misses
        rows_computed += info.misses
        tally.add(inv, workloads.check(inv, rc, out, oracle))

    kernels = {}
    for name, fn in _kernels(q):
        samples = []
        while len(samples) < 3 and (not samples or samples[0] < SHORT_KERNEL_S):
            cold_caches()
            start = clock()
            fn()
            samples.append(clock() - start)
        kernels[name] = statistics.median(samples)

    pool = _pool_pass(seed, oracle, deadline, tally)

    metrics = _layer_metrics(tracer, pool)
    metrics["coefficients.row_reuse_ratio"] = (1 - rows_computed / rows_requested, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.unattributed_s"] = (traced_s - tracer.root_time(), "s")
    metrics.update((name, (seconds, "s")) for name, seconds in kernels.items())

    harness.OUT.mkdir(exist_ok=True)
    spans_path = harness.OUT / f"spans-seed{seed}.jsonl"
    tracer.dump(spans_path, origin)
    detail = {
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
        "pool": pool,
        "counts": dict(tracer.counts),
    }
    return {"tally": tally, "metrics": metrics, "extra": {}, "detail": detail}


def _layer_metrics(tracer: Tracer, pool: dict) -> dict[str, tuple[float, str]]:
    stats = tracer.stats()

    def get(name: str) -> Stats:
        return stats.get(name, Stats())

    def layer_self(layer: str) -> float:
        return sum(s.self_s for n, s in stats.items() if n.startswith(layer + "."))

    m: dict[str, tuple[float, str]] = {}
    for fn in ("t_direct", "inequality_chain_check", "s_sum"):
        s = get(f"tfunction.{fn}")
        m[f"tfunction.{fn}.calls"] = (s.calls, "count")
        m[f"tfunction.{fn}.busy_s"] = (s.self_s, "s")
    m["tfunction.t_direct.max_bits"] = (tracer.max_bits.get("tfunction.t_direct", 0), "bit")
    for fn in ("t_hypergeometric", "t_integral", "t_via_w"):
        m[f"tfunction.{fn}.busy_s"] = (get(f"tfunction.{fn}").self_s, "s")
    m["exact.binomial.calls"] = (tracer.counts["exact.binomial"], "count")
    m["polynomial.calls"] = (sum(c for n, c in tracer.counts.items() if n.startswith("polynomial.")), "count")
    rows = get("coefficients._scaled_row")
    m["coefficients.scaled_row.calls"] = (rows.calls, "count")
    m["coefficients.scaled_row.busy_s"] = (rows.self_s, "s")
    m["suites.pool.speedup"] = (pool["speedup"], "x")
    m["suites.pool.extra_cpu_s"] = (pool["extra_cpu_s"], "s")
    for suite in SUITE_NAMES:
        m[f"suites.run_suite.{suite}.busy_s"] = (get(f"suites.run_suite.{suite}").total_s, "s")
    lop = get("seqprops.l_operator")
    m["seqprops.l_operator.calls"] = (lop.calls, "count")
    m["seqprops.l_operator.busy_s"] = (lop.self_s, "s")
    m["seqprops.l_operator.max_bits"] = (tracer.max_bits.get("seqprops.l_operator", 0), "bit")
    m["seqprops.predicates.busy_s"] = (sum(get(f"seqprops.{p}").self_s for p in PREDICATES), "s")
    for name in ("hypergeometric.hyp2f1", "conjectures.hyp_inequality_margin"):
        s = get(name)
        m[f"{name}.calls"] = (s.calls, "count")
        m[f"{name}.busy_s"] = (s.total_s, "s")
    m["quadrature.evaluations"] = (GK15_NODES * tracer.counts["quadrature._panel"], "count")
    m["quadrature.failed"] = (get("quadrature.evaluate_quartic_integral").errors, "count")
    for layer in SPAN_LAYERS:
        m["cli.self_s" if layer == "cli" else f"{layer}.busy_s"] = (layer_self(layer), "s")
    return m


def _pool_pass(seed: int, oracle: dict, deadline: float, tally: workloads.Tally) -> dict:
    """Row sweeps as cold processes with 2 jobs and with 1; the two reports
    of each suite must agree once ``config.jobs`` is left out."""
    rows = workloads.invocations("row-sweeps", seed)
    walls, cpus, reports = {}, {}, {}
    for jobs in (workloads.ROW_JOBS, 1):
        walls[jobs] = cpus[jobs] = 0.0
        for inv in rows:
            inv = inv.with_jobs(jobs)
            res = harness.run_cold(inv.args, timeout=deadline - time.perf_counter())
            walls[jobs] += res.wall_s
            cpus[jobs] += res.cpu_s
            tally.add(inv, workloads.check(inv, res.returncode, res.stdout, oracle))
            reports[inv.key, jobs] = res.stdout
    mismatched = []
    for inv in rows:
        try:
            serial, parallel = (workloads.canonical_report_text(reports[inv.key, j]) for j in (1, workloads.ROW_JOBS))
            same = serial == parallel
        except (ValueError, KeyError, TypeError):
            same = False
        if not same:
            mismatched.append(inv.key)
            tally.note_wrong(f"{inv.key}: --jobs {workloads.ROW_JOBS} and --jobs 1 reports differ")
    return {
        "speedup": walls[1] / walls[workloads.ROW_JOBS],
        "extra_cpu_s": cpus[workloads.ROW_JOBS] - cpus[1],
        "wall_s": {str(j): w for j, w in walls.items()},
        "cpu_s": {str(j): c for j, c in cpus.items()},
        "serial_parallel_mismatch": mismatched,
    }
