"""Cold-process execution and run metadata shared by the untraced and the
traced runs.

Every invocation is a fresh ``python -m quartint.cli`` process with a pinned
environment: ``PYTHONPATH`` points at the checkout's ``src``, the hash seed
and locale are fixed, and ``QUARTINT_JOBS`` is never passed on.  Its wall
time, user plus system time and peak resident set come from ``wait4``, so
they include the pool workers the process started and reaped.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def require_program() -> None:
    """Stop unless the checkout holds the program the benchmark measures."""
    if not (SRC / "quartint" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no quartint sources under {SRC}; run from a full checkout")


def pinned_env() -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C",
    }


@dataclass(frozen=True)
class ColdResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_cold(args: tuple[str, ...], timeout: float) -> ColdResult:
    """Run one CLI invocation in a new interpreter and wait for it to end.

    A process still running after ``timeout`` seconds is killed and reported
    with its signal as a negative return code.
    """
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "quartint.cli", *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=pinned_env(),
            cwd=ROOT,
        )
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ColdResult(
            returncode=proc.returncode,
            stdout=out.read().decode(),
            stderr=err.read().decode(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )


def git_sha() -> str | None:
    """The checkout's commit, or None when it is not a git repository of its own."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over the program's sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quartint").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_meta(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "started": datetime.now(timezone.utc).isoformat(),
    }
