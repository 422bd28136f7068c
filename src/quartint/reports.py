"""Report records shared by the verification suites and the CLI."""

from __future__ import annotations

import time
from typing import NamedTuple

SCHEMA_VERSION = 1


def utc_now_iso() -> str:
    """The current UTC time as datetime.isoformat gives it, e.g.
    2026-01-02T03:04:05.678901+00:00 (no fraction when it is zero)."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


class Counterexample(NamedTuple):
    """Where a property failed and the exact witnesses, rationals as strings."""

    location: dict
    values: dict


class PropertyReport(NamedTuple):
    """Outcome of one property sweep; it passes iff it has no counterexample."""

    property: str
    range: str
    counterexample: Counterexample | None = None
    elapsed: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_jsonable(self) -> dict:
        return {
            "property": self.property,
            "range": self.range,
            "verdict": self.verdict(),
            "counterexample": None if self.counterexample is None else self.counterexample._asdict(),
            "elapsed": self.elapsed,
            "notes": list(self.notes),
        }
