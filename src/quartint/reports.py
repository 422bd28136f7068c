"""Report records shared by the verification suites and the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone

SCHEMA_VERSION = 1


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class Counterexample:
    """Where a property failed and the exact witnesses, rationals as strings."""

    location: dict
    values: dict

    def to_jsonable(self) -> dict:
        return {"location": dict(self.location), "values": dict(self.values)}


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property sweep.  A failing report always carries a
    counterexample."""

    property: str
    range: str
    passed: bool
    counterexample: Counterexample | None = None
    elapsed: float = 0.0
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("failing report must carry a counterexample")

    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_jsonable(self) -> dict:
        return {
            "property": self.property,
            "range": self.range,
            "verdict": self.verdict(),
            "counterexample": None if self.counterexample is None else self.counterexample.to_jsonable(),
            "elapsed": self.elapsed,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class RunReport:
    """One CLI invocation: echoed config, per-item results, overall verdict."""

    command: str
    config: dict
    results: tuple
    started: str
    finished: str

    @property
    def overall_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_jsonable(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": dict(self.config),
            "results": [r.to_jsonable() for r in self.results],
            "overall": "pass" if self.overall_passed else "fail",
            "started": self.started,
            "finished": self.finished,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent)
