"""Report records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import datetime, timezone

SCHEMA_VERSION = 1


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass(frozen=True)
class Counterexample:
    """Where a property failed and the exact witnesses, rationals as strings."""

    location: dict
    values: dict


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
            "counterexample": None if self.counterexample is None else asdict(self.counterexample),
            "elapsed": self.elapsed,
            "notes": list(self.notes),
        }

