"""In-memory spans and counts around the functions of ``quartint``'s modules.

``Tracer.install`` replaces each module-level function of the span layers by
a wrapper that records a span (name, start, end, parent, request), and each
function of the primitive layers (``exact``, ``polynomial``) by a wrapper
that only counts calls, because those run millions of times and their time
belongs to the caller.  The replacement is made under every name that binds
the function in any ``quartint`` module (``recurrence.t_direct`` as well as
``tfunction.t_direct``), and ``uninstall`` puts every original back.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its child spans cover;
summed over all spans it equals the time spent inside root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

SPAN_LAYERS = (
    "coefficients",
    "tfunction",
    "seqprops",
    "hypergeometric",
    "recurrence",
    "conjectures",
    "quadrature",
    "suites",
    "reports",
    "cli",
)
COUNT_LAYERS = ("exact", "polynomial")
# Hot helpers inside span layers that are counted, not spanned.
COUNT_ONLY = frozenset({"quadrature._panel", "seqprops._check_nonempty", "hypergeometric._validated_order"})
# Span names that carry their first argument, so each suite gets its own name.
LABELLED = frozenset({"suites.run_suite"})


def fraction_bits(value) -> int:
    """Bit length of the larger of numerator and denominator."""
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# Functions whose operand size is recorded, as the largest result in bits.
MAX_BITS = {
    "tfunction.t_direct": fraction_bits,
    "seqprops.l_operator": lambda row: max(map(fraction_bits, row)),
}


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # one list per span: [name id, parent index, request, start, end, raised]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.max_bits: dict[str, int] = {}
        # the request (CLI invocation) that new spans belong to
        self.request = -1
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = self.name_id(name)
        labelled = name in LABELLED
        bits = MAX_BITS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.name_id(f"{name}.{args[0]}") if labelled else nid, stack[-1], self.request, clock(), 0.0, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if bits is not None:
                self.max_bits[name] = max(self.max_bits.get(name, 0), bits(result))
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function of the quartint layers, under every name that
        binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in SPAN_LAYERS + COUNT_LAYERS:
            module = importlib.import_module(f"quartint.{layer}")
            for attr, obj in list(vars(module).items()):
                if _is_function(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    counted = layer in COUNT_LAYERS or name in COUNT_ONLY
                    self._wrappers[id(obj)] = (self._count if counted else self._span)(name, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__ and layer in COUNT_LAYERS:
                    for method, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn):
                            self._patch(obj, method, self._count(f"{layer}.{attr}.{method}", fn))
        package = importlib.import_module("quartint")
        for module in [package, *(importlib.import_module(f"quartint.{m}") for m in SPAN_LAYERS + COUNT_LAYERS)]:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrappers.clear()

    # -- results ------------------------------------------------------------

    def stats(self) -> dict[str, Stats]:
        """Calls, total and self time and raised count per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, Stats] = defaultdict(Stats)
        for i, (nid, _, _, start, end, raised) in enumerate(self.spans):
            s = out[self.names[nid]]
            s.calls += 1
            s.total_s += end - start
            s.self_s += end - start - child[i]
            s.errors += raised
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, parent, _, start, end, _ in self.spans if parent < 0)

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "parent", "request", "start", "end", "raised"]}))
            fh.write("\n")
            for nid, parent, request, start, end, raised in self.spans:
                fh.write(f"[{nid},{parent},{request},{start - origin:.7f},{end - origin:.7f},{int(raised)}]\n")
