"""In-memory spans and counters around the package's layer boundaries.

The tracer is installed from outside: it replaces a public function at
every name a ``k3acm`` module bound it to (``from`` imports included),
and patches class methods on the class.  Coarse public functions get a
span (name, start, end, parent, operation); the hot functions ``pair``,
``holds``, ``evaluate`` and ``hodge_lower`` are only counted, so their
time falls into the self time of the span that called them.

A layer is a package module; span names are ``<layer>.<function>`` and
the harness's own per-operation root span is ``bench.op``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

LAYERS = ("lattice", "invariants", "classifier", "config",
          "casework.constraints", "casework.casebook", "casework.scripts",
          "casework.destabilize", "casework.necessity", "cli")

# (module, attribute, span name); an attribute "Cls.meth" is patched on the class
SPANNED = (
    ("k3acm.lattice", "Lattice.__init__", "lattice.Lattice"),
    ("k3acm.classifier", "is_initialized_acm", "classifier.is_initialized_acm"),
    ("k3acm.classifier", "derived_assumptions", "classifier.derived_assumptions"),
    ("k3acm.config", "load_config", "config.load_config"),
    ("k3acm.casework.constraints", "enumerate_case",
     "casework.constraints.enumerate_case"),
    ("k3acm.casework.casebook", "builtin_scripts",
     "casework.casebook.builtin_scripts"),
    ("k3acm.casework.casebook", "script_by_tag", "casework.casebook.script_by_tag"),
    ("k3acm.casework.scripts", "run_script", "casework.scripts.run_script"),
    ("k3acm.casework.destabilize", "enumerate_destabilizing",
     "casework.destabilize.enumerate_destabilizing"),
    ("k3acm.casework.destabilize", "elimination_to_json",
     "casework.destabilize.elimination_to_json"),
    ("k3acm.casework.necessity", "verify_necessity",
     "casework.necessity.verify_necessity"),
    ("k3acm.casework.necessity", "necessity_to_json",
     "casework.necessity.necessity_to_json"),
    ("k3acm.cli", "main", "cli.main"),
)

COUNTED = (
    ("k3acm.lattice", "Lattice.pair", "lattice.pair"),
    ("k3acm.casework.constraints", "Constraint.holds", "casework.constraints.holds"),
    ("k3acm.casework.scripts", "evaluate", "casework.scripts.evaluate"),
    ("k3acm.invariants", "hodge_lower", "invariants.hodge_lower"),
)

# Reported per traced operation.  The last word says what: calls, self
# time in ms, a domain count, or a share.
PER_LAYER = (
    "casework.constraints.enumerate_case.calls",
    "casework.constraints.enumerate_case.self_ms",
    "casework.constraints.holds.calls",
    "casework.constraints.survivors",
    "casework.casebook.builtin_scripts.calls",
    "casework.casebook.builtin_scripts.self_ms",
    "casework.casebook.script_by_tag.calls",
    "casework.scripts.run_script.calls",
    "casework.scripts.run_script.self_ms",
    "casework.scripts.evaluate.calls",
    "casework.scripts.claims_verified",
    "casework.scripts.claims_failed",
    "lattice.Lattice.calls",
    "lattice.Lattice.self_ms",
    "lattice.pair.calls",
    "invariants.hodge_lower.calls",
    "classifier.is_initialized_acm.calls",
    "classifier.is_initialized_acm.self_ms",
    "classifier.derived_assumptions.self_ms",
    "config.load_config.calls",
    "config.load_config.self_ms",
    "casework.destabilize.enumerate_destabilizing.calls",
    "casework.destabilize.enumerate_destabilizing.self_ms",
    "casework.destabilize.records",
    "casework.destabilize.unresolved_records",
    "casework.destabilize.engine_faults",
    "casework.destabilize.box_touches",
    "casework.destabilize.resolved_query_share",
    "casework.necessity.verify_necessity.calls",
    "casework.necessity.verify_necessity.self_ms",
    "casework.necessity.survivors_matched",
    "cli.main.calls",
    "cli.main.self_ms",
    "cli.exit_1",
    "cli.exit_2",
) + tuple(f"{layer}.self_share" for layer in LAYERS + ("bench",)) + (
    "trace.overhead_share",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_share"):
        return "share"
    if metric.endswith(".self_ms"):
        return "ms/op"
    return "1/op"


def _observe(counts: Counter, name: str, result: Any) -> None:
    """Domain counts read off a spanned function's return value."""
    if name == "casework.constraints.enumerate_case":
        counts["casework.constraints.survivors"] += len(result)
    elif name == "casework.scripts.run_script":
        for step in result.steps:
            if step.status == "Verified":
                counts["casework.scripts.claims_verified"] += 1
            elif step.status == "FAILED":
                counts["casework.scripts.claims_failed"] += 1
    elif name == "casework.destabilize.enumerate_destabilizing":
        unresolved = sum(1 for r in result if not r.resolved)
        counts["casework.destabilize.records"] += len(result)
        counts["casework.destabilize.unresolved_records"] += unresolved
        counts["casework.destabilize.resolved_queries"] += unresolved == 0
    elif name == "casework.necessity.verify_necessity":
        counts["casework.necessity.survivors_matched"] += len(result.matches)
    elif name == "cli.main" and result in (1, 2):
        counts[f"cli.exit_{result}"] += 1


def _observe_error(counts: Counter, name: str, exc: BaseException) -> None:
    if name != "casework.destabilize.enumerate_destabilizing":
        return
    if type(exc).__name__ == "BoxTooSmallError":
        counts["casework.destabilize.box_touches"] += 1
    elif "false claim" in str(exc):
        counts["casework.destabilize.engine_faults"] += 1


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        # each span is [name, start_ns, end_ns, parent index, op index]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ---- installation --------------------------------------------------

    def install(self) -> None:
        for module, attr, name in SPANNED:
            self._patch(module, attr, lambda fn, n=name: self._spanned(n, fn))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counted(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != "k3acm" and not mod_name.startswith("k3acm."):
                continue
            for bound, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, bound, original))
                    setattr(other, bound, wrapper)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.ops]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                _observe_error(counts, name, exc)
                raise
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            _observe(counts, name, result)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ---- the harness side ----------------------------------------------

    def op(self, run: Callable[[], Any]) -> Any:
        """Run one operation under the ``bench.op`` root span."""
        try:
            return self._spanned("bench.op", run)()
        finally:
            self.ops += 1

    def untraced(self, fn: Callable[[], Any]) -> Any:
        """Run harness work (output checks) without leaving spans or counts."""
        mark = len(self.spans)
        saved = self.counts.copy()
        try:
            return fn()
        finally:
            del self.spans[mark:]
            self.counts.clear()
            self.counts.update(saved)

    # ---- results -------------------------------------------------------

    def self_ns(self) -> Counter:
        """Per span name: total duration minus the time its children cover."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self, overhead_share: float,
                time_scale: float = 1.0) -> dict[str, float]:
        """Every PER_LAYER metric, per traced operation.

        Self times are multiplied by ``time_scale``, the harness's
        calibration of machine speed over the traced phase.
        """
        n = max(self.ops, 1)
        calls = Counter(s[0] for s in self.spans)
        self_ns = self.self_ns()
        total_ns = sum(s[2] - s[1] for s in self.spans if s[0] == "bench.op")
        layer_ns: Counter = Counter()
        for name, ns in self_ns.items():
            layer_ns[name.rsplit(".", 1)[0]] += ns
        q_calls = calls["casework.destabilize.enumerate_destabilizing"]
        out = {}
        for metric in PER_LAYER:
            base, _, what = metric.rpartition(".")
            if what == "calls":
                value = (calls[base] or self.counts[metric]) / n
            elif what == "self_ms":
                value = self_ns[base] * time_scale / 1e6 / n
            elif what == "self_share":
                value = layer_ns[base] / total_ns if total_ns else 0.0
            elif metric == "casework.destabilize.resolved_query_share":
                resolved = self.counts["casework.destabilize.resolved_queries"]
                value = resolved / q_calls if q_calls else 0.0
            elif metric == "trace.overhead_share":
                value = overhead_share
            else:
                value = self.counts[metric] / n
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "ops": self.ops}, fh, separators=(",", ":"))
