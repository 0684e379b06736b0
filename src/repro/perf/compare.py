"""Regression gate: diff a BENCH_perf.json against a committed baseline.

A scenario *regresses* when its throughput falls more than
``threshold`` (default 15 %) below the baseline on the gated metric
(default ``events_per_s``).  Improvements never fail the gate — they
are how the baseline gets refreshed.

One-sided scenarios are asymmetric:

* **current without baseline** passes — new scenarios must be able to
  land before their baseline does;
* **baseline without current** FAILS — a benchmark that silently
  stops running (renamed, crashed, filtered out) is indistinguishable
  from a 100 % regression, and for a long time this gate shrugged it
  off as "missing" and reported PASS.  Deleting a scenario for real
  means deleting its baseline entry in the same change.

A NaN or infinite value on either side FAILS too: every comparison
with NaN is false, so without this rule a NaN current value would
pass as ``ok``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.common.errors import ConfigError

#: Default allowed throughput drop before the gate fails.
DEFAULT_THRESHOLD = 0.15

#: Metric the gate reads from each scenario row.
DEFAULT_METRIC = "events_per_s"


@dataclass
class ScenarioDelta:
    """One scenario's baseline-vs-current comparison."""

    name: str
    baseline: Optional[float]
    current: Optional[float]

    @property
    def ratio(self) -> Optional[float]:
        # ``not self.baseline`` also catches a 0.0 baseline: no
        # meaningful ratio exists (and no ZeroDivisionError either) —
        # the scenario is treated as having no usable baseline.
        if not self.baseline or self.current is None:
            return None
        return self.current / self.baseline

    @property
    def vanished(self) -> bool:
        """Baseline entry exists but the current run never produced
        the scenario — the silently-stopped-benchmark case."""
        return self.baseline is not None and self.current is None

    @property
    def non_finite(self) -> bool:
        """A NaN or infinite value on either side: no verdict exists."""
        return any(
            v is not None and not math.isfinite(v)
            for v in (self.baseline, self.current)
        )

    def regressed(self, threshold: float) -> bool:
        ratio = self.ratio
        return ratio is not None and ratio < 1.0 - threshold


@dataclass
class CompareResult:
    metric: str
    threshold: float
    deltas: List[ScenarioDelta]

    @property
    def regressions(self) -> List[ScenarioDelta]:
        return [d for d in self.deltas if d.regressed(self.threshold)]

    @property
    def vanished(self) -> List[ScenarioDelta]:
        """Scenarios with a baseline but no current measurement."""
        return [d for d in self.deltas if d.vanished]

    @property
    def non_finite(self) -> List[ScenarioDelta]:
        """Scenarios with a NaN or infinite value on either side."""
        return [d for d in self.deltas if d.non_finite]

    @property
    def ok(self) -> bool:
        return not (self.regressions or self.vanished or self.non_finite)

    def report(self) -> str:
        lines = [
            f"perf compare — metric={self.metric}, "
            f"regression threshold {self.threshold:.0%}"
        ]
        for d in self.deltas:
            if d.vanished:
                lines.append(
                    f"  {d.name:<24} VANISHED (baseline "
                    f"{d.baseline:.1f}, no current measurement)"
                )
                continue
            if d.non_finite:
                lines.append(
                    f"  {d.name:<24} NON-FINITE (baseline {d.baseline}, "
                    f"current {d.current})"
                )
                continue
            if d.ratio is None:
                status = "no-baseline"
                lines.append(f"  {d.name:<24} {status}")
                continue
            flag = "REGRESSION" if d.regressed(self.threshold) else "ok"
            lines.append(
                f"  {d.name:<24} {d.baseline:>14.1f} -> {d.current:>14.1f}"
                f"  ({d.ratio:>6.2f}x)  {flag}"
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _scenario_metric(bench: Dict[str, Any], metric: str) -> Dict[str, float]:
    rows = bench.get("scenarios")
    if not isinstance(rows, dict):
        raise ConfigError("malformed bench JSON: no 'scenarios' mapping")
    out: Dict[str, float] = {}
    for name, row in rows.items():
        value = row.get(metric)
        if isinstance(value, (int, float)):
            out[name] = float(value)
    return out


def compare_benchmarks(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = DEFAULT_METRIC,
) -> CompareResult:
    """Compare two loaded BENCH dicts on ``metric``."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"threshold must be in (0, 1): {threshold}")
    cur = _scenario_metric(current, metric)
    base = _scenario_metric(baseline, metric)
    names = sorted(set(cur) | set(base))
    deltas = [
        ScenarioDelta(name=n, baseline=base.get(n), current=cur.get(n))
        for n in names
    ]
    return CompareResult(metric=metric, threshold=threshold, deltas=deltas)


def compare_files(
    current_path: str,
    baseline_path: str,
    threshold: float = DEFAULT_THRESHOLD,
    metric: str = DEFAULT_METRIC,
) -> CompareResult:
    with open(current_path) as fh:
        current = json.load(fh)
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    return compare_benchmarks(
        current, baseline, threshold=threshold, metric=metric
    )
