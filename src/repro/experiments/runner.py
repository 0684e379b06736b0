"""Sweep execution for :class:`ExperimentSpec`.

:func:`run_sweep` is a thin orchestration layer over three pieces:

* point **expansion** stays pure in :mod:`repro.experiments.spec`;
* an :class:`~repro.experiments.executors.Executor` turns pending
  points into fragments (in-process, pool, or multi-host workers);
* an optional :class:`~repro.experiments.context.CampaignContext`
  remembers completed fragments in a crash-resumable journal.

Determinism: all simulation randomness flows from the explicit seeds
in each point's params, so every executor produces byte-identical rows
to a serial run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.atomic import atomic_write_json
from repro.experiments.context import CampaignContext, point_key
from repro.experiments.executors import Executor, make_executor
from repro.experiments.spec import ExperimentSpec, Point
from repro.harness.report import format_table

# ----------------------------------------------------------------------
# result assembly
# ----------------------------------------------------------------------


def _json_safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def merge_rows(
    spec: ExperimentSpec,
    points: Sequence[Point],
    fragments: Sequence[Optional[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-point column fragments into rows in grid order.

    ``None`` means "point did not run" and contributes nothing; an
    empty dict is a *valid* fragment (a point that measured nothing
    but completed) and must not be confused with a missing one."""
    rows: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for point in points:
        row = rows.get(point.row_key)
        if row is None:
            row = dict(point.axis_values)
            rows[point.row_key] = row
            order.append(point.row_key)
        fragment = fragments[point.index]
        if fragment is not None:
            row.update(fragment)
    finalized = []
    for key in order:
        row = rows[key]
        if spec.finalize_row is not None:
            row = dict(spec.finalize_row(row))
        finalized.append(row)
    return finalized


def result_headers(
    spec: ExperimentSpec,
    rows: Sequence[Dict[str, Any]],
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
) -> Tuple[str, ...]:
    """The spec's headers, led by any parameter swept as an extra axis."""
    if not spec.headers:
        return tuple(rows[0]) if rows else tuple(spec.axes)
    added = tuple(axis for axis in axes or () if axis not in spec.axes)
    return (*added, *spec.headers)


@dataclass
class SweepResult:
    """Uniform sweep output: ordered headers + row dicts, plus metadata
    for artifacts and reporting."""

    spec_name: str
    headers: Tuple[str, ...]
    rows: List[Dict[str, Any]]
    scale: float
    jobs: int
    points_total: int
    points_cached: int
    elapsed_s: float
    description: str = ""
    extras: Dict[str, Any] = field(default_factory=dict)

    def table(self) -> str:
        return format_table(self.headers, self.rows)

    def rows_json_dict(self) -> Dict[str, Any]:
        """The deterministic part of the artifact: identical bytes for
        identical rows, regardless of executor, timing, or resume."""
        return {
            "experiment": self.spec_name,
            "description": self.description,
            "scale": self.scale,
            "headers": list(self.headers),
            # Strict JSON: non-finite floats (e.g. a NaN ratio from a
            # zero-goodput tiny-scale run) become null, not bare NaN.
            "rows": [
                {k: _json_safe(v) for k, v in row.items()} for row in self.rows
            ],
        }

    def to_json_dict(self) -> Dict[str, Any]:
        payload = self.rows_json_dict()
        payload.update(
            {
                "jobs": self.jobs,
                "points_total": self.points_total,
                "points_cached": self.points_cached,
                "elapsed_s": round(self.elapsed_s, 3),
            }
        )
        return payload

    def write_json(self, path: str) -> None:
        atomic_write_json(path, self.to_json_dict())


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


def run_sweep(
    spec: ExperimentSpec,
    scale: float = 1.0,
    jobs: int = 1,
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
    overrides: Optional[Mapping[str, Any]] = None,
    executor: Optional[Executor] = None,
    context: Optional[CampaignContext] = None,
) -> SweepResult:
    """Expand ``spec`` and execute every point.

    ``scale`` is forwarded to every point; ``axes`` restricts axes to
    the given values and ``overrides`` is merged over defaults, axis
    and variant values.  ``executor`` defaults to
    ``make_executor(jobs)``; the artifact reports ``executor.jobs``.
    Points already journaled in ``context`` are served from it, and
    every newly finished point is journaled as it completes."""
    start = time.time()
    if executor is None:
        executor = make_executor(jobs)
    points = spec.expand(axes=axes, overrides=overrides)
    fragments: List[Optional[Dict[str, Any]]] = [None] * len(points)

    pending: List[Point] = []
    keys: Dict[int, str] = {}
    for point in points:
        if context is not None:
            keys[point.index] = point_key(spec.name, point, scale)
            fragments[point.index] = context.get(keys[point.index])
        if fragments[point.index] is None:
            pending.append(point)

    for index, fragment in executor.run(spec, pending, scale):
        fragments[index] = fragment
        if context is not None:
            context.record(keys[index], fragment, stage=spec.name)

    rows = merge_rows(spec, points, fragments)
    return SweepResult(
        spec_name=spec.name,
        headers=result_headers(spec, rows, axes),
        rows=rows,
        scale=scale,
        jobs=executor.jobs,
        points_total=len(points),
        points_cached=len(points) - len(pending),
        elapsed_s=time.time() - start,
        description=spec.description,
    )
