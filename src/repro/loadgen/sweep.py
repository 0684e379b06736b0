"""The saturation sweep: step offered QPS until the cluster collapses.

Each step builds a fresh simulated cluster and replays a freshly
synthesized arrival trace through :meth:`repro.serve.bridge.SimBridge.
replay` (virtual time, fully deterministic).  Offered QPS grows
geometrically until the achieved/offered ratio drops below the
collapse threshold — the open-loop saturation knee — or the step
budget runs out.  The artifact records every step plus the measured
peak, which is what docs/serving.md quotes as the honest
requests-per-second number for the default 4-shard cluster.

Two consumers:

* ``repro-load --sweep`` writes the JSON artifact from the CLI;
* the registered ``serve_load_sweep`` experiment spec runs a scaled
  sweep per mechanism under the harness (serial == ``--jobs`` parity
  holds because every step is a pure function of config + seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.experiments import ExperimentSpec, QaCheck, Variant, register
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.bridge import SimBridge
from repro.serve.settings import ServeSettings


@dataclass
class SweepConfig:
    """One saturation sweep."""

    qps_start: float = 4_000_000.0
    qps_factor: float = 2.0
    max_steps: int = 8
    #: Achieved/offered ratio below which the step counts as collapsed.
    collapse_ratio: float = 0.85
    ops_per_step: int = 2_000
    workload: str = "B"
    distribution: str = "zipfian"
    zipf_theta: float = 0.99
    txn_fraction: float = 0.0
    mechanism: str = "sabre"
    n_shards: int = 4
    replication: int = 2
    n_objects: int = 512
    object_size: int = 1024
    n_clients: int = 2
    max_sessions: int = 16
    request_timeout_ns: float = 5_000_000.0
    seed: int = 1

    def validate(self) -> None:
        if self.qps_start <= 0:
            raise ConfigError(f"qps_start must be > 0: {self.qps_start}")
        if self.qps_factor <= 1.0:
            raise ConfigError(f"qps_factor must be > 1: {self.qps_factor}")
        if self.max_steps < 1:
            raise ConfigError("need at least one sweep step")
        if not 0.0 < self.collapse_ratio <= 1.0:
            raise ConfigError("collapse_ratio must be in (0, 1]")
        if self.ops_per_step < 1:
            raise ConfigError("need at least one op per step")
        self.serve_settings().validate()

    def serve_settings(self) -> ServeSettings:
        return ServeSettings(
            mechanism=self.mechanism,
            n_shards=self.n_shards,
            replication=min(self.replication, self.n_shards),
            n_objects=self.n_objects,
            object_size=self.object_size,
            n_clients=self.n_clients,
            max_sessions=self.max_sessions,
            request_timeout_ns=self.request_timeout_ns,
            seed=self.seed,
        )

    def trace_config(self, qps: float, step: int) -> TraceConfig:
        return TraceConfig(
            qps=qps,
            n_ops=self.ops_per_step,
            workload=self.workload,
            distribution=self.distribution,
            zipf_theta=self.zipf_theta,
            txn_fraction=self.txn_fraction,
            n_objects=self.n_objects,
            seed=derive_seed(self.seed, "load-sweep", step),
        )


@dataclass
class SweepResult:
    config: SweepConfig
    steps: List[Dict[str, float]] = field(default_factory=list)

    @property
    def collapsed(self) -> bool:
        if not self.steps:
            return False
        return self.steps[-1]["achieved_ratio"] < self.config.collapse_ratio

    @property
    def peak_qps(self) -> float:
        """Highest achieved QPS across steps — quoted as the cluster's
        measured capacity."""
        if not self.steps:
            return 0.0
        return max(step["achieved_qps"] for step in self.steps)

    @property
    def knee_qps(self) -> float:
        """Last offered QPS the cluster kept up with (0 when even the
        first step collapsed)."""
        held = [
            step["offered_qps"]
            for step in self.steps
            if step["achieved_ratio"] >= self.config.collapse_ratio
        ]
        return max(held) if held else 0.0

    @property
    def undetected_violations(self) -> int:
        return int(
            sum(step["undetected_violations"] for step in self.steps)
        )

    def to_dict(self) -> Dict[str, Any]:
        from dataclasses import asdict

        return {
            "config": asdict(self.config),
            "steps": self.steps,
            "peak_qps": self.peak_qps,
            "knee_qps": self.knee_qps,
            "collapsed": self.collapsed,
            "undetected_violations": self.undetected_violations,
        }


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the sweep (deterministic: fresh cluster per step)."""
    cfg.validate()
    result = SweepResult(config=cfg)
    qps = cfg.qps_start
    for step in range(cfg.max_steps):
        bridge = SimBridge(cfg.serve_settings())
        bridge.warm()
        trace = build_trace(cfg.trace_config(qps, step))
        report = bridge.replay(trace)
        row = {"step": float(step), **report.to_row()}
        result.steps.append(row)
        if report.achieved_ratio < cfg.collapse_ratio:
            break
        qps *= cfg.qps_factor
    return result


def write_artifact(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# registered experiment
# ----------------------------------------------------------------------

SWEEP_HEADERS = (
    "workload",
    "sabre_peak_qps",
    "sabre_knee_qps",
    "percl_peak_qps",
    "percl_knee_qps",
    "sabre_violations",
    "percl_violations",
)


def _sweep_point(ctx) -> Dict[str, float]:
    p = ctx.params
    cfg = SweepConfig(
        qps_start=p["qps_start"],
        qps_factor=p["qps_factor"],
        max_steps=p["max_steps"],
        collapse_ratio=p["collapse_ratio"],
        ops_per_step=max(50, int(p["ops_per_step"] * ctx.scale)),
        workload=p["workload"],
        distribution=p["distribution"],
        txn_fraction=p["txn_fraction"],
        mechanism=p["mechanism"],
        n_shards=p["n_shards"],
        replication=p["replication"],
        n_objects=p["n_objects"],
        seed=p["seed"],
    )
    result = run_sweep(cfg)
    v = ctx.variant
    return {
        f"{v}_peak_qps": result.peak_qps,
        f"{v}_knee_qps": result.knee_qps,
        f"{v}_violations": float(result.undetected_violations),
    }


SERVE_LOAD_SWEEP_SPEC = register(
    ExperimentSpec(
        name="serve_load_sweep",
        description=(
            "Open-loop saturation sweep of the serving stack: "
            "offered QPS doubles until achieved/offered collapses"
        ),
        axes={"workload": ("B", "C")},
        variants=(
            Variant("sabre", {"mechanism": "sabre"}),
            Variant("percl", {"mechanism": "percl_versions"}),
        ),
        defaults={
            "mechanism": "sabre",
            "qps_start": 8_000_000.0,
            "qps_factor": 2.0,
            "max_steps": 4,
            "collapse_ratio": 0.85,
            "ops_per_step": 600,
            "distribution": "zipfian",
            "txn_fraction": 0.05,
            "n_shards": 4,
            "replication": 2,
            "n_objects": 512,
            "seed": 23,
        },
        headers=SWEEP_HEADERS,
        point_fn=_sweep_point,
        qa_checks=(
            QaCheck("sabre_peak_qps", agg="min", lo=0.0),
            QaCheck("sabre_violations", agg="max", hi=0.0),
            QaCheck("percl_peak_qps", agg="min", lo=0.0),
        ),
    )
)
