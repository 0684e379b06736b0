#!/usr/bin/env python3
"""Regenerate the golden digests that pin the simulator's behaviour.

``tests/golden/artifact_digests.json`` holds sha256 digests of

* every registered experiment's sweep artifact at ``SCALE`` for each
  seed in ``SEEDS`` (used as the workload seed, see
  :func:`artifact_digest`):
  ``json.dumps(to_json_dict(), sort_keys=True)`` with the wall-clock
  ``elapsed_s`` field masked, and
* the fingerprints of four randomized ``fuzz_round`` interleavings
  (the crash lane and the gray + partition + skew fault lane, at two
  seeds each), serialized the same way.

``tests/test_golden.py`` recomputes them and fails on any difference,
so a change that moves one simulated nanosecond, one event-order tie
or one counter anywhere in the registry shows up.

Usage::

    PYTHONPATH=src python tools/regen_golden.py

rewrites the file from the current tree (all specs x seeds, several
minutes).  Regenerate only for an intended behaviour change, commit the
new file in the same change, and say in CHANGES.md why the digests
moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.experiments import registry
from repro.experiments.runner import run_sweep
from repro.workloads.fuzz import fuzz_round

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "artifact_digests.json"
)

SCALE = 0.02
SEEDS = (1, 7, 23)

#: Fuzz lanes: name -> fuzz_round(mechanism="sabre", n_shards=4, **kw).
FUZZ_CASES: Dict[str, dict] = {
    f"{lane}-{seed}": dict(seed=seed, duration_ns=40_000.0, **extra)
    for lane, extra in (
        ("crash", dict(crash_cycles=3)),
        ("fault", dict(crash_cycles=2, gray_windows=2, partition_windows=2,
                       skew_max_ns=1_000.0)),
    )
    for seed in (505, 616)
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digest(spec_name: str, seed: int) -> str:
    """Digest of one spec's sweep artifact, wall clock masked.

    A spec with a ``seed`` parameter runs with it overridden; specs
    without one are seed-free, so their three digests agree."""
    spec = registry.get(spec_name)
    overrides = {"seed": seed} if "seed" in spec.defaults else None
    result = run_sweep(spec, scale=SCALE, overrides=overrides)
    payload = result.to_json_dict()
    payload["elapsed_s"] = 0.0
    return _sha256(payload)


def fuzz_digest(case: str) -> str:
    """Digest of one fuzz lane's violation/counter fingerprint."""
    return _sha256(fuzz_round("sabre", 4, **FUZZ_CASES[case]).fingerprint)


def compute() -> dict:
    return {
        "scale": SCALE,
        "artifacts": {
            name: {str(seed): artifact_digest(name, seed) for seed in SEEDS}
            for name in sorted(set(registry.names()))
        },
        "fuzz": {case: fuzz_digest(case) for case in FUZZ_CASES},
    }


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> int:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
