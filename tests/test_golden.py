"""Golden gate: sweep artifacts and fuzz fingerprints match committed digests.

``tests/golden/artifact_digests.json`` holds the sha256 of every
registered spec's sweep artifact (scale 0.02, workload seeds 1, 7 and
23, wall clock masked) and of four randomized ``fuzz_round``
fingerprints; see ``tools/regen_golden.py`` for exactly what is
hashed.  Any change in event order, simulated time or counters moves a
digest.

Tier-1 checks the service, failover and fault specs at every seed,
every other spec but the two heaviest figures at seed 1, and all fuzz
lanes; the ``slow`` lane checks every spec at every seed.  An intended
behaviour change regenerates the file with ``tools/regen_golden.py`` in
the same change and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import registry

_spec = importlib.util.spec_from_file_location(
    "regen_golden",
    Path(__file__).resolve().parent.parent / "tools" / "regen_golden.py",
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

GOLDEN = golden.load()

#: Checked at all three seeds in tier-1: the flagship service workloads,
#: failover, one figure, and the gray/partition fault sweeps, whose
#: windows open and close while block streams are mid-flight.
ALL_SEED_SPECS = (
    "ycsb_latency",
    "txn_abort_rate",
    "failover_availability",
    "fig7a",
    "gray_availability",
    "partition_availability",
)

#: Too slow for tier-1 even at one seed; the slow lane covers them.
SLOW_ONLY_SPECS = ("fig7b", "fig8")

SPECS = sorted(set(registry.names()))


def _tier1_cases():
    for name in SPECS:
        if name in SLOW_ONLY_SPECS:
            continue
        for seed in golden.SEEDS if name in ALL_SEED_SPECS else (1,):
            yield pytest.param(name, seed, id=f"{name}-{seed}")


def _check(name, seed):
    got = golden.artifact_digest(name, seed)
    assert got == GOLDEN["artifacts"][name][str(seed)], (
        f"{name} seed {seed}: artifact digest changed; if the behaviour "
        "change is intended, run tools/regen_golden.py and say why in "
        "CHANGES.md"
    )


def test_golden_file_covers_every_spec_and_seed():
    assert GOLDEN["scale"] == golden.SCALE
    assert sorted(GOLDEN["artifacts"]) == SPECS
    for name, digests in GOLDEN["artifacts"].items():
        assert sorted(digests) == sorted(str(s) for s in golden.SEEDS), name
    assert sorted(GOLDEN["fuzz"]) == sorted(golden.FUZZ_CASES)


@pytest.mark.parametrize("name, seed", _tier1_cases())
def test_artifact_digest(name, seed):
    _check(name, seed)


@pytest.mark.parametrize("case", sorted(golden.FUZZ_CASES))
def test_fuzz_fingerprint_digest(case):
    assert golden.fuzz_digest(case) == GOLDEN["fuzz"][case], case


@pytest.mark.slow
@pytest.mark.parametrize("name", SPECS)
def test_every_spec_every_seed(name):
    for seed in golden.SEEDS:
        _check(name, seed)
