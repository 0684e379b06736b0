"""Unit tests for the perf-benchmark subsystem: scenario registry,
bench JSON shape, event accounting, and the regression-compare gate."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.perf import SCENARIOS, compare_benchmarks, run_scenario, scenario_names
from repro.perf.bench import BenchResult, run_suite
from repro.perf.cli import main as perf_main
from repro.perf.compare import compare_files


def _bench(scenarios):
    """Minimal BENCH dict with the given {name: events_per_s} rows."""
    return {
        "suite": "repro-perf",
        "scenarios": {
            name: {"events_per_s": value} for name, value in scenarios.items()
        },
    }


class TestCompareGate:
    def test_pass_when_equal(self):
        result = compare_benchmarks(_bench({"a": 100.0}), _bench({"a": 100.0}))
        assert result.ok
        assert not result.regressions

    def test_improvement_never_fails(self):
        result = compare_benchmarks(_bench({"a": 300.0}), _bench({"a": 100.0}))
        assert result.ok

    def test_regression_beyond_threshold_fails(self):
        result = compare_benchmarks(_bench({"a": 84.0}), _bench({"a": 100.0}))
        assert not result.ok
        assert [d.name for d in result.regressions] == ["a"]

    def test_regression_within_threshold_passes(self):
        result = compare_benchmarks(_bench({"a": 86.0}), _bench({"a": 100.0}))
        assert result.ok

    def test_threshold_is_configurable(self):
        current, base = _bench({"a": 70.0}), _bench({"a": 100.0})
        assert not compare_benchmarks(current, base, threshold=0.15).ok
        assert compare_benchmarks(current, base, threshold=0.5).ok

    def test_new_scenario_without_baseline_never_fails(self):
        result = compare_benchmarks(
            _bench({"a": 100.0, "new": 5.0}), _bench({"a": 100.0})
        )
        assert result.ok

    def test_scenario_missing_from_current_fails(self):
        # A benchmark that silently stops running is indistinguishable
        # from a 100% regression; for a long time this passed.
        result = compare_benchmarks(_bench({}), _bench({"gone": 100.0}))
        assert not result.ok
        assert [d.name for d in result.vanished] == ["gone"]
        assert not result.regressions
        report = result.report()
        assert "VANISHED" in report and "FAIL" in report

    def test_vanished_scenario_warn_only_lane_still_passes(self, tmp_path):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        cur.write_text(json.dumps(_bench({})))
        base.write_text(json.dumps(_bench({"gone": 100.0})))
        # Enforced lane (main) fails; --warn-only lane (PRs) exits 0.
        assert perf_main(["compare", str(cur), str(base)]) == 1
        assert perf_main(["compare", str(cur), str(base), "--warn-only"]) == 0

    def test_zero_baseline_has_no_ratio_and_passes(self):
        result = compare_benchmarks(_bench({"a": 50.0}), _bench({"a": 0.0}))
        delta = result.deltas[0]
        assert delta.ratio is None  # no ZeroDivisionError, no verdict
        assert not delta.vanished
        assert result.ok
        assert "no-baseline" in result.report()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_on_either_side_fails(self, bad, tmp_path):
        for current, baseline in ((bad, 100.0), (100.0, bad)):
            result = compare_benchmarks(
                _bench({"a": current}), _bench({"a": baseline})
            )
            assert not result.ok
            assert [d.name for d in result.non_finite] == ["a"]
            report = result.report()
            assert "NON-FINITE" in report and "FAIL" in report
            # Through the files and the CLI too: json writes NaN/Infinity
            # literals and json.load reads them back as floats.
            cur, base = tmp_path / "cur.json", tmp_path / "base.json"
            cur.write_text(json.dumps(_bench({"a": current})))
            base.write_text(json.dumps(_bench({"a": baseline})))
            assert perf_main(["compare", str(cur), str(base)]) == 1

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            compare_benchmarks(_bench({}), _bench({}), threshold=1.5)

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            compare_benchmarks({"nope": 1}, _bench({}))

    def test_report_mentions_verdict(self):
        bad = compare_benchmarks(_bench({"a": 10.0}), _bench({"a": 100.0}))
        assert "REGRESSION" in bad.report()
        assert "FAIL" in bad.report()
        good = compare_benchmarks(_bench({"a": 100.0}), _bench({"a": 100.0}))
        assert "PASS" in good.report()


class TestBenchHarness:
    def test_registered_scenarios(self):
        assert set(scenario_names()) == {
            "ycsb_latency",
            "txn_mix",
            "failover_availability",
            "gray_availability",
            "atomicity_fuzz",
            "elastic_scaling",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            run_scenario("no_such_scenario")

    def test_scenario_timing_accounts_events(self):
        # A stub scenario that runs a real (tiny) simulator so the
        # tracked-event accounting has something to count.
        def stub(scale):
            from repro.sim.engine import Simulator

            sim = Simulator()
            for i in range(25):
                sim.call_later(float(i), lambda: None)
            sim.run()
            return {"ops": 5, "sim_ns": 24.0}

        timing = run_scenario("stub", fn=stub, repeats=2)
        assert timing.events_scheduled == 25
        assert timing.events_fired == 25
        assert timing.ops == 5
        assert timing.sim_ns == 24.0
        assert timing.wall_s > 0
        assert timing.events_per_s > 0

    def test_bench_json_shape_and_roundtrip(self, tmp_path):
        def stub(scale):
            from repro.sim.engine import Simulator

            sim = Simulator()
            sim.call_later(1.0, lambda: None)
            sim.run()
            return {"ops": 1, "sim_ns": 1.0}

        timing = run_scenario("stub", fn=stub, repeats=1)
        result = BenchResult(
            scenarios={"stub": timing},
            scale=1.0,
            repeats=1,
            elapsed_s=timing.wall_s,
        )
        path = tmp_path / "BENCH_perf.json"
        result.write_json(str(path))
        data = json.loads(path.read_text())
        assert data["suite"] == "repro-perf"
        assert data["engine"] == "kernel"
        row = data["scenarios"]["stub"]
        for key in (
            "wall_s",
            "events_scheduled",
            "events_fired",
            "events_per_s",
            "sim_ns",
            "sim_ns_per_s",
            "ops",
            "ops_per_s",
        ):
            assert key in row, key

    def test_compare_files_end_to_end(self, tmp_path):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        cur.write_text(json.dumps(_bench({"a": 50.0})))
        base.write_text(json.dumps(_bench({"a": 100.0})))
        assert not compare_files(str(cur), str(base)).ok

    def test_cli_compare_exit_codes(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        base = tmp_path / "base.json"
        cur.write_text(json.dumps(_bench({"a": 50.0})))
        base.write_text(json.dumps(_bench({"a": 100.0})))
        assert perf_main(["compare", str(cur), str(base)]) == 1
        assert (
            perf_main(["compare", str(cur), str(base), "--warn-only"]) == 0
        )
        cur.write_text(json.dumps(_bench({"a": 100.0})))
        assert perf_main(["compare", str(cur), str(base)]) == 0
        capsys.readouterr()

    def test_cli_list(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out


@pytest.mark.smoke
class TestScenarioSmoke:
    """Every registered scenario runs end-to-end at a tiny scale and
    reports sane counters (this is also what the CI perf-smoke job
    exercises at a larger scale)."""

    def test_suite_runs_and_writes_artifact(self, tmp_path):
        result = run_suite(
            names=["atomicity_fuzz"], scale=0.05, repeats=1
        )
        assert result.scenarios["atomicity_fuzz"].events_scheduled > 1000
        assert result.scenarios["atomicity_fuzz"].ops == 3  # rounds
        path = tmp_path / "bench.json"
        result.write_json(str(path))
        assert json.loads(path.read_text())["scenarios"]["atomicity_fuzz"]

    def test_reference_speedup_embedding(self, tmp_path):
        first = run_suite(names=["txn_mix"], scale=0.05, repeats=1)
        ref = tmp_path / "ref.json"
        first.write_json(str(ref))
        second = run_suite(
            names=["txn_mix"], scale=0.05, repeats=1,
            reference_path=str(ref),
        )
        speedup = second.reference["speedup"]["txn_mix"]
        assert 0.1 < speedup["events_per_s"] < 10.0
