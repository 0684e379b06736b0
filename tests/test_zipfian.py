"""Tests for the Zipfian access-pattern generator and skewed runs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.generators import ZipfianPicker
from repro.workloads.microbench import MicrobenchConfig, run_microbench


class TestZipfianPicker:
    def test_skew_concentrates_on_head(self):
        picker = ZipfianPicker(range(100), seed=1, theta=0.99)
        counts = {}
        for _ in range(5000):
            obj = picker.pick()
            counts[obj] = counts.get(obj, 0) + 1
        head = sum(counts.get(i, 0) for i in range(10))
        assert head / 5000 > 0.4  # top 10 % of keys draw >40 % of traffic

    def test_hot_fraction_monotone(self):
        picker = ZipfianPicker(range(100), seed=1)
        assert picker.hot_fraction(0) == 0.0
        assert picker.hot_fraction(1) < picker.hot_fraction(10)
        assert picker.hot_fraction(100) == pytest.approx(1.0)
        assert picker.hot_fraction(500) == pytest.approx(1.0)

    def test_deterministic(self):
        a = [ZipfianPicker(range(50), seed=7).pick() for _ in range(30)]
        b = [ZipfianPicker(range(50), seed=7).pick() for _ in range(30)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianPicker([], seed=1)
        with pytest.raises(ValueError):
            ZipfianPicker(range(5), seed=1, theta=0.0)
        with pytest.raises(ValueError):
            ZipfianPicker(range(5), seed=1, theta=2.5)

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=100))
    def test_pick_always_in_range(self, n, seed):
        picker = ZipfianPicker(range(n), seed=seed)
        for _ in range(20):
            assert 0 <= picker.pick() < n

    def test_tables_shared_across_seeds_and_streams_unchanged(self):
        """The alias/CDF tables depend only on ``(n, theta)``: pickers
        with different seeds (or id lists of the same length) share one
        immutable copy, and each still draws the stream it drew when
        every picker built its own tables."""
        a = ZipfianPicker(range(1000), seed=3, theta=0.99, label="t")
        b = ZipfianPicker(range(1000), seed=11, theta=0.99, label="t")
        c = ZipfianPicker(range(2000, 3000), seed=3, theta=0.99)
        for attr in ("_cdf", "_prob", "_alias"):
            assert getattr(a, attr) is getattr(b, attr) is getattr(c, attr)
            assert isinstance(getattr(a, attr), tuple)
        assert ZipfianPicker(range(1000), seed=3, theta=1.2)._prob is not a._prob
        assert [a.pick() for _ in range(12)] == [
            67, 0, 0, 806, 964, 5, 221, 44, 619, 12, 77, 33,
        ]
        assert [b.pick() for _ in range(12)] == [
            102, 18, 58, 10, 30, 491, 118, 0, 111, 3, 0, 31,
        ]
        shifted = ZipfianPicker(list(range(500, 600)), seed=5, theta=1.2)
        assert [shifted.pick() for _ in range(12)] == [
            500, 508, 502, 501, 500, 556, 501, 507, 504, 500, 500, 584,
        ]

    def test_lower_theta_less_skew(self):
        steep = ZipfianPicker(range(100), seed=1, theta=1.2)
        flat = ZipfianPicker(range(100), seed=1, theta=0.3)
        assert steep.hot_fraction(5) > flat.hot_fraction(5)


class TestSkewedMicrobench:
    def test_skew_raises_conflict_rate(self):
        """Hot keys concentrate reader-writer collisions: with the same
        writer pool, Zipfian access sees more aborts per completed op
        than uniform access."""
        results = {}
        for theta in (0.0, 0.99):
            results[theta] = run_microbench(
                MicrobenchConfig(
                    mechanism="sabre",
                    object_size=1024,
                    n_objects=100,
                    readers=8,
                    writers=8,
                    zipf_theta=theta,
                    duration_ns=80_000.0,
                    warmup_ns=10_000.0,
                    seed=31,
                )
            )
        uniform, skewed = results[0.0], results[0.99]
        rate_uniform = uniform.sabre_aborts / max(uniform.ops_completed, 1)
        rate_skewed = skewed.sabre_aborts / max(skewed.ops_completed, 1)
        assert rate_skewed > rate_uniform
        assert skewed.undetected_violations == 0

    def test_skewed_sabres_still_safe_and_live(self):
        result = run_microbench(
            MicrobenchConfig(
                mechanism="sabre",
                object_size=512,
                n_objects=20,
                readers=4,
                writers=4,
                zipf_theta=1.1,
                duration_ns=60_000.0,
                warmup_ns=8_000.0,
                seed=32,
            )
        )
        assert result.ops_completed > 0
        assert result.undetected_violations == 0
