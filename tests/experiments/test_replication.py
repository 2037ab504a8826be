"""Multi-seed replication and confidence intervals."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.config import ScenarioConfig
from repro.experiments.replication import MetricEstimate, replicate


class TestMetricEstimate:
    def test_single_sample_zero_width(self):
        estimate = MetricEstimate.of([0.5])
        assert estimate.mean == 0.5
        assert estimate.half_width == 0.0
        assert estimate.samples == 1

    def test_mean_and_interval(self):
        estimate = MetricEstimate.of([0.8, 0.9, 1.0])
        assert estimate.mean == pytest.approx(0.9)
        assert estimate.half_width > 0.0
        assert estimate.low < 0.9 < estimate.high

    def test_half_width_is_student_t_quantile_times_sem(self):
        from scipy import stats

        estimate = MetricEstimate.of([1, 2, 3])
        sem = math.sqrt(1.0 / 3)  # sample variance 1, n = 3
        assert estimate.half_width == stats.t.ppf(0.975, 2) * sem

    def test_wider_confidence_wider_interval(self):
        values = [0.7, 0.8, 0.9, 1.0]
        narrow = MetricEstimate.of(values, confidence=0.90)
        wide = MetricEstimate.of(values, confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_nan_values_skipped(self):
        estimate = MetricEstimate.of([0.5, math.nan, 0.7])
        assert estimate.samples == 2
        assert estimate.mean == pytest.approx(0.6)

    def test_all_nan_is_none(self):
        assert MetricEstimate.of([math.nan, math.nan]) is None
        assert MetricEstimate.of([]) is None

    def test_infinite_values_skipped(self):
        # Regression: one infinite latency sample (a replication where no
        # broadcast completed) used to poison the mean and CI.
        estimate = MetricEstimate.of([0.5, math.inf, 0.7, -math.inf])
        assert estimate.samples == 2
        assert estimate.mean == pytest.approx(0.6)
        assert math.isfinite(estimate.half_width)

    def test_all_infinite_is_none(self):
        assert MetricEstimate.of([math.inf, -math.inf]) is None

    def test_str_format(self):
        assert "+/-" in str(MetricEstimate.of([0.5, 0.6]))


class TestReplicate:
    def _config(self):
        return ScenarioConfig(
            scheme="flooding", map_units=3, num_hosts=20, num_broadcasts=3
        )

    def test_runs_one_per_seed(self):
        result = replicate(self._config(), seeds=[1, 2, 3])
        assert len(result.results) == 3
        assert result.re.samples == 3
        seeds = [r.config.seed for r in result.results]
        assert seeds == [1, 2, 3]

    def test_interval_contains_individual_means_center(self):
        result = replicate(self._config(), seeds=[1, 2, 3])
        values = [r.re for r in result.results]
        assert result.re.mean == pytest.approx(sum(values) / 3)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            replicate(self._config(), seeds=[])
        with pytest.raises(ValueError):
            replicate(self._config(), seeds=[1, 1])

    def test_summary_string(self):
        result = replicate(self._config(), seeds=[1, 2])
        assert "flooding@3x3" in result.summary()


def test_runner_import_leaves_scipy_stats_unloaded():
    """scipy.stats is imported only when a multi-sample estimate needs a
    t-quantile, so the runner's import path stays cheap."""
    code = (
        "import sys, repro.experiments.parallel; "
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
