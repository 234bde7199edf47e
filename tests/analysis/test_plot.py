"""Store-driven figure rendering (optional matplotlib)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.plot import HAVE_MATPLOTLIB, panels_to_figure
from repro.errors import ConfigurationError
from repro.sim.registry import get_scenario
from repro.sim.results import open_backend
from repro.sim.sweep import run_sweep


@pytest.fixture()
def store(tmp_path):
    backend = open_backend(tmp_path)
    spec = replace(get_scenario("paper-join"), n=8, strategies=("Minim",), sweep_values=(6.0, 8.0))
    run_sweep(spec, runs=2, seed=3, store=backend)
    return backend


class TestPanelsToFigure:
    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no stored series"):
            panels_to_figure(tmp_path)

    def test_missing_experiment_rejected(self, store):
        with pytest.raises(ConfigurationError, match="no stored series"):
            panels_to_figure(store.path, ["nope"])

    @pytest.mark.skipif(HAVE_MATPLOTLIB, reason="matplotlib installed")
    def test_absent_matplotlib_raises_configuration_error(self, store):
        # the optional dependency is missing: the entry point must skip
        # cleanly with a ConfigurationError naming it, not ImportError
        with pytest.raises(ConfigurationError, match="matplotlib"):
            panels_to_figure(store.path)

    @pytest.mark.skipif(not HAVE_MATPLOTLIB, reason="matplotlib not installed")
    def test_renders_stored_series_without_recompute(self, store, tmp_path):
        out = tmp_path / "fig" / "panels.png"
        fig = panels_to_figure(store.path, out=out)
        assert out.exists() and out.stat().st_size > 0
        assert len(fig.axes) == 3  # one series x three metrics

    @pytest.mark.skipif(not HAVE_MATPLOTLIB, reason="matplotlib not installed")
    def test_unknown_metric_rejected(self, store):
        with pytest.raises(ConfigurationError, match="no metric"):
            panels_to_figure(store.path, metrics=["nope"])
