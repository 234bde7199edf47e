"""Figure rendering from a results store (optional matplotlib).

:func:`panels_to_figure` turns the assembled series of a results store
into one matplotlib figure of
mean ± stderr panels, with **no recomputation**: everything drawn was
persisted by a previous ``run_sweep(..., store=...)``.  matplotlib is
an optional dependency; when it is absent the entry points raise a
:class:`~repro.errors.ConfigurationError` naming the missing package
(and :data:`HAVE_MATPLOTLIB` lets callers skip cleanly up front).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["HAVE_MATPLOTLIB", "panels_to_figure"]


def _figure_cls():
    # matplotlib.figure.Figure, not pyplot: building the figure object
    # directly needs no global backend, so library callers in notebooks
    # or GUIs keep whatever backend they selected (and savefig still
    # renders headless via the Agg canvas).
    try:
        from matplotlib.figure import Figure
    except ImportError as exc:  # pragma: no cover - exercised when absent
        raise ConfigurationError(
            "matplotlib is not installed; plotting is optional — "
            "`pip install matplotlib` to render stored series"
        ) from exc
    return Figure


def _have_matplotlib() -> bool:
    # find_spec, not a real import: this module loads with the analysis
    # package on every CLI start, and importing matplotlib (font cache,
    # rcParams) would tax commands that never plot.
    import importlib.util

    return importlib.util.find_spec("matplotlib") is not None


#: Whether the optional matplotlib dependency is importable.
HAVE_MATPLOTLIB: bool = _have_matplotlib()


def panels_to_figure(
    store_dir: Path | str,
    experiments: Sequence[str] | None = None,
    *,
    metrics: Sequence[str] | None = None,
    out: Path | str | None = None,
):
    """Render a store's series as a grid of mean ± stderr panels.

    One row per experiment id (default: every stored series), one
    column per metric (default: each series' own metrics), one line per
    strategy with stderr error bars.  Returns the matplotlib figure;
    with ``out`` it is also written to that path.  Raises
    :class:`~repro.errors.ConfigurationError` when the store holds no
    series, a requested experiment is missing, or matplotlib is absent.
    """
    from repro.sim.results import open_backend

    store = open_backend(store_dir)
    ids = list(experiments) if experiments is not None else store.list_series()
    if not ids:
        raise ConfigurationError(f"no stored series to plot under {store.locator}")
    series_list = [store.load_series(experiment_id) for experiment_id in ids]
    columns = [list(metrics) if metrics is not None else list(s.metrics) for s in series_list]
    ncols = max(len(c) for c in columns)
    if ncols == 0:
        raise ConfigurationError("no metrics selected to plot")

    fig = _figure_cls()(figsize=(4.0 * ncols, 3.0 * len(series_list)))
    axes = fig.subplots(len(series_list), ncols, squeeze=False)
    for row, (series, cols) in enumerate(zip(series_list, columns)):
        for col in range(ncols):
            ax = axes[row][col]
            if col >= len(cols):
                ax.axis("off")
                continue
            metric = cols[col]
            if metric not in series.metrics:
                raise ConfigurationError(
                    f"series {series.experiment!r} has no metric {metric!r} "
                    f"(has: {', '.join(series.metrics)})"
                )
            for strategy in series.metrics[metric]:
                yerr = series.stderr.get(metric, {}).get(strategy)
                ax.errorbar(
                    series.x_values,
                    series.metrics[metric][strategy],
                    yerr=yerr,
                    marker="o",
                    markersize=3,
                    capsize=2,
                    label=strategy,
                )
            ax.set_title(f"{series.experiment}: {metric}", fontsize=9)
            ax.set_xlabel(series.x_label)
            if col == 0:
                ax.set_ylabel(f"mean of {series.runs} runs")
            ax.legend(fontsize=7)
    fig.tight_layout()
    if out is not None:
        out = Path(out)
        out.parent.mkdir(parents=True, exist_ok=True)
        fig.savefig(out, dpi=150)
    return fig
