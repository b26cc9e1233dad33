"""Forecasting models over persistent-network targets.

Four models share one protocol: fit on the first ``train_days`` of each
target's series, then forecast ``horizon`` further days recursively, feeding
predictions back in as lagged inputs.  The network-augmented model adds
same-day terms from the target's persistent in-neighbors; during the test
horizon those terms use observed neighbor views by default, or neighbor
forecasts when ``neighbor_mode="forecast"``.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .data_model import DataFormatError, Dataset, NumericalError
from .persistence import PersistentNetwork

SMOOTH_EPS = 1e-8
RIDGE = 1e-8

MODEL_NAMES = ("naive", "snaive", "ar", "arnet")


@dataclass(frozen=True)
class ForecastConfig:
    """Shared protocol settings.

    ``train_days`` + ``horizon`` must not exceed the observation window; the
    split is checked where the data is at hand.
    """

    p: int = 7
    m_star: int = 7
    train_days: int = 56
    horizon: int = 7
    neighbor_mode: str = "observed"
    max_iter: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.p < 1 or self.m_star < 1 or self.horizon < 1:
            raise DataFormatError("p, m_star and horizon must be positive")
        if self.train_days < self.p + 1:
            raise DataFormatError("training window shorter than the lag order allows")
        if self.neighbor_mode not in ("observed", "forecast"):
            raise DataFormatError(f"unknown neighbor mode {self.neighbor_mode!r}")


@dataclass(frozen=True, eq=False)
class ArModel:
    """Linear autoregression y[t] ~ sum_tau alpha[tau] * y[t - tau]."""

    video_id: str
    alpha: np.ndarray


@dataclass(frozen=True)
class FitDiagnostics:
    """What L-BFGS-B reported for one network-model fit.

    ``objective`` is the final smoothed training SMAPE; ``n_params`` = p plus
    the neighbor count, against ``n_rows`` regression rows.
    """

    converged: bool
    nit: int
    nfev: int
    objective: float
    n_params: int
    n_rows: int
    message: str


@dataclass(frozen=True, eq=False)
class ArnetModel:
    """Autoregression plus same-day persistent in-neighbor terms.

    alpha is non-negative, beta values lie in [0, 1], keyed by neighbor id.
    ``fit`` holds the optimizer's report when the model was fitted here.
    """

    video_id: str
    alpha: np.ndarray
    beta: Mapping[str, float]
    fit: FitDiagnostics | None = None


def predict_naive(history: Sequence[float] | np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last observed value."""
    h = np.asarray(history, dtype=float)
    if h.size == 0:
        raise DataFormatError("cannot forecast from an empty history")
    return np.full(horizon, h[-1])


def predict_seasonal_naive(
    history: Sequence[float] | np.ndarray, horizon: int, m_star: int = 7
) -> np.ndarray:
    """Repeat the value one season back, cycling the last season forward."""
    h = np.asarray(history, dtype=float)
    if h.size < m_star:
        raise DataFormatError(f"history shorter than the season length {m_star}")
    tail = h[-m_star:]
    return tail[np.arange(horizon) % m_star]


def _lag_matrix(y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = p..n-1 of lagged values; column tau-1 holds y[t - tau]."""
    n = y.size
    lags = np.column_stack([y[p - tau : n - tau] for tau in range(1, p + 1)])
    return lags, y[p:]


def fit_ar(video_id: str, series: Sequence[float] | np.ndarray, p: int = 7) -> ArModel:
    """Least-squares AR(p) without intercept, tiny ridge for conditioning."""
    y = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DataFormatError(f"training series of {video_id} has non-finite values")
    if y.size - p < p + 1:
        raise DataFormatError(
            f"{video_id}: {y.size} training days leave fewer than p+1 regression rows"
        )
    lags, target = _lag_matrix(y, p)
    gram = lags.T @ lags + RIDGE * np.eye(p)
    alpha = np.linalg.solve(gram, lags.T @ target)
    return ArModel(video_id, alpha)


def _smape_objective(
    lags: np.ndarray, neighbors: np.ndarray, target: np.ndarray
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """Smoothed SMAPE over training rows, with its analytic gradient.

    Each row contributes 200/T * |y - yhat| / (|y| + |yhat| + eps); the eps
    keeps the term differentiable when both values vanish.
    """
    rows = target.size
    abs_target = np.abs(target)

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = lags.shape[1]
        pred = lags @ x[:p] + neighbors @ x[p:]
        diff = target - pred
        absdiff = np.abs(diff)
        denom = abs_target + np.abs(pred) + SMOOTH_EPS
        value = 200.0 / rows * float(np.sum(absdiff / denom))
        sgn = np.sign(diff)
        dpred = (-sgn * denom - absdiff * np.sign(pred)) / denom**2
        grad = 200.0 / rows * np.concatenate([lags.T @ dpred, neighbors.T @ dpred])
        return value, grad

    return fun


def fit_arnet(
    video_id: str,
    series: Sequence[float] | np.ndarray,
    neighbor_series: Mapping[str, Sequence[float] | np.ndarray],
    config: ForecastConfig | None = None,
    return_trace: bool = False,
) -> ArnetModel | tuple[ArnetModel, np.ndarray]:
    """Fit the network-augmented model by minimizing smoothed training SMAPE.

    Bound-constrained L-BFGS (memory 10) from the fixed start alpha = 1/p,
    beta = 0.1; stops on a projected-gradient tolerance of ``grad_tol`` or
    after ``max_iter`` iterations.  Deterministic: no randomness anywhere.
    The model carries the optimizer's status in ``fit``; a fit that stopped
    without converging is returned, not rejected, and callers report it.
    With ``return_trace`` the objective value at each accepted iterate is
    returned alongside the model.
    """
    config = config or ForecastConfig()
    p = config.p
    y = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(y)):
        raise DataFormatError(f"training series of {video_id} has non-finite values")
    if y.size - p < 1:
        raise DataFormatError(f"{video_id}: no regression rows for p = {p}")

    neighbor_ids = sorted(neighbor_series)
    nb = np.zeros((y.size - p, len(neighbor_ids)))
    for j, u in enumerate(neighbor_ids):
        vals = np.asarray(neighbor_series[u], dtype=float)
        if vals.shape != y.shape:
            raise DataFormatError(f"neighbor series {u} does not match the target length")
        if not np.all(np.isfinite(vals)):
            raise DataFormatError(f"neighbor series {u} has non-finite values")
        nb[:, j] = vals[p:]
    lags, target = _lag_matrix(y, p)

    fun = _smape_objective(lags, nb, target)
    x0 = np.concatenate([np.full(p, 1.0 / p), np.full(len(neighbor_ids), 0.1)])
    f0, _ = fun(x0)
    if not np.isfinite(f0):
        raise NumericalError(f"{video_id}: objective is not finite at the start point")

    trace = [f0]
    result = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * p + [(0.0, 1.0)] * len(neighbor_ids),
        callback=(lambda xk: trace.append(fun(xk)[0])) if return_trace else None,
        options={
            "maxiter": config.max_iter,
            "maxcor": 10,
            "gtol": config.grad_tol,
            "ftol": 1e-12,
        },
    )
    if not np.all(np.isfinite(result.x)):
        raise NumericalError(f"{video_id}: optimizer returned non-finite coefficients")

    x = result.x.copy()
    x[:p] = np.maximum(x[:p], 0.0)
    x[p:] = np.clip(x[p:], 0.0, 1.0)
    beta = {u: float(x[p + j]) for j, u in enumerate(neighbor_ids)}
    diagnostics = FitDiagnostics(
        converged=bool(result.success),
        nit=int(result.nit),
        nfev=int(result.nfev),
        objective=float(result.fun),
        n_params=x.size,
        n_rows=target.size,
        message=str(result.message).strip(),
    )
    model = ArnetModel(video_id, x[:p], beta, diagnostics)
    if return_trace:
        return model, np.asarray(trace)
    return model


def forecast(
    model: ArModel | ArnetModel,
    history: Sequence[float] | np.ndarray,
    neighbor_values: Mapping[str, Sequence[float] | np.ndarray] | None = None,
    config: ForecastConfig | None = None,
) -> np.ndarray:
    """Recursive multi-step forecast, clamped at zero.

    Lagged inputs beyond the history come from earlier predictions.  For a
    network model, ``neighbor_values`` must provide each neighbor's value for
    every horizon day.
    """
    config = config or ForecastConfig()
    p = len(model.alpha)
    hist = np.asarray(history, dtype=float)
    if hist.size < p:
        raise DataFormatError("history shorter than the lag order")

    beta_items: list[tuple[str, float]] = []
    if isinstance(model, ArnetModel) and model.beta:
        beta_items = sorted(model.beta.items())
        if neighbor_values is None:
            raise DataFormatError(f"{model.video_id}: neighbor values are required")
        for u, _ in beta_items:
            vals = neighbor_values.get(u)
            if vals is None or len(vals) < config.horizon:
                raise DataFormatError(
                    f"{model.video_id}: missing neighbor values for {u} over the horizon"
                )

    buf = list(hist[-p:])
    alpha = model.alpha
    preds = np.empty(config.horizon)
    for h in range(config.horizon):
        val = 0.0
        for tau in range(1, p + 1):
            val += alpha[tau - 1] * buf[-tau]
        for u, b in beta_items:
            val += b * float(neighbor_values[u][h])
        val = max(0.0, val)
        preds[h] = val
        buf.append(val)
    return preds


# ---------------------------------------------------------------------------
# evaluation protocol


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Aligned truth/prediction matrices for one model over the test horizon."""

    model_name: str
    video_ids: tuple[str, ...]
    dates: tuple[date, ...]
    y_true: np.ndarray
    y_pred: np.ndarray

    def row(self, video_id: str) -> tuple[np.ndarray, np.ndarray]:
        i = self.video_ids.index(video_id)
        return self.y_true[i], self.y_pred[i]


def split_series(dataset: Dataset, video_id: str, config: ForecastConfig) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) split of one video's window-aligned series."""
    if config.train_days + config.horizon > dataset.window.n_days:
        raise DataFormatError(
            f"window of {dataset.window.n_days} days cannot hold "
            f"{config.train_days} training days plus a {config.horizon}-day horizon"
        )
    aligned = dataset.aligned_views(video_id).astype(float)
    return aligned[: config.train_days], aligned[config.train_days : config.train_days + config.horizon]


def resolve_neighbor_values(
    dataset: Dataset,
    models: Mapping[str, ArnetModel],
    config: ForecastConfig,
) -> dict[str, dict[str, np.ndarray]]:
    """Per-target neighbor value vectors for the test horizon.

    "observed" feeds each neighbor's actual test-day views.  "forecast" never
    touches test observations: neighbors that are themselves modeled targets
    contribute their own model forecast (with seasonal-naive values feeding
    that model's neighbor terms), all others contribute their seasonal-naive
    forecast.
    """
    sources = sorted({u for m in models.values() for u in m.beta})
    values: dict[str, np.ndarray] = {}
    if config.neighbor_mode == "observed":
        for u in sources:
            _, test = split_series(dataset, u, config)
            values[u] = test
    else:
        base: dict[str, np.ndarray] = {}

        def snaive_of(vid: str) -> np.ndarray:
            if vid not in base:
                train, _ = split_series(dataset, vid, config)
                base[vid] = predict_seasonal_naive(train, config.horizon, config.m_star)
            return base[vid]

        for u in sources:
            if u in models:
                m = models[u]
                train, _ = split_series(dataset, u, config)
                feed = {w: snaive_of(w) for w in m.beta}
                values[u] = forecast(m, train, feed, config)
            else:
                values[u] = snaive_of(u)
    return {vid: {u: values[u] for u in m.beta} for vid, m in models.items()}


def run_model(
    dataset: Dataset,
    persistent: PersistentNetwork,
    model_name: str,
    config: ForecastConfig | None = None,
    threads: int = 1,
) -> tuple[dict[str, ArModel] | dict[str, ArnetModel] | None, ForecastResult]:
    """Fit one model family on every persistent-network target and forecast.

    All four families forecast the same target set (targets of persistent
    links), so their reports are directly comparable.  Per-target network
    fits are independent; with ``threads`` > 1 they run in that many worker
    processes (see ``_fit_all``) and results are merged by video id, so the
    worker count never changes the output.  The closed-form AR fits are too
    cheap to ship to workers and always run here.
    """
    if model_name not in MODEL_NAMES:
        raise DataFormatError(f"unknown model {model_name!r}")
    config = config or ForecastConfig()
    targets = sorted(persistent.targets)
    if not targets:
        raise DataFormatError("persistent network has no targets to forecast")

    splits = {v: split_series(dataset, v, config) for v in targets}
    test_dates = tuple(
        dataset.window.start + timedelta(days=config.train_days + h)
        for h in range(config.horizon)
    )

    models: dict[str, ArModel] | dict[str, ArnetModel] | None = None
    preds: dict[str, np.ndarray] = {}

    if model_name == "naive":
        for v in targets:
            preds[v] = predict_naive(splits[v][0], config.horizon)
    elif model_name == "snaive":
        for v in targets:
            preds[v] = predict_seasonal_naive(splits[v][0], config.horizon, config.m_star)
    elif model_name == "ar":
        models = {v: fit_ar(v, splits[v][0], config.p) for v in targets}
        for v in targets:
            preds[v] = forecast(models[v], splits[v][0], None, config)
    else:
        def train_of(u: str) -> np.ndarray:
            if u in splits:
                return splits[u][0]
            return split_series(dataset, u, config)[0]

        def fit_one_arnet(v: str) -> ArnetModel:
            neighbors = {u: train_of(u) for u in persistent.in_edges.get(v, ())}
            return fit_arnet(v, splits[v][0], neighbors, config)

        models = _fit_all(targets, fit_one_arnet, threads)
        neighbor_values = resolve_neighbor_values(dataset, models, config)
        for v in targets:
            preds[v] = forecast(models[v], splits[v][0], neighbor_values[v], config)

    y_true = np.vstack([splits[v][1] for v in targets])
    y_pred = np.vstack([preds[v] for v in targets])
    result = ForecastResult(model_name, tuple(targets), test_dates, y_true, y_pred)
    return models, result


# The per-target fit a worker process runs; set in each worker at start-up.
_worker_fit: Callable[[str], object] | None = None


def _init_worker(fit_one: Callable[[str], object]) -> None:
    global _worker_fit
    _worker_fit = fit_one


def _fit_in_worker(video_id: str) -> object:
    return _worker_fit(video_id)


def _fit_all(targets: list[str], fit_one: Callable[[str], object], workers: int) -> dict:
    """Fit every target, in up to ``workers`` fork-started processes.

    Fork hands each worker ``fit_one`` and the data it closes over without
    pickling them, so only video ids and fitted models cross the pipes.  Each
    fit is the same deterministic computation wherever it runs.  Without
    ``fork`` (Windows) the fits run serially.  An exception raised in a
    worker is re-raised here unchanged.
    """
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return {v: fit_one(v) for v in targets}
    workers = min(workers, len(targets))
    # A few chunks per worker even out targets with many or few neighbors.
    chunksize = max(1, len(targets) // (4 * workers))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fit_one,),
    ) as pool:
        fitted = list(pool.map(_fit_in_worker, targets, chunksize=chunksize))
    return dict(zip(targets, fitted))
