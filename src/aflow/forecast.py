"""Forecasting models over persistent-network targets.

Four models share one protocol: fit on the first ``train_days`` of each
target's series, then forecast ``horizon`` further days recursively, feeding
predictions back in as lagged inputs.  The network-augmented model adds
same-day terms from the target's persistent in-neighbors; during the test
horizon those terms use observed neighbor views by default, or neighbor
forecasts when ``neighbor_mode="forecast"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Callable, Mapping, Sequence

import numpy as np

from .data_model import DataFormatError, Dataset, NumericalError
from .persistence import PersistentNetwork

SMOOTH_EPS = 1e-8
RIDGE = 1e-8

MODEL_NAMES = ("naive", "snaive", "ar", "arnet")
NEIGHBOR_MODES = ("observed", "forecast")


@dataclass(frozen=True)
class ForecastConfig:
    """Shared protocol settings.

    ``train_days`` is at least ``2p + 1``, so an AR(p) fit has ``p + 1``
    regression rows, and at least ``m_star``, one season for seasonal naive.
    ``train_days`` + ``horizon`` must not exceed the observation window; the
    split is checked where the data is at hand.
    """

    p: int = 7
    m_star: int = 7
    train_days: int = 56
    horizon: int = 7
    neighbor_mode: str = "observed"

    def __post_init__(self) -> None:
        if self.p < 1 or self.m_star < 1 or self.horizon < 1:
            raise DataFormatError("p, m_star and horizon must be positive")
        if self.train_days < 2 * self.p + 1:
            raise DataFormatError("training window shorter than the lag order allows")
        if self.train_days < self.m_star:
            raise DataFormatError("training window shorter than the season length m_star")
        if self.neighbor_mode not in NEIGHBOR_MODES:
            raise DataFormatError(f"unknown neighbor mode {self.neighbor_mode!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    """What the solver reported for one network-model fit.

    ``objective`` is the final smoothed training SMAPE and
    ``start_objective`` its value at the start point; ``n_params`` = p plus
    the neighbor count, against ``n_rows`` regression rows.  ``message`` is
    the stop reason, one of the ``STOP_*`` strings below.
    """

    converged: bool
    nit: int
    nfev: int
    objective: float
    n_params: int
    n_rows: int
    message: str
    start_objective: float


@dataclass(frozen=True, eq=False)
class ArnetModel:
    """Autoregression plus same-day persistent in-neighbor terms.

    Without beta terms it is the plain AR model.  A fitted network model has
    non-negative alpha and beta values in [0, 1], keyed by neighbor id.
    ``fit`` holds the optimizer's report when the model was fitted here.
    """

    video_id: str
    alpha: np.ndarray
    beta: Mapping[str, float] = field(default_factory=dict)
    fit: FitDiagnostics | None = None


def predict_naive(history: Sequence[float] | np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last observed value of a series, or of each row of a matrix."""
    h = np.asarray(history, dtype=float)
    if h.shape[-1] == 0:
        raise DataFormatError("cannot forecast from an empty history")
    return np.repeat(h[..., -1:], horizon, axis=-1)


def predict_seasonal_naive(
    history: Sequence[float] | np.ndarray, horizon: int, m_star: int = ForecastConfig.m_star
) -> np.ndarray:
    """Repeat the value one season back, cycling the last season forward, of a series or each row."""
    h = np.asarray(history, dtype=float)
    if h.shape[-1] < m_star:
        raise DataFormatError(f"history shorter than the season length {m_star}")
    # in C order: numpy sums a row of a C-ordered matrix pairwise, as it does a 1-D array,
    # but a row of this index's F-ordered result one value at a time
    return np.ascontiguousarray(h[..., np.arange(horizon) % m_star - m_star])


def _finite_rows(ids: Sequence[str], train: np.ndarray) -> None:
    """Raise on the first row of ``train``, named by ``ids``, that holds a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(train).all(axis=1))
    if bad.size:
        raise DataFormatError(f"training series of {ids[bad[0]]} has non-finite values")


def _lags(train: np.ndarray, p: int) -> np.ndarray:
    """Each row's AR(p) regressors, (rows, days - p, p): [i, t - p, tau - 1] holds train[i, t - tau].
    ``np.take`` returns them C-ordered, where ``train[:, days]`` would need a second copy."""
    return np.take(train, np.arange(p, train.shape[1])[:, None] - np.arange(1, p + 1), axis=1)


def fit_ar(video_ids: Sequence[str], train: np.ndarray, p: int = ForecastConfig.p) -> dict[str, ArnetModel]:
    """Least-squares AR(p), without intercept and with a tiny ridge for conditioning, of each
    row of ``train``, named by ``video_ids``.  One stacked matmul and one stacked solve fit all
    rows, each on its own; a row whose Gram matrix is singular (e.g. a constant series, whose
    ridge is lost against it) takes ``lstsq``'s fit."""
    train = np.asarray(train, dtype=float)
    _finite_rows(video_ids, train)
    if train.shape[1] - p < p + 1:
        raise DataFormatError(f"{train.shape[1]} training days leave fewer than p+1 regression rows")
    lags, target = _lags(train, p), train[:, p:, None]
    gram = np.matmul(lags.transpose(0, 2, 1), lags) + RIDGE * np.eye(p)
    alpha = _solve_each(gram, np.matmul(lags.transpose(0, 2, 1), target))
    for i in np.flatnonzero(np.isnan(alpha).any(axis=1)):
        alpha[i] = np.linalg.lstsq(lags[i], target[i, :, 0], rcond=None)[0]
    return {v: ArnetModel(v, a) for v, a in zip(video_ids, alpha)}


def _solve_each(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The (n, params) solutions of n systems, (params, params) matrices and (params, 1)
    right-hand sides, each solved on its own; NaN where numpy finds the matrix singular."""
    try:
        return np.linalg.solve(gram, rhs)[:, :, 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack: split it
        if len(gram) == 1:
            return np.full((1, rhs.shape[1]), np.nan)
        half = len(gram) // 2
        return np.concatenate([_solve_each(gram[:half], rhs[:half]), _solve_each(gram[half:], rhs[half:])])


# ---------------------------------------------------------------------------
# network-model fitting: projected L-BFGS over blocks of same-shape problems
#
# Each target's problem is min smoothed SMAPE(x) subject to alpha >= 0 and
# 0 <= beta <= 1.  Targets with the same row and parameter counts are solved
# together as one block: arrays are (targets x rows x params), every
# operation acts on each target's own slice, and reductions run along the
# last, contiguous axis, so a target's iterates are the same floating-point
# operations whatever else shares its block.  Targets do not wait for each
# other: each round evaluates one trial point per target, whatever stage of
# its line search the target is at, and a target leaves the block as soon as
# it stops.

MEMORY = 10  # correction pairs kept per target, as L-BFGS-B's default
MAX_ITER = 500  # iterations before a fit stops unconverged
GRAD_TOL = 1e-6  # projected-gradient max-norm that counts as converged, as L-BFGS-B's gtol
REL_REDUCTION = 1e-12  # L-BFGS-B's ftol
MIN_STEP = 1e-7  # a line search tries no step that moves every parameter less
_ARMIJO = 1e-4  # sufficient decrease, as L-BFGS-B's line search
_WOLFE = 0.5  # curvature, as in Lewis & Overton (2013)
_SEARCH_STEPS = 40  # trial points before a line search gives up

# Stop reasons, written to fit_diagnostics.csv as the fit's message.
STOP_GRADIENT = "projected gradient <= grad_tol"
STOP_REDUCTION = "relative reduction <= 1e-12"
STOP_KINK = "no descent along projected steepest descent"
STOP_ITERATIONS = "iteration limit reached"
CONVERGED_STOPS = (STOP_GRADIENT, STOP_REDUCTION, STOP_KINK)
_START_NOT_FINITE = "objective not finite at the start point"


def _smape_block(
    rows: np.ndarray, cols: np.ndarray, target: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed training SMAPE of each problem in a block, with its gradient.

    ``rows`` is (targets, rows, params), ``cols`` the same data as
    (targets, params, rows), ``target`` is (targets, rows) and ``x`` is
    (targets, params).  Each row contributes 200/T * |y - yhat| /
    (|y| + |yhat| + eps); the eps keeps the term differentiable when both
    values vanish.
    """
    pred = np.einsum("trp,tp->tr", rows, x)
    diff = target - pred
    absdiff = np.abs(diff)
    denom = np.abs(target) + np.abs(pred) + SMOOTH_EPS
    scale = 200.0 / target.shape[1]
    value = scale * (absdiff / denom).sum(axis=1)
    dpred = (-np.sign(diff) * denom - absdiff * np.sign(pred)) / denom**2
    grad = scale * np.einsum("tpr,tr->tp", cols, dpred)
    return value, grad


def _two_loop(s: np.ndarray, y: np.ndarray, rho: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H q by the L-BFGS two-loop recursion, for every target of a block.

    Pairs are stored oldest first.  A pair with rho = 0 changes nothing, and
    every slot is visited for every target, so a target's result never
    depends on the rest of its block.  H starts from the scaling s.y / y.y
    of the newest pair in use.
    """
    q = q.copy()
    a = np.empty(rho.shape)
    for i in range(MEMORY - 1, -1, -1):
        a[:, i] = rho[:, i] * np.einsum("tp,tp->t", s[:, i], q)
        q -= a[:, i, None] * y[:, i]
    pick = np.arange(q.shape[0])
    newest = MEMORY - 1 - np.argmax(rho[:, ::-1] > 0.0, axis=1)
    yn = y[pick, newest]
    yy = np.einsum("tp,tp->t", yn, yn)
    used = rho[pick, newest] > 0.0
    gamma = np.where(used, np.einsum("tp,tp->t", s[pick, newest], yn) / np.where(used, yy, 1.0), 1.0)
    r = gamma[:, None] * q
    for i in range(MEMORY):
        b = rho[:, i] * np.einsum("tp,tp->t", y[:, i], r)
        r += s[:, i] * (a[:, i] - b)[:, None]
    return r


def _free_direction(
    s: np.ndarray, y: np.ndarray, g: np.ndarray, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """-H g over the free parameters, and whether any pair was used.

    The stored pairs are restricted to the free parameters and a pair without
    positive curvature there, s.y <= eps y.y, is left out, so the direction
    comes from the approximation of the reduced Hessian, not from a slice of
    the full one.
    """
    keep = free[:, None, :]
    sf, yf = np.where(keep, s, 0.0), np.where(keep, y, 0.0)
    sy = np.einsum("tmp,tmp->tm", sf, yf)
    usable = sy > np.finfo(float).eps * np.einsum("tmp,tmp->tm", yf, yf)
    rho = np.where(usable, 1.0 / np.where(usable, sy, 1.0), 0.0)
    d = np.where(free, -_two_loop(sf, yf, rho, np.where(free, g, 0.0)), 0.0)
    return d, usable.any(axis=1)


def _search_direction(
    x: np.ndarray, g: np.ndarray, s: np.ndarray, y: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Projected L-BFGS direction of each target, and whether it is steepest descent.

    A parameter at a bound is fixed when its gradient points out of the box.
    A free one at a bound that the direction would push out is fixed too, and
    the direction is computed again without it; anything still pointing out
    after that stays put.  With no usable pair, or no descent, the direction
    is projected steepest descent.
    """
    at_lower, at_upper = x <= 0.0, x >= upper
    free = ~((at_lower & (g > 0.0)) | (at_upper & (g < 0.0)))
    d, used = _free_direction(s, y, g, free)
    outward = (at_lower & (d < 0.0)) | (at_upper & (d > 0.0))
    redo = np.flatnonzero(outward.any(axis=1))
    if redo.size:
        d[redo], used[redo] = _free_direction(s[redo], y[redo], g[redo], free[redo] & ~outward[redo])
        outward[redo] = (at_lower[redo] & (d[redo] < 0.0)) | (at_upper[redo] & (d[redo] > 0.0))
        d = np.where(outward, 0.0, d)
    steepest = ~used | (np.einsum("tp,tp->t", g, d) >= 0.0)
    return np.where(steepest[:, None], np.where(free, -g, 0.0), d), steepest


@dataclass
class _Solution:
    """Per-target outcome of a block solve."""

    x: np.ndarray
    f: np.ndarray
    f0: np.ndarray  # the objective at the start point
    nit: np.ndarray
    nfev: np.ndarray
    stop: np.ndarray  # the stop reason of each target, as str objects


class _Live:
    """Per-target arrays of the targets still in a block, compacted as they stop."""

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def keep(self, mask: np.ndarray) -> None:
        for name, values in vars(self).items():
            setattr(self, name, values[mask])


def _solve_block(
    rows: np.ndarray,
    target: np.ndarray,
    upper: np.ndarray,
    x0: np.ndarray,
) -> _Solution:
    """Projected L-BFGS (memory ``MEMORY``) for every problem of one block.

    Lower bounds are 0 and ``upper`` holds each parameter's upper bound.  An
    iteration takes the direction of ``_search_direction`` and a weak Wolfe
    line search along its projection onto the box, x(t) = clip(x + t d).
    With s = x(t) - x, a trial is taken when f(x(t)) <= f + ``_ARMIJO`` g.s
    (sufficient decrease) and g(x(t)).s >= ``_WOLFE`` g.s (the slope has
    flattened); otherwise t doubles or is bisected, as in Lewis & Overton
    (2013).  A search gives up after ``_SEARCH_STEPS`` trials, or at a trial
    that moves no parameter by ``MIN_STEP`` or more; it then takes its last
    trial with sufficient decrease, if there was one.

    When a search along an L-BFGS direction finds no such trial, the memory
    is dropped and projected steepest descent is searched instead.  When that
    finds none either, the target stops at a kink (``STOP_KINK``).  On
    smoothed SMAPE most fits end there: the objective is not differentiable
    where a prediction equals its target, and the minimum sits on such
    points.  The other stops are
    L-BFGS-B's: projected-gradient max-norm <= ``GRAD_TOL``, relative
    reduction of f <= ``REL_REDUCTION``, and ``MAX_ITER`` iterations.
    """
    n, _, n_params = rows.shape
    cols = np.ascontiguousarray(rows.transpose(0, 2, 1))
    f, g = _smape_block(rows, cols, target, x0)
    out = _Solution(x0.copy(), f.copy(), f.copy(), np.zeros(n, dtype=np.int64),
                    np.ones(n, dtype=np.int64), np.full(n, "", dtype=object))
    live = _Live(
        slot=np.arange(n), rows=rows, cols=cols, target=target,
        x=x0.copy(), f=f, g=g, nit=np.zeros(n, dtype=np.int64), nfev=np.ones(n, dtype=np.int64),
        s=np.zeros((n, MEMORY, n_params)), y=np.zeros((n, MEMORY, n_params)),
        # the line search under way: direction, trial step, bracket, trials,
        # and the last point with sufficient decrease
        d=np.zeros((n, n_params)), steepest=np.zeros(n, dtype=bool), t=np.zeros(n),
        lo=np.zeros(n), hi=np.zeros(n), trials=np.zeros(n, dtype=np.int64),
        x_lo=x0.copy(), f_lo=f.copy(), g_lo=g.copy(),
        stop=np.full(n, "", dtype=object),
    )

    def projected_gradient_small(k: np.ndarray) -> np.ndarray:
        pg = live.x[k] - np.clip(live.x[k] - live.g[k], 0.0, upper)
        return np.abs(pg).max(axis=1, initial=0.0) <= GRAD_TOL

    def start_search(k: np.ndarray) -> None:
        d, steepest = _search_direction(live.x[k], live.g[k], live.s[k], live.y[k], upper)
        live.d[k], live.steepest[k] = d, steepest
        # Steepest descent starts at length min(1, 1/|d|), as L-BFGS-B's first step.
        norm = np.sqrt(np.einsum("tp,tp->t", d, d))
        live.t[k] = np.where(steepest, 1.0 / np.maximum(norm, 1.0), 1.0)
        live.lo[k], live.hi[k], live.trials[k] = 0.0, np.inf, 0

    finite = np.isfinite(f)
    live.stop[finite & projected_gradient_small(np.arange(n))] = STOP_GRADIENT
    live.stop[~finite] = _START_NOT_FINITE
    start_search(np.flatnonzero(live.stop == ""))

    while True:
        ended = live.stop != ""
        if ended.any():
            j = live.slot[ended]
            out.x[j], out.f[j], out.stop[j] = live.x[ended], live.f[ended], live.stop[ended]
            out.nit[j], out.nfev[j] = live.nit[ended], live.nfev[ended]
            live.keep(~ended)
        if not live.slot.size:
            return out

        # One trial point per target.
        xt = np.clip(live.x + live.t[:, None] * live.d, 0.0, upper)
        ft, gt = _smape_block(live.rows, live.cols, live.target, xt)
        live.nfev += 1
        live.trials += 1
        step = xt - live.x
        slope = np.einsum("tp,tp->t", live.g, step)
        tiny = np.abs(step).max(axis=1) < MIN_STEP
        sufficient = ~tiny & (slope < 0.0) & (ft <= live.f + _ARMIJO * slope)
        flat = np.einsum("tp,tp->t", gt, step) >= _WOLFE * slope
        live.lo = np.where(sufficient, live.t, live.lo)
        live.hi = np.where(sufficient, live.hi, live.t)
        live.x_lo[sufficient], live.f_lo[sufficient], live.g_lo[sufficient] = (
            xt[sufficient], ft[sufficient], gt[sufficient])
        give_up = ~(sufficient & flat) & (tiny | (live.trials >= _SEARCH_STEPS))
        live.t = np.where(np.isinf(live.hi), 2.0 * live.lo, 0.5 * (live.lo + live.hi))

        moved = np.flatnonzero((sufficient & flat) | (give_up & (live.lo > 0.0)))
        if moved.size:
            x_new, f_new, g_new = live.x_lo[moved], live.f_lo[moved], live.g_lo[moved]
            live.s[moved] = np.roll(live.s[moved], -1, axis=1)
            live.y[moved] = np.roll(live.y[moved], -1, axis=1)
            live.s[moved, -1] = x_new - live.x[moved]
            live.y[moved, -1] = g_new - live.g[moved]
            f_old = live.f[moved]
            scale = np.maximum(np.maximum(np.abs(f_old), np.abs(f_new)), 1.0)
            live.x[moved], live.f[moved], live.g[moved] = x_new, f_new, g_new
            live.nit[moved] += 1
            for hit, reason in (
                (projected_gradient_small(moved), STOP_GRADIENT),
                (f_old - f_new <= REL_REDUCTION * scale, STOP_REDUCTION),
                (live.nit[moved] >= MAX_ITER, STOP_ITERATIONS),
            ):
                hit = moved[hit & (live.stop[moved] == "")]
                live.stop[hit] = reason

        failed = np.flatnonzero(give_up & (live.lo == 0.0))
        live.stop[failed[live.steepest[failed]]] = STOP_KINK
        retry = failed[~live.steepest[failed]]
        live.s[retry], live.y[retry] = 0.0, 0.0
        restart = np.union1d(moved[live.stop[moved] == ""], retry)
        if restart.size:
            start_search(restart)


def _ridge_start(rows: np.ndarray, target: np.ndarray, upper: np.ndarray,
                 fixed: np.ndarray) -> np.ndarray:
    """Each target's ridge least-squares fit, clipped to the box.

    Both products reduce along the last, contiguous axis of the regressors
    as (targets, params, rows), and numpy's stacked solve factors each
    target's matrix on its own.  A target whose matrix is exactly singular,
    or whose solution is not finite, starts from ``fixed`` instead.
    """
    cols = np.ascontiguousarray(rows.transpose(0, 2, 1))
    gram = np.einsum("tpr,tqr->tpq", cols, cols) + RIDGE * np.eye(cols.shape[1])
    rhs = np.einsum("tpr,tr->tp", cols, target)[:, :, None]
    x = np.clip(_solve_each(gram, rhs), 0.0, upper)
    return np.where(np.isfinite(x).all(axis=1, keepdims=True), x, fixed)


def _arnet_blocks(targets: Sequence[str], ids: Sequence[str], train: np.ndarray,
                  in_edges: Mapping[str, Sequence[str]], p: int):
    """Each block of the targets of one in-degree: their positions in ``targets``, their
    (targets, days - p, p + in-degree) regressors, lags and then the sources' same-day values
    in ``in_edges`` order, and their (targets, days - p) values."""
    row_of = {u: i for i, u in enumerate(ids)}
    rows = np.array([row_of[v] for v in targets], dtype=np.intp)
    sources = [in_edges.get(v, ()) for v in targets]
    degree = np.array([len(s) for s in sources], dtype=np.intp)
    for k in np.unique(degree):
        members = np.flatnonzero(degree == k)
        source_rows = np.array([[row_of[u] for u in sources[i]] for i in members],
                               dtype=np.intp).reshape(members.size, k)
        regressors = np.concatenate(
            [_lags(train[rows[members]], p), train[source_rows][:, :, p:].transpose(0, 2, 1)], axis=2)
        yield members, regressors, np.ascontiguousarray(train[rows[members], p:])


def fit_arnet_batch(
    targets: Sequence[str],
    ids: Sequence[str],
    train: np.ndarray,
    in_edges: Mapping[str, Sequence[str]],
    config: ForecastConfig,
) -> list[ArnetModel]:
    """Fit the network-augmented model of each of ``targets`` in one solve.

    Row i of ``train`` is the training series of ``ids[i]``, and ``in_edges``
    maps a target to its sources in id order, as ``PersistentNetwork.in_edges``
    does.  Each fit minimizes smoothed training SMAPE by projected L-BFGS
    (``_solve_block``) within alpha >= 0 and 0 <= beta <= 1, from the target's
    least-squares fit with ``fit_ar``'s ridge, clipped to that box.  The
    targets of one in-degree form one block (``_arnet_blocks``).  A block with
    at least as many parameters as rows has no unique least-squares fit, so
    its targets start from alpha = 1/p, beta = 0.1 instead, as does a target
    whose ridge system is exactly singular.  No target is padded, and a
    target's coefficients and diagnostics are bit-identical however the
    targets are batched or ordered.  Deterministic: no randomness anywhere.

    Each model carries the solver's report in ``fit``; ``converged`` is false
    only at the iteration limit, and such a fit is returned for callers to
    report.  A non-finite training value is an error naming its row's id; a
    solver error names the first offending target in ``targets`` order.
    """
    p = config.p
    _finite_rows(ids, train)
    if train.shape[1] - p < 1:
        raise DataFormatError(f"{train.shape[1]} training days leave no regression rows for p = {p}")
    solved: dict[int, tuple[_Solution, int]] = {}
    for members, rows, target in _arnet_blocks(targets, ids, train, in_edges, p):
        n_rows, n_params = rows.shape[1:]
        upper = np.concatenate([np.full(p, np.inf), np.ones(n_params - p)])
        fixed = np.concatenate([np.full(p, 1.0 / p), np.full(n_params - p, 0.1)])
        if n_params < n_rows:
            x0 = _ridge_start(rows, target, upper, fixed)
        else:
            x0 = np.tile(fixed, (members.size, 1))
        solution = _solve_block(rows, target, upper, x0)
        solved.update((i, (solution, k)) for k, i in enumerate(members))

    models: list[ArnetModel] = []
    for i, vid in enumerate(targets):
        solution, k = solved[i]
        if solution.stop[k] == _START_NOT_FINITE:
            raise NumericalError(f"{vid}: objective is not finite at the start point")
        x = solution.x[k]
        if not np.all(np.isfinite(x)):
            raise NumericalError(f"{vid}: optimizer returned non-finite coefficients")
        x = x + 0.0  # no negative zeros in the artifacts
        diagnostics = FitDiagnostics(
            converged=solution.stop[k] in CONVERGED_STOPS,
            nit=int(solution.nit[k]),
            nfev=int(solution.nfev[k]),
            objective=float(solution.f[k]),
            n_params=x.size,
            n_rows=train.shape[1] - p,
            message=solution.stop[k],
            start_objective=float(solution.f0[k]),
        )
        beta = dict(zip(in_edges.get(vid, ()), x[p:].tolist()))
        models.append(ArnetModel(vid, x[:p], beta, diagnostics))
    return models


def fit_arnet(
    video_id: str,
    series: Sequence[float] | np.ndarray,
    neighbor_series: Mapping[str, Sequence[float] | np.ndarray],
    config: ForecastConfig,
) -> ArnetModel:
    """Fit one target from its training series and {neighbor id: training series}; the
    result is bit-identical to ``fit_arnet_batch``'s fit of the target in any batch."""
    if video_id in neighbor_series:  # its row would name two series
        raise DataFormatError(f"{video_id} is its own neighbor")
    y = np.asarray(series, dtype=float)
    neighbor_ids = sorted(neighbor_series)
    train = [y] + [np.asarray(neighbor_series[u], dtype=float) for u in neighbor_ids]
    for u, values in zip(neighbor_ids, train[1:]):
        if values.shape != y.shape:
            raise DataFormatError(f"neighbor series {u} does not match the target length")
    return fit_arnet_batch([video_id], [video_id, *neighbor_ids], np.array(train),
                           {video_id: tuple(neighbor_ids)}, config)[0]


def _forecast_rows(alpha: np.ndarray, history: np.ndarray, row: np.ndarray,
                   beta: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Recursive forecasts of n targets at once, clamped at zero.

    ``alpha`` is (n, p) and ``history`` (n, >= p).  Each day adds, from 0.0, the lag terms
    tau = 1..p and then ``beta[k] * values[k]`` to target ``row[k]`` in table order
    (``np.add.at`` is unbuffered); ``values`` has one column per horizon day.
    """
    n, p = alpha.shape
    horizon = values.shape[1]
    buf = np.hstack([history[:, -p:], np.empty((n, horizon))])
    flows = beta[:, None] * values
    for h in range(horizon):
        val = np.zeros(n)
        for tau in range(1, p + 1):
            val += alpha[:, tau - 1] * buf[:, p + h - tau]
        np.add.at(val, row, flows[:, h])
        buf[:, p + h] = np.where(val > 0.0, val, 0.0)  # NaN and -0.0 become 0.0, as with max()
    return buf[:, p:].copy()


# ---------------------------------------------------------------------------
# evaluation protocol


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Aligned truth/prediction matrices for one model over the test horizon."""

    video_ids: tuple[str, ...]
    dates: tuple[date, ...]
    y_true: np.ndarray
    y_pred: np.ndarray

    def row(self, video_id: str) -> tuple[np.ndarray, np.ndarray]:
        i = self.video_ids.index(video_id)
        return self.y_true[i], self.y_pred[i]


def split_series(
    dataset: Dataset, video_ids: Sequence[str], config: ForecastConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) matrices of the videos' window views, one row per id in order."""
    if config.train_days + config.horizon > dataset.window.n_days:
        raise DataFormatError(
            f"window of {dataset.window.n_days} days cannot hold "
            f"{config.train_days} training days plus a {config.horizon}-day horizon"
        )
    rows = dataset.window_views[dataset.codes(video_ids)]
    end = config.train_days + config.horizon
    return rows[:, : config.train_days].astype(float), rows[:, config.train_days : end].astype(float)


def _beta_terms(models: Sequence[ArnetModel], sources: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The one table of beta terms: each term's model index, source index in the sorted
    ``sources`` and beta, ordered by model and then source id, whatever the key order of ``beta``."""
    code = {u: k for k, u in enumerate(sources)}
    terms = [(i, code[u], b) for i, m in enumerate(models) for u, b in sorted(m.beta.items())]
    row, source, beta = zip(*terms) if terms else ((), (), ())
    return np.array(row, dtype=np.intp), np.array(source, dtype=np.intp), np.array(beta, dtype=float)


def _model_rows(models: Sequence[ArnetModel], history: np.ndarray, sources: Sequence[str],
                values: np.ndarray, p: int) -> np.ndarray:
    """The models' forecasts, their beta terms reading the rows of ``values``, one per source."""
    row, source, beta = _beta_terms(models, sources)
    alpha = np.array([m.alpha for m in models], dtype=float).reshape(-1, p)
    return _forecast_rows(alpha, history, row, beta, values[source])


def _source_values(dataset: Dataset, models: Mapping[str, ArnetModel],
                   config: ForecastConfig) -> tuple[list[str], np.ndarray]:
    """The sorted ids of every source the models name, and a row of horizon values for each:
    its test-day views ("observed"), or ("forecast") a modeled source's own model's forecast
    over seasonal-naive neighbor values and any other source's seasonal-naive forecast."""
    sources = sorted({u for m in models.values() for u in m.beta})
    train, test = split_series(dataset, sources, config)
    if config.neighbor_mode == "observed":
        return sources, test
    values = predict_seasonal_naive(train, config.horizon, config.m_star)
    modeled = [k for k, u in enumerate(sources) if u in models]
    values[modeled] = _model_rows([models[sources[k]] for k in modeled], train[modeled], sources,
                                  values, config.p)
    return sources, values


def resolve_neighbor_values(
    dataset: Dataset,
    models: Mapping[str, ArnetModel],
    config: ForecastConfig,
) -> dict[str, dict[str, np.ndarray]]:
    """Each target's {neighbor id: horizon values}, the rows of ``_source_values``' matrix;
    every target maps to one shared dict, which holds every source any model names."""
    sources, values = _source_values(dataset, models, config)
    return dict.fromkeys(models, dict(zip(sources, values)))


def horizon_dates(dataset: Dataset, config: ForecastConfig) -> tuple[date, ...]:
    """The ``horizon`` days forecast after the first ``train_days`` of the window."""
    first = dataset.window.start + timedelta(days=config.train_days)
    return tuple(first + timedelta(days=h) for h in range(config.horizon))


def run_model(
    dataset: Dataset,
    persistent: PersistentNetwork,
    model_name: str,
    config: ForecastConfig | None = None,
    threads: int = 1,
) -> tuple[dict[str, ArnetModel] | None, ForecastResult]:
    """Fit one model family on every persistent-network target and forecast.

    All four families forecast the same target set (targets of persistent
    links), so their reports are directly comparable.  Each fits every target
    at once from one training matrix: naive and seasonal naive slice it,
    ``fit_ar`` solves all targets' systems in one stack, and ``fit_arnet_batch``
    reads it with the network's in-edge table, in one batch here or, with
    ``threads`` > 1, one contiguous chunk of targets per worker process (see
    ``_fit_all``).  A target's fit does not depend on its batch, so the worker
    count never changes the output.
    """
    if model_name not in MODEL_NAMES:
        raise DataFormatError(f"unknown model {model_name!r}")
    config = config or ForecastConfig()
    targets = sorted(persistent.targets)
    if not targets:
        raise DataFormatError("persistent network has no targets to forecast")

    train, y_true = split_series(dataset, targets, config)

    if model_name == "ar":
        models = fit_ar(targets, train, config.p)
    elif model_name == "arnet":
        ids = sorted(persistent.sources | persistent.targets)
        train_all, in_edges = split_series(dataset, ids, config)[0], persistent.in_edges

        def fit_chunk(chunk: list[str]) -> list[ArnetModel]:
            return fit_arnet_batch(chunk, ids, train_all, in_edges, config)

        models = _fit_all(targets, fit_chunk, threads)
    else:
        y_pred = (predict_naive(train, config.horizon) if model_name == "naive"
                  else predict_seasonal_naive(train, config.horizon, config.m_star))
        return None, ForecastResult(tuple(targets), horizon_dates(dataset, config), y_true, y_pred)
    return models, model_forecasts(dataset, models, config)


def model_forecasts(dataset: Dataset, models: Mapping[str, ArnetModel],
                    config: ForecastConfig) -> ForecastResult:
    """Each fitted model's forecast over the test horizon, one row per video in id order;
    every alpha holds ``config.p`` values, and all targets are forecast at once."""
    video_ids = sorted(models)
    train, y_true = split_series(dataset, video_ids, config)
    sources, values = _source_values(dataset, models, config)
    y_pred = _model_rows([models[v] for v in video_ids], train, sources, values, config.p)
    return ForecastResult(tuple(video_ids), horizon_dates(dataset, config), y_true, y_pred)


# The fit a worker process runs on its chunk of targets; set in each worker at start-up.
_worker_fit: Callable[[list[str]], list] | None = None


def _init_worker(fit_chunk: Callable[[list[str]], list]) -> None:
    global _worker_fit
    _worker_fit = fit_chunk


def _fit_in_worker(chunk: list[str]) -> list:
    return _worker_fit(chunk)


def _fit_all(targets: list[str], fit_chunk: Callable[[list[str]], list], workers: int) -> dict:
    """Fit every target, as one contiguous chunk per fork-started worker process.

    ``fit_chunk`` fits a list of targets in one batch and returns their models
    in order.  Fork hands each worker ``fit_chunk`` and the data it closes
    over without pickling them, so only video ids and fitted models cross the
    pipes.  A target's fit does not depend on the chunk it lands in, so the
    worker count never changes the output.  Without ``fork`` (Windows), or
    with one worker, all targets are fitted here in one batch.  An exception
    raised in a worker is re-raised here unchanged.
    """
    import multiprocessing  # here, not at the top: no other command pays for importing these
    from concurrent.futures import ProcessPoolExecutor

    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return dict(zip(targets, fit_chunk(targets)))
    workers = min(workers, len(targets))
    chunks = [targets[len(targets) * i // workers : len(targets) * (i + 1) // workers]
              for i in range(workers)]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fit_chunk,),
    ) as pool:
        fitted = [model for chunk in pool.map(_fit_in_worker, chunks) for model in chunk]
    return dict(zip(targets, fitted))


def __getattr__(name: str):
    # ``minimize`` used to be imported here, and the benchmark's tracer still
    # looks it up; scipy.optimize loads only on that lookup.  Without scipy
    # (a numpy-only install) the name is missing, so hasattr() reads False.
    if name == "minimize":
        try:
            from scipy.optimize import minimize

            return minimize
        except ImportError:
            pass
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
