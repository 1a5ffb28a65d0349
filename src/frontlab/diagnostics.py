"""Norm time series, decay-rate fits, and inequality audits along runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import RunConfig
from .spectral import Field, lp_norms, weighted_l2

__all__ = [
    "NormSeries",
    "RateFit",
    "EnergyReport",
    "WeightedReport",
    "check_energy_inequality",
    "energy_rose",
    "fit_rate",
    "window_mask",
    "predicted_rate",
    "compare_to_theorem",
    "weighted_bound_monitor",
]


@dataclass
class NormSeries:
    """Per-time records of a perturbation run.

    `data` maps each series.csv column to its values, in file order: t,
    x0, x0_dot, l1, l2, linf (||v||_p for p = 1, 2, inf), lp_<p:g> for
    each p of `p_list`, dv_l2 (||v'||_2), weighted (the |x|-weighted L2
    norm) and m_sup (the running sup of linf).  Columns whose names are
    identifiers read as attributes too: `series.l2`.
    """

    p_list: tuple = ()
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        self.p_list = tuple(float(p) for p in self.p_list)
        if not all(p >= 1.0 for p in self.p_list):
            raise ValueError(f"p must be >= 1 or inf (got {self.p_list})")
        names = ["t", "x0", "x0_dot", "l1", "l2", "linf",
                 *(f"lp_{p:g}" for p in self.p_list), "dv_l2", "weighted", "m_sup"]
        if len(set(names)) != len(names):
            raise ValueError(f"p list {self.p_list} names a column twice")
        self.data = self.data or {name: [] for name in names}
        if list(self.data) != names:
            raise ValueError(f"series columns {list(self.data)}, expected {names}")
        if any(b <= a for a, b in zip(self.t, self.t[1:])):
            raise ValueError("times must be strictly increasing")

    def __getattr__(self, name):
        try:
            return self.__dict__["data"][name]
        except KeyError:
            raise AttributeError(name) from None

    def append(self, t, x0, x0_dot, v: Field, dv_l2):
        """Record the norms of the field v at time t."""
        l1, l2, linf, *lp = lp_norms(v, (1.0, 2.0, np.inf, *self.p_list))
        row = (t, x0, x0_dot, l1, l2, linf, *lp, dv_l2, weighted_l2(v),
               max(self.m_sup[-1] if self.m_sup else 0.0, linf))
        for values, value in zip(self.data.values(), row):
            values.append(float(value))

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.data[name], dtype=float)

    def norm(self, p) -> np.ndarray:
        """The recorded norm for exponent p: 'derivative' (||v'||_2), 1, 2,
        inf, or a p of `p_list`."""
        if p == "derivative":
            return self.column("dv_l2")
        p = float(p)
        name = {1.0: "l1", 2.0: "l2", np.inf: "linf"}.get(p, f"lp_{p:g}")
        if name not in self.data:
            raise ValueError(f"the series has no column {name} for p = {p:g}")
        return self.column(name)


@dataclass(frozen=True)
class EnergyReport:
    c_fit: float
    violations: int


def energy_rose(prev, new, first):
    """Whether ||v||_2^2 rose from prev to new beyond 1e-10 relative, over an
    absolute floor at 1e-13 of the initial energy `first` so that roundoff
    wiggles of a fully decayed field (10+ orders below it) do not count."""
    return new - prev > 1e-10 * prev + 1e-13 * first


def check_energy_inequality(series: NormSeries) -> EnergyReport:
    """Fit the constant in d/dt ||v||_2^2 <= -C ||v'||_2^2 along a series.

    C_fit is the minimum over recorded steps of the decay-to-gradient
    ratio (trapezoidal ||v'||^2 between records); violations count the
    steps between records over which ||v||_2^2 rose (`energy_rose`).
    """
    t = series.column("t")
    e = series.column("l2") ** 2
    d = series.column("dv_l2") ** 2
    if len(t) < 2:
        raise ValueError("series too short")
    de = np.diff(e)
    dt = np.diff(t)
    grad = 0.5 * (d[1:] + d[:-1])
    usable = grad > 1e-12
    if np.count_nonzero(usable) < 10:
        raise ValueError("series too short: fewer than 10 usable steps")
    ratios = (-de[usable] / dt[usable]) / grad[usable]
    violations = int(np.sum(energy_rose(e[:-1], e[1:], e[0])))
    return EnergyReport(c_fit=float(np.min(ratios)), violations=violations)


@dataclass(frozen=True)
class RateFit:
    """Least-squares decay exponent of norm ~ A * (ln t)^beta * t^exponent."""

    window: tuple[float, float]
    exponent: float
    beta: float
    amplitude: float
    r_squared: float


def window_mask(times, window: tuple[float, float], beta: float = 0.0):
    """Mask of the times in a fit window that `fit_rate` can use, or ValueError."""
    lo, hi = window
    mask = (times >= lo) & (times <= hi)
    problem = ("log-corrected fits need window start >= 2" if beta != 0.0 and lo < 2.0
               else "under 8 samples" if np.count_nonzero(mask) < 8 else "")
    if problem:
        raise ValueError(f"diagnostics.fit_window: {problem} in [{lo:g}, {hi:g}]")
    return mask


def fit_rate(times, values, window: tuple[float, float],
             beta: float = 0.0) -> RateFit:
    """Fit ln(value) - beta*ln(ln t) = ln A + exponent * ln t on a window."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = window_mask(t, window, beta)
    if np.any(v[mask] <= 0.0):
        raise ValueError("values must be positive inside the window")
    x = np.log(t[mask])
    y = np.log(v[mask])
    if beta != 0.0:
        y = y - beta * np.log(np.log(t[mask]))
    design = np.column_stack([np.ones_like(x), x])
    coeff, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coeff
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(window=(float(window[0]), float(window[1])),
                   exponent=float(coeff[1]), beta=float(beta),
                   amplitude=float(np.exp(coeff[0])), r_squared=r2)


def predicted_rate(model: str, p: float, delta: float = RunConfig.delta):
    """(rate, beta) such that the claimed bound is norm <= C*(ln t)^beta / t^rate.

    kdvb: 1/2 at p=2; (1-1/p)-delta for 1<p<2; 1/p for p>2 (no log).
    frac_odd: (1-1/p)/2 with matching log power for 1<p<=2;
    7/24 - 1/(12p) with matching log power for 2<p<=inf;
    p='derivative' gives the gradient bound (ln t / t)^{1/3}.  Any other p
    (kdvb at p = 1, inf or 'derivative'; frac_odd at p = 1) raises ValueError.
    """
    if model not in ("kdvb", "frac_odd"):
        raise ValueError(f"unknown model {model!r}")
    if p == "derivative":
        if model == "frac_odd":
            return 1.0 / 3.0, 1.0 / 3.0
    elif model == "kdvb":
        p = float(p)
        if p == 2.0:
            return 0.5, 0.0
        if 1.0 < p < 2.0:
            return (1.0 - 1.0 / p) - delta, 0.0
        if 2.0 < p < np.inf:
            return 1.0 / p, 0.0
    else:
        p = float(p)
        if 1.0 < p <= 2.0:
            r = 0.5 * (1.0 - 1.0 / p)
            return r, r
        if p > 2.0:
            q = 0.0 if np.isinf(p) else 1.0 / p
            r = 7.0 / 24.0 - q / 12.0
            return r, r
    raise ValueError(f"model {model!r} makes no claim for p = {p}")


@dataclass(frozen=True)
class TheoremVerdict:
    p: object
    rate: float
    beta: float
    envelope_start: float
    envelope_sup: float
    ratio: float
    satisfied: bool
    fitted_exponent: float


def compare_to_theorem(series: NormSeries, model: str,
                       p_list: Sequence, window: tuple[float, float],
                       delta: float = RunConfig.delta) -> list[TheoremVerdict]:
    """Envelope verdicts: norm(t) * t^rate / (ln t)^beta must stay within
    a factor 2 of its value at the window start.

    The claimed bounds are one-sided with unspecified constants, so
    boundedness of the compensated norm is the checkable statement; the
    fitted exponent is reported as data alongside.
    """
    t = series.column("t")
    verdicts = []
    for p in p_list:
        rate, beta = predicted_rate(model, p, delta)
        norm = series.norm(p)
        mask = window_mask(t, window, beta)
        tt = t[mask]
        comp = norm[mask] * tt ** rate
        if beta != 0.0:
            comp = comp / np.log(tt) ** beta
        start = float(comp[0])
        sup = float(np.max(comp))
        ratio = sup / start if start > 0 else np.inf
        fit = fit_rate(t, np.maximum(norm, 1e-300), window, beta=beta)
        verdicts.append(TheoremVerdict(
            p=p, rate=float(rate), beta=float(beta),
            envelope_start=start, envelope_sup=sup, ratio=float(ratio),
            satisfied=bool(ratio <= 2.0),
            fitted_exponent=fit.exponent,
        ))
    return verdicts


@dataclass(frozen=True)
class WeightedReport:
    sup_weighted_sq: float   # sup_t of the weighted energy integral v^2 |x|
    cumulative_l2_sq: float  # integral of ||v||_2^2 dt (left Riemann sum)
    growth_flag: bool        # weighted energy exceeded 3x its initial value
    chain_ok: bool           # t*||v(t)||^2 <= cumulative integral at all t


def weighted_bound_monitor(series: NormSeries) -> WeightedReport:
    """Audit the weighted-energy bound and the chain t*||v(t)||^2 <= int ||v||^2."""
    t = series.column("t")
    wsq = series.column("weighted") ** 2
    l2sq = series.column("l2") ** 2
    dt = np.diff(t)
    cumulative = np.concatenate([[0.0], np.cumsum(l2sq[:-1] * dt)])
    chain = (t - t[0]) * l2sq <= cumulative + 1e-10 * (1.0 + cumulative)
    initial = wsq[0] if wsq.size else 0.0
    return WeightedReport(
        sup_weighted_sq=float(np.max(wsq, initial=0.0)),
        cumulative_l2_sq=float(cumulative[-1] if cumulative.size else 0.0),
        growth_flag=bool(np.max(wsq, initial=0.0) > 3.0 * initial + 1e-300),
        chain_ok=bool(np.all(chain)),
    )
