"""Time integration of the modulated perturbation equation.

The field v rides in the front's co-moving frame:

    v_t = v_xx + L[v] + x0'(t) * (v_x + phi') - (phi*v + v^2/2)',
    x0'(t) = -gamma * <phi', v>,

so the translation x0(t) is selected dynamically and v stays decaying,
which is what makes a periodic box usable for a heteroclinic problem.
The modulation sign is fixed by the energy identity

    d/dt ||v||^2 / 2 = <v, L v> - [ ||v'||^2 + <phi'/2, v^2> + gamma*<phi', v>^2 ],

whose bracket is the quadratic form of the modulated operator
-(d/dx)^2 + phi'/2 + gamma <phi',.> phi'; with the opposite sign the
translation mode feeds energy back and the norm grows.
The diagonal linear symbol -k^2 + l(k) carries all the stiffness and is
integrated exactly (ETDRK4, Cox & Matthews 2002; coefficients evaluated
by a series/direct split instead of contour averages so complex symbols
are handled uniformly); the front terms stay explicit.

The state is x0 and the real-FFT modes 0..n/3 of v that the two-thirds
rule keeps (0..n/2 without dealiasing).  The explicit terms are taken in
divergence form, with the flux phi*v + v^2/2 formed in physical space and
phi_hat' precomputed, so one evaluation costs two real FFTs: one irfft
for v, one rfft for the flux.  Norms come from the modes by Parseval."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .diagnostics import NormSeries, energy_rose
from .fronts import FrontProfile, ref_profile
from .spectral import Field, Grid
from .symbols import MultiplierSpec

__all__ = [
    "StabilityError",
    "StepperConfig",
    "Trajectory",
    "make_stepper",
    "evolve",
    "cole_hopf_exact",
    "make_perturbation",
]

BOUNDARY_FRACTION = 0.05
BOUNDARY_TOL = 1e-6
MAX_RECORDS = 10 ** 6  # per run: a longer one is refused before it starts


class StabilityError(RuntimeError):
    """An aborted run; `evolve` sets `partial`, the Trajectory so far."""


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    gamma: float = RunConfig.gamma
    dealias: bool = RunConfig.dealias
    record_every: int = RunConfig.record_every      # series cadence, in steps
    snapshot_every: int = RunConfig.snapshot_every  # field cadence, 0 disables
    p_list: tuple = RunConfig.p_list

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_end < math.inf):
            raise ValueError("time step and horizon must be positive and finite "
                             f"(got dt = {self.dt}, t_end = {self.t_end})")
        if not 1.0 < self.gamma < math.inf:
            raise ValueError("modulation gain must be finite and exceed 1 for "
                             f"endpoints (1,-1) (got {self.gamma})")
        NormSeries(self.p_list)  # rejects a p < 1 or two p with one column
        # on evolve's step grid a snapshot must fall on a record, t_end on a step
        if (self.record_every < 1 or self.snapshot_every < 0
                or self.snapshot_every % self.record_every):
            raise ValueError("record_every must be >= 1 and divide snapshot_every >= 0 "
                             f"(got {self.record_every} and {self.snapshot_every})")
        steps = self.t_end / self.dt
        # record_steps() has ceil(steps / record_every) + 1 entries, in ints
        if not (steps < math.inf and round(steps) <= (MAX_RECORDS - 1) * self.record_every):
            raise ValueError(f"t_end / dt must be finite and give at most {MAX_RECORDS} "
                             f"records (got dt = {self.dt}, t_end = {self.t_end}, "
                             f"record_every = {self.record_every})")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_end ({self.t_end:g}) is not a whole number of "
                             f"steps of dt ({self.dt:g})")

    def record_steps(self) -> list:
        """The steps `evolve` records after: 0, every record_every-th step
        and the last one, listed once."""
        nsteps = round(self.t_end / self.dt)
        return [*range(0, nsteps, self.record_every), nsteps]


def boundary_contamination(values: np.ndarray) -> float:
    """max |v| on the outer 5% of the box relative to max |v| overall."""
    n = values.size
    edge = max(1, int(BOUNDARY_FRACTION * n / 2))
    outer = max(np.max(np.abs(values[:edge])), np.max(np.abs(values[-edge:])))
    peak = np.max(np.abs(values))
    return float(outer / peak) if peak > 0 else 0.0


# ---------------------------------------------------------------------------
# Right-hand side on the retained real-FFT modes


class _Workspace:
    """Precomputed grid/front data shared by rhs evaluations, on the
    real-FFT modes the state keeps: 0..n/3, which the two-thirds rule
    retains, or all of 0..n/2 without dealiasing (the Nyquist entry keeps
    -k_max)."""

    def __init__(self, front: FrontProfile, spec: MultiplierSpec,
                 gamma: float, dealias: bool,
                 disable: tuple = ()):
        if bad := sorted(set(disable) - {"front", "nonlinear", "modulation"}):
            raise ValueError(f"unknown disable entries {bad}; the terms "
                             "are 'front', 'nonlinear' and 'modulation'")
        spec.require_admissible()
        grid = front.grid
        n = grid.n
        k = grid.k[: n // 2 + 1]
        self.modes = n // 3 + 1 if dealias else k.size
        self.n = n
        self.gamma = gamma
        self.h = grid.h
        self.k = k[: self.modes]
        self.k_max = grid.k_max
        self.ik = grid.ik[: self.modes]
        # Parseval weights (DC and Nyquist once, other modes twice) sum over
        # all of 0..n/2, zero past the kept modes: a BLAS dot rounds by length
        self.weight = np.full(k.size, 2.0)
        self.weight[0] = 1.0
        if n % 2 == 0:
            self.weight[-1] = 1.0
        self._padded = np.zeros(k.size)
        # the FFT outputs of nonlinear_hat, overwritten by each evaluation
        self._v, self._flux_hat = np.empty(n), np.empty(k.size, complex)
        self.lin = -self.k ** 2 + spec.values(self.k)
        self.dphi = front.phi_prime.values
        self.dphi_hat = np.fft.rfft(self.dphi)[: self.modes]
        # flux phi*v + v^2/2; a disabled term gets a zero coefficient
        self.phi_flux = np.zeros(n) if "front" in disable else front.phi.values
        self.quad = 0.0 if "nonlinear" in disable else 0.5
        self.modulation = "modulation" not in disable

    def augment(self, values: np.ndarray) -> np.ndarray:
        """Augmented state [rfft(v) on the kept modes, x0 = 0]."""
        return np.append(np.fft.rfft(values)[: self.modes], 0.0)

    def l2sq(self, mag: np.ndarray) -> float:
        """||v||_2^2 by Parseval, (h/n) * sum_k w_k |v_hat_k|^2."""
        np.multiply(mag, mag, out=self._padded[: self.modes])
        return self.h / self.n * float(self.weight @ self._padded)

    def sup_bound(self, mag: np.ndarray) -> float:
        """max|v| <= sum_k w_k |v_hat_k| / n from the moduli of the modes."""
        self._padded[: self.modes] = mag
        return float(self.weight @ self._padded) / self.n

    def nonlinear_hat(self, z: np.ndarray) -> tuple[np.ndarray, float]:
        """Tendency [payload, x0'] of z = [v_hat, x0], one fresh array, from
        one irfft and one rfft: -ik*rfft(phi*v + v^2/2) + x0'*(ik*v_hat +
        phi_hat') on the kept modes (z's others enter via v), x0' = -gamma*<phi', v>.

        The divergence form -(phi*v)': phi*v decays at the box seam even
        though phi itself jumps there, and parity stays exact for odd v.
        """
        v = np.fft.irfft(z[:-1], self.n, out=self._v)
        x0_dot = -self.gamma * self.h * float(self.dphi @ v) if self.modulation else 0.0
        flux = (self.phi_flux + self.quad * v) * v
        flux_hat = np.fft.rfft(flux, out=self._flux_hat)[: self.modes]
        out = np.empty(self.modes + 1, complex)
        np.multiply(self.ik, x0_dot * z[: self.modes] - flux_hat, out=out[:-1])
        out[:-1] += x0_dot * self.dphi_hat
        out[-1] = x0_dot
        return out, x0_dot


# ---------------------------------------------------------------------------
# The ETDRK4 stepper on the augmented state [v_hat, x0]


def _phi_series(z, order):
    """phi-functions phi_1, phi_2, phi_3 with a Taylor branch near 0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    zb = z[~small]
    if order == 1:
        out[~small] = (np.exp(zb) - 1.0) / zb
    elif order == 2:
        out[~small] = (np.exp(zb) - 1.0 - zb) / zb ** 2
    else:
        out[~small] = (np.exp(zb) - 1.0 - zb - 0.5 * zb ** 2) / zb ** 3
    zs = z[small]
    acc = np.zeros_like(zs)
    term = np.full_like(zs, 1.0 / (1.0, 2.0, 6.0)[order - 1])
    for j in range(14):  # sum_{j>=0} z^j / (j + order)!
        acc = acc + term
        term = term * zs / (j + order + 1)
    out[small] = acc
    return out


class _EtdRk4:
    """Cox-Matthews ETDRK4 for z' = L z + N(z) with diagonal L."""

    def __init__(self, lin: np.ndarray, dt: float):
        c = lin * dt
        half = 0.5 * c
        self.e_full = np.exp(c)
        self.e_half = np.exp(half)
        self.q = 0.5 * dt * _phi_series(half, 1)
        p1, p2, p3 = _phi_series(c, 1), _phi_series(c, 2), _phi_series(c, 3)
        self.f1 = dt * (p1 - 3.0 * p2 + 4.0 * p3)
        self.f2 = dt * (2.0 * p2 - 4.0 * p3)
        self.f3 = dt * (4.0 * p3 - p2)

    def advance(self, z, nonlin):
        # the out= buffers here and in nonlinear_hat save allocations: plain
        # expressions give a bit-identical series and a slower step (n = 2048,
        # kdvb: 199 against 183 us/step, medians of 6 process pairs, 2 cores).
        # No product writes over its input: numpy's in-place complex
        # product can round differently, while sums are exact in place
        t = np.empty_like(z)
        ez = self.e_half * z
        n0, aux = nonlin(z)
        a = ez + np.multiply(self.q, n0, out=t)
        n1, _ = nonlin(a)
        b = ez + np.multiply(self.q, n1, out=t)
        n2, _ = nonlin(b)
        c = np.multiply(self.e_half, a, out=ez)  # + q*(2*n2 - n0)
        c += np.multiply(self.q, np.subtract(2.0 * n2, n0, out=b), out=t)
        n3, _ = nonlin(c)
        out = self.e_full * z
        out += np.multiply(self.f1, n0, out=t)
        out += np.multiply(self.f2, np.add(n1, n2, out=b), out=t)
        out += np.multiply(self.f3, n3, out=t)
        return out, aux


def make_stepper(ws: _Workspace, config: StepperConfig):
    lin = np.append(ws.lin, 0.0)  # x0 carries no linear part
    return _EtdRk4(lin, config.dt), ws.nonlinear_hat


@dataclass
class Trajectory:
    """The run's one record, filled in place by `evolve` as its audits fire."""

    series: NormSeries
    snapshots: list = field(default_factory=list)
    monotonicity_violations: int = 0
    max_uptick: float = 0.0
    boundary_warnings: int = 0
    peak_advective: float = 0.0      # largest dt*max|v|*k_max bound of a step taken
    peak_contamination: float = 0.0  # largest boundary_contamination of a record
    aborted: bool = False

    @property
    def x0_final(self) -> float:
        """x0 at the last record: t_end's, or an aborted run's last good one."""
        return self.series.x0[-1]


def evolve(v0: Field, front: FrontProfile, spec: MultiplierSpec,
           config: StepperConfig, certificate=None,
           disable: tuple = ()) -> Trajectory:
    """Run the perturbation equation to t_end with per-step audits.

    This is the only stepping driver (a single step is t_end = dt); it
    steps from record to record over `config.record_steps()`.  Record 0,
    v0 on the kept modes, also warns if its weighted norm exceeds 10x its
    L2 norm (weak localization).  Each step is audited for monotonicity of
    ||v||_2 (`energy_rose` up-ticks are counted, the run continues), each
    record for boundary contamination (warning).  `disable` switches off
    the 'front', 'nonlinear' or 'modulation' terms for calibration runs.

    Two guards abort the run: the advective step guard, checked before
    every step unless 'nonlinear' is disabled, on the bound
    dt * max|v| * k_max > 1 with max|v| <= sum |v_hat|/n, and a
    non-finite ||v||_2 after a step.  Either one ends the loop, and one
    raise site turns it into a StabilityError naming the guard, the time
    of the failing state and the last recorded time; its `partial` is the
    Trajectory up to that record (aborted=True).
    """
    grid = v0.grid
    if grid is not front.grid and grid != front.grid:
        raise ValueError("perturbation and front live on different grids")
    if certificate is not None and not getattr(certificate, "satisfied", False):
        warnings.warn("front certificate does not verify the one-eigenvalue "
                      "condition; decay guarantees may not apply")
    if certificate is None and not disable:
        warnings.warn("evolving without a spectral certificate for the front")
    ws = _Workspace(front, spec, config.gamma, config.dealias, disable)
    stepper, nonlin = make_stepper(ws, config)
    z = ws.augment(v0.values)  # x0(0) = 0

    traj = Trajectory(NormSeries(p_list=config.p_list))
    series = traj.series
    mag = np.abs(z[:-1])
    prev_l2sq = first_l2sq = ws.l2sq(mag)
    abort = None  # the guard that stopped the run, if one did
    x0_dot = 0.0

    steps = config.record_steps()
    for start, stop in zip([0, *steps], steps):  # record 0 takes no step
        for istep in range(start, stop):  # the step from istep to istep + 1
            advect = config.dt * ws.sup_bound(mag) * ws.k_max if ws.quad else 0.0
            if advect > 1.0:
                abort = ("advective step limit exceeded (dt*max|v|*k_max = "
                         f"{advect:.3g} > 1) at t={istep * config.dt:g}")
                break
            traj.peak_advective = max(traj.peak_advective, advect)
            z, x0_dot = stepper.advance(z, nonlin)

            mag = np.abs(z[:-1])
            l2sq = ws.l2sq(mag)
            if not math.isfinite(l2sq):
                abort = f"non-finite solution at t={(istep + 1) * config.dt:g}"
                break
            if energy_rose(prev_l2sq, l2sq, first_l2sq):
                traj.monotonicity_violations += 1
                traj.max_uptick = max(traj.max_uptick, l2sq / prev_l2sq - 1.0)
            prev_l2sq = l2sq
        if abort is not None:
            break

        t = stop * config.dt
        f = Field(grid, np.fft.irfft(z[:-1], ws.n))
        series.append(t, float(z[-1].real), x0_dot, f,
                      np.sqrt(ws.l2sq(np.abs(ws.k * z[:-1]))))
        if not stop and series.weighted[0] > 10.0 * series.l2[0] > 0.0:
            warnings.warn("initial data is weakly localized: weighted norm "
                          f"{series.weighted[0]:.3g} exceeds 10x the L2 norm "
                          f"{series.l2[0]:.3g}")
        # a fully decayed field's edge ratios are noise
        if series.linf[-1] > 1e-10 * series.linf[0]:
            contamination = boundary_contamination(f.values)
            traj.peak_contamination = max(traj.peak_contamination, contamination)
            if contamination > BOUNDARY_TOL and not traj.boundary_warnings:
                warnings.warn("initial data does not decay at the box edge" if not stop
                              else f"boundary contamination {contamination:.2e} at t={t:g}")
            traj.boundary_warnings += contamination > BOUNDARY_TOL
        if config.snapshot_every and stop % config.snapshot_every == 0:
            traj.snapshots.append((t, f))

    if abort is not None:
        traj.aborted = True
        err = StabilityError(f"{abort}; last good state at t={series.t[-1]:g}")
        err.partial = traj
        raise err
    return traj


# ---------------------------------------------------------------------------
# Exact pure-Burgers solution via the heat substitution


CH_TAPER = 170  # nodes from the kernel's reach to the middle of g's cut-off


def cole_hopf_exact(u0: Field, t: float) -> Field:
    """Exact solution of u_t - u_xx + u*u_x = 0 from heteroclinic data.

    theta = exp(-U/2), U(y) = int_0^y u0, solves the heat equation, and
    u = -2 theta_x / theta.  With u0 = c0 + lam0 * ref + w (c0, lam0 from
    the edge means), U = c0*y - 2*lam0*log cosh(y/2) + W, W the spectral
    antiderivative of w at the nodes, held constant past the box ends.  A
    logistic partition of unity of steepness |lam0| + 1/2 splits theta0 =
    sum_+- e^{a y} g(y), a = (-c0 +- lam0)/2, each g bounded; the heat flow
    maps e^{a y} g to e^{a x + a^2 t} (G_t * g)(x + 2at).  G_t * g and its
    derivative are one FFT multiply by e^{-k^2 t} on the box lattice moved
    by the whole nodes of 2at (the rest is a phase), padded by the kernel's
    1e-18 reach 2 sqrt(t ln 1e18) and 2 * CH_TAPER more nodes, over which a
    logistic cuts g to 1e-18.  Exponents are formed in log space and the
    larger is factored out before dividing, so nothing overflows.  Each
    term's roundoff is relative to theta when lam0 >= 0, as for every
    front; for data rising across the box (lam0 < 0) it grows like
    e^{-lam0 L/2}, and past 1e3 a warning names lam0 and that factor."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be positive and finite (got {t})")
    n, h, x = u0.grid.n, u0.grid.h, u0.grid.x
    edge = max(4, n // 128)
    u_minus = float(np.mean(u0.values[:edge]))
    u_plus = float(np.mean(u0.values[-edge:]))
    lam0, c0 = 0.5 * (u_minus - u_plus), 0.5 * (u_minus + u_plus)
    if (growth := -0.5 * lam0 * u0.grid.length) > math.log(1e3):
        warnings.warn(f"data rise across the box (lam0 = {lam0:.3g}): the oracle's "
                      f"roundoff grows by e^(-lam0 L/2) = e^{growth:.1f}, above 1e3")
    w_hat = np.fft.rfft(u0.values - c0 - lam0 * ref_profile(x))
    mean_w, w_hat[0] = w_hat[0].real / n, 0.0
    w_hat[1:] /= 2j * np.pi * np.fft.rfftfreq(n, h)[1:]
    big_w = np.fft.irfft(w_hat, n) + mean_w * x
    big_w -= big_w[n // 2]  # the node x = 0 for even n; a constant cancels in u

    reach = int(np.ceil(2.0 * np.sqrt(t * np.log(1e18)) / h)) + 1
    pad = reach + 2 * CH_TAPER
    size = n + 2 * pad
    j = np.arange(size) - pad  # node index relative to the box's first node
    k = 2.0 * np.pi * np.fft.rfftfreq(size, h)
    cut = np.logaddexp(0.0, 0.25 * (np.abs(j - 0.5 * (n - 1)) - 0.5 * (n - 1)
                                    - reach - CH_TAPER))
    beta = abs(lam0) + 0.5
    terms = []
    for sign in (1.0, -1.0):
        a = 0.5 * (sign * lam0 - c0)
        shift = round(2.0 * a * t / h)
        y = x[0] + h * (j + shift)
        # log of theta0 * e^{-a y} times the partition weight and the cut
        log_g = (lam0 * (np.logaddexp(0.0, -sign * y) - np.log(2.0))
                 - np.logaddexp(0.0, -sign * beta * y)
                 - 0.5 * big_w[np.clip(j + shift, 0, n - 1)] - cut)
        top = np.max(log_g)
        g_hat = np.fft.rfft(np.exp(log_g - top))
        g_hat *= np.exp(-k * k * t + 1j * k * (2.0 * a * t - h * shift))
        conv, slope = np.fft.irfft([g_hat, 1j * k * g_hat], size)[:, pad:pad + n]
        terms.append((a * x + a * a * t + top, conv, a * conv + slope))
    (log_p, conv_p, deriv_p), (log_m, conv_m, deriv_m) = terms
    top = np.maximum(log_p, log_m)
    e_p, e_m = np.exp(log_p - top), np.exp(log_m - top)
    return Field(u0.grid, -2.0 * (e_p * deriv_p + e_m * deriv_m) / (e_p * conv_p + e_m * conv_m))


# ---------------------------------------------------------------------------
# Initial perturbations


def make_perturbation(kind: str, amplitude: float, width: float,
                      grid: Grid, seed: int = 0) -> Field:
    """Canned initial data; odd kinds are antisymmetrized exactly on the grid.

    gaussian                 a * exp(-(x/w)^2)
    odd_gaussian_derivative  -a * x * exp(-(x/w)^2)
    odd_sine_packet          a * sin(x/w) * exp(-(x/(3w))^2)
    random_bandlimited       seeded noise on the lowest L/(2*pi*w) + 4 modes,
                             fewer than n/2, under a decaying envelope
    """
    if amplitude <= 0.0 or width <= 0.0:
        raise ValueError("amplitude and width must be positive")
    x = grid.x
    if kind == "gaussian":
        values = amplitude * np.exp(-((x / width) ** 2))
    elif kind == "odd_gaussian_derivative":
        values = -amplitude * x * np.exp(-((x / width) ** 2))
    elif kind == "odd_sine_packet":
        values = amplitude * np.sin(x / width) * np.exp(-((x / (3.0 * width)) ** 2))
    elif kind == "random_bandlimited":
        rng = np.random.default_rng(seed)
        modes = max(4, int(grid.length / (2.0 * np.pi * width)) + 4)
        if modes >= grid.n // 2:  # the band and its mirror must stay below Nyquist
            raise ValueError(f"perturbation.width = {width:g} needs {modes} "
                             f"random_bandlimited modes, not below n/2 = {grid.n // 2}")
        coeffs = np.zeros(grid.n, dtype=complex)
        amps = rng.standard_normal(modes) + 1j * rng.standard_normal(modes)
        taper = np.exp(-np.linspace(0.0, 3.0, modes) ** 2)
        coeffs[1:modes + 1] = amps * taper
        coeffs[-modes:] = np.conj(coeffs[1:modes + 1][::-1])
        raw = np.fft.ifft(coeffs).real
        raw *= np.exp(-((x / (grid.length / 8.0)) ** 2))
        peak = np.max(np.abs(raw))
        values = amplitude * raw / peak if peak > 0 else raw
    else:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if kind.startswith("odd"):
        values = 0.5 * (values - np.concatenate([[values[0]], values[1:][::-1]]))
        values[0] = 0.0
    return Field(grid, values)
