"""Shared randomized property trials and slow independent oracles.

Each trial function draws its data from the supplied generator and
returns True when the inequality holds at the stated tolerance; suites
run them for a fixed number of trials and report the failure count.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import LinearOperator, lgmres

from frontlab import Field, apply_multiplier, lp_norm, make_grid
from frontlab.diagnostics import NormSeries
from frontlab.evolution import _EtdRk4
from frontlab.fronts import FrontError, ref_profile
from frontlab.spectral import weighted_l2
from frontlab.symbols import BinOp, Call, Const, Neg, Wavenumber

GRID = make_grid(1024, 80.0)


def band_project(f, eps_freq):
    """Split f = low + high with spectrum of `low` inside |xi| < eps_freq,
    xi the ordinary frequency (k = 2*pi*xi)."""
    if not eps_freq > 0.0:
        raise ValueError("band cutoff must be positive")
    fhat = np.fft.fft(f.values)
    mask = np.abs(np.fft.fftfreq(f.grid.n, f.grid.h)) < eps_freq
    low = np.fft.ifft(np.where(mask, fhat, 0.0)).real
    return Field(f.grid, low), Field(f.grid, f.values - low)


@dataclass(frozen=True)
class KernelReport:
    min_value: float
    max_value: float
    integral: float
    positive: bool


def kernel_positivity_check(operator_or_alpha, t, grid=None):
    """Sample the convolution kernel of exp(t*l) and report its sign.

    Accepts a fractional order alpha (meaning l(k) = -|k|^(2*alpha), the
    semigroup exp(-t*(-d^2/dx^2)^alpha)) or a validated multiplier.
    Heat-type kernels with alpha <= 1 are probability densities; for
    alpha > 1 the kernel changes sign.
    """
    if not t > 0.0:
        raise ValueError("time must be positive")
    if grid is None:
        grid = make_grid(2048, 160.0)
    if np.isscalar(operator_or_alpha):
        sym = -np.abs(grid.k) ** (2.0 * float(operator_or_alpha))
    else:
        sym = np.asarray(operator_or_alpha.values(grid.k))
    # phase centers the kernel at x=0 on the [-L/2, L/2) grid
    phase = np.where(grid.modes % 2 == 0, 1.0, -1.0)
    kernel = (np.fft.ifft(np.exp(t * sym) * phase) / grid.h).real
    kmin, kmax = float(np.min(kernel)), float(np.max(kernel))
    return KernelReport(min_value=kmin, max_value=kmax,
                        integral=float(grid.h * np.sum(kernel)),
                        positive=bool(kmin >= -1e-10 * max(kmax, 1e-300)))


def denormalize_solution(profile, params, t, points):
    """Map a normalized profile back: u(t,x) = lam*U(lam*x - c*lam^2*t) + c*lam."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    y = params.lam * pts - params.c * params.lam ** 2 * t
    x_lo, x_hi = profile.grid.x[0], profile.grid.x[-1]
    if np.min(y) < x_lo or np.max(y) > x_hi:
        raise ValueError(
            f"requested points map to [{np.min(y):.3g}, {np.max(y):.3g}] "
            f"outside the representable domain [{x_lo:.3g}, {x_hi:.3g}]"
        )
    u = params.lam * profile.phi_at(y) + params.c * params.lam
    return u[0] if np.ndim(points) == 0 else u


def random_field(rng, band=None, localized=False):
    n = GRID.n
    coeffs = np.zeros(n, dtype=complex)
    top = band if band is not None else n // 2 - 1
    m = rng.integers(4, top)
    amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    coeffs[1:m + 1] = amps
    coeffs[-m:] = np.conj(coeffs[1:m + 1][::-1])
    values = np.fft.ifft(coeffs).real
    if localized:
        values = values * np.exp(-((GRID.x / (GRID.length / 8.0)) ** 2))
    peak = np.max(np.abs(values))
    return Field(GRID, values / peak if peak > 0 else values)


def parseval_trial(rng):
    f = random_field(rng)
    fhat = np.fft.fft(f.values)
    direct = GRID.h * np.sum(f.values ** 2)
    spectral = (GRID.h / GRID.n) * np.sum(np.abs(fhat) ** 2)
    return abs(direct - spectral) <= 1e-12 * direct


def bernstein_trial(rng):
    """Band-limited norms against the interval-measure bound |A|^(1/p-1/q)."""
    f = random_field(rng)
    eps = float(rng.uniform(0.05, 0.5))
    low, _ = band_project(f, eps)
    measure = 2.0 * eps
    ok = True
    for p, q in ((1.0, 2.0), (2.0, np.inf), (1.0, np.inf)):
        bound = measure ** (1.0 / p - (0.0 if q == np.inf else 1.0 / q)) \
            * lp_norm(f, p)
        ok &= bound - lp_norm(low, q) >= -1e-10
    return ok


def log_convexity_trial(rng):
    f = random_field(rng)
    p = float(rng.uniform(1.0, 2.5))
    r = float(rng.uniform(p + 0.5, 12.0))
    theta = float(rng.uniform(0.05, 0.95))
    q = 1.0 / (theta / p + (1.0 - theta) / r)
    lhs = lp_norm(f, q)
    rhs = lp_norm(f, p) ** theta * lp_norm(f, r) ** (1.0 - theta)
    return lhs <= rhs * (1.0 + 1e-12)


def agmon_trial(rng):
    f = random_field(rng, band=GRID.n // 4, localized=True)
    fhat = np.fft.fft(f.values)
    df = np.fft.ifft(1j * GRID.k * fhat).real
    dnorm = np.sqrt(GRID.h * np.sum(df ** 2))
    return lp_norm(f, np.inf) ** 2 <= 1.05 * dnorm * lp_norm(f, 2)


def diffusive_positivity_trial(rng):
    """<(-d2/dx2)^alpha f, f|f|^(p-2)> >= 0 for diffusive orders alpha <= 1."""
    f = random_field(rng, band=GRID.n // 3 - 2)
    ok = True
    for alpha in (0.3, 0.5, 1.0):
        frac = apply_multiplier(f, -(-(np.abs(GRID.k) ** (2.0 * alpha))))
        for p in (2, 3, 4):
            form = GRID.h * np.sum(frac.values * f.values
                                   * np.abs(f.values) ** (p - 2))
            ok &= form >= -1e-10
    return ok


def kernel_trial(rng):
    t = float(rng.uniform(0.3, 3.0))
    ok = True
    for alpha in (0.3, 0.5, 1.0):
        ok &= kernel_positivity_check(alpha, t).positive
    ok &= not kernel_positivity_check(1.5, t).positive
    return ok


def hermitian_real_output_trial(rng):
    """Hermitian symbols return real fields through the transform path."""
    f = random_field(rng, band=GRID.n // 4, localized=True)
    k = GRID.k
    symbols = (1j * k ** 3, -np.abs(k), 1j * np.sign(k), -k ** 2 + 1j * k * np.abs(k))
    ok = True
    for sym in symbols:
        sym = sym.astype(complex)
        if GRID.n % 2 == 0:
            sym[GRID.n // 2] = sym[GRID.n // 2].real
        out = np.fft.ifft(sym * np.fft.fft(f.values))
        # roundoff model: residue ~ eps * max|sym| * field scale
        scale = (1.0 + np.max(np.abs(sym))) * np.max(np.abs(f.values))
        ok &= np.max(np.abs(out.imag)) <= 1e-12 * scale
    return ok


def run_trials(trial, n_trials=100, seed=2024):
    rng = np.random.default_rng(seed)
    return sum(0 if trial(rng) else 1 for _ in range(n_trials))


PROPERTY_SUITES = {
    "parseval": parseval_trial,
    "bernstein": bernstein_trial,
    "log_convexity": log_convexity_trial,
    "agmon": agmon_trial,
    "diffusive_positivity": diffusive_positivity_trial,
    "kernel_positivity": kernel_trial,
    "hermitian_real_output": hermitian_real_output_trial,
}


# ---------------------------------------------------------------------------
# Slow paths kept as oracles for the fast ones in src/


def dealias_mask(n):
    """Two-thirds rule on FFT-ordered modes: keep |m| <= n/3."""
    modes = np.rint(np.fft.fftfreq(n) * n).astype(int)
    return np.abs(modes) <= n // 3


def full_tendency(ws, v):
    """Tendency irfft(lin*v_hat + payload) and x0' of a dealias=False `_Workspace`."""
    vhat = np.fft.rfft(v.values)
    zdot, x0_dot = ws.nonlinear_hat(np.append(vhat, 0.0))
    return Field(v.grid, np.fft.irfft(ws.lin * vhat + zdot[:-1], ws.n)), x0_dot


def band_energies(snapshots, eps):
    """(t, I_low, I_high) over snapshots (t, v): ||v||_2^2 inside and
    outside the band |xi| < eps, split by `band_project`."""
    rows = []
    for t, f in snapshots:
        low, high = band_project(f, eps)
        rows.append((t, lp_norm(low, 2) ** 2, lp_norm(high, 2) ** 2))
    return tuple(np.array(column) for column in zip(*rows))


class HalfSpectrumWorkspace:
    """The stepper's tendency on the whole real-FFT half spectrum, modes
    0..n/2, with the two-thirds rule applied as a mask and a fresh array
    for every product: the slow path that `evolution._Workspace`, which
    stores only the retained modes, must match bit for bit."""

    def __init__(self, front, spec, gamma, dealias, disable=()):
        grid = front.grid
        n = grid.n
        k = grid.k[: n // 2 + 1]
        self.n, self.gamma, self.h, self.k = n, gamma, grid.h, k
        self.mask = dealias_mask(n)[: k.size] if dealias else np.ones(k.size, bool)
        self.ik = np.where(self.mask, grid.ik[: k.size], 0.0)
        self.weight = np.full(k.size, 2.0)
        self.weight[0] = 1.0
        if n % 2 == 0:
            self.weight[-1] = 1.0
        self.lin = -k ** 2 + spec.values(k)
        self.dphi = front.phi_prime.values
        self.dphi_hat = np.where(self.mask, np.fft.rfft(self.dphi), 0.0)
        self.phi_flux = np.zeros(n) if "front" in disable else front.phi.values
        self.quad = 0.0 if "nonlinear" in disable else 0.5
        self.modulation = "modulation" not in disable

    def augment(self, values):
        return np.concatenate([np.where(self.mask, np.fft.rfft(values), 0.0), [0.0]])

    def l2sq(self, mag):
        return self.h / self.n * float(self.weight @ (mag * mag))

    def nonlinear_hat(self, vhat):
        v = np.fft.irfft(vhat, self.n)
        x0_dot = -self.gamma * self.h * float(self.dphi @ v) if self.modulation else 0.0
        flux_hat = np.fft.rfft((self.phi_flux + self.quad * v) * v)
        return self.ik * (x0_dot * vhat - flux_hat) + x0_dot * self.dphi_hat, x0_dot

    def nonlin(self, z):
        payload, x0_dot = self.nonlinear_hat(z[:-1])
        return np.concatenate([payload, [x0_dot]]), x0_dot


def half_spectrum_advance(stepper, z, nonlin):
    """One ETDRK4 step with fresh arrays for every product and sum, on the
    coefficients of an `evolution` stepper."""
    e_half, q = stepper.e_half, stepper.q
    n0, aux = nonlin(z)
    a = e_half * z + q * n0
    n1, _ = nonlin(a)
    b = e_half * z + q * n1
    n2, _ = nonlin(b)
    cc = e_half * a + q * (2.0 * n2 - n0)
    n3, _ = nonlin(cc)
    return (stepper.e_full * z + stepper.f1 * n0 + stepper.f2 * (n1 + n2)
            + stepper.f3 * n3), aux


def half_spectrum_evolve(v0, front, spec, config, disable=()):
    """`evolve`'s records (series, snapshots, x0_final) from a loop over
    the half-spectrum oracle, without its audits and guards; also the
    largest modulus the state ever holds on the masked modes."""
    ws = HalfSpectrumWorkspace(front, spec, config.gamma, config.dealias, disable)
    stepper = _EtdRk4(np.concatenate([ws.lin, [0.0]]), config.dt)
    z = ws.augment(v0.values)
    rows, snapshots, masked_peak = [], [], 0.0

    def record(t, x0, x0_dot):
        f = Field(v0.grid, np.fft.irfft(z[:-1], ws.n))
        dv = np.sqrt(ws.l2sq(np.abs(ws.k * z[:-1])))
        linf = lp_norm(f, np.inf)
        m_sup = max(rows[-1][-1] if rows else 0.0, linf)
        rows.append([float(v) for v in (
            t, x0, x0_dot, lp_norm(f, 1), lp_norm(f, 2), linf,
            *[lp_norm(f, p) for p in config.p_list], dv, weighted_l2(f), m_sup)])
        return f

    f = record(0.0, 0.0, 0.0)
    if config.snapshot_every:
        snapshots.append((0.0, f))
    nsteps = int(round(config.t_end / config.dt))
    for istep in range(1, nsteps + 1):
        z, x0_dot = half_spectrum_advance(stepper, z, ws.nonlin)
        masked_peak = max(masked_peak, float(np.max(np.abs(z[:-1][~ws.mask]),
                                                    initial=0.0)))
        if istep % config.record_every == 0 or istep == nsteps:
            f = record(istep * config.dt, float(z[-1].real), x0_dot)
            if config.snapshot_every and istep % config.snapshot_every == 0:
                snapshots.append((istep * config.dt, f))
    names = ["t", "x0", "x0_dot", "l1", "l2", "linf",
             *[f"lp_{p:g}" for p in config.p_list], "dv_l2", "weighted", "m_sup"]
    series = NormSeries(config.p_list, dict(zip(names, map(list, zip(*rows)))))
    return series, snapshots, series.x0[-1], masked_peak


def sturm_count_numpy_scalars(diag, offdiag, shift):
    """`certify.count_below` with the recurrence on numpy scalars."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    scale = float(np.max(np.abs(diag))) + float(np.max(np.abs(offdiag), initial=0.0))
    for attempt in range(3):
        count = 0
        pivot_ok = True
        d = diag[0] - shift
        if d == 0.0 or abs(d) < 1e-300 * scale:
            pivot_ok = False
        else:
            count += d < 0.0
            for i in range(1, diag.size):
                d = diag[i] - shift - offdiag[i - 1] ** 2 / d
                if d == 0.0:
                    pivot_ok = False
                    break
                count += d < 0.0
        if pivot_ok:
            return int(count)
        shift -= 16 * np.spacing(scale)
    return None  # pivot breakdown


def taylor_steps_polyval(a, y0, span):
    """`fronts.solve_ivp` with each Cauchy product summed from a generator
    and each step end evaluated by numpy `polyval` on the (25, 2) array of
    the step's coefficients."""
    a, n = float(a), 24
    y, ts, coefs = y0, [0.0], []
    while ts[-1] < span:
        c = [float(y[0]), float(y[1])]
        for k in range(n - 1):
            conv = sum(c[j] * c[k - j] for j in range(k + 1)) - (k == 0)
            c.append((0.5 * conv - (k + 1) * c[k + 1]) / (a * (k + 1) * (k + 2)))
        tol = 1e-16 * max(1.0, abs(c[0]), abs(c[1]))
        h = min([0.8 * (tol / abs(c[m])) ** (1.0 / m) for m in (n - 1, n) if c[m]]
                + [span - ts[-1]])
        coefs.append(np.array([c, [k * c[k] for k in range(1, n + 1)] + [0.0]]).T)
        y = polyval(h, coefs[-1])
        if not (h > 0.0 and abs(y[0]) < 3.0):
            raise FrontError(f"shooting integration failed for nu={a:g}")
        ts.append(min(ts[-1] + h, span))
    return np.array(ts), np.array(coefs)


def trig_interpolate_262144(grid, values, points):
    """`spectral.trig_interpolate` with chunks of 262,144 matrix entries,
    four times its own: each chunk is a block of independent rows."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    coeffs = np.fft.fft(np.asarray(values, dtype=float)) / grid.n
    if grid.n % 2 == 0:
        coeffs[grid.n // 2] = coeffs[grid.n // 2].real
    rel = pts + 0.5 * grid.length
    out = np.zeros(pts.shape, dtype=complex)
    step = max(1, 262144 // grid.n)
    for start in range(0, pts.size, step):
        sl = slice(start, start + step)
        out[sl] = np.exp(1j * np.outer(rel[sl], grid.k)) @ coeffs
    return out.real


def cubic_spline_antiderivative(u0):
    """(c0, lam0, int_0^y u0) for u0 = c0 + lam0 * ref + w, with c0, lam0
    from the edge means as in `evolution.cole_hopf_exact`, and the integral
    of w a global not-a-knot cubic spline through the antiderivative of w
    on the 16x zero-padded grid, taken by a second FFT round trip; its
    slopes come from the spline's own tridiagonal solve, not from w."""
    grid = u0.grid
    edge = max(4, grid.n // 128)
    u_minus = float(np.mean(u0.values[:edge]))
    u_plus = float(np.mean(u0.values[-edge:]))
    lam0 = 0.5 * (u_minus - u_plus)
    c0 = 0.5 * (u_minus + u_plus)
    w = u0.values - c0 - lam0 * ref_profile(grid.x)

    upsample = 16
    nf = upsample * grid.n
    what = np.fft.fft(w)
    pad = np.zeros(nf, dtype=complex)
    half = grid.n // 2
    pad[:half] = what[:half]
    pad[-half:] = what[-half:]
    w_fine = np.fft.ifft(pad).real * upsample
    xf = -0.5 * grid.length + (grid.length / nf) * np.arange(nf)

    mean_w = float(np.mean(w))
    kf = 2.0 * np.pi * np.fft.fftfreq(nf, d=grid.length / nf)
    wt_hat = np.fft.fft(w_fine - mean_w)
    anti = np.zeros(nf, dtype=complex)
    anti[1:] = wt_hat[1:] / (1j * kf[1:])
    wt_anti = np.fft.ifft(anti).real
    spline = CubicSpline(xf, wt_anti)
    wt_anti0 = float(spline(0.0))

    def u0_antiderivative(y):
        yc = np.clip(y, xf[0], xf[-1])
        core = spline(yc) - wt_anti0 + mean_w * yc
        return c0 * y - 2.0 * lam0 * np.log(np.cosh(0.5 * y)) + core
    return c0, lam0, u0_antiderivative


def cole_hopf_whole_array(u0, t, antiderivative=cubic_spline_antiderivative):
    """The exact Burgers solution by the Cole-Hopf integrals

        u(t,x) = [int ((x-y)/t) e^{-H/2} dy] / [int e^{-H/2} dy],
        H(x,y) = int_0^y u0 + (x-y)^2 / (2t),

    on composite 16-point Gauss-Legendre panels over the whole n x (nodes)
    array at once, with the max of -H/2 factored out per row and the
    integrand truncated 1e-18 below its peak, through `antiderivative(u0)`
    = (c0, lam0, int_0^y u0); a finer panel set must agree to 5e-7."""
    x = u0.grid.x
    c0, lam0, u0_antiderivative = antiderivative(u0)

    def solve(n_panels):
        reach = np.sqrt(2.0 * t * np.log(1e18)) + 2.0 * t * (abs(c0) + abs(lam0)) + 6.0
        qx, qw = leggauss(16)
        edges = np.linspace(-reach, reach, n_panels + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        halfw = 0.5 * (edges[1:] - edges[:-1])
        offsets = (mids[:, None] + halfw[:, None] * qx[None, :]).ravel()
        wts = (halfw[:, None] * qw[None, :]).ravel()

        y = x[:, None] + offsets[None, :]
        h_exp = u0_antiderivative(y) + (x[:, None] - y) ** 2 / (2.0 * t)
        h_exp *= -0.5
        h_exp -= np.max(h_exp, axis=1, keepdims=True)
        weight = np.exp(h_exp) * wts[None, :]
        num = np.sum(((x[:, None] - y) / t) * weight, axis=1)
        den = np.sum(weight, axis=1)
        return num / den

    n_panels = max(24, int(np.ceil((np.sqrt(2.0 * t * np.log(1e18)) + 6.0))))
    coarse = solve(n_panels)
    fine = solve(int(1.5 * n_panels) + 2)
    assert np.max(np.abs(coarse - fine)) <= 5e-7
    return Field(u0.grid, fine)


def lgmres_solve(matvec, prec, b, rtol):
    """`fronts._gmres` by scipy's LGMRES (Baker, Jessup & Manteuffel 2005),
    with the tolerances and iteration cap Newton used before it had its own
    GMRES: rtol of ||b||, atol 0, 200 outer iterations."""
    shape = (b.size, b.size)
    return lgmres(LinearOperator(shape, matvec=matvec, dtype=float), b,
                  M=LinearOperator(shape, matvec=prec, dtype=float),
                  rtol=rtol, atol=0.0, maxiter=200)


def provably_real(node):
    """The '^' rule's old analysis, real half: True when `node` is provably
    real; `symbols._sign(node) >= 1` must agree."""
    if isinstance(node, Const):
        v = node.value
        if np.isfinite(v) and v.imag == 0.0:
            return True
        return node.source is not None and provably_real(node.source)
    if isinstance(node, (Wavenumber, Call)):
        return True  # k and abs are real; sgn demands a real argument
    if isinstance(node, Neg):
        return provably_real(node.arg)
    if node.op == "^":
        if node.rhs.value.real.is_integer():
            return provably_real(node.lhs)
        return provably_nonneg(node.lhs)
    return provably_real(node.lhs) and provably_real(node.rhs)


def provably_nonneg(node):
    """The nonnegative half: True when `node` is provably real and >= 0;
    `symbols._sign(node) == 2` must agree."""
    if isinstance(node, Const):
        v = node.value
        if np.isfinite(v) and v.imag == 0.0 and v.real >= 0.0:
            return True
        return node.source is not None and provably_nonneg(node.source)
    if isinstance(node, Call):
        return node.fn == "abs"
    if isinstance(node, BinOp):
        if node.op == "^":
            even = node.rhs.value.real % 2 == 0
            return provably_nonneg(node.lhs) or (even and provably_real(node.lhs))
        if node.op in ("+", "*", "/"):
            return provably_nonneg(node.lhs) and provably_nonneg(node.rhs)
    return False


def substitute_scaled(node, lam):
    """The tree of l(lam*k) built from the tree of l(k), by substituting
    lam*k for each k: `symbols.rescale_symbol` without a re-parse."""
    if isinstance(node, Wavenumber):
        return BinOp("*", Const(complex(lam)), Wavenumber())
    if isinstance(node, Const):
        return node
    if isinstance(node, Neg):
        return Neg(substitute_scaled(node.arg, lam))
    if isinstance(node, Call):
        return Call(node.fn, substitute_scaled(node.arg, lam))
    return BinOp(node.op, substitute_scaled(node.lhs, lam),
                 substitute_scaled(node.rhs, lam))


def rescaled_tree(spec, lam):
    """The tree of lam^-2 * l(lam*k), by substitution."""
    return BinOp("*", Const(complex(lam ** -2.0)), substitute_scaled(spec.expr.root, lam))
