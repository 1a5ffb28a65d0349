"""Steady front profiles of -phi'' + phi*phi' = L[phi] with phi(-inf)=1, phi(+inf)=-1.

All solvers normalize the endpoints to (+1, -1); other endpoint pairs are
handled by the Galilean change of frame and scale.  Profiles are stored as
phi = ref + w where ref(x) = -tanh(x/2) carries the heteroclinic jump
analytically and the correction w is periodic and decaying, so spectral
calculus on w is Gibbs-free.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .config import RunConfig
from .spectral import (Field, Grid, derivative, trig_interpolate,
                       trig_interpolate_lattice)
from .symbols import MultiplierSpec, preset, rescale_symbol

__all__ = [
    "FrontError",
    "NoBoundedFrontError",
    "FrontProfile",
    "GalileanParams",
    "closed_form_burgers",
    "shoot_local_front",
    "newton_front",
    "profile_residual",
    "galilean_normalize",
    "front_for_operator",
    "reference_front",
    "operator_on_reference",
]


class FrontError(RuntimeError):
    pass


class NoBoundedFrontError(FrontError):
    """The symbol is O(1) at k=0, so L[ref] and the profile are unbounded."""


# ---------------------------------------------------------------------------
# The analytic reference front ref(x) = -tanh(x/2)


def ref_profile(x):
    return -np.tanh(0.5 * x)


def ref_d1(x):
    return -0.5 / np.cosh(0.5 * x) ** 2


def ref_d2(x):
    s2 = 1.0 / np.cosh(0.5 * x) ** 2
    return 0.5 * s2 * np.tanh(0.5 * x)


def _check_vanishing_symbol(spec: MultiplierSpec):
    probe = np.abs(spec.values(np.array([1e-8, 1e-6, 1e-4])))
    if np.max(probe) > 0.05:
        raise NoBoundedFrontError(
            f"operator {spec.label!r}: symbol does not vanish at k=0 fast "
            "enough for a localized front correction (L[ref] unbounded)"
        )


def operator_on_reference(spec: MultiplierSpec, grid: Grid) -> np.ndarray:
    """The periodization of L[ref] sampled on the grid.

    ref(x) = -tanh(x/2) has line transform 2*pi*i/sinh(pi*k), so the
    L-periodic image sum of L[ref] has Fourier coefficients
    l(k_m) * 2*pi*i / (L*sinh(pi*k_m)), which decay like exp(-pi*|k|);
    a single inverse FFT reconstructs it without truncation error.  Using
    the periodized term keeps the discrete profile equation solvable even
    when L[ref] itself has slow algebraic tails (fractional symbols).

    Requires l(k)/k to be integrable at the origin; symbols that stay O(1)
    near k=0 (e.g. i*sgn(k)) produce an unbounded L[ref] and are rejected:
    the profile equation then has no bounded heteroclinic solution.
    """
    if spec.is_zero:
        return np.zeros(grid.n)
    _check_vanishing_symbol(spec)
    k = grid.k
    coeff = np.zeros(grid.n, dtype=complex)
    nz = k != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        denom = np.sinh(np.pi * k[nz])
        coeff[nz] = spec.values(k[nz]) * (2j * np.pi) / (grid.length * denom)
    coeff[~np.isfinite(coeff)] = 0.0  # sinh overflow at large |k| means 0
    phase = np.where(grid.modes % 2 == 0, 1.0, -1.0)
    g = grid.n * np.fft.ifft(coeff * phase)
    return g.real


# ---------------------------------------------------------------------------
# Profile container


@dataclass(frozen=True)
class FrontProfile:
    """A front as its solver produced it: `phi` and `phi_prime` on `grid`,
    the `operator` of its profile equation, that equation's `residual_sup`
    (nan when not a solution) and the solver's `method`.  Derived: `exact`
    (it solves the equation: every method but "reference") and `endpoints`,
    the limits (1, -1) at -inf and +inf that every solver normalizes to."""

    endpoints: ClassVar[tuple[float, float]] = (1.0, -1.0)

    grid: Grid
    phi: Field
    phi_prime: Field
    operator: MultiplierSpec
    residual_sup: float
    method: str

    @property
    def exact(self) -> bool:
        return self.method != "reference"

    @property
    def correction(self) -> np.ndarray:
        return self.phi.values - ref_profile(self.grid.x)

    def phi_at(self, points) -> np.ndarray:
        w = trig_interpolate(self.grid, self.correction, points)
        return ref_profile(np.asarray(points, dtype=float)) + w

    def phi_prime_at(self, points) -> np.ndarray:
        dw = trig_interpolate(
            self.grid, self.phi_prime.values - ref_d1(self.grid.x), points
        )
        return ref_d1(np.asarray(points, dtype=float)) + dw

    def phi_prime_on_lattice(self, nodes: np.ndarray, h: float) -> np.ndarray:
        """phi_prime_at(nodes) for nodes spaced h, by one chirp-z transform."""
        dw = trig_interpolate_lattice(
            self.grid, self.phi_prime.values - ref_d1(self.grid.x),
            nodes[0], h, nodes.size
        )
        return ref_d1(nodes) + dw


def _flux_residual(grid: Grid, w: np.ndarray, lin: np.ndarray,
                   g: np.ndarray) -> np.ndarray:
    """Residual of the profile equation in conservative form; `lin` is the
    symbol k^2 - l(k) of -d^2/dx^2 - L.

    phi*phi' is discretized as (1/2) d/dx [phi^2 - 1]; the bracket decays at
    both box ends (unlike phi itself), so the spectral derivative sees no
    seam jump, and the nonlinearity contributes exactly zero mean.
    """
    x = grid.x
    # phi^2 - 1 = -sech^2(x/2) + 2*ref*w + w^2, assembled without cancellation
    q = -1.0 / np.cosh(0.5 * x) ** 2 + 2.0 * ref_profile(x) * w + w * w
    res = np.fft.ifft(lin * np.fft.fft(w) + 0.5 * grid.ik * np.fft.fft(q)).real
    return res - ref_d2(x) - g


def profile_residual(profile: FrontProfile) -> float:
    """Sup norm of -phi'' + phi*phi' - L[phi] via the reference decomposition."""
    spec, grid = profile.operator, profile.grid
    w = profile.phi.values - ref_profile(grid.x)
    g = operator_on_reference(spec, grid)
    res = _flux_residual(grid, w, grid.k ** 2 - spec.values(grid.k), g)
    return float(np.max(np.abs(res)))


def _build_profile(grid: Grid, phi: np.ndarray, phi_prime: np.ndarray,
                   spec: MultiplierSpec, method: str) -> FrontProfile:
    prof = FrontProfile(grid=grid, phi=Field(grid, phi),
                        phi_prime=Field(grid, phi_prime), operator=spec,
                        residual_sup=np.nan, method=method)
    return replace(prof, residual_sup=profile_residual(prof)) if prof.exact else prof


# ---------------------------------------------------------------------------
# Closed form, shooting, Newton


def closed_form_burgers(grid: Grid) -> FrontProfile:
    """Pure Burgers front phi(x) = -tanh(x/2) (first integral phi' = (phi^2-1)/2)."""
    x = grid.x
    return _build_profile(grid, ref_profile(x), ref_d1(x),
                          preset("burgers"), "closed_form")


def reference_front(grid: Grid, spec: MultiplierSpec) -> FrontProfile:
    """The Burgers profile used as a reference potential for an operator
    whose profile equation has no localized front (residual not defined)."""
    x = grid.x
    return _build_profile(grid, ref_profile(x), ref_d1(x), spec, "reference")


def _horner(x, c):
    """numpy `polyval(x, c, tensor=False)`'s operations, on Python floats or
    on arrays: c[k] multiplies x^k and broadcasts against x."""
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc = ck + acc * x
    return acc


def solve_ivp(a: float, y0, span: float):
    """Order-24 Taylor steps of y = (phi, phi') under a*phi'' + phi' +
    (1-phi^2)/2 = 0 from y(0) = y0 to x = span (see `_shoot_normalized`).

    Returns the step ends ts (ts[0] = 0, ts[-1] = span) and each step's
    Taylor coefficients of phi and phi' about its start, shape (steps, 25,
    2).  A zero or nan step (non-finite state) or |phi| >= 3 raises FrontError.
    """
    a, n = float(a), 24
    y, ts, coefs = y0, [0.0], []
    while ts[-1] < span:
        c = [float(y[0]), float(y[1])]
        for k in range(n - 1):
            conv = sum(map(operator.mul, c[:k + 1], c[k::-1])) - (k == 0)
            c.append((0.5 * conv - (k + 1) * c[k + 1]) / (a * (k + 1) * (k + 2)))
        tol = 1e-16 * max(1.0, abs(c[0]), abs(c[1]))
        h = min([0.8 * (tol / abs(c[m])) ** (1.0 / m) for m in (n - 1, n) if c[m]]
                + [span - ts[-1]])
        coefs.append((c, [k * c[k] for k in range(1, n + 1)] + [0.0]))
        y = [_horner(h, row) for row in coefs[-1]]
        if not (h > 0.0 and abs(y[0]) < 3.0):
            raise FrontError(f"shooting integration failed for nu={a:g}")
        ts.append(min(ts[-1] + h, span))
    return np.array(ts), np.array(coefs).transpose(0, 2, 1)


def _shoot_normalized(a: float, targets: np.ndarray):
    """Heteroclinic orbit of a*phi'' + phi' + (1-phi^2)/2 = 0 for a > 0,
    phased so phi(0) = 0.  Returns (phi, phi') at the requested points.

    The equation is autonomous, so the manifold amplitude only translates
    the orbit: one integration is read off at targets + x_c, x_c its first
    downward zero; past x_c the flow is attracted to phi = -1.

    `solve_ivp` steps phi = sum c_k (x - x0)^k, k <= 24, from c_0 = phi(x0),
    c_1 = phi'(x0) and, the equation being quadratic,
    c_{k+2} = ((c*c)_k/2 - delta_k0/2 - (k+1) c_{k+1}) / (a (k+1)(k+2)) with
    (c*c)_k the Cauchy product.  The step is 0.8 min_m (1e-16 s/|c_m|)^(1/m)
    over m = 23, 24 with s = max(1, |phi|, |phi'|) (Jorba & Zou 2005).  The
    step polynomials are the dense output: x_c and the targets cost no steps.
    """
    mu = (-1.0 + np.sqrt(1.0 + 4.0 * a)) / (2.0 * a)  # unstable rate at phi=1
    # second-order unstable-manifold expansion phi = 1 - d + c2*d^2 keeps the
    # matching error at O(d^3); starting with d ~ 1e-6 avoids the float
    # quantization of 1 - d that a start deeper in the tail would hit
    c2 = 1.0 / (2.0 * (3.0 - 2.0 * mu))
    delta = 1e-6

    def manifold(s):
        """(phi, phi') on the manifold, s <= 0 measured from the start."""
        d = delta * np.exp(mu * s)
        return np.array([1.0 - d + c2 * d * d, -mu * d + 2.0 * mu * c2 * d * d])

    # u = 1 - phi obeys a*u'' + u' = u*(1 - u/2) >= u/2 until the crossing,
    # so u grows at least at the rate of a*r^2 + r = 1/2 and reaches 1
    # before log(1/delta)/r
    rate = (-1.0 + np.sqrt(1.0 + 2.0 * a)) / (2.0 * a)
    span = np.log(1.0 / delta) / rate + float(np.max(targets)) + 1.0
    ts, coefs = solve_ivp(a, manifold(0.0), span)

    def dense(s):
        """(phi, phi') at points s >= 0 from the step that holds each (the
        earlier one at a step end), as (2, s.size)."""
        step = np.clip(np.searchsorted(ts, s) - 1, 0, ts.size - 2)
        return _horner(s - ts[step], np.moveaxis(coefs[step], 0, -1))

    phi = dense(ts)[0]
    down = np.flatnonzero((phi[:-1] >= 0.0) & (phi[1:] <= 0.0))
    if down.size == 0:
        raise FrontError(f"shooting integration failed for nu={a:g}")
    # bisect the crossing step's polynomial down to two adjacent doubles
    i = down[0]
    (t0, hi), c = ts[i:i + 2].tolist(), coefs[i, :, 0].tolist()
    lo = t0
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _horner(mid - t0, c) > 0.0:
            lo = mid
        else:
            hi = mid

    s = targets + hi
    inside = s >= 0.0
    out = np.empty((2, targets.size))
    out[:, inside] = dense(s[inside])
    # left of the start point the manifold expansion continues the tail
    out[:, ~inside] = manifold(s[~inside])
    return out[0], out[1]


def shoot_local_front(nu: float, grid: Grid,
                      tol: float = RunConfig.front_tol) -> FrontProfile:
    """KdV-Burgers front via shooting on the first integral
    nu*phi'' + phi' + (1-phi^2)/2 = 0 (one integration of the profile
    equation using the endpoint limits).  One dense integration from the
    unstable manifold of phi = 1, shifted to its zero crossing, pins the
    phase phi(0) = 0.
    """
    if nu == 0.0:
        raise ValueError("nu must be nonzero; use closed_form_burgers")
    spec = preset("kdvb", nu=float(nu))
    x = grid.x
    if nu > 0.0:
        phi, dphi = _shoot_normalized(nu, x)
    else:
        # phi_{-nu}(x) = -phi_{nu}(-x) maps the nu<0 problem to nu>0
        psi, dpsi = _shoot_normalized(-nu, -x)
        phi, dphi = -psi, dpsi
    prof = _build_profile(grid, phi, dphi, spec, "shooting")
    if prof.residual_sup > tol:
        warnings.warn(
            f"shooting residual {prof.residual_sup:.2e} above tol {tol:.1e} "
            f"for nu={nu:g}; consider a larger or finer grid"
        )
    return prof


def newton_front(spec: MultiplierSpec, grid: Grid,
                 tol: float = RunConfig.front_tol) -> FrontProfile:
    """Spectral Newton iteration on w in phi = ref + w, starting from w = 0.

    The linearized systems are solved in spectral space by preconditioned
    GMRES; the translational null direction is removed by pinning the
    phase through the constraint phi(0) = 0 (a post-hoc spectral shift
    would move the seam kink of algebraic-tail corrections off the grid
    and pollute the residual, so the constraint is kept inside Newton).
    """
    spec.require_admissible()
    n, x = grid.n, grid.x
    g = operator_on_reference(spec, grid)
    lin = grid.k ** 2 - spec.values(grid.k)  # symbol of -d^2/dx^2 - L
    w = np.zeros(n)

    t0, t1 = ref_profile(x), ref_d1(x)
    precond_sym = lin + 1.0

    # The linearization J(d) = -d'' + (phi*d)' - L[d] is a total derivative,
    # so constants span its left null space while phi' spans the right
    # (translation) null space.  The bordered system therefore carries the
    # constant vector as its column and the phase pin d(0) = -w(0) as its
    # row, so a full step lands on phi(0) = 0.
    ones = np.full(n, 1.0 / np.sqrt(n))

    pin_index = n // 2  # x = 0 is a grid point; ref(0) = 0 so phi(0) = w(0)

    def solve_linear(phi, rhs, pin_value):
        def matvec(z):
            jz = np.fft.ifft(lin * np.fft.fft(z[:n])
                             + grid.ik * np.fft.fft(phi * z[:n])).real
            out = np.empty(n + 1)
            out[:n] = jz + z[n] * ones
            out[n] = z[pin_index]
            return out

        def apply_prec(z):
            out = np.empty(n + 1)
            out[:n] = np.fft.ifft(np.fft.fft(z[:n]) / precond_sym).real
            out[n] = z[n]
            return out

        b = np.concatenate([rhs, [pin_value]])
        sol, info = _gmres(matvec, apply_prec, b, rtol=1e-10)
        if info != 0:
            # accept a stagnated solve that is still accurate enough for a
            # Newton step; otherwise report the (near-)singular linearization
            probe = np.linalg.norm(matvec(sol) - b) / max(np.linalg.norm(b), 1e-300)
            if probe > 1e-6:
                raise FrontError(
                    f"linearized solve stagnated (relative residual {probe:.2e}); "
                    f"smallest-singular-value estimate <= "
                    f"{_sigma_min_probe(matvec, n):.2e}"
                )
        return sol[:n]

    res = _flux_residual(grid, w, lin, g)
    norm = np.max(np.abs(res))
    for _ in range(40):
        if norm <= tol and abs(w[pin_index]) <= 1e-12:
            break
        phi = t0 + w
        step = solve_linear(phi, -res, -w[pin_index])
        scale = 1.0
        for _ in range(8):
            trial = w + scale * step
            res_t = _flux_residual(grid, trial, lin, g)
            norm_t = np.max(np.abs(res_t))
            if norm_t < norm:
                break
            scale *= 0.5
        else:
            raise FrontError(
                f"Newton stagnated at residual {norm:.3e} for {spec.label!r}"
            )
        w, res, norm = trial, res_t, norm_t
    else:
        raise FrontError(
            f"Newton did not reach tol={tol:g} in 40 iterations "
            f"(residual {norm:.3e}) for {spec.label!r}"
        )

    return _build_profile(grid, t0 + w, t1 + derivative(Field(grid, w), 1).values,
                          spec, "newton")


GMRES_RESTART, GMRES_CYCLES = 100, 20  # Arnoldi basis length; cycle cap


def _gmres(matvec, prec, b, rtol):
    """GMRES(GMRES_RESTART) with right preconditioning x = M y (Saad &
    Schultz 1986) on an Arnoldi basis of A M from classical Gram-Schmidt
    applied twice.  Givens rotations keep the Hessenberg matrix upper
    triangular as it grows, so the residual of the least-squares problem
    is |g[j + 1]| and each cycle ends with one triangular solve.  Returns
    (x, info): info = 0 once ||b - A x|| <= rtol ||b||, else the number of
    cycles spent."""
    x, target = np.zeros_like(b), rtol * np.linalg.norm(b)
    for cycle in range(GMRES_CYCLES + 1):
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        if beta <= target or cycle == GMRES_CYCLES:
            return x, 0 if beta <= target else cycle
        basis = np.zeros((GMRES_RESTART + 1, b.size))
        hess = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        rot = np.zeros((GMRES_RESTART, 2))  # (cos, sin) of each rotation
        basis[0], g = r / beta, beta * np.eye(1, GMRES_RESTART + 1)[0]
        m = 0  # columns of the triangular factor
        for j in range(GMRES_RESTART):
            v = matvec(prec(basis[j]))
            for _ in range(2):
                c = basis[:j + 1] @ v
                v -= c @ basis[:j + 1]
                hess[:j + 1, j] += c
            sub = hess[j + 1, j] = np.linalg.norm(v)
            col = hess[:, j]
            for i, (cs, sn) in enumerate(rot[:j]):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            diag = np.hypot(col[j], sub)
            if diag <= 1e-14 * np.linalg.norm(col):  # A M v_j adds no direction
                break
            rot[j], col[j], col[j + 1] = col[j:j + 2] / diag, diag, 0.0
            g[j], g[j + 1], m = rot[j, 0] * g[j], -rot[j, 1] * g[j], j + 1
            if abs(g[j + 1]) <= target or not sub:
                break
            basis[j + 1] = v / sub
        y = np.linalg.solve(hess[:m, :m], g[:m])
        x = x + prec(y @ basis[:m])


def _sigma_min_probe(matvec, n, trials: int = 8) -> float:
    rng = np.random.default_rng(1)
    best = np.inf
    for _ in range(trials):
        z = rng.standard_normal(n + 1)
        best = min(best, np.linalg.norm(matvec(z)) / np.linalg.norm(z))
    return best


# ---------------------------------------------------------------------------
# Galilean frame change


@dataclass(frozen=True)
class GalileanParams:
    """Frame and scale mapping endpoints (u-, u+) to the normalized (1, -1)."""

    u_minus: float
    u_plus: float
    c: float
    lam: float

    def denormalized_endpoints(self) -> tuple[float, float]:
        return (self.lam + self.c * self.lam, -self.lam + self.c * self.lam)


def galilean_normalize(u_minus: float, u_plus: float,
                       spec: MultiplierSpec) -> tuple[GalileanParams, MultiplierSpec]:
    """Compute c = (u-+u+)/(u--u+), lam = (u--u+)/2 and rescale the symbol."""
    if not u_minus > u_plus:
        raise ValueError("endpoints must satisfy u_minus > u_plus")
    lam = 0.5 * (u_minus - u_plus)
    c = (u_minus + u_plus) / (u_minus - u_plus)
    params = GalileanParams(u_minus=float(u_minus), u_plus=float(u_plus),
                            c=float(c), lam=float(lam))
    return params, rescale_symbol(spec, lam)


# ---------------------------------------------------------------------------
# Dispatcher


def front_for_operator(spec: MultiplierSpec, grid: Grid,
                       tol: float = RunConfig.front_tol) -> FrontProfile:
    """The only front dispatcher: picks the solver for the operator.

    burgers -> closed form; kdvb -> shooting; operators without a bounded
    front (symbol O(1) at k=0, e.g. i*sgn(k)) -> Burgers reference profile
    with a warning; anything else -> spectral Newton from the reference.
    """
    if spec.is_zero:
        return closed_form_burgers(grid)
    if "nu" in spec.params and len(spec.params) == 1:
        return shoot_local_front(spec.params["nu"], grid, tol=tol)
    try:
        return newton_front(spec, grid, tol=tol)
    except NoBoundedFrontError as exc:
        warnings.warn(
            f"{spec.label}: {exc}; using the Burgers reference profile "
            "(perturbation dynamics remain well-defined around it)"
        )
        return reference_front(grid, spec)
