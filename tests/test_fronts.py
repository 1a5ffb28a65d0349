import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyder, polyval
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from frontlab import (Field, FrontError, certify_front, closed_form_burgers,
                      front_for_operator, galilean_normalize, lp_norm,
                      make_grid, newton_front, preset, profile_residual,
                      shoot_local_front)
from frontlab import fronts
from frontlab.fronts import (FrontProfile, _build_profile,
                             _check_vanishing_symbol, _shoot_normalized,
                             operator_on_reference, ref_profile,
                             reference_front)

from checks import (denormalize_solution, lgmres_solve,
                    taylor_steps_polyval)


def operator_on_reference_line(spec, x):
    """L[ref] on the line by slow Fourier quadrature (oracle).

    L[ref](x) = -int l(k)/(i*sinh(pi*k)) exp(i*k*x) dk over composite
    Gauss-Legendre panels, graded toward the k=0 kink.
    """
    if spec.is_zero:
        return np.zeros_like(np.asarray(x, dtype=float))
    _check_vanishing_symbol(spec)
    x = np.asarray(x, dtype=float)
    x_max = float(np.max(np.abs(x))) if x.size else 1.0
    width = max(0.02, min(0.5, 6.0 / max(x_max, 1.0)))
    k_top = 18.0
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-9, width, 24),
         np.arange(2.0 * width, k_top, width), [k_top]]
    )
    edges = np.unique(edges)
    qx, qw = leggauss(12)
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * qx[None, :]).ravel()
    wts = (half[:, None] * qw[None, :]).ravel()

    f = spec.values(nodes) / (1j * np.sinh(np.pi * nodes))
    # Hermitian pairing folds the k<0 half-line into 2*Re[f e^{ikx}]
    phases = np.exp(1j * np.outer(x, nodes))
    return -2.0 * (phases @ (wts * f)).real


def bisection_shoot(a, targets):
    """Heteroclinic orbit of a*phi'' + phi' + (1-phi^2)/2 = 0 for a > 0,
    phased so phi(0) = 0 by bisecting the unstable-manifold amplitude
    (oracle for the single-integration shooting; one solve_ivp per
    bisection step, then one dense integration)."""
    mu = (-1.0 + np.sqrt(1.0 + 4.0 * a)) / (2.0 * a)
    c2 = 1.0 / (2.0 * (3.0 - 2.0 * mu))
    x_start = -min(float(np.max(np.abs(targets))) + 5.0, 14.0 / mu)

    def manifold_state(d):
        return [1.0 - d + c2 * d * d, -mu * d + 2.0 * mu * c2 * d * d]

    def rhs(x, y):
        return [y[1], -(y[1] + 0.5 * (1.0 - y[0] ** 2)) / a]

    def blowup(x, y):
        return abs(y[0]) - 3.0
    blowup.terminal = True

    def phi_at_zero(log_delta):
        sol = solve_ivp(rhs, (x_start, 0.0), manifold_state(np.exp(log_delta)),
                        method="DOP853", rtol=1e-13, atol=1e-15,
                        events=blowup, dense_output=False,
                        t_eval=[0.0], max_step=0.5)
        if sol.t.size == 0 or not sol.success:
            return -3.0  # ran into the blowup guard before reaching x=0
        return float(sol.y[0, -1])

    lo, hi = np.log(1e-9), np.log(0.45)
    assert phi_at_zero(lo) > 0.0 > phi_at_zero(hi)
    delta = np.exp(brentq(phi_at_zero, lo, hi, xtol=1e-14, rtol=1e-15))

    x_end = float(np.max(targets)) + 1.0
    sol = solve_ivp(rhs, (x_start, x_end), manifold_state(delta),
                    method="DOP853", rtol=1e-13, atol=1e-15,
                    dense_output=True, events=blowup, max_step=0.5)
    assert sol.success and sol.t_events[0].size == 0

    phi = np.empty_like(targets)
    dphi = np.empty_like(targets)
    inside = targets >= x_start
    phi[inside], dphi[inside] = sol.sol(targets[inside])
    d_tail = delta * np.exp(mu * (targets[~inside] - x_start))
    phi[~inside] = 1.0 - d_tail + c2 * d_tail * d_tail
    dphi[~inside] = -mu * d_tail + 2.0 * mu * c2 * d_tail * d_tail
    return phi, dphi


def bisection_front(nu, grid):
    """The KdV-Burgers front built from the bisection oracle."""
    a, sign = abs(nu), np.sign(nu)
    psi, dpsi = bisection_shoot(a, sign * grid.x)
    return _build_profile(grid, sign * psi, dpsi, preset("kdvb", nu=float(nu)),
                          "shooting")


def explicit_kdvb_profile(y):
    """Normalized front for nu = -6/25: (1/2)sech^2(5y/12) - tanh(5y/12).

    Direct substitution into nu*U'' + U' + (1-U^2)/2 = 0 checks out with
    beta = 5/12, nu*beta^2 = -1/24.
    """
    return 0.5 / np.cosh(5.0 * y / 12.0) ** 2 - np.tanh(5.0 * y / 12.0)


def test_closed_form_values(grid_std, burgers_front):
    prof = burgers_front
    j0 = grid_std.n // 2
    assert prof.phi.values[j0] == 0.0
    assert prof.phi_prime.values[j0] == pytest.approx(-0.5, abs=1e-14)
    assert prof.endpoints == (1.0, -1.0)
    assert prof.residual_sup <= 1e-10
    assert np.max(np.abs(prof.phi.values + np.tanh(0.5 * grid_std.x))) <= 1e-14


def test_profile_residual_candidate_against_kdvb():
    """-tanh(x/2) tested against the kdvb(0.2) equation.

    The residual is |nu| * max|ref'''| and max|d^3 tanh(x/2)/dx^3| = 1/4,
    so the frozen oracle value is 0.05.
    """
    g = make_grid(1024, 80.0)
    base = closed_form_burgers(g)
    candidate = FrontProfile(
        grid=g, phi=base.phi, phi_prime=base.phi_prime,
        operator=preset("kdvb", nu=0.2), residual_sup=np.nan,
        method="candidate")
    res = profile_residual(candidate)
    assert res == pytest.approx(0.05, abs=1e-10)


def test_profile_residual_sensitivity(kdvb_front):
    bumped = FrontProfile(
        grid=kdvb_front.grid,
        phi=Field(kdvb_front.grid,
                  kdvb_front.phi.values + 1e-3 / np.cosh(kdvb_front.grid.x)),
        phi_prime=kdvb_front.phi_prime,
        operator=kdvb_front.operator, residual_sup=np.nan, method="bumped")
    assert profile_residual(bumped) >= 10.0 * kdvb_front.residual_sup


def ref_d3(x):
    """Third derivative of the reference profile -tanh(x/2)."""
    s2 = 1.0 / np.cosh(0.5 * x) ** 2
    t = np.tanh(0.5 * x)
    return 0.25 * s2 * (s2 - 2.0 * t * t)


def test_operator_on_reference_periodization_vs_analytic(grid_std):
    # kdvb reference term is nu*ref''' exactly; exponential tails make the
    # periodization indistinguishable from the line function
    spec = preset("kdvb", nu=0.37)
    got = operator_on_reference(spec, grid_std)
    assert np.max(np.abs(got - 0.37 * ref_d3(grid_std.x))) <= 1e-13


def test_operator_on_reference_line_quadrature_oracle(grid_std):
    spec = preset("kdvb", nu=0.37)
    x = grid_std.x[::64]
    got = operator_on_reference_line(spec, x)
    assert np.max(np.abs(got - 0.37 * ref_d3(x))) <= 1e-10


def test_operator_on_reference_rejects_hilbert(grid_std):
    with pytest.raises(FrontError, match="vanish at k=0"):
        operator_on_reference(preset("hilbert"), grid_std)


def test_shooting_matches_explicit_profile(grid_std, kdvb_front):
    y0 = brentq(explicit_kdvb_profile, 0.0, 5.0, xtol=1e-15)
    want = explicit_kdvb_profile(grid_std.x + y0)
    # the Taylor stepper is at roundoff here (DOP853 at rtol 1e-13 gave 6.9e-14)
    assert np.max(np.abs(kdvb_front.phi.values - want)) <= 1e-14
    assert kdvb_front.residual_sup <= 1e-8
    # phase convention and monotonicity of the |nu| <= 1/4 front
    assert abs(kdvb_front.phi.values[grid_std.n // 2]) <= 1e-10
    assert np.max(kdvb_front.phi_prime.values) <= 1e-10


@pytest.mark.parametrize("nu,monotone", [
    (0.05, True), (0.15, True), (0.24, True), (-0.24, True),
    (0.26, False), (0.5, False), (1.0, False),
])
def test_monotonicity_threshold(nu, monotone):
    g = make_grid(1024, 80.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        prof = shoot_local_front(nu, g)
    assert (np.max(prof.phi_prime.values) <= 1e-10) == monotone


# nu < 0, monotone and oscillating fronts on the standard box, and two
# criterion-5 sweep values on the sweep's box
SHOOTING_CASES = [(nu, 1024, 80.0) for nu in
                  (0.05, 0.1, 0.15, 0.2, 0.25, -0.24, 0.26, 0.5, 1.0)] + \
                 [(1.6, 4096, 160.0), (4.6, 4096, 460.0)]


@pytest.mark.parametrize("nu,n,length", SHOOTING_CASES)
def test_shooting_matches_bisection_oracle(nu, n, length):
    g = make_grid(n, length)
    targets = np.sign(nu) * g.x
    phi, dphi = _shoot_normalized(abs(nu), targets)
    want_phi, want_dphi = bisection_shoot(abs(nu), targets)
    assert np.max(np.abs(phi - want_phi)) <= 1e-9
    assert np.max(np.abs(dphi - want_dphi)) <= 1e-9
    assert abs(phi[n // 2]) <= 1e-12  # x = 0 is a grid point


@pytest.mark.parametrize("nu", [0.05, -0.24, 0.5])
def test_shooting_certificate_matches_oracle_front(nu):
    g = make_grid(1024, 80.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = certify_front(shoot_local_front(nu, g))
        want = certify_front(bisection_front(nu, g))
    assert got.counts == want.counts
    assert got.near_zero_flags == want.near_zero_flags
    assert got.richardson_ok == want.richardson_ok


@pytest.fixture
def shots(monkeypatch):
    """The (step ends, step coefficients) of every fronts.solve_ivp call
    made while a test runs."""
    sols = []
    taylor = fronts.solve_ivp

    def recording(*args):
        sols.append(taylor(*args))
        return sols[-1]
    monkeypatch.setattr(fronts, "solve_ivp", recording)
    return sols


def test_shooting_is_one_short_integration(shots):
    """One solve_ivp call per front, in far fewer steps than DOP853's 661."""
    shoot_local_front(4.6, make_grid(4096, 460.0), tol=1e-6)
    assert len(shots) == 1
    ts, coefs = shots[0]
    assert ts.size - 1 == len(coefs) <= 120


@pytest.mark.parametrize("a,length", [(0.05, 80.0), (0.24, 80.0), (4.6, 460.0)])
def test_taylor_dense_output_solves_profile_equation(shots, a, length):
    """At each step's midpoint the step polynomial of phi' is the derivative
    of that of phi, and together they satisfy a*phi'' + phi' + (1-phi^2)/2 = 0."""
    _shoot_normalized(a, make_grid(1024, length).x)
    ((ts, coefs),) = shots
    for t_old, t, coef in zip(ts[:-1], ts[1:], coefs):
        dt = 0.5 * (t - t_old)
        c_phi, c_dphi = coef.T
        phi, dphi = polyval(dt, c_phi), polyval(dt, c_dphi)
        assert dphi == pytest.approx(polyval(dt, polyder(c_phi)), abs=1e-15)
        d2phi = polyval(dt, polyder(c_dphi))
        assert abs(a * d2phi + dphi + 0.5 * (1.0 - phi ** 2)) <= 1e-12


@pytest.mark.parametrize("a,length", [(0.05, 80.0), (0.24, 80.0), (2.2, 220.0),
                                      (4.6, 460.0)])
def test_taylor_steps_equal_polyval_steps(monkeypatch, a, length):
    """The shooting's steps, with Cauchy products from `map` and step ends
    from `_horner`, are the steps of the generator sums and numpy
    `polyval`: equal step ends and coefficients, bit for bit."""
    calls = []
    taylor = fronts.solve_ivp

    def recording(*args):
        calls.append((args, taylor(*args)))
        return calls[-1][1]
    monkeypatch.setattr(fronts, "solve_ivp", recording)
    _shoot_normalized(a, make_grid(4096, length).x)
    ((args, (ts, coefs)),) = calls
    want_ts, want_coefs = taylor_steps_polyval(*args)
    assert np.array_equal(ts, want_ts) and np.array_equal(coefs, want_coefs)


def test_horner_is_polyval_bit_for_bit():
    """`_horner` repeats numpy `polyval`'s operations on Python floats:
    the same bits at x of either sign and on rows holding zeros; and on
    arrays shaped as the shooting's dense output passes them."""
    rng = np.random.default_rng(29)
    rows = [[0.0] * 25, [-0.0], [-0.0, 0.0, -0.0], [1.0], [0.0, 1.0, 0.0]]
    for _ in range(300):
        c = rng.standard_normal(int(rng.integers(1, 26)))
        c *= 10.0 ** rng.uniform(-6.0, 6.0, c.size)
        c[rng.random(c.size) < 0.3] = 0.0
        rows.append(c.tolist())
    xs = [0.0, -0.0, 1.0, -1.0,
          *(rng.standard_normal(40) * 10.0 ** rng.uniform(-4, 1, 40)).tolist()]
    for c in rows:
        for x in xs:
            got, want = fronts._horner(x, c), polyval(x, np.array(c))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    x = np.array(xs * 10)
    c = rng.standard_normal((25, 2, x.size)) * 10.0 ** rng.uniform(-6.0, 6.0, (25, 1, 1))
    got, want = fronts._horner(x, c), polyval(x, c, tensor=False)
    assert got.shape == (2, x.size) and got.tobytes() == want.tobytes()


def test_taylor_stepper_fails_on_overflow():
    """A state whose coefficients overflow gives a nan step: the solve
    fails at once instead of stepping in place forever."""
    with pytest.raises(FrontError, match="shooting integration failed"):
        fronts.solve_ivp(0.5, [1e200, 1e200], 10.0)


def test_shooting_rejects_zero_nu(grid_std):
    with pytest.raises(ValueError):
        shoot_local_front(0.0, grid_std)


def test_newton_burgers_exact_guess(grid_std, burgers_front):
    prof = newton_front(preset("burgers"), grid_std, tol=1e-9)
    assert prof.residual_sup <= 1e-12
    assert np.max(np.abs(prof.phi.values - burgers_front.phi.values)) <= 1e-12


def test_newton_agrees_with_shooting(grid_std, kdvb_front):
    prof = newton_front(preset("kdvb", nu=-6.0 / 25.0), grid_std, tol=1e-10)
    assert np.max(np.abs(prof.phi.values - kdvb_front.phi.values)) <= 1e-7


@pytest.mark.parametrize("nu", [-0.24, -0.1, 0.2])
def test_cross_method_agreement(nu):
    g = make_grid(1024, 80.0)
    a = shoot_local_front(nu, g)
    b = newton_front(preset("kdvb", nu=nu), g, tol=1e-10)
    assert np.max(np.abs(a.phi.values - b.phi.values)) <= 1e-6


def test_newton_fractional_front(grid_std, frac_half_front):
    prof = frac_half_front
    assert prof.residual_sup <= 1e-8
    v = prof.phi.values
    # odd data and a parity-preserving operator give an odd front
    assert np.max(np.abs(v[1:] + v[1:][::-1])) <= 1e-8
    assert abs(v[grid_std.n // 2]) <= 1e-12


def test_newton_benjamin_ono(grid_std):
    prof = newton_front(preset("bo"), grid_std, tol=1e-9)
    assert prof.residual_sup <= 1e-8
    assert prof.endpoints == (1.0, -1.0)


def test_newton_rejects_inadmissible(grid_std):
    from frontlab import spec_from_text
    from frontlab.symbols import SymbolError
    with pytest.raises(SymbolError):
        newton_front(spec_from_text("k^2"), grid_std)


def test_gmres_solves_nonsymmetric_system():
    """A seeded nonsymmetric system with eigenvalues spread over [1, 1000],
    solved to rtol: in one cycle with the diagonal as right preconditioner,
    and over restarts without one."""
    rng = np.random.default_rng(30)
    n = 400
    d = np.linspace(1.0, 1000.0, n)
    a = np.diag(d) + rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    for prec, one_cycle in ((lambda z: z / d, True), (lambda z: z, False)):
        calls = []
        x, info = fronts._gmres(lambda z: calls.append(z) or a @ z, prec, b, 1e-10)
        assert info == 0
        assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)
        assert (len(calls) <= fronts.GMRES_RESTART + 1) == one_cycle


def test_gmres_reports_unsolvable_system():
    """A singular matrix and a right-hand side outside its range: no x meets
    rtol, so the cycles run out and info is nonzero, with x at the least
    residual, the part of b outside the range."""
    rng = np.random.default_rng(31)
    u, _, vt = np.linalg.svd(rng.standard_normal((30, 30)))
    s = np.linspace(1.0, 2.0, 30)
    s[-1] = 0.0
    a = (u * s) @ vt
    b = u[:, 0] + u[:, -1]
    x, info = fronts._gmres(lambda z: a @ z, lambda z: z, b, 1e-10)
    assert info == fronts.GMRES_CYCLES
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(b - a @ x) <= 1.0 + 1e-10


def test_newton_stagnated_solve(monkeypatch, grid_std):
    """A linear solve that reports no convergence is accepted when its
    residual is within 1e-6, and otherwise raises FrontError."""
    gmres = fronts._gmres
    monkeypatch.setattr(fronts, "_gmres", lambda *a, rtol: (gmres(*a, rtol)[0], 1))
    spec = preset("bo")
    want = newton_front(spec, grid_std, tol=1e-9)
    monkeypatch.undo()
    assert np.array_equal(want.phi.values,
                          newton_front(spec, grid_std, tol=1e-9).phi.values)
    monkeypatch.setattr(fronts, "_gmres", lambda m, p, b, rtol: (0.5 * b, 1))
    with pytest.raises(FrontError, match="linearized solve stagnated"):
        newton_front(spec, grid_std)


@pytest.mark.parametrize("spec,n,length", [
    pytest.param(preset("bo"), 1024, 80.0, id="bo"),
    pytest.param(preset("frac", terms=[(1.0, 0.5)]), 1024, 80.0, id="frac_1_half"),
    pytest.param(preset("frac", terms=[(0.5, 0.5)]), 1024, 80.0, id="frac_half_half"),
    pytest.param(preset("kdvb", nu=-6.0 / 25.0), 1024, 80.0, id="kdvb"),
    pytest.param(preset("bo"), 4096, 160.0, id="bo_4096"),
])
def test_newton_matches_lgmres_oracle(monkeypatch, spec, n, length):
    """Newton on frontlab's GMRES gives the fronts of Newton on scipy's
    LGMRES: phi and phi' agree to 1e-13."""
    grid = make_grid(n, length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = newton_front(spec, grid)
        monkeypatch.setattr(fronts, "_gmres", lgmres_solve)
        want = newton_front(spec, grid)
    assert np.max(np.abs(got.phi.values - want.phi.values)) <= 1e-13
    assert np.max(np.abs(got.phi_prime.values - want.phi_prime.values)) <= 1e-13


def test_fronts_are_localized_in_the_box(burgers_front, kdvb_front):
    """The box resolves both tails: the outer 10% of the box holds at most
    1e-6 of the first moment int (1+|x|)|phi'| dx, and |phi'| at the two
    outermost nodes on each side is at most 1e-10."""
    for prof in (burgers_front, kdvb_front):
        x, dphi = prof.grid.x, np.abs(prof.phi_prime.values)
        moment = (1.0 + np.abs(x)) * dphi
        outer = np.abs(x) >= 0.45 * prof.grid.length
        assert np.sum(moment[outer]) <= 1e-6 * np.sum(moment)
        assert max(dphi[:2].max(), dphi[-2:].max()) <= 1e-10


def test_front_for_operator_dispatch(grid_std):
    assert front_for_operator(preset("burgers"), grid_std).method == "closed_form"
    assert front_for_operator(preset("kdvb", nu=0.2), grid_std).method == "shooting"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = front_for_operator(preset("hilbert"), grid_std)
    assert prof.method == "reference"
    assert not prof.exact
    assert any("reference profile" in str(w.message) for w in caught)


def test_reference_front_is_burgers_profile(grid_std):
    prof = reference_front(grid_std, preset("hilbert"))
    assert np.array_equal(prof.phi.values, ref_profile(grid_std.x))
    assert np.isnan(prof.residual_sup)


# ---------------------------------------------------------------------------
# Galilean frame change


def test_galilean_already_normalized():
    params, spec = galilean_normalize(1.0, -1.0, preset("bo"))
    assert params.c == 0.0
    assert params.lam == 1.0
    ks = np.linspace(-20, 20, 101)
    assert np.max(np.abs(spec.values(ks) - preset("bo").values(ks))) == 0.0


def test_galilean_paper_endpoints():
    # endpoints read off the explicit nu=-1/10 traveling front
    params, spec = galilean_normalize(0.0, -24.0 / 5.0, preset("kdvb", nu=-0.1))
    assert params.c == pytest.approx(-1.0, abs=1e-14)
    assert params.lam == pytest.approx(12.0 / 5.0, abs=1e-14)
    assert spec.params["nu"] == pytest.approx(-6.0 / 25.0, abs=1e-15)


@pytest.mark.parametrize("u_minus,u_plus", [(1.0, -1.0), (0.0, -4.8),
                                            (3.2, 1.7), (0.5, -0.1)])
def test_galilean_round_trip(u_minus, u_plus):
    params, _ = galilean_normalize(u_minus, u_plus, preset("burgers"))
    back = params.denormalized_endpoints()
    assert back[0] == pytest.approx(u_minus, abs=1e-12)
    assert back[1] == pytest.approx(u_plus, abs=1e-12)


def test_galilean_rejects_bad_order():
    with pytest.raises(ValueError):
        galilean_normalize(-1.0, 1.0, preset("burgers"))


def test_denormalize_identity(grid_std, burgers_front):
    from frontlab.fronts import GalileanParams
    params = GalileanParams(u_minus=1.0, u_plus=-1.0, c=0.0, lam=1.0)
    pts = grid_std.x[::31]
    got = denormalize_solution(burgers_front, params, 0.0, pts)
    assert np.max(np.abs(got - burgers_front.phi.values[::31])) <= 1e-10


def test_denormalize_reproduces_explicit_traveling_front(grid_std):
    """lam*U(lam*x - c*lam^2*t) + c*lam with (lam, c) = (12/5, -1) is
    (6/5)[sech^2(x + (12/5)t) - 2 tanh(x + (12/5)t) - 2]."""
    from frontlab.fronts import GalileanParams
    base = closed_form_burgers(grid_std)
    prof = FrontProfile(
        grid=grid_std,
        phi=Field(grid_std, explicit_kdvb_profile(grid_std.x)),
        phi_prime=base.phi_prime,
        operator=preset("kdvb", nu=-6.0 / 25.0), residual_sup=np.nan,
        method="analytic")
    params = GalileanParams(u_minus=0.0, u_plus=-24.0 / 5.0, c=-1.0, lam=12.0 / 5.0)
    for t in (0.0, 0.5):
        pts = np.linspace(-8.0, 8.0, 81)
        got = denormalize_solution(prof, params, t, pts)
        z = pts + 12.0 * t / 5.0
        want = 1.2 * (1.0 / np.cosh(z) ** 2 - 2.0 * np.tanh(z) - 2.0)
        assert np.max(np.abs(got - want)) <= 1e-7
    ends = params.denormalized_endpoints()
    assert ends == (pytest.approx(0.0, abs=1e-15), pytest.approx(-4.8, abs=1e-15))


def test_denormalize_rejects_outside_domain(grid_std, burgers_front):
    from frontlab.fronts import GalileanParams
    params = GalileanParams(u_minus=1.0, u_plus=-1.0, c=0.0, lam=3.0)
    with pytest.raises(ValueError, match="representable"):
        denormalize_solution(burgers_front, params, 0.0, np.array([30.0]))


def test_front_endpoint_errors(grid_std, burgers_front, kdvb_front,
                               frac_half_front):
    # exponential-tail fronts reach their limits within 1e-8 at the box edge
    for prof in (burgers_front, kdvb_front):
        assert abs(prof.phi.values[0] - 1.0) <= 1e-8
        assert abs(prof.phi.values[-1] + 1.0) <= 1e-8
    # fractional fronts carry algebraic tails: the limits are structural
    # (reference + decaying correction) and the box-edge gap is the
    # recorded tail value, not an endpoint defect
    edge_gap = max(abs(frac_half_front.phi.values[0] - 1.0),
                   abs(frac_half_front.phi.values[-1] + 1.0))
    assert edge_gap <= 1e-3
    assert frac_half_front.endpoints == (1.0, -1.0)
