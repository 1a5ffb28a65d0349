import numpy as np
import pytest
from scipy.integrate import quad

from frontlab import (Field, apply_multiplier, closed_form_burgers,
                      derivative, lp_norm, make_grid, preset, weighted_l2)
from frontlab.evolution import _Workspace
from frontlab.fronts import shoot_local_front
from frontlab.spectral import trig_interpolate, trig_interpolate_lattice

from checks import (band_project, kernel_positivity_check,
                    trig_interpolate_262144)


def test_make_grid_definition():
    g = make_grid(8, 8.0)
    assert np.allclose(g.x, np.arange(-4.0, 4.0))
    assert np.allclose(np.sort(g.k), 2.0 * np.pi * np.arange(-4, 4) / 8.0)


def test_make_grid_spacing():
    assert make_grid(1024, 80.0).h == pytest.approx(0.078125)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(12, 8.0)
    with pytest.raises(ValueError):
        make_grid(4, 8.0)
    with pytest.raises(ValueError):
        make_grid(64, -1.0)


def test_field_validation(grid_std):
    with pytest.raises(ValueError):
        Field(grid_std, np.zeros(grid_std.n - 1))
    with pytest.raises(ValueError):
        Field(grid_std, np.full(grid_std.n, np.nan))


def test_multiplier_identity(grid_std):
    f = Field(grid_std, np.exp(-grid_std.x ** 2))
    out = apply_multiplier(f, np.ones(grid_std.n))
    assert np.max(np.abs(out.values - f.values)) <= 1e-14


def test_multiplier_second_derivative_eigenfunction(grid_std):
    L = grid_std.length
    f = Field(grid_std, np.sin(2 * np.pi * grid_std.x / L))
    out = apply_multiplier(f, (1j * grid_std.k) ** 2)
    want = -(2 * np.pi / L) ** 2 * f.values
    assert np.max(np.abs(out.values - want)) <= 1e-10


def test_multiplier_fractional_vs_quadrature_oracle():
    """-|k| acting on exp(-x^2) against slow line quadrature.

    The Gaussian transform is sqrt(pi)*exp(-k^2/4), so the line value is
    -(1/pi) * int_0^inf k*sqrt(pi)*exp(-k^2/4)*cos(kx) dk; the operator
    output has 1/x^2 tails, so a large box keeps the periodic images
    below the 1e-6 comparison tolerance.
    """
    g = make_grid(32768, 2560.0)
    f = Field(g, np.exp(-g.x ** 2))
    out = apply_multiplier(f, -np.abs(g.k))

    def oracle(x):
        val, _ = quad(lambda k: k * np.sqrt(np.pi) * np.exp(-k * k / 4.0)
                      * np.cos(k * x), 0.0, 40.0, limit=200)
        return -val / np.pi

    for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 4.0):
        j = np.argmin(np.abs(g.x - x))
        assert out.values[j] == pytest.approx(oracle(g.x[j]), abs=1e-6)


def test_multiplier_rejects_non_hermitian(grid_std):
    f = Field(grid_std, np.exp(-grid_std.x ** 2))
    with pytest.raises(ValueError, match="non-Hermitian"):
        apply_multiplier(f, 1j * np.ones(grid_std.n))


def test_derivative_constant_is_zero(grid_std):
    c = Field(grid_std, np.full(grid_std.n, 3.7))
    assert np.max(np.abs(derivative(c, 1).values)) <= 1e-13


def test_derivative_sine(grid_std):
    L = grid_std.length
    f = Field(grid_std, np.sin(2 * np.pi * grid_std.x / L))
    out = derivative(f, 1)
    want = (2 * np.pi / L) * np.cos(2 * np.pi * grid_std.x / L)
    assert np.max(np.abs(out.values - want)) <= 1e-10


def test_derivative_matches_finite_differences(grid_std):
    # steep periodic tanh-like profile; centered differences are the oracle
    f = Field(grid_std,
              np.tanh(3.0 * np.sin(2 * np.pi * grid_std.x / grid_std.length)))
    d2 = derivative(f, 2).values
    h = grid_std.h
    fd = (np.roll(f.values, -1) - 2 * f.values + np.roll(f.values, 1)) / h ** 2
    # O(h^2) agreement with the h^2 prefactor of the fourth derivative
    assert np.max(np.abs(d2 - fd)) <= 0.05


def test_derivative_order_validation(grid_std):
    f = Field.zeros(grid_std)
    with pytest.raises(ValueError):
        derivative(f, 4)


def test_lp_norm_constant(grid_std):
    one = Field(grid_std, np.ones(grid_std.n))
    assert lp_norm(one, 2) == pytest.approx(np.sqrt(80.0), rel=1e-14)


def test_lp_norm_sup(grid_std):
    rng = np.random.default_rng(1)
    f = Field(grid_std, rng.standard_normal(grid_std.n))
    assert lp_norm(f, np.inf) == np.max(np.abs(f.values))


def test_lp_norm_gaussian_l1(grid_std):
    f = Field(grid_std, np.exp(-grid_std.x ** 2))
    assert lp_norm(f, 1) == pytest.approx(np.sqrt(np.pi), abs=1e-8)


def test_lp_norm_rejects_small_p(grid_std):
    with pytest.raises(ValueError):
        lp_norm(Field.zeros(grid_std), 0.5)


def test_weighted_l2_zero(grid_std):
    assert weighted_l2(Field.zeros(grid_std)) == 0.0


def test_weighted_l2_mollified_bump():
    """Unit bump of width 2: int_{-1}^{1} |x| dx = 1, checked by quadrature.

    The |x| kink limits the rectangle rule to O(h^2) here, so the oracle
    comparison runs on a fine grid with a kink-sized tolerance.
    """
    g = make_grid(8192, 80.0)
    steep = 8.0

    def bump(x):
        return 0.5 * (np.tanh(steep * (x + 1.0)) - np.tanh(steep * (x - 1.0)))

    f = Field(g, bump(g.x))
    oracle, _ = quad(lambda x: bump(np.array([x]))[0] ** 2 * abs(x),
                     -30.0, 30.0, limit=400, points=[-1.0, 0.0, 1.0])
    assert weighted_l2(f) == pytest.approx(np.sqrt(oracle), abs=5.0 * g.h ** 2)
    assert weighted_l2(f) == pytest.approx(1.0, abs=0.06)


def test_band_project_wide_cutoff(grid_std):
    rng = np.random.default_rng(3)
    f = Field(grid_std, rng.standard_normal(grid_std.n))
    low, high = band_project(f, 1e9)
    assert np.max(np.abs(low.values - f.values)) <= 1e-12
    assert np.max(np.abs(high.values)) <= 1e-12


def test_band_project_tiny_cutoff(grid_std):
    rng = np.random.default_rng(4)
    f = Field(grid_std, rng.standard_normal(grid_std.n))
    low, _ = band_project(f, 1e-9)
    assert np.max(np.abs(low.values - np.mean(f.values))) <= 1e-12


def test_band_project_parseval(grid_std):
    rng = np.random.default_rng(5)
    f = Field(grid_std, rng.standard_normal(grid_std.n))
    low, high = band_project(f, 0.12)
    total = lp_norm(f, 2) ** 2
    split = lp_norm(low, 2) ** 2 + lp_norm(high, 2) ** 2
    assert abs(total - split) <= 1e-12 * total
    assert np.max(np.abs(low.values + high.values - f.values)) <= 1e-13


def test_dealias_product_matches_fine_grid_oracle():
    """The stepper's truncation of a product to the modes 0..n/3 it keeps
    equals the exact product projected from a 2N grid."""
    n, L = 256, 40.0
    g = make_grid(n, L)
    g2 = make_grid(2 * n, L)
    rng = np.random.default_rng(7)
    band = n // 3
    coeffs = np.zeros(n, dtype=complex)
    m = rng.integers(2, band, size=6)
    for mm in m:
        c = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs[mm] += c
        coeffs[-mm] += np.conj(c)
    u = np.fft.ifft(coeffs).real
    v = np.fft.ifft(np.roll(coeffs, 3) + np.conj(np.roll(coeffs, -3))[::-1]).real
    # same fields sampled on the fine grid via exact trig interpolation
    u2 = trig_interpolate(g, u, g2.x)
    v2 = trig_interpolate(g, v, g2.x)
    prod_fine = np.fft.fft(u2 * v2) / (2 * n)
    modes = _Workspace(closed_form_burgers(g), preset("burgers"), 1.1, True).modes
    assert modes == band + 1
    want = prod_fine[:modes]
    got = np.fft.rfft(u * v)[:modes] / n
    assert np.max(np.abs(got - want)) <= 1e-12


def test_kernel_heat(grid_std):
    rep = kernel_positivity_check(1.0, 1.0)
    assert rep.min_value >= -1e-12
    assert rep.integral == pytest.approx(1.0, abs=1e-8)
    assert rep.positive


def test_kernel_poisson_closed_form():
    """alpha=1/2 kernel is t/(pi*(t^2+x^2)) up to periodic images."""
    g = make_grid(2048, 160.0)
    rep = kernel_positivity_check(0.5, 1.0, g)
    assert rep.positive
    sym = -np.abs(g.k)
    phase = np.where(g.modes % 2 == 0, 1.0, -1.0)
    kernel = (np.fft.ifft(np.exp(sym) * phase) / g.h).real
    exact = (1.0 / np.pi) / (1.0 + g.x ** 2)
    # 1/x^2 tails wrap at the box scale
    assert np.max(np.abs(kernel - exact)) <= 2e-4


def test_kernel_sign_change_above_one():
    rep = kernel_positivity_check(1.5, 1.0)
    assert rep.min_value < 0
    assert not rep.positive


def test_kernel_requires_positive_time():
    with pytest.raises(ValueError):
        kernel_positivity_check(0.5, -1.0)


def test_trig_interpolate_reproduces_samples(grid_std):
    rng = np.random.default_rng(8)
    coeffs = np.zeros(grid_std.n, dtype=complex)
    coeffs[1:40] = rng.standard_normal(39) + 1j * rng.standard_normal(39)
    coeffs[-39:] = np.conj(coeffs[1:40][::-1])
    values = np.fft.ifft(coeffs).real
    got = trig_interpolate(grid_std, values, grid_std.x[::7])
    assert np.max(np.abs(got - values[::7])) <= 1e-12


@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_trig_interpolate_chunks_do_not_change_values(n):
    """Chunks of 65,536 matrix entries give the values of chunks four times
    that size to the bit: on a shifted grid, as the oracle uses, and on
    1,000 scattered points, whose count no chunk size divides."""
    grid = make_grid(n, 80.0)
    rng = np.random.default_rng(n)
    values = np.exp(-grid.x ** 2 / 4.0) * rng.standard_normal(n)
    for points in (grid.x - 0.37, rng.uniform(-40.0, 40.0, 1000)):
        assert np.array_equal(trig_interpolate(grid, values, points),
                              trig_interpolate_262144(grid, values, points))


@pytest.mark.slow
@pytest.mark.parametrize("nu,n", [(4.0, 4096), (-0.24, 2048), (0.1, 1024)])
def test_lattice_interpolation_matches_dense_on_fd_nodes(nu, n):
    """phi' on the certificate's two FD lattices (m = 2000 and 4000 nodes
    over 0.9 of the box, as in the nu sweep) by one chirp-z transform,
    against the dense mode sum."""
    length = max(120.0, 100.0 * abs(nu))
    front = shoot_local_front(nu, make_grid(n, length), tol=1e-6)
    scale = np.max(np.abs(front.phi_prime.values))
    for m in (2000, 4000):
        half_width = 0.45 * length
        h = 2.0 * half_width / (m + 1)
        nodes = -half_width + h * np.arange(1, m + 1)
        got = front.phi_prime_on_lattice(nodes, h)
        assert np.max(np.abs(got - front.phi_prime_at(nodes))) <= 1e-10 * scale


@pytest.mark.parametrize("x_first,h,m", [
    (-37.3, 0.071, 1001),    # odd m
    (-61.0, 0.097, 1500),    # reaches past both ends of the box: wraps
    (12.5, -0.05, 77),       # descending
    (-59.9, 0.04, 3000),     # m > n: the chirp's reach is set by m
    (3.3, 0.07, 1),          # one point
])
def test_lattice_interpolation_odd_and_wrapping(grid_std, x_first, h, m):
    rng = np.random.default_rng(9)
    values = np.exp(-grid_std.x ** 2 / 50.0) * np.cos(3.0 * grid_std.x) \
        + 1e-3 * rng.standard_normal(grid_std.n)
    points = x_first + h * np.arange(m)
    want = trig_interpolate(grid_std, values, points)
    got = trig_interpolate_lattice(grid_std, values, x_first, h, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_accepts_multiplier_spec():
    g = make_grid(2048, 160.0)
    # fractional preset kernel is a probability density
    rep = kernel_positivity_check(preset("frac", terms=[(1.0, 0.5)]), 1.0, g)
    assert rep.positive
    assert rep.integral == pytest.approx(1.0, abs=1e-8)
    # dispersive third-derivative semigroup oscillates (Airy-like kernel)
    rep2 = kernel_positivity_check(preset("kdvb", nu=0.2), 1.0, g)
    assert rep2.min_value < 0
    assert rep2.integral == pytest.approx(1.0, abs=1e-8)
