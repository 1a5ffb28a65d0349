import numpy as np
import pytest

from frontlab import (Field, NormSeries, check_energy_inequality,
                      compare_to_theorem, fit_rate, lp_norm, make_grid,
                      predicted_rate, weighted_bound_monitor, weighted_l2)
from frontlab.diagnostics import energy_rose

from checks import band_energies


def synthetic_series(times, l2, p_list=(), dv=None, l1=None, weighted=None):
    l2 = np.asarray(l2, dtype=float)
    zero = np.zeros_like(l2)
    columns = [times, zero, zero, l2 if l1 is None else l1, l2, l2,
               *[l2] * len(p_list), l2 if dv is None else dv,
               l2 if weighted is None else weighted, np.maximum.accumulate(l2)]
    return NormSeries(p_list, {name: np.asarray(c, dtype=float).tolist()
                               for name, c in zip(NormSeries(p_list).data, columns)})


# ---------------------------------------------------------------------------
# Rate fitting


def test_fit_exact_power_law():
    t = np.geomspace(1.0, 100.0, 60)
    fit = fit_rate(t, t ** -0.5, (1.0, 100.0))
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exact_log_corrected():
    t = np.geomspace(2.5, 500.0, 80)
    y = (np.log(t) / t) ** 0.25
    fit = fit_rate(t, y, (2.5, 500.0), beta=0.25)
    assert fit.exponent == pytest.approx(-0.25, abs=1e-10)


@pytest.mark.parametrize("exponent", [-2.0, -1.3, -0.5, -0.1, 0.0])
def test_fit_exactness_across_exponents(exponent):
    t = np.geomspace(3.0, 300.0, 50)
    fit = fit_rate(t, 2.7 * t ** exponent, (3.0, 300.0))
    assert fit.exponent == pytest.approx(exponent, abs=1e-10)


def test_fit_with_multiplicative_noise():
    rng = np.random.default_rng(5)
    t = np.geomspace(10.0, 100.0, 120)
    y = t ** -0.5 * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = fit_rate(t, y, (10.0, 100.0))
    assert fit.exponent == pytest.approx(-0.5, abs=0.02)


def test_fit_validation():
    t = np.geomspace(1.0, 100.0, 40)
    with pytest.raises(ValueError, match="8 samples"):
        fit_rate(t, t ** -1.0, (90.0, 100.0))
    with pytest.raises(ValueError, match="positive"):
        fit_rate(t, t - 50.0, (1.0, 100.0))
    with pytest.raises(ValueError, match="window start"):
        fit_rate(t, t ** -1.0, (1.0, 100.0), beta=0.5)


# ---------------------------------------------------------------------------
# Energy audit


def test_energy_inequality_synthetic_heat():
    t = np.linspace(0.0, 2.0, 201)
    e = np.exp(-2.0 * t)        # ||v||^2 with ||v'||^2 = ||v||^2
    s = synthetic_series(t, np.sqrt(e), dv=np.sqrt(e))
    rep = check_energy_inequality(s)
    assert rep.violations == 0
    assert rep.c_fit == pytest.approx(2.0, rel=1e-3)


def test_energy_inequality_needs_usable_steps():
    t = np.linspace(0.0, 1.0, 30)
    zero = np.zeros_like(t)
    s = synthetic_series(t, zero, dv=zero)
    with pytest.raises(ValueError, match="too short"):
        check_energy_inequality(s)


def test_energy_inequality_counts_violations():
    t = np.linspace(0.0, 1.0, 40)
    l2 = 1.0 + 0.01 * np.sin(20.0 * t)  # oscillating energy
    s = synthetic_series(t, l2, dv=np.ones_like(t))
    rep = check_energy_inequality(s)
    assert rep.violations > 0


def test_energy_rose_threshold_is_strict():
    """A rise of exactly 1e-10*prev + 1e-13*first is no up-tick; the next
    float above it is.  These values make both parts exact powers of 2."""
    prev, first = 2.0 ** -40 / 1e-10, 2.0 ** -43 / 1e-13
    threshold = 2.0 ** -40 + 2.0 ** -43
    assert 1e-10 * prev + 1e-13 * first == threshold
    at = prev + threshold
    assert at - prev == threshold
    assert not energy_rose(prev, at, first)
    assert energy_rose(prev, np.nextafter(at, np.inf), first)
    # the floor alone: a decayed field's wiggle below 1e-13 of the start
    assert not energy_rose(0.0, 1e-13 * first, first)
    assert energy_rose(0.0, np.nextafter(1e-13 * first, np.inf), first)


def test_energy_inequality_flags_what_energy_rose_flags():
    """The series audit counts exactly the record intervals that the
    per-step rule flags when applied pair by pair, with near-threshold
    rises on both sides."""
    t = np.linspace(0.0, 1.0, 60)
    e = np.exp(-t)
    rng = np.random.default_rng(3)
    for i in range(5, 60, 4):  # rises just under, at and just over the threshold
        e[i] = e[i - 1] + (1e-10 * e[i - 1] + 1e-13 * e[0]) * rng.choice([0.5, 1.0, 2.0])
    s = synthetic_series(t, np.sqrt(e), dv=np.ones_like(t))
    energy = np.asarray(s.l2) ** 2
    flags = [bool(energy_rose(a, b, energy[0])) for a, b in zip(energy[:-1], energy[1:])]
    assert 0 < sum(flags) < 14
    assert check_energy_inequality(s).violations == sum(flags)


def test_norm_series_norm_for_p():
    names = NormSeries((1.5, 4.0)).data
    series = NormSeries((1.5, 4.0), {name: [float(j), j + 0.5]
                                     for j, name in enumerate(names)})
    for p, name in (("derivative", "dv_l2"), (1, "l1"), (2.0, "l2"),
                    (np.inf, "linf"), (1.5, "lp_1.5"), (4, "lp_4")):
        assert np.array_equal(series.norm(p), series.column(name))
    with pytest.raises(ValueError, match="lp_3.7"):
        series.norm(3.7)


# ---------------------------------------------------------------------------
# Theorem comparison


def test_predicted_rate_table():
    assert predicted_rate("kdvb", 2.0) == (0.5, 0.0)
    assert predicted_rate("kdvb", 4.0) == (0.25, 0.0)
    rate, beta = predicted_rate("kdvb", 1.5, delta=0.05)
    assert rate == pytest.approx(1.0 / 3.0 - 0.05)
    assert beta == 0.0
    rate, beta = predicted_rate("frac_odd", 2.0)
    assert rate == beta == 0.25
    rate, beta = predicted_rate("frac_odd", np.inf)
    assert rate == pytest.approx(7.0 / 24.0)
    assert beta == pytest.approx(7.0 / 24.0)
    rate, beta = predicted_rate("frac_odd", "derivative")
    assert rate == beta == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        predicted_rate("airy", 2.0)
    for model, p in (("kdvb", np.inf), ("kdvb", 1.0), ("kdvb", "derivative"),
                     ("frac_odd", 1.0)):
        with pytest.raises(ValueError, match=f"model '{model}' makes no claim "
                                             f"for p = {p}$"):
            predicted_rate(model, p)


def test_compare_to_theorem_envelopes():
    t = np.geomspace(2.0, 400.0, 120)
    good = 3.0 * t ** -0.6          # decays faster than 1/2
    s = synthetic_series(t, good, p_list=(4.0,))
    verdicts = compare_to_theorem(s, "kdvb", [2.0, 4.0], (10.0, 400.0))
    assert all(v.satisfied for v in verdicts)

    bad = 0.3 * t ** -0.2           # slower than the claimed 1/2
    s_bad = synthetic_series(t, bad, p_list=(4.0,))
    verdicts = compare_to_theorem(s_bad, "kdvb", [2.0], (10.0, 400.0))
    assert not verdicts[0].satisfied
    assert verdicts[0].fitted_exponent == pytest.approx(-0.2, abs=1e-8)


def test_compare_to_theorem_log_correction():
    t = np.geomspace(2.5, 400.0, 100)
    series = synthetic_series(t, (np.log(t) / t) ** 0.25,
                              dv=(np.log(t) / t) ** (1.0 / 3.0))
    verdicts = compare_to_theorem(series, "frac_odd", [2.0, "derivative"],
                                  (10.0, 400.0))
    for v in verdicts:
        assert v.satisfied
        assert v.ratio <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Weighted bound monitor


def test_weighted_monitor_zero_field():
    t = np.linspace(0.0, 1.0, 20)
    zero = np.zeros_like(t)
    s = synthetic_series(t, zero, dv=zero, weighted=zero)
    rep = weighted_bound_monitor(s)
    assert rep.sup_weighted_sq == 0.0
    assert rep.cumulative_l2_sq == 0.0
    assert not rep.growth_flag


def test_weighted_monitor_chain_for_monotone_series():
    """t * ||v(t)||^2 <= int_0^t ||v||^2 holds exactly for non-increasing
    norms with left Riemann sums."""
    t = np.linspace(0.0, 50.0, 400)
    l2 = 1.0 / np.sqrt(1.0 + t)
    s = synthetic_series(t, l2, weighted=l2)
    rep = weighted_bound_monitor(s)
    assert rep.chain_ok
    assert not rep.growth_flag


def test_weighted_monitor_growth_flag():
    t = np.linspace(0.0, 1.0, 30)
    w = 1.0 + 4.0 * t
    s = synthetic_series(t, np.ones_like(t), weighted=w)
    assert weighted_bound_monitor(s).growth_flag


def test_norm_series_validation():
    names = NormSeries().data
    with pytest.raises(ValueError, match="increasing"):
        NormSeries((), {name: [0.0, 0.0] for name in names})
    with pytest.raises(ValueError, match="columns"):
        NormSeries((1.5,), {name: [] for name in names})
    for p_list in ((0.5,), (float("nan"),), (1.5, 1.5000001)):
        with pytest.raises(ValueError):
            NormSeries(p_list)

    g = make_grid(64, 16.0)
    s = NormSeries((1.5,))
    for t, a in ((0.0, 2.0), (1.0, 1.0)):
        v = Field(g, a * np.exp(-g.x ** 2))
        s.append(t, 0.1, 0.2, v, 3.0)
    assert s.linf == [2.0, 1.0] and s.m_sup == [2.0, 2.0]
    assert s.column("lp_1.5")[1] == lp_norm(v, 1.5)


@pytest.mark.parametrize("n", [256, 1024])
def test_norm_series_row_equals_per_norm_values(n):
    """append takes every norm from one |v|; each matches lp_norm and
    weighted_l2 to the bit, so series.csv does not change."""
    g = make_grid(n, 40.0)
    rng = np.random.default_rng(n)
    p_list = (1.5, 3.0, 4.0)
    s = NormSeries(p_list)
    for t in range(4):
        v = Field(g, rng.standard_normal(n) * np.exp(-0.01 * g.x ** 2))
        s.append(float(t), 0.0, 0.0, v, 1.0)
        want = [lp_norm(v, 1), lp_norm(v, 2), lp_norm(v, np.inf),
                *(lp_norm(v, p) for p in p_list), weighted_l2(v)]
        got = [s.column(name)[t] for name in
               ("l1", "l2", "linf", "lp_1.5", "lp_3", "lp_4", "weighted")]
        assert got == want


# ---------------------------------------------------------------------------
# Frequency-split inequality along a real run


@pytest.fixture(scope="module")
def frac_odd_short_run():
    import warnings
    from frontlab import (StepperConfig, certify_front, evolve,
                          front_for_operator, make_perturbation, preset)

    grid = make_grid(1024, 80.0)
    spec = preset("frac", terms=[(1.0, 0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        front = front_for_operator(spec, grid)
        cert = certify_front(front)
        v0 = make_perturbation("odd_gaussian_derivative", 0.6, 2.0, grid)
        cfg = StepperConfig(dt=2e-3, t_end=30.0, record_every=25,
                            snapshot_every=500)
        traj = evolve(v0, front, spec, cfg, certificate=cert)
    return traj, lp_norm(v0, 1)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_frequency_split_groenwall_chain(frac_odd_short_run, eps):
    """I_high(t) <= I(0) exp(-C_fit (2 pi eps)^2 t) + max_{s<=t} I_low(s),
    with C_fit taken from the energy audit of the same run."""
    traj, _ = frac_odd_short_run
    c_fit = check_energy_inequality(traj.series).c_fit
    t, i_low, i_high = band_energies(traj.snapshots, eps)
    i0 = i_low[0] + i_high[0]
    k_eps = 2.0 * np.pi * eps
    running_low = np.maximum.accumulate(i_low)
    bound = i0 * np.exp(-c_fit * k_eps ** 2 * t) + running_low
    slack = i_high - bound
    assert np.max(slack) <= 1e-12 * i0


def test_low_band_bounded_by_initial_mass(frac_odd_short_run):
    """Odd fractional run: I_low(t) <= 2 eps ||v0||_1^2 via L1 contraction."""
    traj, l1_0 = frac_odd_short_run
    l1 = np.array([lp_norm(f, 1) for _, f in traj.snapshots])
    for eps in (0.05, 0.1, 0.2):
        _, i_low, _ = band_energies(traj.snapshots, eps)
        assert np.max(i_low) <= 2.0 * eps * l1_0 ** 2 * (1.0 + 1e-8)
        # Bernstein at each snapshot: I_low(t) <= 2 eps ||v(t)||_1^2
        assert np.max(i_low - 2.0 * eps * l1 ** 2) <= 1e-12
