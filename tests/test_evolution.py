import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from frontlab import (Field, StabilityError, StepperConfig,
                      check_energy_inequality, closed_form_burgers,
                      cole_hopf_exact, evolve, lp_norm, make_grid,
                      make_perturbation, preset)
from frontlab import evolution
from frontlab.evolution import _Workspace, make_stepper
from frontlab.fronts import ref_profile, reference_front
from frontlab.spectral import Grid, trig_interpolate, trig_interpolate_lattice

from checks import (HalfSpectrumWorkspace, cole_hopf_whole_array,
                    cubic_spline_antiderivative, dealias_mask,
                    full_tendency, half_spectrum_evolve, random_field)


def quiet_evolve(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return evolve(*args, **kwargs)


# ---------------------------------------------------------------------------
# Right-hand side


def test_rhs_zero_is_steady(grid_std, burgers_front):
    ws = _Workspace(burgers_front, preset("burgers"), 1.1, True)
    z = ws.augment(np.zeros(grid_std.n))
    zdot, x0_dot = ws.nonlinear_hat(z)
    assert x0_dot == 0.0
    assert not np.any(ws.lin * z[:-1] + zdot[:-1])


def test_rhs_odd_perturbation_has_zero_modulation(grid_std, burgers_front):
    ws = _Workspace(burgers_front, preset("burgers"), 1.1, True)
    v = make_perturbation("odd_gaussian_derivative", 1.0, 1.0, grid_std)
    _, x0_dot = ws.nonlinear_hat(ws.augment(v.values))
    assert abs(x0_dot) <= 1e-15


def test_rhs_frechet_linearization(grid_std, burgers_front):
    """rhs(delta*u) agrees with its analytic linearization to O(delta^2)."""
    spec = preset("burgers")
    gamma = 1.1
    u = Field(grid_std, 1.0 / np.cosh(grid_std.x))
    k = grid_std.k
    uhat = np.fft.fft(u.values)
    ik = 1j * k.copy()
    ik[grid_std.n // 2] = 0.0
    ux = np.fft.ifft(ik * uhat).real
    lap = np.fft.ifft(-(k ** 2) * uhat).real
    dphi = burgers_front.phi_prime.values
    phi = burgers_front.phi.values
    inner = -gamma * grid_std.h * float(dphi @ u.values)
    advect = np.fft.ifft(ik * np.fft.fft(phi * u.values)).real
    linear_part = lap + inner * dphi - advect

    ws = _Workspace(burgers_front, spec, gamma, False)
    deltas = np.array([1e-4, 1e-5])
    errors = []
    for d in deltas:
        tendency, _ = full_tendency(ws, Field(grid_std, d * u.values))
        errors.append(np.max(np.abs(tendency.values - d * linear_part)))
    errors = np.array(errors)
    # quadratic remainder: error scales like delta^2
    assert errors[0] <= 5.0 * (deltas[0] / deltas[1]) ** 2 * errors[1]
    assert errors[0] <= 10.0 * deltas[0] ** 2


def reference_nonlinear_hat(front, gamma, vhat, disable=()):
    """Complex-spectrum payload from five full FFTs per call, term by term:
    the oracle for the retained-modes path of _Workspace.nonlinear_hat."""
    grid = front.grid
    ik = 1j * grid.k
    ik[grid.n // 2] = 0.0
    phi, dphi = front.phi.values, front.phi_prime.values
    v = np.fft.ifft(vhat).real
    vx = np.fft.ifft(ik * vhat).real
    x0_dot = 0.0
    payload = np.zeros_like(v)
    if "modulation" not in disable:
        x0_dot = -gamma * grid.h * float(dphi @ v)
        payload += x0_dot * (vx + dphi)
    if "front" not in disable:
        payload -= np.fft.ifft(ik * np.fft.fft(phi * v)).real
    if "nonlinear" not in disable:
        payload -= v * vx
    out = np.fft.fft(payload)
    out[~dealias_mask(grid.n)] = 0.0
    return out, x0_dot


TERMS = ("front", "nonlinear", "modulation")
DISABLE_SETS = [tuple(t for t, off in zip(TERMS, bits) if off)
                for bits in itertools.product((0, 1), repeat=3)]


@pytest.mark.parametrize("disable", DISABLE_SETS)
def test_half_spectrum_payload_matches_complex_oracle(grid_std, kdvb_front, disable):
    spec = preset("kdvb", nu=-6.0 / 25.0)
    ws = _Workspace(kdvb_front, spec, 1.1, True, disable)
    half = HalfSpectrumWorkspace(kdvb_front, spec, 1.1, True, disable)
    n, m = grid_std.n, ws.modes
    assert m == n // 3 + 1
    for kind in ("gaussian", "odd_gaussian_derivative", "random_bandlimited"):
        v = make_perturbation(kind, 0.8, 1.5, grid_std, seed=7).values
        vhat = np.fft.fft(v)
        vhat[~dealias_mask(n)] = 0.0
        want, want_dot = reference_nonlinear_hat(kdvb_front, 1.1, vhat, disable)
        got, got_dot = ws.nonlinear_hat(ws.augment(np.fft.ifft(vhat).real))
        # the oracles' modes past the retained ones are exactly 0
        assert not np.any(want[m:n - m + 1])
        payload, _ = half.nonlinear_hat(half.augment(np.fft.ifft(vhat).real)[:-1])
        assert not np.any(payload[m:])
        assert np.array_equal(got[:-1], payload[:m])
        assert got.shape == (m + 1,) and got[-1] == got_dot
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got[:-1] - want[:m])) <= 1e-13 * scale
        assert abs(got_dot - want_dot) <= 1e-13 * max(abs(want_dot), 1e-300)
        if "modulation" in disable:
            assert got_dot == 0.0


@pytest.mark.parametrize("kind", ["gaussian", "odd_gaussian_derivative",
                                  "odd_sine_packet", "random_bandlimited", "white"])
def test_half_spectrum_norms(grid_std, burgers_front, kind):
    """Parseval l2 on the retained modes equals the rectangle rule, bit
    for bit the half-spectrum sum; the sup bound is a bound.  'white'
    puts O(1) weight on the top retained modes, where a sum over the
    retained modes alone would round differently."""
    if kind == "white":
        values = random_field(np.random.default_rng(3)).values
    else:
        values = make_perturbation(kind, 0.7, 1.2, grid_std, seed=3).values
    for dealias in (True, False):
        ws = _Workspace(burgers_front, preset("burgers"), 1.1, dealias)
        half = HalfSpectrumWorkspace(burgers_front, preset("burgers"), 1.1, dealias)
        fhat = half.augment(values)[:-1]
        f = Field(grid_std, np.fft.irfft(fhat, grid_std.n))
        mag = np.abs(fhat)
        assert not np.any(mag[ws.modes:])
        assert ws.l2sq(mag[:ws.modes]) == half.l2sq(mag)
        assert np.sqrt(ws.l2sq(mag[:ws.modes])) == pytest.approx(lp_norm(f, 2), rel=1e-13)
        assert ws.sup_bound(mag[:ws.modes]) >= np.max(np.abs(f.values))


# ---------------------------------------------------------------------------
# Steppers


@pytest.mark.parametrize("preset_name,terms", [("burgers", None),
                                               ("kdvb", None),
                                               ("frac", [(1.0, 0.5)]),
                                               ("bo", None)])
def test_steady_state_preserved_long(preset_name, terms, grid_std):
    """v = 0 stays below 1e-12 out to t = 100 for every converged front."""
    if preset_name == "kdvb":
        spec = preset("kdvb", nu=-6.0 / 25.0)
    elif preset_name == "frac":
        spec = preset("frac", terms=terms)
    else:
        spec = preset(preset_name)
    from frontlab import front_for_operator
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        front = front_for_operator(spec, grid_std)
    cfg = StepperConfig(dt=0.05, t_end=100.0, record_every=200)
    traj = quiet_evolve(Field.zeros(grid_std), front, spec, cfg)
    assert max(traj.series.linf) <= 1e-12


def test_single_mode_linear_decay(grid_std):
    """With front terms and nonlinearity off, a single mode decays by the
    exact scalar exponential of -k^2 + l(k)."""
    spec = preset("frac", terms=[(1.0, 0.5)])
    front = reference_front(grid_std, spec)
    m = 12
    km = 2.0 * np.pi * m / grid_std.length
    v0 = Field(grid_std, np.cos(km * grid_std.x))
    cfg = StepperConfig(dt=0.01, t_end=0.1, record_every=10)
    traj = quiet_evolve(v0, front, spec, cfg,
                        disable=("front", "nonlinear", "modulation"))
    got = traj.series.l2[-1] / traj.series.l2[0]
    assert got == pytest.approx(np.exp(0.1 * (-km ** 2 - km)), abs=1e-10)


def final_state_norm_free(front, spec, v0, dt, t_end):
    cfg = StepperConfig(dt=dt, t_end=t_end)
    ws = _Workspace(front, spec, cfg.gamma, cfg.dealias)
    stepper, nonlin = make_stepper(ws, cfg)
    z = ws.augment(v0.values)
    for _ in range(int(round(t_end / dt))):
        z, _ = stepper.advance(z, nonlin)
    return np.fft.irfft(z[:-1], front.grid.n)


# one stepper; the one-value `scheme` parameter keeps the test ids
@pytest.mark.parametrize("scheme,expected", [("etdrk4", 16.0)])
def test_temporal_convergence_order(grid_std, burgers_front, scheme, expected):
    spec = preset("burgers")
    v0 = make_perturbation("gaussian", 0.5, 1.0, grid_std)
    ref = final_state_norm_free(burgers_front, spec, v0, 0.0025 / 8, 0.5)
    e1 = np.max(np.abs(final_state_norm_free(burgers_front, spec, v0,
                                             0.0025, 0.5) - ref))
    e2 = np.max(np.abs(final_state_norm_free(burgers_front, spec, v0,
                                             0.00125, 0.5) - ref))
    assert e1 / e2 == pytest.approx(expected, rel=0.25)


@pytest.mark.parametrize("disable", DISABLE_SETS)
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("scheme", ["etdrk4"])
def test_evolve_bitwise_equals_half_spectrum_oracle(grid_std, kdvb_front, scheme,
                                                    dealias, disable):
    """Stepping on the retained modes only, with the stage products in
    buffers, changes no bit of the series, the snapshots or x0 against a
    loop over the whole half spectrum with fresh arrays; the oracle's
    state on the discarded modes stays exactly 0.  The noise keeps the
    top retained modes well above roundoff."""
    spec = preset("kdvb", nu=-6.0 / 25.0)
    v0 = make_perturbation("random_bandlimited", 0.8, 1.3, grid_std, seed=5)
    v0 = Field(grid_std, v0.values + 0.01 * random_field(np.random.default_rng(5)).values)
    # 53 steps: a multiple of neither cadence, so the last record is off the
    # record grid and no snapshot
    for t_end, records in [(0.5, 11), (0.53, 12)]:
        cfg = StepperConfig(dt=0.01, t_end=t_end, dealias=dealias,
                            record_every=5, snapshot_every=10)
        traj = quiet_evolve(v0, kdvb_front, spec, cfg, disable=disable)
        series, snapshots, x0_final, masked_peak = half_spectrum_evolve(
            v0, kdvb_front, spec, cfg, disable)
        got, want = traj.series.data, series.data
        assert list(got) == list(want) and len(want["t"]) == records
        assert want["t"][-1] == round(t_end / 0.01) * 0.01
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        assert [t for t, _ in traj.snapshots] == [t for t, _ in snapshots]
        assert len(snapshots) == 6
        for (_, mine), (_, theirs) in zip(traj.snapshots, snapshots):
            assert np.array_equal(mine.values, theirs.values)
        assert traj.x0_final == x0_final
        assert masked_peak == 0.0


def test_cfl_guard(grid_std, burgers_front):
    v0 = Field(grid_std, 5.0 * np.exp(-grid_std.x ** 2))
    cfg = StepperConfig(dt=0.05, t_end=1.0)
    with pytest.raises(StabilityError, match="advective") as exc:
        quiet_evolve(v0, burgers_front, preset("burgers"), cfg)
    # the guard fires before the first step; the run so far is kept
    assert "last good state at t=0" in str(exc.value)
    partial = exc.value.partial
    assert partial.aborted
    assert partial.series.t == [0.0]


def test_cfl_guard_skipped_without_nonlinear_term():
    """A pure-heat calibration run has no self-advection, so a step far
    beyond dt*max|v|*k_max = 1 completes and is the exact heat flow."""
    grid = make_grid(2048, 160.0)
    v0 = make_perturbation("gaussian", 1.0, 1.0, grid)
    cfg = StepperConfig(dt=0.05, t_end=0.5, record_every=5, snapshot_every=10)
    ws = _Workspace(closed_form_burgers(grid), preset("burgers"), cfg.gamma, cfg.dealias)
    assert cfg.dt * ws.sup_bound(np.abs(ws.augment(v0.values)[:-1])) * ws.k_max > 1.0
    traj = quiet_evolve(v0, closed_form_burgers(grid), preset("burgers"), cfg,
                        disable=("front", "nonlinear", "modulation"))
    t_end, v_end = traj.snapshots[-1]
    assert t_end == pytest.approx(0.5) and not traj.aborted
    # every mode of the heat flow, the discarded ones at exactly 0
    want = np.zeros(grid.n // 2 + 1, complex)
    want[: ws.modes] = np.exp(t_end * ws.lin) * ws.augment(v0.values)[:-1]
    got = np.fft.rfft(v_end.values)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_non_finite_abort_keeps_partial_run(grid_std, burgers_front, monkeypatch):
    """A step that leaves the field non-finite aborts the run; the error
    carries the trajectory up to the last good record."""
    make = evolution.make_stepper

    def poisoned_stepper(ws, config):
        stepper, nonlin = make(ws, config)
        steps = itertools.count(1)

        class Poisoned:
            def advance(self, z, nonlin):
                z, x0_dot = stepper.advance(z, nonlin)
                return (z * np.nan if next(steps) == 25 else z), x0_dot

        return Poisoned(), nonlin

    monkeypatch.setattr(evolution, "make_stepper", poisoned_stepper)
    v0 = make_perturbation("gaussian", 0.5, 1.0, grid_std)
    cfg = StepperConfig(dt=0.01, t_end=1.0, record_every=10, snapshot_every=10)
    with pytest.raises(StabilityError, match="non-finite") as exc:
        quiet_evolve(v0, burgers_front, preset("burgers"), cfg)
    partial = exc.value.partial
    assert partial.aborted
    assert partial.series.t == pytest.approx([0.0, 0.1, 0.2])
    assert np.all(np.isfinite(partial.series.l2))
    assert partial.x0_final == partial.series.x0[-1]
    assert [t for t, _ in partial.snapshots] == partial.series.t


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=-1.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-3, t_end=1.0, gamma=0.9)
    # settings that cannot run: each error names the value
    for kwargs, value in [({"dt": np.inf}, "dt = inf"), ({"dt": np.nan}, "dt = nan"),
                          ({"t_end": np.inf}, "t_end = inf"), ({"gamma": np.nan}, "nan"),
                          ({"snapshot_every": -50}, "-50"),
                          # t_end / dt overflows a float
                          ({"dt": 1e-300, "t_end": 1e300}, "t_end = 1e\\+300"),
                          # 10^9 steps of one record each
                          ({"t_end": 1e6, "record_every": 1}, "at most 1000000 records")]:
        with pytest.raises(ValueError, match=value):
            StepperConfig(**{"dt": 1e-3, "t_end": 1.0, **kwargs})
    # the bound is exact: 999,999 steps make 10^6 records, 10^6 steps one more
    assert len(StepperConfig(dt=1e-3, t_end=999.999, record_every=1).record_steps()) == 10 ** 6
    with pytest.raises(ValueError, match="record_every = 1\\)"):
        StepperConfig(dt=1e-3, t_end=1000.0, record_every=1)
    # records are counted in integers, so a cadence past any float is accepted
    assert StepperConfig(dt=1e-3, t_end=1e6, record_every=10 ** 600).record_steps() == [
        0, 10 ** 9]


def test_record_steps():
    """Records at step 0, every record_every-th step and the last step, once."""
    assert StepperConfig(dt=0.01, t_end=0.5, record_every=5).record_steps() == [
        0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50]
    assert StepperConfig(dt=0.01, t_end=0.53, record_every=25).record_steps() == [
        0, 25, 50, 53]
    assert StepperConfig(dt=0.01, t_end=0.01, record_every=25).record_steps() == [0, 1]


def test_stepper_config_rejects_snapshots_between_records():
    """Snapshots are taken on records, so their cadence must be a multiple."""
    with pytest.raises(ValueError, match="divide snapshot_every"):
        StepperConfig(dt=0.01, t_end=0.6, record_every=10, snapshot_every=15)
    StepperConfig(dt=0.01, t_end=0.6, record_every=10, snapshot_every=30)


def test_stepper_config_rejects_partial_last_step():
    """A t_end off the step grid would end the run at another time."""
    with pytest.raises(ValueError, match="whole number of steps"):
        StepperConfig(dt=0.3, t_end=1.0)
    StepperConfig(dt=0.004, t_end=60.0)  # 15000 steps up to roundoff


# ---------------------------------------------------------------------------
# Full runs


def test_gaussian_run_decays_monotonically(grid_std, burgers_front, burgers_cert):
    v0 = make_perturbation("gaussian", 0.5, 1.0, grid_std)
    cfg = StepperConfig(dt=2e-3, t_end=50.0, record_every=100)
    traj = evolve(v0, burgers_front, preset("burgers"), cfg,
                  certificate=burgers_cert)
    assert traj.monotonicity_violations == 0
    assert traj.series.l2[-1] < 0.05 * traj.series.l2[0]


def test_parity_preservation(grid_std, frac_one_front):
    """Odd data with an odd front: v stays odd and x0 stays zero."""
    spec = preset("frac", terms=[(1.0, 0.5)])
    v0 = make_perturbation("odd_gaussian_derivative", 0.5, 1.5, grid_std)
    cfg = StepperConfig(dt=2e-3, t_end=5.0, record_every=250,
                        snapshot_every=2500)
    traj = quiet_evolve(v0, frac_one_front, spec, cfg)
    assert np.max(np.abs(traj.series.column("x0"))) <= 1e-14
    _, v_end = traj.snapshots[-1]
    vals = v_end.values
    scale = np.max(np.abs(vals))
    assert np.max(np.abs(vals[1:] + vals[1:][::-1])) <= 1e-10 * max(scale, 1e-10)


def test_snapshots_continue_after_full_decay(grid_std, burgers_front):
    """Zero data is fully decayed from the start; snapshots still land."""
    cfg = StepperConfig(dt=0.01, t_end=1.0, record_every=10, snapshot_every=20)
    traj = quiet_evolve(Field.zeros(grid_std), burgers_front, preset("burgers"), cfg)
    assert [t for t, _ in traj.snapshots] == pytest.approx(0.2 * np.arange(6))


def test_energy_inequality_pure_heat(grid_std, burgers_front):
    """With front terms and nonlinearity off the heat identity
    d/dt ||v||^2 = -2||v'||^2 is exact; the fitted constant is 2."""
    v0 = make_perturbation("gaussian", 0.5, 1.0, grid_std)
    cfg = StepperConfig(dt=2e-3, t_end=2.0, record_every=5)
    traj = quiet_evolve(v0, burgers_front, preset("burgers"), cfg,
                        disable=("front", "nonlinear", "modulation"))
    report = check_energy_inequality(traj.series)
    assert report.violations == 0
    assert report.c_fit == pytest.approx(2.0, rel=0.01)


def test_cumulative_modulation_and_gradient_bounds(grid_std, kdvb_front):
    """int |x0'|^2 + int ||v'||^2 stays within 10x the initial energy."""
    spec = preset("kdvb", nu=-6.0 / 25.0)
    v0 = make_perturbation("gaussian", 0.8, 1.5, grid_std)
    cfg = StepperConfig(dt=2e-3, t_end=20.0, record_every=10)
    traj = quiet_evolve(v0, kdvb_front, spec, cfg)
    s = traj.series
    t = s.column("t")
    total = np.trapezoid(s.column("x0_dot") ** 2, t) + \
        np.trapezoid(s.column("dv_l2") ** 2, t)
    assert total <= 10.0 * lp_norm(v0, 2) ** 2


def test_certificate_warning(grid_std, burgers_front):
    v0 = make_perturbation("gaussian", 0.1, 1.0, grid_std)
    cfg = StepperConfig(dt=2e-3, t_end=0.1, record_every=10)
    with pytest.warns(UserWarning, match="without a spectral certificate"):
        evolve(v0, burgers_front, preset("burgers"), cfg)


def test_weak_localization_warning(grid_std, burgers_front, burgers_cert):
    """This field reaches the box edge; it is not weakly localized in the
    weighted-norm sense (see test_weakly_localized_data_warn).  Record 0
    audits the initial data: the field is counted there and at every later
    contaminated record, and warned about once."""
    wide = Field(grid_std, 1e-3 * np.exp(-((grid_std.x / 36.0) ** 10)))
    cfg = StepperConfig(dt=2e-3, t_end=0.1, record_every=10, snapshot_every=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = evolve(wide, burgers_front, preset("burgers"), cfg,
                      certificate=burgers_cert)
    assert [str(w.message) for w in caught] == [
        "initial data does not decay at the box edge"]
    ratios = [evolution.boundary_contamination(f.values) for _, f in traj.snapshots]
    assert len(ratios) == len(traj.series.t) == 6
    assert traj.boundary_warnings == sum(r > 1e-6 for r in ratios) == 6
    assert traj.peak_contamination == max(ratios)


def test_boundary_warning_at_first_contaminated_record():
    """Clean data whose heat flow reaches the box edge warn once, at the
    first record past the tolerance, and count every record past it."""
    grid = make_grid(256, 40.0)
    v0 = make_perturbation("gaussian", 0.1, 3.0, grid)
    assert evolution.boundary_contamination(v0.values) < 1e-15
    cfg = StepperConfig(dt=0.05, t_end=8.0, record_every=10, snapshot_every=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = evolve(v0, closed_form_burgers(grid), preset("burgers"), cfg,
                      disable=("front", "nonlinear", "modulation"))
    ratios = [evolution.boundary_contamination(f.values) for _, f in traj.snapshots]
    late = [(t, r) for (t, _), r in zip(traj.snapshots, ratios) if r > 1e-6]
    (t_first, r_first), t_end = late[0], traj.series.t[-1]
    assert 0.0 < t_first < t_end and late[-1][0] == t_end
    assert [str(w.message) for w in caught] == [
        f"boundary contamination {r_first:.2e} at t={t_first:g}"]
    assert traj.boundary_warnings == len(late)
    assert traj.peak_contamination == max(ratios) > 1e-6


def test_evolve_rejects_unknown_disable_entries(grid_std, burgers_front):
    """A misspelled term is refused, not run as the full equation; so is a
    bare string, whose letters are no terms."""
    v0 = make_perturbation("gaussian", 0.1, 1.0, grid_std)
    cfg = StepperConfig(dt=0.01, t_end=0.01)
    for disable, bad in [(("nonlinar",), "nonlinar"),
                         (("front", "modulaton"), "modulaton"), ("front", "'f'")]:
        with pytest.raises(ValueError, match=f"unknown disable entries .*{bad}.*"
                           "'front', 'nonlinear' and 'modulation'"):
            quiet_evolve(v0, burgers_front, preset("burgers"), cfg, disable=disable)


@pytest.mark.filterwarnings("ignore:evolving without a spectral certificate")
def test_weakly_localized_data_warn():
    """A bump at x = 150 in a 400-long box: its |x|-weighted norm is 12x
    its L2 norm."""
    grid = make_grid(1024, 400.0)
    bump = Field(grid, 1e-3 * np.exp(-(((grid.x - 150.0) / 2.0) ** 2)))
    cfg = StepperConfig(dt=2e-3, t_end=0.01, record_every=5)
    with pytest.warns(UserWarning, match="initial data is weakly localized"):
        evolve(bump, closed_form_burgers(grid), preset("burgers"), cfg)


def test_perturbation_on_another_grid_rejected(grid_std, burgers_front):
    v0 = make_perturbation("gaussian", 0.1, 1.0, make_grid(512, 80.0))
    cfg = StepperConfig(dt=2e-3, t_end=0.01, record_every=5)
    with pytest.raises(ValueError, match="different grids"):
        quiet_evolve(v0, burgers_front, preset("burgers"), cfg)


def test_monotonicity_audit_counts_upticks_without_modulation():
    """With the modulation on, ||v||_2 decays at every step; without it the
    translation mode feeds energy back and every step is an up-tick."""
    grid = make_grid(512, 80.0)
    front = closed_form_burgers(grid)
    v0 = Field(grid, 0.05 * np.exp(-((grid.x / 4.0) ** 2)))
    cfg = StepperConfig(dt=0.01, t_end=2.0, record_every=10)
    kept = quiet_evolve(v0, front, preset("burgers"), cfg)
    assert kept.monotonicity_violations == 0 and kept.max_uptick == 0.0
    free = quiet_evolve(v0, front, preset("burgers"), cfg, disable=("modulation",))
    assert free.monotonicity_violations == 200
    assert free.max_uptick > 1e-3
    assert free.series.l2[-1] > 1.1 * free.series.l2[0]


# ---------------------------------------------------------------------------
# Exact solution


def test_cole_hopf_steady_front(grid_std, burgers_front):
    u0 = Field(grid_std, burgers_front.phi.values)
    for t in (0.5, 1.0, 4.0, 200.0):
        out = cole_hopf_exact(u0, t)
        assert np.max(np.abs(out.values - u0.values)) <= 1e-14


def test_cole_hopf_steady_front_late_time(grid_std, burgers_front):
    """Past t = 600 the heat kernel reaches |y| > 1420, where cosh(y/2)
    overflows; the oracle forms its exponents in log space."""
    u0 = Field(grid_std, burgers_front.phi.values)
    out = cole_hopf_exact(u0, 2000.0)
    assert np.max(np.abs(out.values - u0.values)) <= 1e-14


def test_cole_hopf_constant(grid_std):
    u0 = Field(grid_std, np.full(grid_std.n, 0.7))
    out = cole_hopf_exact(u0, 0.5)
    assert np.max(np.abs(out.values - 0.7)) <= 1e-14


def test_cole_hopf_requires_positive_time(grid_std):
    for t in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            cole_hopf_exact(Field.zeros(grid_std), t)


def test_cole_hopf_warns_on_rising_data(grid_std, burgers_front):
    """Data rising across the box (lam0 < 0) get roundoff that grows like
    e^{-lam0 L/2}, e^20 here: the oracle says so.  Constant data (lam0 = 0)
    and every front datum of the suite (lam0 about 1) run quietly."""
    g = Grid(512, 80.0)
    with pytest.warns(UserWarning, match=r"lam0 = -0\.5\).*e\^20\.0"):
        cole_hopf_exact(Field(g, 0.5 * np.tanh(0.5 * g.x)), 1.0)
    phi = burgers_front.phi.values
    quiet = [(Field(grid_std, np.full(grid_std.n, 0.7)), 0.5),
             (Field(grid_std, phi), 2000.0),
             (Field(grid_std, phi + 0.3 * np.exp(-grid_std.x ** 2)), 1.0),
             *cole_hopf_data(1000, 80.0), *cole_hopf_data(4096, 160.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u0, t in quiet:
            cole_hopf_exact(u0, t)


def cole_hopf_data(n, length):
    """Two initial data on an n-point box: the Burgers front plus a bump at
    t = 1, and a scaled, lifted front plus a wave packet at t = 0.5."""
    x = Grid(n, length).x
    return [(Field(Grid(n, length), -np.tanh(0.5 * x) + 0.3 * np.exp(-x ** 2)), 1.0),
            (Field(Grid(n, length), 0.2 - 0.6 * np.tanh(0.5 * x)
                   + 0.4 * np.sin(3.0 * x) * np.exp(-(x - 1.0) ** 2 / 4.0)), 0.5)]


@pytest.mark.parametrize("n", [1024, 1000, 4096])
def test_cole_hopf_matches_spline_quadrature(n):
    """The heat convolutions give the solution that Gauss-Legendre panels
    over a cubic spline antiderivative of u0 give."""
    for u0, t in cole_hopf_data(n, 80.0):
        spline = cole_hopf_whole_array(u0, t, cubic_spline_antiderivative)
        assert np.max(np.abs(cole_hopf_exact(u0, t).values - spline.values)) <= 1e-12


def test_cole_hopf_memory_is_bounded():
    """At n = 4096, L = 160, t = 1 the work arrays are a few padded
    lattices of about 5,000 nodes; the whole-array quadrature traces
    128 MB."""
    u0, t = cole_hopf_data(4096, 160.0)[0]
    tracemalloc.start()
    try:
        cole_hopf_exact(u0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_cole_hopf_every_record_of_burgers_run(grid_std, burgers_front, burgers_cert):
    """A pure-Burgers run from criterion 1's data against the exact
    solution at each record to t = 20, sampled as `frontlab oracle` does."""
    v0 = Field(grid_std, 0.3 * np.exp(-grid_std.x ** 2))
    u0 = Field(grid_std, burgers_front.phi.values + v0.values)
    cfg = StepperConfig(dt=2e-3, t_end=20.0, record_every=500,
                        snapshot_every=500, p_list=())
    traj = evolve(v0, burgers_front, preset("burgers"), cfg,
                  certificate=burgers_cert)
    assert len(traj.snapshots) == 21
    for (t, v), x0 in list(zip(traj.snapshots, traj.series.x0))[1:]:
        y = grid_std.x - x0
        u_num = ref_profile(y) + trig_interpolate_lattice(
            grid_std, burgers_front.correction + v.values, y[0], grid_std.h,
            grid_std.n)
        assert np.max(np.abs(u_num - cole_hopf_exact(u0, t).values)) <= 1e-13


def test_cole_hopf_cross_validates_solver(grid_std, burgers_front, burgers_cert):
    """Primary accuracy oracle: evolve vs the heat-substitution solution."""
    spec = preset("burgers")
    v0 = Field(grid_std, 0.3 * np.exp(-grid_std.x ** 2))
    u0 = Field(grid_std, burgers_front.phi.values + v0.values)
    cfg = StepperConfig(dt=1e-3, t_end=1.0, record_every=1000,
                        snapshot_every=1000)
    traj = evolve(v0, burgers_front, spec, cfg, certificate=burgers_cert)
    _, v_end = traj.snapshots[-1]
    y = grid_std.x - traj.x0_final
    u_num = burgers_front.phi_at(y) + trig_interpolate(grid_std, v_end.values, y)
    exact = cole_hopf_exact(u0, 1.0)
    assert np.max(np.abs(u_num - exact.values)) <= 1e-6


# ---------------------------------------------------------------------------
# Initial data


def test_perturbation_odd_kinds_exactly_odd(grid_std):
    for kind in ("odd_gaussian_derivative", "odd_sine_packet"):
        v = make_perturbation(kind, 1.0, 1.0, grid_std)
        assert v.values[0] == 0.0
        assert np.max(np.abs(v.values[1:] + v.values[1:][::-1])) == 0.0


def test_perturbation_odd_gaussian_shape(grid_std):
    v = make_perturbation("odd_gaussian_derivative", 1.0, 1.0, grid_std)
    want = -grid_std.x * np.exp(-grid_std.x ** 2)
    assert np.max(np.abs(v.values - want)) <= 1e-14


def test_perturbation_gaussian_mass(grid_std):
    # integral of a*exp(-(x/w)^2) is a*w*sqrt(pi)
    for a, w in ((1.0, 1.0), (0.5, 2.0)):
        v = make_perturbation("gaussian", a, w, grid_std)
        assert lp_norm(v, 1) == pytest.approx(a * w * np.sqrt(np.pi), rel=1e-10)


def test_perturbation_seeded_reproducible(grid_std):
    a = make_perturbation("random_bandlimited", 0.3, 2.0, grid_std, seed=42)
    b = make_perturbation("random_bandlimited", 0.3, 2.0, grid_std, seed=42)
    c = make_perturbation("random_bandlimited", 0.3, 2.0, grid_std, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("width, modes", [(0.1, 131), (0.05, 258)])
def test_random_bandlimited_band_stays_below_nyquist(width, modes):
    """L/(2*pi*w) + 4 modes and their mirror images need fewer than n/2
    modes; at n = 256, L = 80 width 0.1 reached the Nyquist mode and 0.05
    overran the array."""
    grid = make_grid(256, 80.0)
    message = (f"perturbation.width = {width:g} needs {modes} random_bandlimited "
               "modes, not below n/2 = 128")
    with pytest.raises(ValueError, match=re.escape(message)):
        make_perturbation("random_bandlimited", 0.5, width, grid)


def test_perturbation_validation(grid_std):
    with pytest.raises(ValueError):
        make_perturbation("square_wave", 1.0, 1.0, grid_std)
    with pytest.raises(ValueError):
        make_perturbation("gaussian", -1.0, 1.0, grid_std)
