import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from frontlab import certify_front, closed_form_burgers, \
    count_negative_eigenvalues, make_grid, schrodinger_tridiagonal, \
    shoot_local_front, sweep_nu
from frontlab.certify import ZERO_EIGENVALUE_TOL, CertificationError, \
    SweepRow, _lattice, count_below
from frontlab.config import RunConfig
from frontlab.fronts import FrontError, ref_d1, ref_profile
from frontlab.runio import read_certificate, write_certificate
from frontlab.spectral import Field

from checks import sturm_count_numpy_scalars


def poschl_teller_disc(v0, eps=0.0, m=4000, half_width=40.0):
    # -u'' - v0*sech^2(x/2)*u; bound-state count from s(s+1) = 4*v0
    return schrodinger_tridiagonal(lambda y: -v0 / np.cosh(0.5 * y) ** 2,
                                   eps, m, half_width)


def test_count_diagonal_matrix():
    assert count_negative_eigenvalues(np.array([1.0, -2.0, 3.0]),
                                      np.zeros(2)) == 1


def test_poschl_teller_one_bound_state():
    # v0*a^2 = 1 -> s = (sqrt(5)-1)/2 ~ 0.618 -> exactly one bound state
    d = poschl_teller_disc(0.25)
    assert count_negative_eigenvalues(d.diag, d.offdiag) == 1


def test_poschl_teller_two_bound_states():
    # v0*a^2 = 3 -> s ~ 1.30 -> two bound states
    d = poschl_teller_disc(0.75)
    assert count_negative_eigenvalues(d.diag, d.offdiag) == 2


@pytest.mark.parametrize("v0,count", [(0.25, 1), (0.75, 2)])
def test_poschl_teller_stable_under_refinement(v0, count):
    for m, hw in ((4000, 40.0), (8000, 40.0), (4000, 80.0), (8000, 80.0)):
        d = poschl_teller_disc(v0, m=m, half_width=hw)
        assert count_negative_eigenvalues(d.diag, d.offdiag) == count


def test_inertia_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(80):
        m = int(rng.integers(5, 500))
        diag = 2.0 * rng.standard_normal(m)
        off = rng.standard_normal(m - 1)
        want = int(np.sum(eigh_tridiagonal(diag, off, eigvals_only=True) < 0))
        assert count_negative_eigenvalues(diag, off) == want


def test_count_below_shifts():
    diag = np.array([1.0, 2.0, 3.0])
    off = np.zeros(2)
    assert count_below(diag, off, 2.5) == 2
    assert count_below(diag, off, 0.5) == 0


def sturm_cases(rng):
    """(diag, offdiag, shifts) triples for the pivot-recurrence oracle."""
    for _ in range(60):  # random scales, shifts on eigenvalues
        m = int(rng.integers(2, 300))
        diag = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
        off = rng.standard_normal(m - 1) * 10.0 ** rng.uniform(-3, 3)
        eig = eigh_tridiagonal(diag, off, eigvals_only=True)
        # a shift at diag[0] makes the first pivot exactly 0: the retry path
        yield diag, off, [0.0, float(rng.choice(eig)), eig[0], eig[-1], diag[0]]
    for _ in range(60):  # small integers: exact zero pivots mid-recurrence
        m = int(rng.integers(2, 12))
        diag = rng.integers(-2, 3, m).astype(float)
        off = rng.integers(-1, 2, m - 1).astype(float)
        yield diag, off, [0.0, 1.0, -1.0, diag[0]]
    for big in (1e155, 3e200, 1e300):  # numpy's b**2 is inf, Python's raises
        m = int(rng.integers(3, 60))
        diag = rng.standard_normal(m)
        off = rng.standard_normal(m - 1)
        yield diag, big * off, [0.0, -big]
        off[rng.integers(0, m - 1)] = big
        yield diag, off, [0.0, 0.5, diag[0]]
    # pivots -1e-14, 1, 2 - 1/1 = 1 and 1 - 1/1 = 0: only the last one
    # vanishes, and the retry's downward shift keeps -1e-14 below it
    yield np.array([-1e-14, 1.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0]), [0.0]
    # a constant off-diagonal, as in every FD Schrodinger matrix: one b^2
    for _ in range(40):  # random scales, shifts on eigenvalues and at diag[0]
        m = int(rng.integers(3, 300))
        diag = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
        off = np.full(m - 1, rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))
        eig = eigh_tridiagonal(diag, off, eigvals_only=True)
        yield diag, off, [0.0, float(rng.choice(eig)), eig[0], eig[-1], diag[0]]
    for _ in range(40):  # small integers: exact zero pivots mid-recurrence
        m = int(rng.integers(3, 12))
        diag = rng.integers(-2, 3, m).astype(float)
        yield diag, np.full(m - 1, float(rng.choice([-1.0, 1.0]))), [0.0, 1.0, -1.0]
    # pivots 1, 2 - 1/1 = 1 and 1 - 1/1 = 0: the eigenvalue 0 is tied
    yield np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0]), [0.0]
    for big in (1e155, 3e200, 1e300):  # b**2 overflows: inf, then nan pivots
        m = int(rng.integers(3, 60))
        diag = rng.standard_normal(m)
        yield diag, np.full(m - 1, big), [0.0, -big, diag[0]]
    for _ in range(10):  # constant but for the last entry: b^2 per pivot
        m = int(rng.integers(3, 300))
        diag = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 3)
        off = np.full(m - 1, rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))
        off[-1] = rng.standard_normal() * 10.0 ** rng.uniform(-3, 3)
        eig = eigh_tridiagonal(diag, off, eigvals_only=True)
        yield diag, off, [0.0, float(rng.choice(eig)), diag[0]]
    # a nan after a constant prefix: no inertia to count (ValueError)
    yield np.ones(7), np.array([-1.0, -1.0, -1.0, np.nan, -1.0, -1.0]), [0.0]
    for m in (2, 1):  # a one-entry and an empty off-diagonal
        diag = rng.standard_normal(m)
        off = rng.standard_normal(m - 1)
        eig = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        yield diag, off, [0.0, float(eig[-1]), diag[0]]


def test_pivot_breakdown_has_no_certificate(monkeypatch):
    """A tie that every retry keeps (here the retry's step is set to 0:
    pivots 1, 1, 0 each time) raises CertificationError whose `partial`,
    the unresolved certificate, is None; the numpy-scalar recurrence breaks
    down on the same input."""
    monkeypatch.setattr(np, "spacing", lambda x: 0.0)
    diag, off = np.array([1.0, 2.0, 1.0]), np.array([-1.0, -1.0])
    with pytest.raises(CertificationError, match="pivot breakdown") as excinfo:
        count_below(diag, off, 0.0)
    assert excinfo.value.partial is None
    assert sturm_count_numpy_scalars(diag, off, 0.0) is None


def test_count_below_retry_keeps_nearby_eigenvalue():
    """The retry after a zero last pivot lowers the shift by a few ulps of
    the scale, so the eigenvalue at -1e-14 stays below 0: the count is the
    dense one."""
    diag, off = np.array([-1e-14, 1.0, 2.0, 1.0]), np.array([0.0, 1.0, 1.0])
    want = int(np.sum(eigvalsh_tridiagonal(diag, off) < 0.0))
    assert want == 1
    assert count_below(diag, off, 0.0) == want


# sweep_nu's fronts: n = 4096, box max(120, 100 nu), tolerance 1e-6
SWEEP_NU = (0.4, 1.0, 1.6, 2.2, 2.7945, 2.8, 3.4, 3.966, 4.0, 4.6)


@pytest.fixture(scope="module")
def sweep_fronts():
    return {nu: shoot_local_front(nu, make_grid(4096, max(120.0, 100.0 * nu)),
                                  tol=1e-6) for nu in SWEEP_NU}


def certificate_cases(fronts):
    """The certificate's own matrices: constant off-diagonal -(1-eps)/h^2
    and the lattice potential phi'/2 of fronts near the threshold."""
    for nu in (2.7945, 3.966, 4.0):
        front = fronts[nu]
        half_width = 0.45 * front.grid.length
        for m in (1500, 3000):
            h, nodes = _lattice(m, half_width)
            v = 0.5 * front.phi_prime_on_lattice(nodes, h)
            for eps in (0.0,) + RunConfig.eps_samples:
                d = schrodinger_tridiagonal(lambda y: v, eps, m, half_width)
                yield d.diag, d.offdiag, [-ZERO_EIGENVALUE_TOL, 0.0,
                                          ZERO_EIGENVALUE_TOL]


def test_count_below_matches_numpy_scalar_recurrence(sweep_fronts):
    """Pivots on Python floats are the numpy-scalar pivots: equal counts on
    every case.  No case breaks down (a tie that outlasts the retries);
    `test_pivot_breakdown_has_no_certificate` checks that both recurrences
    break down on a tie kept by a zero retry step."""
    cases = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow
        for diag, off, shifts in itertools.chain(
                sturm_cases(np.random.default_rng(12)),
                certificate_cases(sweep_fronts)):
            for shift in shifts:
                want = sturm_count_numpy_scalars(diag, off, shift)
                if not np.isfinite(off).all():
                    with pytest.raises(ValueError, match="finite"):
                        count_below(diag, off, shift)
                else:
                    assert want is not None
                    assert count_below(diag, off, shift) == want
                cases += 1
    assert cases == (60 * 5 + 60 * 4 + 3 * (3 + 2) + 1 + 40 * 5 + 40 * 3 + 1
                     + 3 * 3 + 10 * 3 + 1 + 2 * 3 + 3 * 2 * 7 * 3)


@pytest.mark.parametrize("diag,off,shift", [
    ([np.nan, 2.0, 2.0], [-1.0, -1.0], 0.0),
    ([-1.0, np.nan, -2.0], [-1.0, -1.0], 0.0),
    ([1.0, 2.0, 3.0], [-1.0, -1.0], np.nan),
    ([1.0, np.inf, 3.0], [-1.0, -1.0], 0.0),
    ([1.0, 2.0, 3.0], [-1.0, np.nan], 0.0),
    ([1.0, 2.0, 3.0], [-np.inf, -1.0], 0.0),
    ([1.0, 2.0, 3.0], [-1.0, -1.0], -np.inf),
    ([1e308, 2.0, 3.0], [-1e308, -1.0], 0.0),
])
def test_count_below_rejects_non_finite(diag, off, shift):
    """A nan or inf entry or shift has no inertia to count, nor entries
    whose scale max|diag| + max|offdiag| overflows to inf: they raise
    instead of returning whatever count their comparisons make."""
    with pytest.raises(ValueError, match="finite"):
        count_below(np.array(diag), np.array(off), shift)


# counts over eps = (0, .01, .05, .1, .2, .4, .8) of sweep_nu's fronts at
# m = 1500, and the coarser lattice of the pair that settled them
GOLDEN_CERTIFICATES = {
    0.4: ((1, 1, 1, 1, 1, 1, 2), 1500),
    1.0: ((1, 1, 1, 1, 1, 1, 2), 1500),
    1.6: ((1, 1, 1, 1, 1, 2, 3), 1500),
    2.2: ((1, 1, 1, 1, 1, 2, 4), 1500),
    2.7945: ((1, 1, 1, 1, 1, 2, 4), 3000),
    2.8: ((1, 1, 1, 1, 2, 2, 4), 1500),
    3.4: ((1, 1, 1, 1, 2, 2, 4), 1500),
    3.966: ((1, 1, 1, 2, 2, 3, 4), 3000),
    4.0: ((1, 1, 2, 2, 2, 3, 4), 1500),
    4.6: ((2, 2, 2, 2, 2, 3, 4), 1500),
}


@pytest.mark.parametrize("nu", sorted(GOLDEN_CERTIFICATES))
def test_certificate_golden_counts(sweep_fronts, nu):
    counts, m = GOLDEN_CERTIFICATES[nu]
    cert = certify_front(sweep_fronts[nu], m=1500)
    assert (cert.counts, cert.m, cert.satisfied) == (counts, m, nu != 4.6)
    assert cert.richardson_ok and not any(cert.near_zero_flags)


def test_zero_pivot_perturbation():
    # leading pivot is exactly zero at shift 0; the perturbed shift resolves it
    diag = np.array([0.0, 1.0, -1.0])
    off = np.array([0.0, 0.0])
    assert count_negative_eigenvalues(diag, off) == 1


def test_tridiagonal_shape_validation():
    with pytest.raises(ValueError):
        count_negative_eigenvalues(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        schrodinger_tridiagonal(lambda y: 0 * y, 0.0, 100, 40.0)
    with pytest.raises(ValueError):
        schrodinger_tridiagonal(lambda y: 0 * y, 1.5, 400, 40.0)


def test_certificate_burgers(burgers_front, burgers_cert):
    cert = burgers_cert
    # one bound state for all sampled eps below 1/2; the eps=0 reference
    # count is at least 1 because the potential well integrates to -1
    assert cert.satisfied
    assert cert.counts[0] >= 1
    by_eps = dict(zip(cert.eps_samples, cert.counts))
    assert by_eps[0.01] == 1 and by_eps[0.2] == 1 and by_eps[0.4] == 1
    assert by_eps[0.8] == 2  # the well deepens relative to -(1-eps) d^2
    assert cert.richardson_ok
    assert cert.min_count == 1


def test_certificate_matches_dense_interpolation(
        burgers_front, burgers_cert):
    """phi' from the lattice transform gives the counts and flags that
    phi' from dense interpolation gives."""
    counts, flags = {}, {}
    for m in (burgers_cert.m, 2 * burgers_cert.m):
        hw = burgers_cert.half_width
        h = 2.0 * hw / (m + 1)
        v = 0.5 * burgers_front.phi_prime_at(-hw + h * np.arange(1, m + 1))
        for eps in burgers_cert.eps_samples:
            d = schrodinger_tridiagonal(lambda y: v, eps, m, hw)
            below = count_below(d.diag, d.offdiag, -ZERO_EIGENVALUE_TOL)
            upper = count_below(d.diag, d.offdiag, ZERO_EIGENVALUE_TOL)
            counts.setdefault(m, []).append(below)
            flags.setdefault(m, []).append(upper != below)
    fine = 2 * burgers_cert.m
    assert burgers_cert.counts == tuple(counts[fine])
    assert burgers_cert.near_zero_flags == tuple(
        a or b for a, b in zip(flags[burgers_cert.m], flags[fine]))
    assert burgers_cert.richardson_ok == (counts[burgers_cert.m] == counts[fine])


@pytest.mark.slow
def test_sweep_rows_resolved_on_the_4m_lattice():
    """At these nu the m = 1500 and 3000 lattices count differently at
    some eps, and the 3000 and 6000 lattices agree."""
    rows, threshold = sweep_nu([2.7945, 3.966], m=1500, points=4096)
    assert [(r.satisfied, r.error) for r in rows] == [(True, "")] * 2
    assert threshold == 3.966


def test_refinement_keeps_the_finer_pair(burgers_front, monkeypatch):
    """Counts that differ between m and 2m are settled by 2m and 4m; a
    pair that still disagrees raises with the unresolved certificate."""
    m = 400
    monkeypatch.setattr("frontlab.certify._inertia",
                        lambda v, eps, h: (2 if v.size == m else 1, False))
    cert = certify_front(burgers_front, m=m)
    assert (cert.m, cert.richardson_ok, cert.min_count) == (2 * m, True, 1)

    monkeypatch.setattr("frontlab.certify._inertia",
                        lambda v, eps, h: (v.size // m, False))
    with pytest.raises(CertificationError, match="800 and 1600") as excinfo:
        certify_front(burgers_front, m=m)
    cert = excinfo.value.partial
    assert (cert.m, cert.richardson_ok, cert.counts[0]) == (2 * m, False, 4)


def _collocation_counts(phi_prime, length, eps_values, gap):
    """Negative-eigenvalue counts of the dense Fourier-collocation matrix
    of -(1-eps) d^2/dx^2 + phi'/2 on a periodic grid, at each eps whose
    spectrum has no eigenvalue within `gap` of zero."""
    n = phi_prime.size
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    d2 = np.fft.ifft(-(k ** 2)[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
    counts = {}
    for eps in eps_values:
        ev = np.linalg.eigvalsh(-(1.0 - eps) * d2 + np.diag(0.5 * phi_prime))
        if np.min(np.abs(ev)) > gap:
            counts[eps] = int(np.sum(ev < 0.0))
    return counts


def _poschl_teller_front(grid, v0):
    # phi'/2 = -v0 sech^2(x/2); v0 = 1/4 is the Burgers front itself
    scale = 4.0 * v0
    return dataclasses.replace(
        closed_form_burgers(grid),
        phi=Field(grid, scale * ref_profile(grid.x)),
        phi_prime=Field(grid, scale * ref_d1(grid.x)))


def _sweep_front(nu):
    length = max(120.0, 100.0 * abs(nu))  # the box sweep_nu uses
    return shoot_local_front(nu, make_grid(4096, length), tol=1e-6)


@pytest.mark.slow
@pytest.mark.parametrize("case", ["pt0.25", "pt0.75", "nu2.2", "nu4.6"])
def test_counts_match_dense_collocation_oracle(grid_std, case):
    """certify_front's counts against eigvalsh of a dense Fourier-collocation
    matrix (periodic, n = 1024), which shares nothing with the FD lattice.

    Only eps whose dense spectrum keeps a gap around zero are compared.
    The Poschl-Teller cases and nu = 2.2 use a gap of 1e-3; nu = 2.2 is
    sampled on [-40, 40), where |phi'| < 5e-5 outside, which moves no
    eigenvalue by more than 3e-5.  The unsatisfied nu = 4.6 front needs
    its own box of length 460 (its second bound state lies near -1.4e-4
    at eps = 0 and spreads far into the slowly decaying tail), where
    periodic continuum states come within 4e-6 to 4e-5 of zero at every
    eps; its gap is 1e-5.
    """
    if case.startswith("pt"):
        front = _poschl_teller_front(grid_std, float(case[2:]))
        phi_prime, length, gap = front.phi_prime.values, grid_std.length, 1e-3
    elif case == "nu2.2":
        front = _sweep_front(2.2)
        phi_prime, length, gap = front.phi_prime_at(grid_std.x), grid_std.length, 1e-3
    else:
        front = _sweep_front(4.6)
        phi_prime, length, gap = front.phi_prime.values[::4], front.grid.length, 1e-5
    cert = certify_front(front)
    assert cert.satisfied == (case in ("pt0.25", "nu2.2"))
    dense = _collocation_counts(phi_prime, length, cert.eps_samples, gap)
    assert len(dense) >= 3
    assert dense == {e: c for e, c in zip(cert.eps_samples, cert.counts) if e in dense}


def test_certificate_monotone_kdvb(grid_std):
    front = shoot_local_front(0.2, grid_std)
    cert = certify_front(front)
    assert cert.satisfied


def test_certificate_eps_validation(burgers_front):
    with pytest.raises(ValueError):
        certify_front(burgers_front, eps_samples=(0.0, 0.5))
    with pytest.raises(ValueError):
        certify_front(burgers_front, eps_samples=(1.2,))


def test_certificate_needs_an_eps_sample(burgers_front, monkeypatch):
    """An empty eps set fails with its own message before any lattice work."""
    def no_lattice(*args, **kwargs):
        raise AssertionError("lattice counted for an empty eps set")

    monkeypatch.setattr("frontlab.certify._counts", no_lattice)
    with pytest.raises(ValueError, match=r"need at least one eps sample in \(0, 1\)"):
        certify_front(burgers_front, eps_samples=())


def test_certificate_json_flags_are_booleans(tmp_path, burgers_cert):
    """richardson_ok is stored as a JSON boolean and read back as a bool."""
    path = tmp_path / "cert.json"
    write_certificate(path, burgers_cert)
    assert json.loads(path.read_text())["richardson_ok"] is True
    again = read_certificate(path)
    assert again == burgers_cert and again.richardson_ok is True


def test_reflection_symmetry_of_counts():
    """nu and -nu fronts are reflections, so the counts coincide."""
    import warnings

    g = make_grid(1024, 80.0)
    for nu in (0.2, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # nu=1 tail is box-limited here
            cp = certify_front(shoot_local_front(nu, g))
            cm = certify_front(shoot_local_front(-nu, g))
        assert cp.counts == cm.counts


@pytest.mark.slow
def test_certificate_fails_beyond_threshold():
    # oscillatory front at nu=4.5: every sampled eps sees at least two
    # negative eigenvalues
    g = make_grid(4096, 460.0)
    front = shoot_local_front(4.5, g, tol=1e-6)
    cert = certify_front(front)
    assert not cert.satisfied
    assert cert.min_count >= 2


def test_sweep_marks_failed_rows():
    rows, threshold = sweep_nu([0.2, float("nan")], m=1500, points=1024)
    assert rows[0].satisfied
    assert rows[1].error != ""
    assert threshold == pytest.approx(0.2)


def test_sweep_rows_catch_only_expected_failures(monkeypatch):
    """A shooting failure becomes an error row; a programming error is not
    hidden in one."""
    def failing(kind):
        def shoot(*args, **kwargs):
            raise kind("injected")
        return shoot

    monkeypatch.setattr("frontlab.certify.shoot_local_front", failing(FrontError))
    rows, threshold = sweep_nu([0.4], m=1500, points=1024)
    assert rows[0].error == "injected" and np.isnan(threshold)
    monkeypatch.setattr("frontlab.certify.shoot_local_front", failing(TypeError))
    with pytest.raises(TypeError, match="injected"):
        sweep_nu([0.4], m=1500, points=1024)


def test_sweep_checks_settings_before_shooting(monkeypatch):
    """Bad certificate settings raise once, before any front is shot,
    instead of failing every row alike."""
    def no_front(*args, **kwargs):
        raise AssertionError("front shot for settings that cannot certify")

    monkeypatch.setattr("frontlab.certify.shoot_local_front", no_front)
    with pytest.raises(ValueError, match="need at least 200 interior points"):
        sweep_nu([0.4, 1.0], m=100)
    with pytest.raises(ValueError, match=r"eps samples must lie in \(0, 1\)"):
        sweep_nu([0.4, 1.0], eps_samples=(0.5, 1.0))


def test_sweep_workers_capped_at_rows(monkeypatch, serial_pool):
    """A pool starts all its workers at once, so it gets no more than one
    per row, and one row or one thread runs with no pool at all."""
    monkeypatch.setattr("frontlab.certify._sweep_row",
                        lambda job: SweepRow(nu=job[0], satisfied=True,
                                             min_count=1, argmin_eps=0.01))
    rows, threshold = sweep_nu([0.2, 0.3, 0.4], threads=5000)
    assert [row.nu for row in rows] == [0.2, 0.3, 0.4] and threshold == 0.4
    sweep_nu([0.2, 0.3, 0.4], threads=2)
    sweep_nu([0.2], threads=8)
    sweep_nu([0.2, 0.3], threads=1)
    assert serial_pool == [3, 2]


def test_sweep_parallel_rows_match_serial():
    serial, t1 = sweep_nu([0.2, 0.3], m=1200, points=1024)
    parallel, t2 = sweep_nu([0.2, 0.3], m=1200, points=1024, threads=2)
    assert serial == parallel
    assert t1 == t2
