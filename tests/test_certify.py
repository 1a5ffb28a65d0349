import json

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from frontlab import certify_front, count_negative_eigenvalues, make_grid, \
    schrodinger_tridiagonal, shoot_local_front, sweep_nu
from frontlab.certify import CertificationError, count_below


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


def test_certificate_monotone_kdvb(grid_std):
    front = shoot_local_front(0.2, grid_std)
    cert = certify_front(front)
    assert cert.satisfied


def test_certificate_eps_validation(burgers_front):
    with pytest.raises(ValueError):
        certify_front(burgers_front, eps_samples=(0.0, 0.5))
    with pytest.raises(ValueError):
        certify_front(burgers_front, eps_samples=(1.2,))


def test_certificate_json_round_trip(burgers_cert):
    from frontlab.certify import SpectralCertificate
    again = SpectralCertificate.from_json(burgers_cert.to_json())
    assert again == burgers_cert


def test_certificate_json_flags_are_booleans(burgers_cert):
    """richardson_ok is stored as a JSON boolean and read back as a bool."""
    from frontlab.certify import SpectralCertificate
    text = burgers_cert.to_json()
    assert json.loads(text)["richardson_ok"] is True
    assert SpectralCertificate.from_json(text).richardson_ok is True


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


def test_sweep_parallel_rows_match_serial():
    serial, t1 = sweep_nu([0.2, 0.3], m=1200, points=1024)
    parallel, t2 = sweep_nu([0.2, 0.3], m=1200, points=1024, threads=2)
    assert serial == parallel
    assert t1 == t2
