"""Counting negative eigenvalues of H_eps = -(1-eps) d^2/dx^2 + phi'/2.

The stability requirement on a front is that H_eps has exactly one
negative eigenvalue for some eps in (0,1).  Counts come from Sylvester
inertia of a Dirichlet finite-difference discretization: the signs of the
LDL^T pivots of a symmetric tridiagonal matrix give the exact number of
eigenvalues below the shift.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .fronts import FrontError, FrontProfile, shoot_local_front
from .spectral import make_grid

__all__ = [
    "CertificationError",
    "SchrodingerDiscretization",
    "SpectralCertificate",
    "schrodinger_tridiagonal",
    "count_negative_eigenvalues",
    "count_below",
    "check_settings",
    "certify_front",
    "sweep_nu",
    "map_jobs",
]

ZERO_EIGENVALUE_TOL = 1e-10


class CertificationError(RuntimeError):
    """A failed count; `partial` is the unresolved certificate, or None."""

    def __init__(self, message: str, partial: SpectralCertificate | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SchrodingerDiscretization:
    """Symmetric tridiagonal FD matrix for -(1-eps) u'' + V u, Dirichlet ends."""

    diag: np.ndarray
    offdiag: np.ndarray
    nodes: np.ndarray
    eps: float
    half_width: float


def _lattice(m: int, half_width: float) -> tuple[float, np.ndarray]:
    """Spacing and the m interior nodes of [-half_width, half_width]."""
    if m < 200:
        raise ValueError("need at least 200 interior points")
    h = 2.0 * half_width / (m + 1)
    return h, -half_width + h * np.arange(1, m + 1)


def _tridiagonal(v_nodes: np.ndarray, eps: float, h: float):
    """(diag, offdiag) of -(1-eps) u'' + V u, second-order FD with spacing h."""
    mu = (1.0 - eps) / (h * h)
    return 2.0 * mu + v_nodes, np.full(v_nodes.size - 1, -mu)


def schrodinger_tridiagonal(potential: Callable[[np.ndarray], np.ndarray],
                            eps: float, m: int,
                            half_width: float) -> SchrodingerDiscretization:
    """Second-order FD discretization on [-half_width, half_width] with
    m interior points and Dirichlet truncation."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    h, nodes = _lattice(m, half_width)
    diag, off = _tridiagonal(np.asarray(potential(nodes), dtype=float), eps, h)
    return SchrodingerDiscretization(diag=diag, offdiag=off, nodes=nodes,
                                     eps=float(eps), half_width=float(half_width))


def count_below(diag: np.ndarray, offdiag: np.ndarray, shift: float) -> int:
    """Number of eigenvalues strictly below `shift` by Sylvester inertia.

    Pivots of the LDL^T factorization of T - shift*I come from the Sturm
    recurrence d = a - b^2/d; a vanishing pivot lowers the shift by 16 ulps
    of the scale max|diag| + max|offdiag| and retries (three attempts), as
    exact ties make the count ambiguous: a zero pivot shows as the next
    division's ZeroDivisionError, or as a zero last pivot.  It runs on
    Python floats with numpy scalars' pivots: `b ** 2` is C `pow` on both
    (`b * b` is not, in 1 value in 1000), though only numpy's gives inf
    where it overflows.  An off-diagonal all equal to its first entry (every
    FD Schrodinger matrix) runs with that one b^2; any other, as public
    callers may pass, squares each entry for its pivot.  A non-finite entry
    or shift, or a scale that overflows, raises ValueError.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.shape != (diag.size - 1,):
        raise ValueError("expected tridiagonal (diag, offdiag) arrays")
    scale = float(np.max(np.abs(diag))) + float(np.max(np.abs(offdiag), initial=0.0))
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise ValueError("tridiagonal entries, their scale and shift must be finite")
    values = offdiag[:1] if offdiag.size and (offdiag == offdiag[0]).all() else offdiag
    try:
        squares = [b ** 2 for b in values.tolist()]
    except OverflowError:
        squares = [float(b ** 2) for b in values]
    for attempt in range(3):
        shifted = iter((diag - shift).tolist())
        d = next(shifted)
        if not (d == 0.0 or abs(d) < 1e-300 * scale):
            count = int(d < 0.0)
            with suppress(ZeroDivisionError):
                if len(squares) == 1:
                    b2, = squares
                    for a in shifted:
                        d = a - b2 / d
                        if d < 0.0:
                            count += 1
                else:
                    for a, b2 in zip(shifted, squares):
                        d = a - b2 / d
                        if d < 0.0:
                            count += 1
                if d != 0.0:
                    return count
        # downward keeps an eigenvalue tied with the shift out of the
        # strictly-below count
        shift -= 16 * np.spacing(scale)
    raise CertificationError("pivot breakdown persists after shift perturbation")


def count_negative_eigenvalues(diag: np.ndarray, offdiag: np.ndarray) -> int:
    """Eigenvalues strictly below 0 of a symmetric tridiagonal matrix."""
    return count_below(diag, offdiag, 0.0)


@dataclass(frozen=True)
class SpectralCertificate:
    """Counts of negative eigenvalues of H_eps over an eps sample set.

    `satisfied` records whether some eps in (0,1) gives exactly one
    negative eigenvalue; eps = 0 is evaluated for reference only.  Counts
    treat eigenvalues within 1e-10 of zero as nonnegative and flag them.
    `m` is the coarser lattice of the Richardson pair that gave them.
    """

    operator: str
    eps_samples: tuple
    counts: tuple
    satisfied: bool
    min_count: int
    argmin_eps: float
    m: int
    half_width: float
    richardson_ok: bool
    near_zero_flags: tuple
    front_residual: float = float("nan")


def _inertia(v_nodes: np.ndarray, eps: float, h: float) -> tuple[int, bool]:
    """Count below -tol and whether an eigenvalue lies within tol of zero."""
    diag, off = _tridiagonal(v_nodes, eps, h)
    count = count_below(diag, off, -ZERO_EIGENVALUE_TOL)
    upper = count_below(diag, off, ZERO_EIGENVALUE_TOL)
    return count, upper != count


def _counts(front: FrontProfile, m: int, half_width: float, eps_all):
    """(counts, near-zero flags) over eps_all on the m-point lattice."""
    h, nodes = _lattice(m, half_width)
    # potential values are eps-independent: one transform per lattice
    v = 0.5 * front.phi_prime_on_lattice(nodes, h)
    return tuple(zip(*(_inertia(v, eps, h) for eps in eps_all)))


def check_settings(eps_samples: Sequence[float], m: int) -> None:
    """Raise ValueError unless the eps samples and an m-point lattice can
    make a certificate; certify_front and sweep_nu check before any work."""
    if not eps_samples:
        raise ValueError("need at least one eps sample in (0, 1)")
    if not all(0.0 < eps < 1.0 for eps in eps_samples):
        raise ValueError("eps samples must lie in (0, 1)")
    _lattice(m, 1.0)  # rejects too few points


def certify_front(front: FrontProfile,
                  eps_samples: Sequence[float] = RunConfig.eps_samples,
                  m: int = RunConfig.fd_points) -> SpectralCertificate:
    """Counts for each eps on [-0.45 L, 0.45 L], with Richardson
    refinement on lattices of m and 2m points.  Where their counts differ
    at some eps, the 4m lattice is counted too and the pair (2m, 4m)
    replaces them, with `m` recording 2m.  Counts come from the finer
    lattice of the pair and a near-zero flag from either; a pair that still
    disagrees raises CertificationError with the certificate as `partial`.
    """
    check_settings(eps_samples, m)
    half_width = 0.45 * front.grid.length

    eps_all = (0.0,) + tuple(float(e) for e in eps_samples)
    (c1, f1), (c2, f2) = (_counts(front, k * m, half_width, eps_all)
                          for k in (1, 2))
    if c1 != c2:
        m, c1, f1 = 2 * m, c2, f2
        c2, f2 = _counts(front, 2 * m, half_width, eps_all)
    positive = [(e, c) for e, c in zip(eps_all, c2) if e > 0.0]
    min_count = min(c for _, c in positive)
    argmin = next(e for e, c in positive if c == min_count)
    cert = SpectralCertificate(
        operator=front.operator.label,
        eps_samples=eps_all,
        counts=c2,
        satisfied=any(c == 1 for _, c in positive),
        min_count=min_count,
        argmin_eps=argmin,
        m=m,
        half_width=float(half_width),
        richardson_ok=c1 == c2,
        near_zero_flags=tuple(a or b for a, b in zip(f1, f2)),
        front_residual=front.residual_sup,
    )
    if c1 != c2:
        raise CertificationError(f"unresolved eigenvalue counts: the {m} and "
                                 f"{2 * m} point lattices disagree", cert)
    return cert


@dataclass(frozen=True)
class SweepRow:
    nu: float
    satisfied: bool
    min_count: int
    argmin_eps: float
    error: str = ""


def _sweep_row(args) -> SweepRow:
    nu, eps_samples, m, points = args
    try:
        length = max(120.0, 100.0 * abs(nu))
        grid = make_grid(points, length)
        front = shoot_local_front(float(nu), grid, tol=1e-6)
        cert = certify_front(front, eps_samples, m=m)
        return SweepRow(nu=float(nu), satisfied=cert.satisfied,
                        min_count=cert.min_count,
                        argmin_eps=cert.argmin_eps)
    except (FrontError, CertificationError, ValueError) as exc:  # a row, not the sweep
        return SweepRow(nu=float(nu), satisfied=False,
                        min_count=-1, argmin_eps=float("nan"),
                        error=str(exc))


def sweep_nu(nu_values: Sequence[float],
             eps_samples: Sequence[float] = RunConfig.eps_samples,
             m: int = RunConfig.fd_points,
             points: int = 4096,
             threads: int = 1) -> tuple[list[SweepRow], float]:
    """Certify KdV-Burgers fronts across nu; returns rows and the largest
    |nu| whose certificate is satisfied.

    Fronts oscillate with decay rate ~ 1/(2|nu|), so the box grows with
    |nu| to keep the tail resolved; solver failures mark the row and the
    sweep continues, while bad certificate settings raise before any front
    is shot.  Rows are independent and run in min(threads, rows) worker
    processes when that is > 1.
    """
    check_settings(eps_samples, m)
    rows = map_jobs(_sweep_row, [(float(nu), tuple(eps_samples), m, points)
                                 for nu in nu_values], threads)
    threshold = max((r.nu for r in rows if r.satisfied), key=abs,
                    default=float("nan"))
    return rows, threshold


def map_jobs(fn: Callable, jobs: Sequence, threads: int) -> list:
    """[fn(job) for job in jobs], on min(threads, jobs) worker processes
    when that is > 1 and in this process otherwise."""
    workers = min(threads, len(jobs))  # a pool starts all its workers at once
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(fn, jobs))
