"""Periodic grid, discrete Fourier calculus and norms.

Line problems are posed on a large periodic box; fields that decay fast
enough near the box edge behave like line functions.  The Fourier
convention pairs the angular wavenumber k = 2*pi*xi with d/dx <-> i*k.
The certificate evaluates phi' on its uniform FD lattices by one
Bluestein (chirp-z) transform each, `trig_interpolate_lattice`; the
dense mode sum `trig_interpolate` serves any points and is its test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "apply_multiplier",
    "derivative",
    "lp_norm",
    "lp_norms",
    "weighted_l2",
    "trig_interpolate",
    "trig_interpolate_lattice",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-length/2, length/2)."""

    n: int
    length: float

    @property
    def h(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return -0.5 * self.length + self.h * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        # angular wavenumbers 2*pi*m/length in FFT order, m = -n/2 .. n/2-1
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    @cached_property
    def ik(self) -> np.ndarray:
        """Read-only symbol i*k of d/dx, zero at the unpaired Nyquist mode."""
        ik = 1j * self.k
        if self.n % 2 == 0:
            ik[self.n // 2] = 0.0
        ik.flags.writeable = False
        return ik

    @cached_property
    def abs_x(self) -> np.ndarray:
        """Read-only |x| at the grid points (the weight of weighted_l2)."""
        abs_x = np.abs(self.x)
        abs_x.flags.writeable = False
        return abs_x

    @property
    def modes(self) -> np.ndarray:
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(int)

    @property
    def k_max(self) -> float:
        return np.pi * self.n / self.length


def make_grid(n: int, length: float) -> Grid:
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"point count must be a power of two >= 8, got {n}")
    if not length > 0.0:
        raise ValueError("domain length must be positive")
    return Grid(n=int(n), length=float(length))


@dataclass(frozen=True)
class Field:
    """Real samples on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError("sample count does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n))


def apply_multiplier(f: Field, symbol_values: np.ndarray) -> Field:
    """Apply a Fourier multiplier given by its values on grid.k.

    The imaginary residue of the inverse transform is checked against
    Hermitian-symmetry roundoff and discarded; a symbol that is actually
    non-Hermitian trips the check.
    """
    sym = np.asarray(symbol_values)
    if sym.shape != (f.grid.n,):
        raise ValueError("symbol values must be sampled on grid.k")
    out = np.fft.ifft(sym * np.fft.fft(f.values))
    in_norm = l2_norm_raw(f.grid, f.values)
    out_norm = l2_norm_raw(f.grid, out.real)
    residue = float(np.max(np.abs(out.imag)))
    if residue > 1e-12 * (in_norm + out_norm + 1e-300):
        raise ValueError(
            f"non-Hermitian symbol: imaginary residue {residue:.3e} "
            f"exceeds 1e-12 * field scale"
        )
    return Field(f.grid, out.real)


def derivative(f: Field, order: int) -> Field:
    """Spectral d^order/dx^order for order in (1, 2, 3)."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    # odd derivatives drop the unpaired Nyquist mode
    sym = (f.grid.ik if order % 2 else 1j * f.grid.k) ** order
    return apply_multiplier(f, sym)


def l2_norm_raw(grid: Grid, values: np.ndarray) -> float:
    return float(np.sqrt(grid.h * np.sum(values * values)))


def lp_norm(f: Field, p: float) -> float:
    """Rectangle-rule L^p norm; p = inf gives the max norm."""
    return lp_norms(f, (p,))[0]


def lp_norms(f: Field, ps) -> list[float]:
    """lp_norm(f, p) for each p of ps, all from one |f| (p = 2 sums f*f)."""
    if any(p < 1.0 for p in ps):
        raise ValueError("p must be >= 1 or inf")
    absf, h = np.abs(f.values), f.grid.h
    return [float(np.max(absf)) if p == np.inf
            else float(h * np.sum(absf)) if p == 1.0
            else l2_norm_raw(f.grid, f.values) if p == 2.0
            else float((h * np.sum(absf ** p)) ** (1.0 / p)) for p in ps]


def weighted_l2(f: Field) -> float:
    """(integral of f^2 |x| dx)^(1/2) by the rectangle rule."""
    return float(np.sqrt(f.grid.h * np.sum(f.values * f.values * f.grid.abs_x)))


def trig_interpolate(grid: Grid, values: np.ndarray, points) -> np.ndarray:
    """Evaluate the band-limited interpolant of periodic samples at points."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    coeffs = np.fft.fft(np.asarray(values, dtype=float)) / grid.n
    k = grid.k.copy()
    if grid.n % 2 == 0:
        # split the unpaired Nyquist mode into a real cosine
        coeffs[grid.n // 2] = coeffs[grid.n // 2].real
    rel = pts + 0.5 * grid.length
    out = np.zeros(pts.shape, dtype=complex)
    # chunks of 65,536 matrix entries (1 MB) bound memory and stay in cache
    step = max(1, 65536 // max(grid.n, 1))
    for start in range(0, pts.size, step):
        sl = slice(start, start + step)
        out[sl] = np.exp(1j * np.outer(rel[sl], k)) @ coeffs
    result = out.real
    if np.ndim(points) == 0:
        return result[0]
    return result


def trig_interpolate_lattice(grid: Grid, values: np.ndarray, x_first: float,
                             h: float, m: int) -> np.ndarray:
    """`trig_interpolate` at the m points x_first + h*p, p = 0..m-1.

    With alpha = 2*pi*h/length and mode index j, j*p = (j^2 + p^2 -
    (p-j)^2)/2 turns the mode sum into one convolution with the chirp
    exp(-i*alpha*q^2/2) (Bluestein), done by FFT in O((n+m) log(n+m)).
    The chirp is even in q: one exp per |q| serves the modes, the kernel
    and the output (so a mode's chirp and its conjugate cancel exactly).
    """
    n = grid.n
    coeffs = np.fft.fftshift(np.fft.fft(np.asarray(values, dtype=float))) / n
    if n % 2 == 0:
        coeffs[0] = coeffs[0].real  # the unpaired Nyquist mode, as a cosine
    j = np.arange(-(n // 2), n - n // 2, dtype=np.int64)
    q = np.arange(max(j[-1] + 1, m - j[0]), dtype=np.int64)
    chirp = np.exp((1j * np.pi * h / grid.length) * (q * q))  # exact int64 squares
    offset = 2.0 * np.pi * (x_first + 0.5 * grid.length) / grid.length
    b = coeffs * chirp[np.abs(j)] * np.exp(1j * offset * j)
    kernel = np.conj(chirp[np.abs(np.arange(-j[-1], m - j[0]))])
    size = 1 << (n + m - 2).bit_length()  # >= n + m - 1: no wrap-around
    conv = np.fft.ifft(np.fft.fft(b, size) * np.fft.fft(kernel, size))
    return (chirp[:m] * conv[n - 1:n - 1 + m]).real
