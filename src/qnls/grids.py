"""Discretizations: periodic Cartesian boxes and truncated radial meshes.

Two grid kinds cover the laboratory:

* Cartesian: the box [-L, L)^n with N points per axis and periodic
  boundaries.  Differential operators are exact Fourier multipliers with
  wavenumbers xi = pi m / L, quadrature is the plain Riemann sum h^n sum f
  (trapezoid = Riemann sum under periodicity).

* Radial: nodes r_i = i h on [0, R_max], h = R_max / N, holding radially
  symmetric profiles in dimension 1 <= n <= 5.  The Laplacian is the
  second-order finite difference of d_rr + ((n-1)/r) d_r with an even ghost
  point across the origin and a homogeneous Dirichlet value at R_max; at
  r = 0 the n-dimensional limit gives Lap f(0) ~= 2 n (f(h) - f(0)) / h^2.
  Quadrature is the trapezoid rule against the surface measure
  omega_{n-1} r^{n-1} dr with omega_{n-1} = 2 pi^{n/2} / Gamma(n/2).

Truncation at R_max is justified by the exponential decay of the localized
profiles this grid is meant for; callers pick R_max so the tail is below
rounding relative to the peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs

from .nonlinearity import ModelSpec

CARTESIAN = "cartesian"
RADIAL = "radial"


@dataclass(frozen=True)
class GridSpec:
    """Discretization descriptor.  extent is L (Cartesian) or R_max (radial)."""

    kind: str
    n: int
    N: int
    extent: float

    def __post_init__(self):
        if self.kind not in (CARTESIAN, RADIAL):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.kind == CARTESIAN and not (1 <= self.n <= 3):
            raise ValueError("Cartesian grids support 1 <= n <= 3")
        if self.kind == RADIAL and not (1 <= self.n <= 5):
            raise ValueError("radial grids support 1 <= n <= 5")
        if self.N < 8:
            raise ValueError("need at least 8 points per axis")
        if not self.extent > 0:
            raise ValueError("extent must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n if self.kind == CARTESIAN else (self.N,)

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.N if self.kind == CARTESIAN else self.extent / self.N

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def axis(self) -> np.ndarray:
        """Coordinates along one axis (Cartesian) or the radius (radial)."""
        if self.kind == CARTESIAN:
            return -self.extent + self.h * np.arange(self.N)
        return self.h * np.arange(self.N)

    def scaled(self, factor: float) -> "GridSpec":
        """Same nodes dilated by factor: the exact grid image of x -> x/factor."""
        return GridSpec(self.kind, self.n, self.N, self.extent * factor)


def surface_area_coefficient(n: int) -> float:
    """omega_{n-1} = 2 pi^{n/2} / Gamma(n/2), the area of the unit sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@lru_cache(maxsize=64)
def _cartesian_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)
    ks = []
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.N
        ks.append(k1.reshape(shape))
    return tuple(ks)


@lru_cache(maxsize=64)
def _cartesian_ksq(grid: GridSpec) -> np.ndarray:
    ks = _cartesian_wavenumbers(grid)
    out = np.zeros(grid.shape)
    for k in ks:
        out = out + k**2
    return out


@lru_cache(maxsize=64)
def _cartesian_coords(grid: GridSpec) -> tuple[np.ndarray, ...]:
    x = grid.axis()
    out = []
    for axis in range(grid.n):
        shape = [1] * grid.n
        shape[axis] = grid.N
        out.append(x.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=64)
def radius_sq(grid: GridSpec) -> np.ndarray:
    """|x|^2 on the grid (Cartesian coordinate values, or r^2 on radial)."""
    if grid.kind == RADIAL:
        return grid.axis() ** 2
    out = np.zeros(grid.shape)
    for x in _cartesian_coords(grid):
        out = out + x**2
    return out


@lru_cache(maxsize=64)
def quadrature_weights(grid: GridSpec) -> np.ndarray:
    """Weights w with integrate(f) = sum(w * f)."""
    if grid.kind == CARTESIAN:
        return np.full(grid.shape, grid.h**grid.n)
    r = grid.axis()
    w = np.full(grid.N, grid.h)
    w[0] *= 0.5  # trapezoid endpoint; the Dirichlet node at R_max is implicit
    return surface_area_coefficient(grid.n) * w * r ** (grid.n - 1)


@lru_cache(maxsize=64)
def radial_laplacian_banded(grid: GridSpec) -> np.ndarray:
    """The radial Laplacian as a real (3, N) banded matrix.

    Row 0 holds the superdiagonal a[i-1, i] at column i, row 1 the diagonal
    and row 2 the subdiagonal a[i+1, i] at column i (the LAPACK band
    layout).  The tridiagonal solves of :func:`radial_shifted_solver` and
    the Crank-Nicolson right-hand side read their bands from here.
    """
    if grid.kind != RADIAL:
        raise ValueError("banded Laplacian is only defined on radial grids")
    N, h, n = grid.N, grid.h, grid.n
    r = grid.axis()
    ab = np.zeros((3, N))
    # row 0: origin limit 2 n (f_1 - f_0) / h^2
    ab[1, 0] = -2.0 * n / h**2
    ab[0, 1] = 2.0 * n / h**2
    i = np.arange(1, N)
    ab[1, i] = -2.0 / h**2
    upper = 1.0 / h**2 + (n - 1) / (2.0 * h * r[i])
    lower = 1.0 / h**2 - (n - 1) / (2.0 * h * r[i])
    ab[0, i[:-1] + 1] = upper[:-1]  # a[i, i+1]; the last row loses it (Dirichlet)
    ab[2, i - 1] = lower
    return ab


def radial_shifted_solver(grid: GridSpec, shift, scale):
    """Return solve(rhs) applying (shift_k I - scale_k Lap_h)^{-1} to
    component k of a stack of radial fields.

    Each of the tridiagonal matrices is factored once, here, by LAPACK's LU
    with partial pivoting (?gttrf, real or complex as get_lapack_funcs picks
    from the coefficients); solve only runs the triangular sweeps (?gttrs).
    Only the factors are kept.  Raises LinAlgError when a matrix is singular.
    """
    ab = radial_laplacian_banded(grid)
    factors = []
    for s, c in zip(np.asarray(shift), np.asarray(scale)):
        bands = (-c * ab[2, :-1], s - c * ab[1], -c * ab[0, 1:])
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
        *lu, info = gttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info != 0:
            raise LinAlgError(f"radial matrix is singular ({gttrf.typecode}gttrf info={info})")
        factors.append((gttrs, lu))

    def solve(rhs: np.ndarray) -> np.ndarray:
        out = []
        for (gttrs, lu), b in zip(factors, rhs):
            x, info = gttrs(*lu, b)
            if info != 0:
                raise LinAlgError(f"{gttrs.typecode}gttrs failed (info={info})")
            out.append(x)
        return np.stack(out)

    return solve


def apply_laplacian(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Discrete Laplacian on one field or a stack of fields (leading axes free)."""
    if grid.kind == CARTESIAN:
        axes = tuple(range(-grid.n, 0))
        return np.fft.ifftn(-_cartesian_ksq(grid) * np.fft.fftn(values, axes=axes), axes=axes)
    n, h = grid.n, grid.h
    r = grid.axis()
    lap = np.zeros_like(values)
    lap[..., 0] = 2.0 * n * (values[..., 1] - values[..., 0]) / h**2
    d2 = np.zeros_like(values[..., 1:])
    d2[..., :-1] = values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]
    d2[..., -1] = -2.0 * values[..., -1] + values[..., -2]  # f(R_max) = 0
    d1 = np.zeros_like(values[..., 1:])
    d1[..., :-1] = values[..., 2:] - values[..., :-2]
    d1[..., -1] = -values[..., -2]
    lap[..., 1:] = d2 / h**2 + (n - 1) / (2.0 * h * r[1:]) * d1
    return lap


def radial_derivative(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Central-difference d/dr with even symmetry at 0 and Dirichlet at R_max."""
    h = grid.h
    out = np.zeros_like(values)
    out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * h)
    out[..., -1] = -values[..., -2] / (2.0 * h)
    return out  # d/dr at r=0 vanishes for even profiles


def gradient_components(grid: GridSpec, values: np.ndarray) -> list[np.ndarray]:
    """Spectral partial derivatives (Cartesian) or [d/dr] (radial)."""
    if grid.kind == RADIAL:
        return [radial_derivative(grid, values)]
    axes = tuple(range(-grid.n, 0))
    vhat = np.fft.fftn(values, axes=axes)
    return [np.fft.ifftn(1j * k * vhat, axes=axes) for k in _cartesian_wavenumbers(grid)]


def integrate(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of a real scalar field."""
    return float(np.sum(quadrature_weights(grid) * np.real(values)))


def norm_sq(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |f|^2."""
    return float(np.sum(quadrature_weights(grid) * np.abs(values) ** 2))


def weighted_norm_sq(grid: GridSpec, weights: np.ndarray, values: np.ndarray) -> float:
    """sum_k weights_k ||f_k||^2 over a stack of fields f_k (leading axis k)."""
    axes = tuple(range(1, values.ndim))
    per_field = np.sum(quadrature_weights(grid) * np.abs(values) ** 2, axis=axes)
    return float(np.sum(weights * per_field))


def grad_sq_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |grad f|^2 (spectral on Cartesian, FD on radial)."""
    if grid.kind == CARTESIAN:
        axes = tuple(range(-grid.n, 0))
        vhat = np.fft.fftn(values, axes=axes)
        return float(grid.h**grid.n / grid.N**grid.n
                     * np.sum(_cartesian_ksq(grid) * np.abs(vhat) ** 2))
    return norm_sq(grid, radial_derivative(grid, values))


@dataclass(frozen=True)
class Field:
    """One complex scalar field sampled on a grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex, order="C")
        if values.shape != self.grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {self.grid.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FieldState:
    """l complex fields on a common grid at time t, tied to their model."""

    model: ModelSpec
    grid: GridSpec
    components: np.ndarray  # shape (l, *grid.shape)
    t: float = 0.0

    def __post_init__(self):
        comp = np.array(self.components, dtype=complex, order="C")
        if comp.shape != (self.model.l,) + self.grid.shape:
            raise ValueError(
                f"components shape {comp.shape} != {(self.model.l,) + self.grid.shape}")
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)

    @property
    def l(self) -> int:
        return self.model.l

    def field(self, k: int) -> Field:
        return Field(self.grid, self.components[k])

    def with_components(self, components: np.ndarray, t: float | None = None) -> "FieldState":
        return FieldState(self.model, self.grid, components, self.t if t is None else t)

    def on_grid(self, grid: GridSpec) -> "FieldState":
        """Reinterpret the same samples on a dilated copy of the grid."""
        return FieldState(self.model, grid, self.components, self.t)

    def linf(self) -> np.ndarray:
        axes = tuple(range(1, self.components.ndim))
        return np.max(np.abs(self.components), axis=axes)


def laplacian(field: Field) -> Field:
    return Field(field.grid, apply_laplacian(field.grid, field.values))


def multiply_by_radius_sq(field: Field) -> Field:
    """Pointwise |x|^2 f, the integrand factor of the variance."""
    return Field(field.grid, radius_sq(field.grid) * field.values)


def momentum_density_integral(state: FieldState, k: int) -> float:
    """Im int (grad u_k . x) conj(u_k) dx."""
    grid = state.grid
    u = state.components[k]
    if grid.kind == RADIAL:
        flux = radial_derivative(grid, u) * grid.axis() * np.conj(u)
    else:
        flux = np.zeros(grid.shape, dtype=complex)
        for g, x in zip(gradient_components(grid, u), _cartesian_coords(grid)):
            flux = flux + g * x * np.conj(u)
    return integrate(grid, np.imag(flux))


def boundary_mass_fraction(state: FieldState) -> float:
    """Fraction of the weighted mass density beyond 0.9 of the box half-width.

    Only meaningful on Cartesian grids, where the variance weight |x|^2 is a
    non-periodic coordinate; radial grids return the mass in the outer 10%.
    """
    grid = state.grid
    sigma_w = state.model.coeffs.alpha**2 / state.model.coeffs.gamma
    dens = np.tensordot(sigma_w, np.abs(state.components) ** 2, axes=(0, 0))
    total = integrate(grid, dens)
    if total == 0.0:
        return 0.0
    if grid.kind == RADIAL:
        outside = grid.axis() > 0.9 * grid.extent
    else:
        outside = np.zeros(grid.shape, dtype=bool)
        for x in _cartesian_coords(grid):
            outside = outside | (np.abs(x) > 0.9 * grid.extent)
    tail = float(np.sum(quadrature_weights(grid)[outside] * dens[outside]))
    return tail / total


# ---------------------------------------------------------------------------
# symmetric-decreasing rearrangement


def symmetric_decreasing_rearrangement(field: Field) -> Field:
    """Equimeasurable non-increasing profile of a non-negative field.

    On Cartesian n=1 all quadrature weights agree, so the rearrangement is a
    pure permutation: sorted values are laid out from the center (x=0)
    outward, alternating sides, which preserves every quadrature sum of the
    values exactly.  On radial grids the weights r^{n-1} differ per node and
    the values are re-binned through the quantile function of the weighted
    distribution, preserving super-level measure up to bin resolution and
    the weighted L^1 norm exactly.
    """
    grid = field.grid
    vals = np.real(field.values)
    if np.min(vals) < -1e-13 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError("rearrangement requires non-negative values")
    vals = np.maximum(vals, 0.0)
    if grid.kind == CARTESIAN:
        if grid.n != 1:
            raise ValueError("Cartesian rearrangement is only provided for n=1")
        order = np.argsort(np.abs(grid.axis()), kind="stable")
        out = np.zeros_like(vals)
        out[order] = np.sort(vals)[::-1]
        return Field(grid, out.astype(complex))

    w = quadrature_weights(grid)
    idx = np.argsort(vals)[::-1]
    sv, sw = vals[idx], w[idx]
    cum_mass = np.concatenate([[0.0], np.cumsum(sw)])
    # running integral of the quantile function: piecewise linear in mass
    cum_int = np.concatenate([[0.0], np.cumsum(sv * sw)])
    starts = np.concatenate([[0.0], np.cumsum(w)])[:-1]
    ends = starts + w
    lo = np.interp(starts, cum_mass, cum_int)
    hi = np.interp(ends, cum_mass, cum_int)
    out = np.zeros_like(vals)
    pos = w > 0
    out[pos] = (hi[pos] - lo[pos]) / w[pos]
    if np.any(~pos):
        # zero-measure bins (the r=0 node for n>1): the essential sup there,
        # which keeps already-non-increasing profiles fixed
        k = np.searchsorted(cum_mass[1:], starts[~pos], side="left")
        out[~pos] = sv[np.minimum(k, sv.size - 1)]
    return Field(grid, out.astype(complex))


# ---------------------------------------------------------------------------
# snapshot files
#
# ASCII header line, then the raw little-endian float64 samples interleaved
# (re, im), one block per component, row-major.

SNAPSHOT_MAGIC = "QNLS1"


def write_snapshot(state: FieldState, path) -> None:
    grid = state.grid
    header = (f"{SNAPSHOT_MAGIC} kind={grid.kind} n={grid.n} N={grid.N} "
              f"extent={grid.extent!r} l={state.l} t={state.t!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for k in range(state.l):
            comp = np.ascontiguousarray(state.components[k])
            inter = np.empty(2 * comp.size, dtype="<f8")
            inter[0::2] = comp.real.ravel()
            inter[1::2] = comp.imag.ravel()
            fh.write(inter.tobytes())


def read_snapshot_raw(path, return_trailer: bool = False):
    """Parse a snapshot; optionally also return any text after the payload."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if not parts or parts[0] != SNAPSHOT_MAGIC:
            raise ValueError(f"not a {SNAPSHOT_MAGIC} snapshot: {path}")
        kv = dict(p.split("=", 1) for p in parts[1:])
        grid = GridSpec(kind=kv["kind"], n=int(kv["n"]), N=int(kv["N"]),
                        extent=float(kv["extent"]))
        l, t = int(kv["l"]), float(kv["t"])
        expected = 2 * l * grid.size
        raw = np.frombuffer(fh.read(8 * expected), dtype="<f8")
        trailer = fh.read().decode("ascii") if return_trailer else ""
    if raw.size != expected:
        raise ValueError(f"snapshot payload has {raw.size} floats, expected {expected}")
    comps = (raw[0::2] + 1j * raw[1::2]).reshape((l,) + grid.shape)
    if return_trailer:
        return grid, comps, t, trailer
    return grid, comps, t


def read_snapshot(path, model: ModelSpec) -> FieldState:
    grid, comps, t = read_snapshot_raw(path)
    if comps.shape[0] != model.l:
        raise ValueError("snapshot component count does not match the model")
    return FieldState(model, grid, comps, t)
