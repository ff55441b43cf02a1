"""Discretizations: periodic Cartesian boxes and truncated radial meshes.

Two grid kinds cover the laboratory:

* Cartesian: the box [-L, L)^n with N points per axis and periodic
  boundaries.  Differential operators are exact Fourier multipliers with
  wavenumbers xi = pi m / L, quadrature is the plain Riemann sum h^n sum f
  (trapezoid = Riemann sum under periodicity).  A real field goes through
  the real-to-real transforms (rfftn, a multiplier on the half spectrum,
  irfftn back to the grid shape) and stays real; a complex field goes
  through the full complex transforms.

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

from .nonlinearity import ModelSpec, parse_fields

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
            raise ValueError(f"need at least 8 points per axis, got N={self.N}")
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
def _cartesian_half_ksq(grid: GridSpec) -> np.ndarray:
    """|xi|^2 on the half spectrum of rfftn (last axis cut to N//2 + 1)."""
    return np.ascontiguousarray(_cartesian_ksq(grid)[..., :grid.N // 2 + 1])


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
    layout).  The tridiagonal solves of :func:`radial_shifted_solver` read
    their bands from here.
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

    The l tridiagonal matrices are factored once, here, as one
    block-tridiagonal matrix of size l N whose sub- and superdiagonals are
    zero at the block seams, by LAPACK's LU with partial pivoting (?gttrf,
    real or complex as get_lapack_funcs picks from the coefficients); solve
    runs one pair of triangular sweeps (?gttrs) over the flattened stack.
    Pivoting never crosses a zero subdiagonal, so each block is factored
    and solved exactly as it would be on its own.  Only the factors are
    kept.  Raises LinAlgError when a matrix is singular.
    """
    ab = radial_laplacian_banded(grid)
    shift, scale = np.asarray(shift)[:, None], np.asarray(scale)[:, None]
    sub = -scale * np.concatenate([ab[2, :-1], [0.0]])
    sup = -scale * np.concatenate([ab[0, 1:], [0.0]])
    bands = (sub.ravel()[:-1], (shift - scale * ab[1]).ravel(), sup.ravel()[:-1])
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), bands)
    *lu, info = gttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise LinAlgError(f"radial matrix is singular ({gttrf.typecode}gttrf info={info})")

    def solve(rhs: np.ndarray) -> np.ndarray:
        x, info = gttrs(*lu, rhs.reshape(-1))
        if info != 0:
            raise LinAlgError(f"{gttrs.typecode}gttrs failed (info={info})")
        return x.reshape(rhs.shape)

    return solve


def apply_laplacian(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Discrete Laplacian of one field or a stack (leading axes free); real in, real out."""
    if grid.kind == CARTESIAN:
        axes = tuple(range(-grid.n, 0))
        if np.iscomplexobj(values):
            return np.fft.ifftn(-_cartesian_ksq(grid) * np.fft.fftn(values, axes=axes), axes=axes)
        spectrum = -_cartesian_half_ksq(grid) * np.fft.rfftn(values, axes=axes)
        return np.fft.irfftn(spectrum, s=grid.shape, axes=axes)
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


def _abs_sq(values: np.ndarray) -> np.ndarray:
    """|f|^2 pointwise as re^2 + im^2 (no square root)."""
    if not np.iscomplexobj(values):
        return np.square(values)
    sq = np.square(values.real)
    sq += np.square(values.imag)
    return sq


def norm_sq(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |f|^2."""
    return float(np.sum(quadrature_weights(grid) * _abs_sq(values)))


def weighted_norm_sq(grid: GridSpec, weights: np.ndarray, values: np.ndarray) -> float:
    """sum_k weights_k ||f_k||^2 over a stack of fields f_k (leading axis k)."""
    axes = tuple(range(1, values.ndim))
    per_field = np.sum(quadrature_weights(grid) * _abs_sq(values), axis=axes)
    return float(np.sum(weights * per_field))


def _radial_grad_sq(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Quadrature of |d/dr f|^2 per field (the last axis is r), without
    building the derivative: as in :func:`radial_derivative`, d/dr f
    vanishes at r = 0, is (f_{i+1} - f_{i-1})/(2h) at the interior nodes and
    -f_{N-2}/(2h) at the last node, next to the Dirichlet value."""
    w = quadrature_weights(grid)
    interior = np.sum(w[1:-1] * _abs_sq(values[..., 2:] - values[..., :-2]), axis=-1)
    return (interior + w[-1] * _abs_sq(values[..., -2])) / (2.0 * grid.h) ** 2


def grad_sq_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |grad f|^2 (spectral on Cartesian, FD on radial)."""
    if grid.kind == CARTESIAN:
        axes = tuple(range(-grid.n, 0))
        vhat = np.fft.fftn(values, axes=axes)
        return float(grid.h**grid.n / grid.N**grid.n
                     * np.sum(_cartesian_ksq(grid) * np.abs(vhat) ** 2))
    return float(_radial_grad_sq(grid, values))


def weighted_grad_sq(grid: GridSpec, weights: np.ndarray, values: np.ndarray) -> float:
    """sum_k weights_k ||grad f_k||^2 over a stack of fields f_k (leading axis k)."""
    if grid.kind == RADIAL:
        return float(np.sum(weights * _radial_grad_sq(grid, values)))
    return float(sum(w * grad_sq_integral(grid, f) for w, f in zip(weights, values)))


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
SNAPSHOT_HEADER_LIMIT = 1024  # bytes, end of line included


def write_snapshot(state: FieldState, path) -> None:
    grid = state.grid
    header = (f"{SNAPSHOT_MAGIC} kind={grid.kind} n={grid.n} N={grid.N} "
              f"extent={grid.extent!r} l={state.l} t={state.t!r}\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.asarray(state.components, dtype="<c16").tobytes())


def read_snapshot_raw(path, return_trailer: bool = False):
    """Parse a snapshot; optionally also return any text after the payload.
    A malformed file raises ValueError naming the file and the field."""
    with open(path, "rb") as fh:
        try:
            line = fh.readline(SNAPSHOT_HEADER_LIMIT)
            parts = line.decode("ascii").split()
            if not parts or parts[0] != SNAPSHOT_MAGIC:
                raise ValueError(f"not a {SNAPSHOT_MAGIC} snapshot")
            if not line.endswith(b"\n"):
                raise ValueError(f"header longer than {SNAPSHOT_HEADER_LIMIT} bytes")
            h = parse_fields(parts[1:], {"kind": str, "n": int, "N": int,
                                         "extent": float, "l": int, "t": float})
            grid = GridSpec(h["kind"], h["n"], h["N"], h["extent"])
            l, nbytes = h["l"], 16 * h["l"] * grid.size
            if l < 1:
                raise ValueError(f"bad field l={l}: need at least one component")
            payload = fh.read(nbytes)
            if len(payload) != nbytes:
                raise ValueError(f"payload has {len(payload)} bytes, expected {nbytes}")
            trailer = fh.read().decode("ascii") if return_trailer else ""
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from None
    comps = np.frombuffer(payload, dtype="<c16").astype(complex).reshape((l,) + grid.shape)
    if return_trailer:
        return grid, comps, h["t"], trailer
    return grid, comps, h["t"]


def read_snapshot(path, model: ModelSpec) -> FieldState:
    grid, comps, t = read_snapshot_raw(path)
    if comps.shape[0] != model.l:
        raise ValueError("snapshot component count does not match the model")
    return FieldState(model, grid, comps, t)
