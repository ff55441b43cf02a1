"""Discretizations: periodic Cartesian boxes and truncated radial meshes.

Two grid kinds cover the laboratory:

* Cartesian: the box [-L, L)^n with N points per axis and periodic
  boundaries.  Differential operators are exact Fourier multipliers with
  wavenumbers xi = pi m / L, quadrature is the plain Riemann sum h^n sum f
  (trapezoid = Riemann sum under periodicity).  Every multiplier is
  applied by one routine, :func:`_fourier_multiply`.

* Radial: nodes r_i = i h on [0, R_max], h = R_max / N, holding radially
  symmetric profiles in dimension 1 <= n <= 5, with a Dirichlet value at
  r_N = R_max.  The quadrature weights are cell volumes: omega_{n-1} h r_i^{n-1}
  for i >= 1 (omega_{n-1} = 2 pi^{n/2} / Gamma(n/2)), the ball of radius h/2
  at the origin.  The Laplacian is a second-order finite-volume stencil,
  self-adjoint in that inner product (:func:`radial_laplacian_banded`), and
  K is its Dirichlet form, so Crank-Nicolson keeps the charge.

Truncation at R_max is justified by the exponential decay of the localized
profiles this grid is meant for; callers pick R_max so the tail is below
rounding relative to the peak.

The operator -gamma_k Lap + b_k of every solver, stepper and residual is
discretized here only: :func:`apply_laplacian` (on radial grids the flux
form of the stencil in :func:`radial_laplacian_banded`'s docstring, whose
bands are factored), :func:`shifted_apply` and its inverse
:func:`shifted_solver`, the linear substep :func:`propagator`, and the
kinetic functional :func:`weighted_grad_sq`.  The variance rate
:func:`qnls.functionals.variance_rate` applies :func:`apply_laplacian` too,
so it is the exact time derivative of V under the semi-discrete flow.

Cartesian transforms are numpy's (``np.fft``), so Cartesian runs load no
scipy.  Radial grids factor their matrices with LAPACK: :func:`_lapack` loads
scipy's compiled ``scipy.linalg._flapack`` from its extension file, running no
scipy package code, when the first radial :class:`GridSpec` is built.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import machinery, util

import numpy as np
from numpy.linalg import LinAlgError

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
        if not 0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if self.kind == RADIAL:
            _lapack()  # load LAPACK now rather than in the first solve

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n if self.kind == CARTESIAN else (self.N,)

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.N if self.kind == CARTESIAN else self.extent / self.N

    @property
    def size(self) -> int:
        return math.prod(self.shape)  # exact: a header's N**n may pass int64

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


@lru_cache(maxsize=None)
def _lapack():
    """``scipy.linalg._flapack``, loaded from its extension file without running
    scipy's package code; it is shared with scipy.linalg through sys.modules."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = util.find_spec("scipy")  # finds the directory, runs no scipy code
        paths = [os.path.join(d, "linalg", "_flapack" + x) for x in machinery.EXTENSION_SUFFIXES
                 for d in (scipy.submodule_search_locations if scipy else ())]
        path = next(filter(os.path.isfile, paths), None)
        if path is None:
            raise ImportError(f"radial grids need {name} from scipy>=1.13")
        spec = util.spec_from_file_location(name, path)
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@lru_cache(maxsize=64)
def _cartesian_xi(grid: GridSpec) -> np.ndarray:
    """The wavenumbers xi = pi m / L along one axis, in fftfreq order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.h)


@lru_cache(maxsize=64)
def _cartesian_ksq(grid: GridSpec) -> np.ndarray:
    """|xi|^2 on the grid's spectrum, summed over the open mesh of the axes."""
    return sum(np.ix_(*[_cartesian_xi(grid) ** 2] * grid.n))


@lru_cache(maxsize=64)
def _cartesian_half_ksq(grid: GridSpec) -> np.ndarray:
    """|xi|^2 on the half spectrum of rfftn (last axis cut to N//2 + 1)."""
    return np.ascontiguousarray(_cartesian_ksq(grid)[..., :grid.N // 2 + 1])


def _irfftn(grid: GridSpec, spectrum: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """irfftn over the grid axes, its complex passes in spectrum's memory."""
    for axis in range(-grid.n, -1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=grid.N, axis=-1, out=out)


def _fourier_multiply(grid: GridSpec, values: np.ndarray, mult: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """F^{-1}[mult F v] over the grid axes for each field v of values (leading
    axes free), into out when given: the one Fourier multiplier of every
    Cartesian operator.  A complex stack is transformed whole, in out's
    memory (out may be values), with mult on the full spectrum.  A real stack
    stays real, with a real mult on the rfftn half spectrum (last axis
    N//2 + 1); its fields go one at a time through one half spectrum of a
    field's size, scaled through the .real and .imag views (a complex times
    real product would cast mult to a complex temporary).  On 3x256^2 that
    loop runs in about 0.7 of the time of one stacked transform."""
    axes = tuple(range(-grid.n, 0))
    if np.iscomplexobj(values):
        spectrum = np.fft.fftn(values, axes=axes, out=out)
        spectrum *= mult
        return np.fft.ifftn(spectrum, axes=axes, out=spectrum)
    if out is None:
        out = np.empty_like(values)
    spectrum = np.empty(_cartesian_half_ksq(grid).shape, dtype=complex)
    fields, half = (-1,) + grid.shape, (-1,) + spectrum.shape
    mults = np.broadcast_to(mult, values.shape[:values.ndim - grid.n] + spectrum.shape)
    for v, o, m in zip(values.reshape(fields), out.reshape(fields), mults.reshape(half)):
        np.fft.rfftn(v, axes=axes, out=spectrum)
        np.multiply(spectrum.real, m, out=spectrum.real)
        np.multiply(spectrum.imag, m, out=spectrum.imag)
        _irfftn(grid, spectrum, o)
    return out


def spectral_shift(grid: GridSpec, values: np.ndarray, y: float) -> np.ndarray:
    """Periodic translation by y on a Cartesian n=1 grid (band-limited exact),
    as a new complex array."""
    if grid.kind != CARTESIAN or grid.n != 1:
        raise ValueError("spectral translation is a 1-d Cartesian operation")
    return _fourier_multiply(grid, np.asarray(values, dtype=complex),
                             np.exp(-1j * _cartesian_xi(grid) * y))


@lru_cache(maxsize=64)
def _coords(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """One coordinate array per axis of grid.shape, broadcastable to it: the
    Cartesian coordinates x_1..x_n, or (r,) on a radial grid."""
    x = grid.axis()
    ndim = len(grid.shape)
    out = []
    for axis in range(ndim):
        shape = [1] * ndim
        shape[axis] = grid.N
        out.append(x.reshape(shape))
    return tuple(out)


@lru_cache(maxsize=64)
def radius_sq(grid: GridSpec) -> np.ndarray:
    """|x|^2 on the grid (Cartesian coordinate values, or r^2 on radial)."""
    out = np.zeros(grid.shape)
    for x in _coords(grid):
        out = out + x**2
    return out


@lru_cache(maxsize=64)
def quadrature_weights(grid: GridSpec) -> np.ndarray:
    """Weights w with integrate(f) = sum(w * f)."""
    if grid.kind == CARTESIAN:
        return np.full(grid.shape, grid.h**grid.n)
    w = grid.h * grid.axis() ** (grid.n - 1)
    w[0] = (grid.h / 2.0) ** grid.n / grid.n  # the ball of radius h/2
    return surface_area_coefficient(grid.n) * w


@lru_cache(maxsize=64)
def _radial_faces(grid: GridSpec) -> np.ndarray:
    """Face areas S_{i+1/2} = n C_i / r_{i+1/2}, C_i = sum_{j<=i} w_j (a ball's
    area is n V(r) / r), for which Lap_h r^2 = 2n holds exactly."""
    return grid.n * np.cumsum(quadrature_weights(grid)) / (grid.h * (np.arange(grid.N) + 0.5))


@lru_cache(maxsize=64)
def radial_laplacian_banded(grid: GridSpec) -> np.ndarray:
    """The radial Laplacian as a real (3, N) banded matrix.

    Row 0 holds the superdiagonal a[i-1, i] at column i, row 1 the diagonal
    and row 2 the subdiagonal a[i+1, i] at column i (the LAPACK band
    layout).  :func:`shifted_solver` factors these bands;
    :func:`apply_laplacian` evaluates the same formula in flux form.  With
    the faces S of
    :func:`_radial_faces`, S_{-1/2} = 0 and u_N = 0, (Lap_h u)_i =
    [S_{i+1/2} (u_{i+1} - u_i) - S_{i-1/2} (u_i - u_{i-1})] / (h w_i), so W Lap_h
    is symmetric (summation by parts; Mattsson & Nordstrom 2004).
    """
    if grid.kind != RADIAL:
        raise ValueError("banded Laplacian is only defined on radial grids")
    S, hw = _radial_faces(grid), grid.h * quadrature_weights(grid)
    ab = np.zeros((3, grid.N))
    ab[0, 1:] = S[:-1] / hw[:-1]  # a[i, i+1] = S_{i+1/2} / (h w_i)
    ab[2, :-1] = S[:-1] / hw[1:]  # a[i+1, i] = S_{i+1/2} / (h w_{i+1})
    ab[1] = -S / hw  # the last face meets u_N = 0
    ab[1, 1:] -= ab[2, :-1]
    return ab


def shifted_solver(grid: GridSpec, shift, scale):
    """Return solve(rhs, out=None) applying (shift_k I - scale_k Lap_h)^{-1}
    to component k of a stack of fields, into out when given (rhs is not
    modified).

    Cartesian grids multiply the half spectrum of a real right-hand side by
    the reciprocal of shift_k + scale_k |xi|^2, formed once here and the
    solver's only memory (real coefficients; the result is real; a complex
    right-hand side raises ValueError before any transform).  Radial
    grids factor the l tridiagonal matrices once, here, as one
    block-tridiagonal matrix of size l N with zero sub- and superdiagonals at
    the block seams (LAPACK's LU with partial pivoting, dgttrf on float64
    coefficients, zgttrf on complex128 ones, from :func:`_lapack`); solve
    runs one ?gttrs over the flattened stack.  Pivoting never crosses a zero
    subdiagonal, so each block is factored and solved exactly as it would be
    on its own.  Raises LinAlgError when a radial matrix is singular.
    """
    if grid.kind == CARTESIAN:
        ksq = _cartesian_half_ksq(grid)
        # multiplying is about 3x faster than dividing
        recip = 1.0 / np.stack([c * ksq + s for s, c in zip(shift, scale)])

        def solve_cartesian(rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            if np.iscomplexobj(rhs):
                raise ValueError("the Cartesian resolvent takes real fields")
            return _fourier_multiply(grid, rhs, recip, out)

        return solve_cartesian
    ab = radial_laplacian_banded(grid)
    shift, scale = np.asarray(shift)[:, None], np.asarray(scale)[:, None]
    sub = -scale * np.concatenate([ab[2, :-1], [0.0]])
    sup = -scale * np.concatenate([ab[0, 1:], [0.0]])
    bands = (sub.ravel()[:-1], (shift - scale * ab[1]).ravel(), sup.ravel()[:-1])
    t = "z" if np.result_type(shift, scale, float).kind == "c" else "d"  # gttrf casts the bands
    gttrf, gttrs = (getattr(_lapack(), t + routine) for routine in ("gttrf", "gttrs"))
    *lu, info = gttrf(*bands, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
    if info != 0:
        raise LinAlgError(f"radial matrix is singular ({t}gttrf info={info})")

    def solve(rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x, info = gttrs(*lu, rhs.reshape(-1))
        if info != 0:
            raise LinAlgError(f"{t}gttrs failed (info={info})")
        if out is None:
            return x.reshape(rhs.shape)
        out[...] = x.reshape(rhs.shape)
        return out

    return solve


def apply_laplacian(grid: GridSpec, values: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Discrete Laplacian of one field or a stack (leading axes free); real in,
    real out; into out (the shape of values, not overlapping it) when given.
    Cartesian grids multiply by -|xi|^2; radial grids difference the face
    fluxes of :func:`radial_laplacian_banded`'s formula, which its bands
    equal to rounding."""
    if grid.kind == CARTESIAN:
        ksq = _cartesian_ksq(grid) if np.iscomplexobj(values) else _cartesian_half_ksq(grid)
        return _fourier_multiply(grid, values, -ksq, out)
    flux = np.multiply(values, -1.0)  # S_{i+1/2} (u_{i+1} - u_i), u_N = 0
    flux[..., :-1] += values[..., 1:]
    flux *= _radial_faces(grid)
    lap = np.empty_like(flux) if out is None else out
    lap[..., 0] = flux[..., 0]
    np.subtract(flux[..., 1:], flux[..., :-1], out=lap[..., 1:])
    lap /= grid.h * quadrature_weights(grid)
    return lap


def shifted_apply(grid: GridSpec, shift, scale, values: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """shift_k u_k - scale_k Lap_h u_k for each field u_k of a stack (leading axis k),
    into out when given; real coefficients.  No temporary exceeds one field."""
    ones = (1,) * len(grid.shape)
    lap = apply_laplacian(grid, values, out)
    lap *= -np.reshape(scale, (-1,) + ones)
    for lap_k, shift_k, u_k in zip(lap, np.reshape(shift, -1), values):
        lap_k += shift_k * u_k
    return lap


def propagator(grid: GridSpec, dt: float, alpha, beta, gamma):
    """Return step(u, overwrite_x=False), the linear substep of length dt of
    d_t u_k = (i/alpha_k)(gamma_k Lap u_k - beta_k u_k) for a stack u, as a
    new array (with overwrite_x, in the memory of a complex u on Cartesian
    grids): the exact
    Fourier phases exp(i dt (-gamma_k |xi|^2 - beta_k)/alpha_k)
    on Cartesian grids; on radial grids Crank-Nicolson, which with
    c_k = i dt/(2 alpha_k) and M_k = (1 + c_k beta_k) I - c_k gamma_k Lap_h
    solves M_k u_k' = 2 u_k - M_k u_k, that is u_k' = 2 M_k^{-1} u_k - u_k.
    """
    if grid.kind == CARTESIAN:
        ksq = _cartesian_ksq(grid)
        # built per component: one broadcast over the stack slows the later FFTs
        phases = np.stack([np.exp(1j * dt / a * (-g * ksq - b))
                           for a, b, g in zip(alpha, beta, gamma)])
        return lambda u, overwrite_x=False: _fourier_multiply(grid, u, phases,
                                                              u if overwrite_x else None)
    c = 1j * dt / (2.0 * alpha)
    solve = shifted_solver(grid, 1.0 + c * beta, c * gamma)

    def step(u: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        out = solve(u)  # M^{-1} u, a new array
        return np.subtract(np.multiply(out, 2.0, out=out), u, out=out)

    return step


def integrate(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of a real scalar field."""
    return float(np.sum(quadrature_weights(grid) * np.real(values)))


def pairing(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> float:
    """sum_k integral a_k b_k over two real stacks of fields (leading axis k),
    as one np.vecdot on Cartesian grids; no full-size temporary."""
    if grid.kind == CARTESIAN:
        return float(grid.h**grid.n * np.vecdot(a.reshape(-1), b.reshape(-1)))
    return float(np.vecdot(np.vecdot(a, b, axis=0), quadrature_weights(grid)))


@lru_cache(maxsize=128)
def _square_weights(grid: GridSpec, faces: bool) -> np.ndarray:
    """The radial weights of :func:`_sum_sq`, each one twice."""
    return np.repeat(_radial_faces(grid) / grid.h if faces else quadrature_weights(grid), 2)


def _sum_sq(grid: GridSpec, values: np.ndarray, faces: bool = False) -> np.ndarray:
    """sum_i w_i |f_i|^2 over the grid axes of each field of values (leading
    axes free), w the quadrature weights (h^n on Cartesian grids) or, with
    faces, the radial face areas over h: one pass over the real view (re and
    im interleaved), on Cartesian grids with no temporary.  np.vecdot reduces
    each field on its own, so stacked sums equal per-field sums bit for bit."""
    values = np.ascontiguousarray(values)
    lead = values.shape[:values.ndim - len(grid.shape)]
    rows = values.view(values.real.dtype).reshape(lead + (-1,))
    if grid.kind == CARTESIAN:
        return grid.h**grid.n * np.vecdot(rows, rows)
    w = _square_weights(grid, faces)
    return np.vecdot(np.square(rows), w if np.iscomplexobj(values) else w[::2])


def norm_sq(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |f|^2, summed over the fields of a stack."""
    return float(np.sum(_sum_sq(grid, values)))


def weighted_density(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k weights_k |f_k|^2 pointwise over a stack of fields f_k (leading axis k)."""
    sq = np.square(values.real)
    if np.iscomplexobj(values):
        sq += np.square(values.imag)
    return np.tensordot(weights, sq, axes=1)


def weighted_norm_sq(grid: GridSpec, weights: np.ndarray, values: np.ndarray) -> float:
    """sum_k weights_k ||f_k||^2 over a stack of fields f_k (leading axis k)."""
    return float((weights * _sum_sq(grid, values)).sum())


def _radial_grad_sq(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The Dirichlet form sum_i S_{i+1/2} |f_{i+1} - f_i|^2 / h per field (the
    last axis is r, f_N = 0): the quadratic form of -Lap_h in the quadrature
    inner product, so K and the solvers share one operator."""
    diff = np.negative(values)
    diff[..., :-1] += values[..., 1:]
    return _sum_sq(grid, diff, faces=True)


def grad_sq_integral(grid: GridSpec, values: np.ndarray) -> float:
    """Quadrature of |grad f|^2 (spectral on Cartesian, the Dirichlet form on radial)."""
    if grid.kind == CARTESIAN:
        axes = tuple(range(-grid.n, 0))
        vhat = np.fft.fftn(values, axes=axes)
        return float(grid.h**grid.n / grid.N**grid.n
                     * np.sum(_cartesian_ksq(grid) * np.abs(vhat) ** 2))
    return float(_radial_grad_sq(grid, values))


def weighted_grad_sq(grid: GridSpec, weights: np.ndarray, values: np.ndarray) -> float:
    """sum_k weights_k ||grad f_k||^2 over a stack of fields f_k (leading axis k)."""
    if grid.kind == RADIAL:
        return float((weights * _radial_grad_sq(grid, values)).sum())
    # per component: at 3x128^2 one stacked fftn takes 1.6x the time and 3x the peak memory
    return float(sum(w * grad_sq_integral(grid, f) for w, f in zip(weights, values)))


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

    def with_components(self, components: np.ndarray, t: float | None = None) -> "FieldState":
        return FieldState(self.model, self.grid, components, self.t if t is None else t)

    def linf(self) -> np.ndarray:
        axes = tuple(range(1, self.components.ndim))
        return np.max(np.abs(self.components), axis=axes)


def boundary_mass_fraction(state: FieldState) -> float:
    """Fraction of the weighted mass density beyond 0.9 of the box half-width.

    Only meaningful on Cartesian grids, where the variance weight |x|^2 is a
    non-periodic coordinate; radial grids return the mass in the outer 10%.
    """
    grid = state.grid
    dens = weighted_density(state.model.coeffs.charge_weights, state.components)
    total = integrate(grid, dens)
    if total == 0.0:
        return 0.0
    outside = np.zeros(grid.shape, dtype=bool)
    for x in _coords(grid):
        outside = outside | (np.abs(x) > 0.9 * grid.extent)
    tail = float(np.sum(quadrature_weights(grid)[outside] * dens[outside]))
    return tail / total


# ---------------------------------------------------------------------------
# symmetric-decreasing rearrangement


def symmetric_decreasing_rearrangement(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Equimeasurable non-increasing profile of a non-negative field (the real
    part of values, of the grid's shape), as a real array.

    On Cartesian n=1 all quadrature weights agree, so the rearrangement is a
    pure permutation: sorted values are laid out from the center (x=0)
    outward, alternating sides, which preserves every quadrature sum of the
    values exactly.  On radial grids the weights r^{n-1} differ per node and
    the values are re-binned through the quantile function of the weighted
    distribution, preserving super-level measure up to bin resolution and
    the weighted L^1 norm exactly.
    """
    vals = np.real(values)
    if vals.shape != grid.shape:
        raise ValueError(f"values shape {vals.shape} != grid shape {grid.shape}")
    if np.min(vals) < -1e-13 * max(1.0, float(np.max(np.abs(vals)))):
        raise ValueError("rearrangement requires non-negative values")
    vals = np.maximum(vals, 0.0)
    if grid.kind == CARTESIAN:
        if grid.n != 1:
            raise ValueError("Cartesian rearrangement is only provided for n=1")
        order = np.argsort(np.abs(grid.axis()), kind="stable")
        out = np.zeros_like(vals)
        out[order] = np.sort(vals)[::-1]
        return out

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
    return (hi - lo) / w  # every radial weight is positive


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
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left < nbytes:  # checked before reading: a header may claim any size
                raise ValueError(f"payload has {left} bytes, expected {nbytes}")
            payload = fh.read(nbytes)
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
