"""Fokker-Planck evolution of the income density and analytic eigenmodes.

The density obeys the flux-form equation

    df/dt = d/dy { [(M+2) y - C] f + y^2 df/dy }

discretized here as a conservative finite volume scheme on a log-spaced
grid with Chang-Cooper (exponentially fitted) edge fluxes and implicit,
variable-step BDF2 time stepping (Hairer & Wanner, Solving ODEs II, V.1).
Each interval between output times takes equal steps.  The first interval
steps at ``dt``; each later one takes its step size from a BDF2 error
estimate of the interval before, held under a tenth of the grid's own
spatial error, so steps grow once the density has settled.
Every step solves a tridiagonal I - beta L, LU-factored (LAPACK
``dgttrf``) once per beta, by one ``dgttrs`` solve from those
factors; LAPACK loads on the first factorisation, not at import.  Zero-flux
boundaries conserve the trapezoidal mass exactly, and the discrete steady
state matches the closed-form stationary law to O(h^2).  No linear
second-order scheme keeps every density nonnegative at every step (Bolley &
Crouzeix 1978), so a BDF2 step that goes negative is retaken by backward
Euler, whose I - h L is an M-matrix and keeps the density nonnegative.

The ``modes`` family, omega_n = 2 pi n, combines confluent hypergeometric
(Kummer M) functions from scipy's ``hyp1f1``.  Each mode satisfies
L g = +omega_n g, so under df/dt = L f it grows as exp(2 pi n t), and its
mass is not zero (3.8e3 at n = 1, M = C0 = 4, A2 = 1): it is not a
relaxation mode.  The decaying modes are f_ss times a degree-n polynomial,
with rates lambda_n = n (M + 1 - n).  This module evaluates the family and
the residual of the spatial operator on it; it projects no initial data.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import exprel, hyp1f1, rgamma

from . import distlib
from .errors import DataError, DomainError, NumericalError

def kummer_m(a: float, b: float, z):
    """Confluent hypergeometric function M(a, b, z) (Kummer's function).

    ``scipy.special.hyp1f1`` behind the package's contract: ``b`` must not be
    a nonpositive integer and ``z`` must not be NaN (``DomainError``); a
    result that is not finite (past the float range) is a ``NumericalError``.
    Accepts scalar or ndarray ``z``; a 0-d input gives a float.
    """
    if b <= 0.0 and float(b).is_integer():
        raise DomainError(f"M(a, b, z) has a pole at nonpositive integer b={b}")
    arr = np.asarray(z, dtype=float)
    if np.isnan(arr).any():
        raise DomainError("Kummer argument must not be NaN")
    out = hyp1f1(a, b, arr)
    if not np.isfinite(out).all():
        raise NumericalError(f"M(a, b, z) is not finite at a={a}, b={b}")
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class EigenMode:
    """One mode of the omega_n = 2*pi*n family: two Kummer branches with
    L g = +omega_n g, growing as exp(omega_n t) with nonzero mass; the
    decaying modes are f_ss times a polynomial (module docstring).

    alpha_pm = (3 + M +/- s) / 2 and beta_pm = 1 +/- s with
    s = sqrt((1 + M)^2 + 4 omega_n).  ``beta_minus_pole`` flags parameter
    combinations where the minus branch hits a series pole.
    """

    n: int
    omega_n: float
    alpha_plus: float
    alpha_minus: float
    beta_plus: float
    beta_minus: float
    A1: float
    A2: float
    c: float
    beta_minus_pole: bool


def eigenmode_params(n: int, M: float, A1: float = 0.0, A2: float = 1.0,
                     c: float = 1.0) -> EigenMode:
    """Mode skeleton for index n: exponents from (M, omega_n), coefficients as given."""
    if n < 0 or not isinstance(n, (int, np.integer)):
        raise DomainError(f"mode index must be a nonnegative integer, got {n}")
    if not M > 0.0:
        raise DomainError(f"M must be > 0, got {M}")
    if not c > 0.0:
        raise DomainError(f"scale c must be > 0, got {c}")
    if not (math.isfinite(A1) and math.isfinite(A2)):
        raise DomainError(f"mode coefficients must be finite, got A1={A1}, A2={A2}")
    omega = 2.0 * math.pi * n
    if n == 0:
        # s = 1 + M exactly; use the algebraic simplifications so that
        # alpha_plus == beta_plus bitwise (the stationary-mode identity)
        alpha_plus, alpha_minus = M + 2.0, 1.0
        beta_plus, beta_minus = M + 2.0, -M
    else:
        s = math.sqrt((1.0 + M) ** 2 + 4.0 * omega)
        alpha_plus, alpha_minus = (3.0 + M + s) / 2.0, (3.0 + M - s) / 2.0
        beta_plus, beta_minus = 1.0 + s, 1.0 - s
    pole = beta_minus <= 0.0 and float(beta_minus).is_integer()
    return EigenMode(
        n=int(n), omega_n=omega,
        alpha_plus=alpha_plus, alpha_minus=alpha_minus,
        beta_plus=beta_plus, beta_minus=beta_minus,
        A1=A1, A2=A2, c=c, beta_minus_pole=pole,
    )


def steady_state_mode(M: float, C0: float) -> EigenMode:
    """The n = 0 plus-branch mode normalized to equal the stationary density.

    With alpha_plus = beta_plus = M + 2 the Kummer factor collapses to
    exp(-c/y), so A2 = 1 / (C0 Gamma(M+1)) reproduces the closed form.
    """
    return eigenmode_params(0, M, A1=0.0, A2=rgamma(M + 1.0) / C0, c=C0)


@np.errstate(all="ignore")  # a non-finite value is checked below
def eigenmode_eval(mode: EigenMode, y):
    """Evaluate g_n(y) = A1 (c/y)^a- M(a-, b-, -c/y) + A2 (c/y)^a+ M(a+, b+, -c/y).

    A value that overflows is a ``NumericalError``.
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    arr = np.asarray(y, dtype=float)
    if not (arr > 0.0).all():
        raise DomainError("eigenmode argument must be positive income")
    if mode.A1 != 0.0 and mode.beta_minus_pole:
        raise DomainError(
            f"minus branch has a series pole (beta_- = {mode.beta_minus}); "
            "set A1 = 0 or choose different (n, M)")
    x = mode.c / arr
    out = np.zeros_like(arr)
    if mode.A1 != 0.0:
        out += mode.A1 * x ** mode.alpha_minus * kummer_m(
            mode.alpha_minus, mode.beta_minus, -x)
    if mode.A2 != 0.0:
        out += mode.A2 * x ** mode.alpha_plus * kummer_m(
            mode.alpha_plus, mode.beta_plus, -x)
    if not np.isfinite(out).all():
        raise NumericalError(f"eigenmode n={mode.n} overflows on the grid")
    return float(out) if scalar else out


@np.errstate(all="ignore")  # a non-finite operator value is checked below
def eigenmode_operator_residual(mode: EigenMode, M: float, grid: np.ndarray,
                                g: np.ndarray) -> float:
    """Relative residual of L[g] = omega * g on the grid, L the spatial operator.

    L[g] = d/dy{ [(M+2) y - c] g + y^2 g' } is discretized with
    ``np.gradient``'s central differences, second order on a non-uniform
    grid and one-sided at the ends; the returned value is
    max |L[g] - omega g| over the interior, normalized by the largest of the
    operator's component magnitudes.  Reported rather than asserted: the mode
    family satisfies the relation analytically, so this measures the
    discretization error of the check itself.  An operator value that
    overflows is a ``NumericalError``.  ``g`` holds the mode's values on the
    grid, ``eigenmode_eval(mode, grid)``.
    """
    y = np.asarray(grid, dtype=float)
    if y.size < 16:
        raise DomainError("residual grid needs at least 16 points")
    adv = ((M + 2.0) * y - mode.c) * g
    dif = y ** 2 * np.gradient(g, y)
    t1 = np.gradient(adv, y)
    t2 = np.gradient(dif, y)
    lg = t1 + t2
    if not np.isfinite(lg).all():
        raise NumericalError(f"L[g] overflows on the grid for mode n={mode.n}")
    core = slice(2, -2)
    resid = np.abs(lg[core] - mode.omega_n * g[core])
    scale = max(np.abs(t1[core]).max(), np.abs(t2[core]).max(),
                np.abs(mode.omega_n * g[core]).max())
    if scale == 0.0:
        return 0.0
    return float(resid.max() / scale)


# ---------------------------------------------------------------------------
# grid densities and the finite volume evolver
# ---------------------------------------------------------------------------

@dataclass
class GridDensity:
    """Density values on a strictly increasing positive grid at one time.

    Cell widths are chosen so the conserved cell-sum mass coincides with the
    trapezoidal rule on the nodes.
    """

    grid: np.ndarray
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 8:
            raise DataError("grid must be 1-D with at least 8 nodes")
        if not (self.grid[0] > 0.0 and (np.diff(self.grid) > 0.0).all()):
            raise DataError("grid must be strictly increasing and positive")
        if self.values.shape != self.grid.shape:
            raise DataError("values and grid shapes differ")
        if not (np.isfinite(self.grid).all() and np.isfinite(self.values).all()):
            raise DataError("grid and density values must be finite")
        if (self.values < -1e-12).any():
            raise DataError("density values must be nonnegative")
        self.values = np.maximum(self.values, 0.0)

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid))

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if m <= 0.0:
            raise DataError("cannot normalize a zero-mass density")
        return GridDensity(self.grid, self.values / m, self.time)


def log_grid(M: float, C0: float, n_cells: int = 2000,
             span: tuple = (1e-3, 1e3)) -> np.ndarray:
    """Log-spaced grid spanning ``span`` times the mean income C0/M.  An end
    that underflows to 0 or overflows is a ``NumericalError``."""
    scale = C0 / M
    lo, hi = span[0] * scale, span[1] * scale
    if not (lo > 0.0 and hi < math.inf):
        raise NumericalError(f"grid ends {lo:g} and {hi:g} leave the float range "
                             f"at C0={C0:g}, M={M:g}")
    return np.geomspace(lo, hi, n_cells)


def density_on_grid(dist: distlib.SteadyStateIPDF, grid: np.ndarray) -> GridDensity:
    """Sample the closed-form stationary density onto a grid, at unit mass."""
    f = distlib.ipdf_density(dist, grid)
    return GridDensity(np.asarray(grid, dtype=float), f, 0.0).normalized()


def bump_density(grid: np.ndarray, center: float, rel_width: float = 0.1) -> GridDensity:
    """Normalized Gaussian bump in log income, for transient experiments."""
    y = np.asarray(grid, dtype=float)
    if not center > 0.0:
        raise DomainError("bump center must be positive")
    with np.errstate(over="ignore"):     # exp(-inf) = 0 far from a narrow bump
        f = np.exp(-0.5 * ((np.log(y) - math.log(center)) / rel_width) ** 2)
    return GridDensity(y, f, 0.0).normalized()


def l1_distance(a: GridDensity, b: GridDensity) -> float:
    if a.grid.shape != b.grid.shape or not np.array_equal(a.grid, b.grid):
        raise DataError("L1 distance requires identical grids")
    return float(np.trapezoid(np.abs(a.values - b.values), a.grid))


class _FluxOperator:
    """Tridiagonal Chang-Cooper operator for fixed grid and labour rate C."""

    @np.errstate(all="ignore")  # a non-finite coefficient is checked below
    def __init__(self, grid: np.ndarray, M: float, c_value: float):
        y = grid
        edges = np.empty(y.size + 1)
        edges[0] = y[0]
        edges[1:-1] = 0.5 * (y[:-1] + y[1:])
        edges[-1] = y[-1]
        widths = np.diff(edges)          # cell widths; sum == trapezoid weights
        h = np.diff(y)                   # node spacing
        e_in = edges[1:-1]               # interior edge positions
        d_edge = e_in ** 2
        a_edge = (M + 2.0) * e_in - c_value
        w = self.w = a_edge * h / d_edge
        g = d_edge / h
        # the exponential-fitting weights B(+-w), B(w) = w / (exp(w) - 1)
        self.b_plus = 1.0 / exprel(w)    # weight on the left node
        self.b_minus = 1.0 / exprel(-w)  # weight on the right node
        # flux at interior edge j (between nodes j-1, j):
        #   J_j = g_j * (b_minus_j * f_j - b_plus_j * f_{j-1})
        self.g = g
        gp = g * self.b_plus             # weight on the edge's left node
        gm = g * self.b_minus            # weight on the edge's right node
        # (Lf)_i = (J_right - J_left) / width_i with J_j = gm_j f_right - gp_j f_left;
        # the off-diagonals have the n - 1 entries that dgttrf takes
        self.lower = gp / widths[1:]
        self.upper = gm / widths[:-1]
        self.diag = -np.append(gp, 0.0) / widths - np.append(0.0, gm) / widths
        if not all(np.isfinite(band).all() for band in (self.lower, self.diag, self.upper)):
            raise NumericalError(f"Fokker-Planck operator is not finite at C={c_value:g}")

    def implicit_factors(self, beta: float) -> functools.partial:
        """LU factors of the tridiagonal (I - beta L), from LAPACK ``dgttrf``,
        bound to the ``dgttrs`` solve that uses them.

        ``scipy.linalg`` is imported here, where a matrix is first factored,
        so that no command but ``evolve`` loads it."""
        from scipy.linalg.lapack import dgttrf, dgttrs
        *factors, info = dgttrf(-beta * self.lower, 1.0 - beta * self.diag,
                                -beta * self.upper)
        if info > 0:
            raise NumericalError(f"I - beta L is singular: zero pivot in row {info}")
        return functools.partial(dgttrs, *factors)

    def edge_fluxes(self, f: np.ndarray) -> np.ndarray:
        return self.g * (self.b_minus * f[1:] - self.b_plus * f[:-1])

    def steady_state(self, grid: np.ndarray) -> np.ndarray:
        """The scheme's zero-flux state on its grid, at unit trapezoidal mass:
        f_j / f_(j-1) = b_plus_j / b_minus_j = exp(-w_j)."""
        log_f = np.concatenate([[0.0], -np.cumsum(self.w)])
        f = np.exp(log_f - log_f.max())
        return f / np.trapezoid(f, grid)


def solve_banded(factors: functools.partial, rhs: np.ndarray) -> np.ndarray:
    """One implicit step: solve (I - beta L) x = rhs from
    ``_FluxOperator.implicit_factors``.

    ``evolve`` calls it through this module attribute once per step, and
    once more for a BDF2 step that it retakes by backward Euler.  Only
    perfbench holds it, to count the calls as steps (``fpsolve.evolve.steps``)
    until it reads the count from ``evolve``'s report (ROADMAP items 3 and 6).
    """
    return factors(rhs)[0]


# omega = h / h_prev above this loses zero-stability of variable-step BDF2
BDF2_MAX_RATIO = 1.0 + math.sqrt(2.0)
# a BDF2 step's local error is about this times h^3 f''' (Hairer, Norsett &
# Wanner, Solving ODEs I, III.2)
BDF2_ERROR_CONSTANT = 2.0 / 9.0


def _spatial_floor(op: _FluxOperator, grid: np.ndarray, M: float, C: float) -> float:
    """L1 distance between the scheme's zero-flux steady state and the
    closed-form stationary law sampled on the grid, both at unit mass: the
    error no time step can remove.  0 when the law's mass on the grid is 0
    or not finite."""
    law = distlib.ipdf_density(distlib.SteadyStateIPDF(M, C), grid)
    mass = np.trapezoid(law, grid)
    if not 0.0 < mass < math.inf:
        return 0.0
    return float(np.trapezoid(np.abs(op.steady_state(grid) - law / mass), grid))


def evolve(f0: GridDensity, M: float, C: float, t_end: float, dt: float = None,
           snapshot_times: Sequence[float] = (), stats: dict = None) -> list:
    """Evolve a density to t_end; returns one state per distinct output
    time, in time order, the last at the end.  The output times are the
    snapshot times and t_end.

    Variable-step BDF2 on the Chang-Cooper operator L at the constant
    labour rate C.  Each interval between output times is split into the
    fewest equal steps of at most its step size (to a relative 1e-9, so
    that rounding adds no step), and at least one; the steps land on every
    output time.  With omega = h / h_prev, a step solves

        (I - beta L) f+ = ((1 + omega)^2 f - omega^2 f_prev) / (1 + 2 omega),
        beta = h (1 + omega) / (1 + 2 omega).

    The first interval's step size is ``dt``.  After an interval of k >= 3
    steps of h, its accumulated time error is estimated from the third
    difference of its last four states, k c L1(f_n - 3 f_n-1 + 3 f_n-2 - f_n-3)
    with c the BDF2 error constant 2/9, and the next interval's step size
    is h (tol / estimate)^(1/3), clipped to [dt, 2 h] (Hairer, Norsett &
    Wanner, Solving ODEs I, II.4).  ``tol`` is a tenth of the grid's
    ``_spatial_floor``, so the time error is kept below the error of the
    grid itself.  The step size therefore never falls below ``dt`` and at
    most doubles per output time.

    The first step is backward Euler (I - h L) f+ = f, and so is any step
    whose omega exceeds 1 + sqrt(2), the zero-stability limit.  A BDF2 step
    whose density dips below -1e-12 (or is NaN) is retaken by backward
    Euler, which keeps it nonnegative (module docstring); if that dips too,
    the result is a ``NumericalError``.  L is built once; I - beta L is
    factored once per beta, and a two-entry ``functools.lru_cache`` keeps
    the factors of the last two, so a backward Euler step among BDF2 steps
    does not evict theirs.  Each solve is one ``solve_banded`` call.
    Zero-flux boundaries conserve mass to solver roundoff.

    ``dt``, the first interval's step size and the smallest, defaults to
    0.25 / (M + 2).  A ``dt`` above 0.5 / (M + 2) under-resolves the fastest
    drift scale and is refused with a suggestion; a step size grown from
    ``dt`` may pass that bound only as far as the error estimate allows.  If
    ``stats`` is a dict, it receives the counts ``steps``,
    ``factorisations`` and ``backward_euler_steps`` (the start step, the
    restarts after a ratio above the limit, and the retaken steps), and
    ``interval_steps``, the step count of each output interval.
    """
    if not M > 0.0:
        raise DomainError(f"M must be > 0, got {M}")
    if not C > 0.0:
        raise DomainError(f"labour rate must be > 0, got {C}")
    if not f0.time < t_end < math.inf:
        raise DomainError(f"t_end must be finite and exceed the initial time, got {t_end}")
    dt_max, dt_default = 0.5 / (M + 2.0), 0.25 / (M + 2.0)
    if dt is None:
        dt = dt_default
    if not 0.0 < dt <= dt_max:
        raise NumericalError(
            f"dt={dt:g} exceeds the transient-resolution bound {dt_max:g} "
            f"for M={M:g}; suggested dt={dt_default:g}")
    snap_times = {float(t) for t in snapshot_times}
    if not all(f0.time < t <= t_end for t in snap_times):
        raise DomainError("snapshot times must lie within (time, t_end]")

    op = _FluxOperator(f0.grid, M, C)
    tol = 0.1 * _spatial_floor(op, f0.grid, M, C)
    recent = collections.deque([f0.values], maxlen=4)   # the last four states
    h_prev, h_next, t = 0.0, dt, f0.time
    states, interval_steps = [], []
    backward_euler_steps = 0
    factored = functools.lru_cache(maxsize=2)(op.implicit_factors)

    for target in sorted({*snap_times, float(t_end)}):
        t0, span = t, target - t
        n = max(1, math.ceil(span / h_next - 1e-9))
        h = span / n
        for k in range(1, n + 1):
            t = target if k == n else t0 + k * h
            f = recent[-1]
            omega = h / h_prev if h_prev else math.inf
            bdf2 = omega <= BDF2_MAX_RATIO
            if bdf2:
                d = 1.0 + 2.0 * omega
                rhs = (1.0 + omega) ** 2 / d * f
                rhs -= omega ** 2 / d * recent[-2]
                f_new = solve_banded(factored(h * (1.0 + omega) / d), rhs)
                fmin = f_new.min()
            if not (bdf2 and fmin >= -1e-12):     # a NaN fails this test too
                backward_euler_steps += 1
                f_new = solve_banded(factored(h), f)
                fmin = f_new.min()
                if not fmin >= -1e-12:
                    raise NumericalError(f"density minimum {fmin:g} at t={t:g}")
            if fmin < 0.0:
                np.maximum(f_new, 0.0, out=f_new)
            recent.append(f_new)
            h_prev = h
        if n >= 3:
            third = np.abs(np.diff(recent, 3, axis=0)[0])
            estimate = n * BDF2_ERROR_CONSTANT * np.trapezoid(third, f0.grid)
            growth = (tol / estimate) ** (1.0 / 3.0) if estimate > 0.0 else 2.0
            h_next = min(2.0 * h, max(dt, h * growth))
        interval_steps.append(n)
        states.append(GridDensity(f0.grid, recent[-1], t))
    if stats is not None:
        stats.update(steps=sum(interval_steps), interval_steps=interval_steps,
                     factorisations=factored.cache_info().misses,
                     backward_euler_steps=backward_euler_steps)
    return states


def steady_state_residual(M: float, C0: float, grid: np.ndarray = None) -> float:
    """Sup-norm of the scheme's edge fluxes on the closed-form stationary density.

    Normalized by the largest single-sided flux magnitude, so a correct
    density gives an O(h^2)-small value while a wrong power law gives O(1).
    """
    if grid is None:
        grid = log_grid(M, C0)
    y = np.asarray(grid, dtype=float)
    dist = distlib.SteadyStateIPDF(M, C0)
    f = distlib.ipdf_density(dist, y)
    op = _FluxOperator(y, M, C0)
    flux = op.edge_fluxes(f)
    scale = op.g * (op.b_minus * f[1:] + op.b_plus * f[:-1])
    return float(np.abs(flux).max() / scale.max())
