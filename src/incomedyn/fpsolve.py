"""Fokker-Planck evolution of the income density and analytic eigenmodes.

The density obeys the flux-form equation

    df/dt = d/dy { [(M+2) y - C] f + y^2 df/dy }

discretized here as a conservative finite volume scheme on a log-spaced
grid with Chang-Cooper (exponentially fitted) edge fluxes.  Zero-flux
boundaries conserve the trapezoidal mass exactly, and the discrete steady
state matches the closed-form stationary law to O(h^2).

In time the scheme is exact: at a constant labour rate the operator L is
constant, and ``evolve`` writes each snapshot as exp(tL) f0.  The
Chang-Cooper weights are positive, so every product of opposite
off-diagonals of the tridiagonal L is positive, and a diagonal similarity
makes L symmetric: its spectrum is real, and it lies on the negative real
axis, 0 being the steady state's.  In terms of the scheme's steady state
f_ss, L is self-adjoint in the inner product sum(widths x y / f_ss).  The
trapezoidal rule on a parabolic contour around that axis then converges
geometrically (Trefethen, Weideman & Schmelzer 2006, BIT 46:653; Weideman
& Trefethen 2007, Math. Comp. 76:1341), at one complex tridiagonal solve
(LAPACK ``zgtsv``) per node, and the inner product bounds its L1 error.
LAPACK loads on the first solve, not at import.  The off-diagonals of L
are positive, so exp(tL) keeps a density nonnegative: a negative entry of
a snapshot is the error of the rule.

The ``modes`` family, omega_n = 2 pi n, combines confluent hypergeometric
(Kummer M) functions from scipy's ``hyp1f1``.  Each mode satisfies
L g = +omega_n g, so under df/dt = L f it grows as exp(2 pi n t), and its
mass is not zero (3.8e3 at n = 1, M = C0 = 4, A2 = 1): it is not a
relaxation mode.  The decaying modes are f_ss times a degree-n polynomial,
with rates lambda_n = n (M + 1 - n).  This module evaluates the family and
the residual of the spatial operator on it; it projects no initial data.
"""

from __future__ import annotations

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
    distlib.SteadyStateIPDF(M, c)      # the law's domain checks
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


def log_spaced(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.geomspace(lo, hi, n)``, the package's one log-spaced grid.  An end
    that underflows to 0 or overflows, or a step below the smallest normal
    float, as at a subnormal or huge ``C0``, is a ``NumericalError``."""
    if lo > 0.0 and hi < math.inf:
        grid = np.geomspace(lo, hi, n)
        if np.diff(grid).min(initial=math.inf) >= np.finfo(float).tiny:
            return grid
    raise NumericalError(f"log-spaced grid of {n} points from {lo:g} to {hi:g}: "
                         f"an end or a step leaves the normal float range")


def log_grid(M: float, C0: float, n_cells: int = 2000,
             span: tuple = (1e-3, 1e3)) -> np.ndarray:
    """``log_spaced`` grid spanning ``span`` times the mean income C0/M."""
    scale = C0 / M
    return log_spaced(span[0] * scale, span[1] * scale, n_cells)


def _at_unit_mass(grid: np.ndarray, f: np.ndarray) -> GridDensity:
    mass = np.trapezoid(f, grid)
    if mass <= 0.0:
        raise DataError("cannot normalize a zero-mass density")
    return GridDensity(grid, f / mass)


def density_on_grid(dist: distlib.SteadyStateIPDF, grid: np.ndarray) -> GridDensity:
    """Sample the closed-form stationary density onto a grid, at unit mass."""
    y = np.asarray(grid, dtype=float)
    return _at_unit_mass(y, distlib.ipdf_density(dist, y))


def bump_density(grid: np.ndarray, center: float, rel_width: float = 0.1) -> GridDensity:
    """Normalized Gaussian bump in log income, for transient experiments."""
    y = np.asarray(grid, dtype=float)
    if not center > 0.0:
        raise DomainError("bump center must be positive")
    with np.errstate(over="ignore"):     # exp(-inf) = 0 far from a narrow bump
        f = np.exp(-0.5 * ((np.log(y) - math.log(center)) / rel_width) ** 2)
    return _at_unit_mass(y, f)


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
        widths = self.widths = np.diff(edges)   # cell widths; the trapezoid weights
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
        # the off-diagonals have the n - 1 entries that LAPACK's tridiagonal solvers take
        self.lower = gp / widths[1:]
        self.upper = gm / widths[:-1]
        self.diag = -np.append(gp, 0.0) / widths - np.append(0.0, gm) / widths
        if not all(np.isfinite(band).all() for band in (self.lower, self.diag, self.upper)):
            raise NumericalError(f"Fokker-Planck operator is not finite at C={c_value:g}")

    def edge_fluxes(self, f: np.ndarray) -> np.ndarray:
        return self.g * (self.b_minus * f[1:] - self.b_plus * f[:-1])

    def steady_state(self, grid: np.ndarray) -> np.ndarray:
        """The scheme's zero-flux state on its grid, at unit trapezoidal mass:
        f_j / f_(j-1) = b_plus_j / b_minus_j = exp(-w_j)."""
        log_f = np.concatenate([[0.0], -np.cumsum(self.w)])
        f = np.exp(log_f - log_f.max())
        return f / np.trapezoid(f, grid)


def solve_banded(op: _FluxOperator, z: complex, rhs: np.ndarray) -> np.ndarray:
    """One resolvent solve: (z I - L) x = rhs for the operator L of ``op``,
    by LAPACK ``zgtsv``, which factors the complex tridiagonal and solves
    in one call; each node's matrix serves one right-hand side, so no
    factors are kept.  A zero pivot is a ``NumericalError``.

    The rows are taken from the top of the grid down.  Near the low edge
    the drift is one-way up: the entry that carries a cell's density to
    the cell above is up to e^|w| times the one that carries it down.  For
    z inside the drift's disc, |z - L_ii| < L_(i+1),i, a bottom-up
    elimination exchanges rows there, adds the small entry to terms e^|w|
    larger and loses it: the snapshots were 1e15 off in L1 at t = 1.25e-3
    on the default grid.  Top-down, the entry below each pivot is the
    small one, partial pivoting keeps the diagonal, and the solves matched
    an unpivoted LU to roundoff on 60 random grids.  At the top edge the
    drift is one-way down, but |w| < 2 (M + 2) there on any grid.

    ``scipy.linalg`` is imported here, where a matrix is first factored,
    so that no command but ``evolve`` loads it.  ``evolve`` calls this
    module attribute once per contour node and window.  Only perfbench
    holds it, to count the calls (``fpsolve.evolve.steps``) until it reads
    the count from ``evolve``'s report (ROADMAP items 3 and 6).
    """
    from scipy.linalg.lapack import zgtsv
    *_, x, info = zgtsv(-op.upper[::-1], z - op.diag[::-1], -op.lower[::-1], rhs[::-1])
    if info > 0:
        raise NumericalError(f"z I - L is singular at z={z:g}: zero pivot in row "
                             f"{rhs.size + 1 - info}")
    return x[::-1]


# nodes of the contour rule; on the cli_sample run 64 nodes move no
# snapshot by more than 1.1e-9 in L1
CONTOUR_NODES = 32
# the largest ratio of a window's last output time to its first, both
# measured from the origin of its contour
WINDOW_RATIO = 8.0
# the rule's error on the scalar exp(lambda t): at most 9.37e-10 over
# lambda <= 0 and t from tau / WINDOW_RATIO to tau, with mu = pi N / 24 / tau
CONTOUR_ERROR = 1e-9
# the L1 error, relative to the mass, that evolve's bound must stay within
CONTOUR_TOLERANCE = 1e-7
# a truncated Taylor series of this degree has backward error below 2^-53
# for tau ||L||_1 up to theta (Al-Mohy & Higham 2011, SIAM J. Sci. Comput.
# 33:488, Table 3.1); a run takes at most TAYLOR_STEPS such steps
TAYLOR_DEGREE, TAYLOR_THETA, TAYLOR_STEPS = 55, 9.9, 100_000


def _contour_part(op: _FluxOperator, f_ss: np.ndarray, g: np.ndarray):
    """The part of a zero-mass g that the contour takes, and the L1 error
    bound of the snapshots built from it.

    L is self-adjoint in the inner product sum(widths x y / f_ss), in which
    f_ss has norm 1, so the rule's error on g is at most ``CONTOUR_ERROR``
    times the norm of g there, and by Cauchy-Schwarz so is its L1 norm.
    That norm is large where g is large against f_ss: near the low edge,
    where f_ss is e^-(C/y) small.  The cells with the largest |g| / f_ss
    are moved out of g, their mass onto f_ss.  The exact flow does not
    raise L1 norms, so what they would have become is off by at most twice
    their L1 mass, and the rule's error on the mass moved adds at most
    once more.  The cut minimises the sum of the two bounds.
    """
    with np.errstate(all="ignore"):      # |g| / f_ss is inf where f_ss underflows
        ratio = np.where(g == 0.0, 0.0, np.abs(g) / f_ss)
        order = np.argsort(-ratio)
        l1 = op.widths[order] * np.abs(g[order])
        chi2 = np.where(l1 > 0.0, l1 * ratio[order], 0.0)
        bounds = (CONTOUR_ERROR * np.sqrt(np.append(np.cumsum(chi2[::-1])[::-1], 0.0))
                  + 3.0 * np.append(0.0, np.cumsum(l1)))
    cut = int(np.argmin(bounds))
    part = g.copy()
    part[order[:cut]] = 0.0
    part += (op.widths[order[:cut]] @ g[order[:cut]]) * f_ss
    return part, float(bounds[cut])


def _taylor(op: _FluxOperator, norm: float, tau: float, f: np.ndarray):
    """exp(tau L) f in equal steps, each a Taylor series truncated where
    two terms in a row fall below 2^-53 of the sum; ``norm`` is ||L||_1.
    Every product by L rounds each entry relative to itself, so the small
    entries of L near the low edge keep their meaning.  Returns the state
    and the step count."""
    steps = max(1, math.ceil(tau * norm / TAYLOR_THETA))
    h = tau / steps
    for _ in range(steps):
        term, last = f, math.inf
        for k in range(1, TAYLOR_DEGREE + 1):
            lterm = op.diag * term
            lterm[1:] += op.lower * term[:-1]
            lterm[:-1] += op.upper * term[1:]
            term = lterm * (h / k)
            f = f + term
            size = np.abs(term).max()
            if last + size <= 2.0 ** -53 * np.abs(f).max():
                break
            last = size
    return f, steps


def evolve(f0: GridDensity, M: float, C: float, t_end: float,
           snapshot_times: Sequence[float] = (), stats: dict = None) -> list:
    """Evolve a density to t_end; returns one state per distinct output
    time, in time order, the last at the end.  The output times are the
    snapshot times and t_end.

    Each state is exp(tL) f applied exactly in time, L the Chang-Cooper
    operator at the constant labour rate C (module docstring).  Write
    f0 = m f_ss + g, with m the trapezoidal mass of f0 and f_ss the
    scheme's steady state, L f_ss = 0: then exp(tL) f0 = m f_ss +
    exp(tL) g, and g has no component on the eigenvalue 0.  exp(tL) g is
    the trapezoidal rule for (1 / 2 pi i) times the integral of
    exp(zt) (zI - L)^-1 g dz on the parabola z = mu (iu + 1)^2: nodes
    u_k = k h, k = 0 ... N - 1, with N = ``CONTOUR_NODES``, h = 6 / N and
    mu = pi N / 24 / tau.  Node 0 has half weight, and twice the real part
    of the sum adds the nodes at -u_k, the complex conjugates.  Each node
    costs one solve of (z_k I - L) x_k = g, one ``solve_banded`` call, and
    each output time t is the sum of the x_k with weights exp(z_k t).

    The output times are taken in windows, all from one origin (f0, or
    the end of the Taylor steps below): counted from it, a window whose
    first output time is t1 covers every later output time t with
    t <= ``WINDOW_RATIO`` t1, and tau is its last.  So the window count is
    at most the count of distinct output times, and grows as the log of
    their range, whatever t_end is.

    The rule's L1 error is at most the bound of ``_contour_part``, which
    must stay within ``CONTOUR_TOLERANCE`` of m.  A density with mass
    where f_ss is vanishingly small (a bump near the low edge) is first
    carried forward by ``_taylor`` steps, over spans that double from 16
    steps, until the bound is met; an output time on the way is written
    from them.  More than ``TAYLOR_STEPS`` steps are a ``NumericalError``.
    A state's negative part, the rule's error or roundoff, is clipped to 0,
    and the state is scaled back to mass m, which the clip and the roundoff
    of the solves (2e-12 of it at most in the tests) moved.  A negative
    part whose mass is past the tolerance, or a value that is not finite,
    is a ``NumericalError``.

    If ``stats`` is a dict, it receives ``solves``, N per window,
    ``outputs_per_window``, ``taylor_steps`` and ``error_bound``, the L1
    bound of the contour's snapshots.
    """
    distlib.SteadyStateIPDF(M, C)      # the law's domain checks
    if not f0.time < t_end < math.inf:
        raise DomainError(f"t_end must be finite and exceed the initial time, got {t_end}")
    snap_times = {float(t) for t in snapshot_times}
    if not all(f0.time < t <= t_end for t in snap_times):
        raise DomainError("snapshot times must lie within (time, t_end]")

    grid = f0.grid
    op = _FluxOperator(grid, M, C)
    f_ss = op.steady_state(grid)
    mass = f0.mass()
    times = sorted({*snap_times, float(t_end)})
    states, outputs_per_window, taylor_steps = [], [], 0

    def output(t, v):
        negative = -(op.widths @ np.minimum(v, 0.0))
        if not (v.max() < math.inf and negative <= CONTOUR_TOLERANCE * mass):
            raise NumericalError(f"the density at t={t:g} has a negative part of mass "
                                 f"{negative:g} against {mass:g}, past the error bound")
        np.maximum(v, 0.0, out=v)
        total = op.widths @ v
        if total > 0.0:
            v *= mass / total
        states.append(GridDensity(grid, v, t))

    f, s, reach = f0.values, f0.time, 0.0
    g, bound = _contour_part(op, f_ss, f - mass * f_ss)
    norm = (np.abs(op.diag) + np.append(op.lower, 0.0) + np.append(0.0, op.upper)).max()
    while bound > CONTOUR_TOLERANCE * mass and len(states) < len(times):
        reach = max(2.0 * reach, 16.0 * TAYLOR_THETA / norm)
        target = min(times[len(states)], s + reach)
        if taylor_steps + math.ceil((target - s) * norm / TAYLOR_THETA) > TAYLOR_STEPS:
            raise NumericalError(f"more than {TAYLOR_STEPS} Taylor steps before the "
                                 "contour's error bound is met")
        f, steps = _taylor(op, norm, target - s, f)
        taylor_steps, s = taylor_steps + steps, target
        if target == times[len(states)]:
            output(target, f)
            f = states[-1].values
        g, bound = _contour_part(op, f_ss, f - mass * f_ss)

    n, h = CONTOUR_NODES, 6.0 / CONTOUR_NODES
    u = h * np.arange(n)
    g = g.astype(complex)
    while len(states) < len(times):
        first = times[len(states)] - s
        window = [t for t in times[len(states):] if t - s <= WINDOW_RATIO * first]
        taus = np.array(window) - s
        mu = math.pi * n / 24.0 / float(taus[-1])
        if not mu * (1.0 + float(u[-1]) ** 2) < math.inf:
            raise NumericalError(f"the contour for an output time {taus[-1]:g} after "
                                 f"t={s:g} leaves the float range")
        z = mu * (1j * u + 1.0) ** 2
        w = h * mu / math.pi * (1j * u + 1.0)
        w[0] *= 0.5
        x = np.empty((n, grid.size), dtype=complex)
        for k, zk in enumerate(z):
            x[k] = solve_banded(op, zk, g)
        weights = 2.0 * w * np.exp(np.multiply.outer(taus, z))
        values = weights.real @ x.real - weights.imag @ x.imag
        values += mass * f_ss
        for t, v in zip(window, values):
            output(t, v)
        outputs_per_window.append(len(window))
    if stats is not None:
        stats.update(solves=n * len(outputs_per_window), outputs_per_window=outputs_per_window,
                     taylor_steps=taylor_steps, error_bound=bound)
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
