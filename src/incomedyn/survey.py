"""Banded household-survey rounds: loading, deflation, rescaling, synthesis.

A survey round is an ordered list of expenditure classes (bands), each with
a population share and per-band mean total / cereal expenditure.  The last
band may be open-ended.  Monetary values are handled by two linear maps:
CPI deflation to a reference year and rescaling to a common mean (the data
collapse).  A round is read as uniform density within each band, the open
band at an effective width from a power-law fit to the last two closed
bands; ``BandedDistribution.knots`` is the one implementation of that
reading, and the round fits its tail once, for the knots and for the open
band's representative income.  The empirical CDF here and the banded
poverty indices both read ``knots``, so they stay self-consistent.

CSV schemas
-----------
rounds:    round_id,year,band_lower,band_upper,population_share,
           mean_total_expenditure,mean_cereal_expenditure
           (band_upper is ``inf`` for the open band, every other number is
           finite; an empty mean cell marks it unavailable for that band)
deflators: year,cpi (finite numbers)
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import distlib
from .errors import DataError, DomainError

SHARE_SILENT_TOL = 1e-6   # renormalize quietly
SHARE_WARN_TOL = 1e-3     # renormalize with a warning; reject beyond
EDGE_REL_TOL = 1e-9


def _frozen(values: list) -> np.ndarray:
    """A read-only float array: a round's band arrays are built once."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Band:
    lower: float
    upper: float                      # math.inf for the open band
    population_share: float
    mean_total_expenditure: Optional[float]
    mean_cereal_expenditure: Optional[float]

    @property
    def is_open(self) -> bool:
        return math.isinf(self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BandedDistribution:
    """One survey round as contiguous expenditure classes."""

    round_id: str
    year: float
    bands: tuple

    def __post_init__(self):
        bands = tuple(self.bands)
        object.__setattr__(self, "bands", bands)
        # the id is written unquoted into CSV cells
        if any(ch in self.round_id for ch in ',"\r\n'):
            raise DataError(f"round id {self.round_id!r} holds a comma, quote or line break")
        if len(bands) < 1:
            raise DataError(f"round {self.round_id}: no bands")
        problems = [] if math.isfinite(self.year) else [f"year {self.year} is not finite"]
        for i, b in enumerate(bands):
            mean, cereal = b.mean_total_expenditure, b.mean_cereal_expenditure
            if b.lower < 0.0 or not b.upper > b.lower:
                problems.append(f"row {i}: edges ({b.lower}, {b.upper}) not increasing")
            if b.is_open and i != len(bands) - 1:
                problems.append(f"row {i}: only the last band may be open-ended")
            if not 0.0 <= b.population_share <= 1.0:
                problems.append(f"row {i}: share {b.population_share} outside [0, 1]")
            if mean is not None and not 0.0 < mean < math.inf:
                problems.append(f"row {i}: mean expenditure must be positive and finite")
            if cereal is not None and not 0.0 <= cereal < math.inf:
                problems.append(f"row {i}: cereal expenditure must be nonnegative and finite")
            elif cereal is not None and mean is not None and cereal > mean * (1 + 1e-12):
                problems.append(f"row {i}: cereal exceeds total expenditure")
        for i in range(len(bands) - 1):
            lo_next, up = bands[i + 1].lower, bands[i].upper
            tol = EDGE_REL_TOL * max(1.0, abs(up))
            if lo_next < up - tol:
                problems.append(f"rows {i}/{i + 1}: bands overlap ({up} > {lo_next})")
            elif lo_next > up + tol:
                problems.append(f"rows {i}/{i + 1}: gap between bands ({up} < {lo_next})")
        total = sum(b.population_share for b in bands)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"population shares sum to {total!r}, not 1")
        if problems:
            raise DataError(f"round {self.round_id}: " + "; ".join(problems))

    @cached_property
    def shares(self) -> np.ndarray:
        return _frozen([b.population_share for b in self.bands])

    @cached_property
    def edges(self) -> np.ndarray:
        return _frozen([self.bands[0].lower] + [b.upper for b in self.bands])

    @cached_property
    def cereal(self) -> np.ndarray:
        """Per-band mean cereal expenditure; a band without one is a ``DataError``."""
        for i, b in enumerate(self.bands):
            if b.mean_cereal_expenditure is None:
                raise DataError(f"round {self.round_id}: band {i} lacks cereal expenditure")
        return _frozen([b.mean_cereal_expenditure for b in self.bands])

    @property
    def has_open_band(self) -> bool:
        return self.bands[-1].is_open

    @cached_property
    def knots(self) -> np.ndarray:
        """Band edges under the uniform-density reading: ``edges``, with the
        open band above its lower edge L as wide as L / (a - 1), the width in
        which a density proportional to y^(-a) above L carries its mass; a tail
        fit too shallow (a <= 1.05) reuses the last closed band's width."""
        if not self.has_open_band:
            return self.edges
        a, lo = self._tail_exponent, self.bands[-1].lower
        if a <= 1.05:
            warnings.warn(
                f"round {self.round_id}: tail fit exponent {a:.3g} too shallow; "
                "falling back to the last closed band's width")
            width = self.bands[-2].width
        else:
            width = lo / (a - 1.0)
        return _frozen(np.append(self.edges[:-1], lo + width))

    @cached_property
    def _tail_exponent(self) -> float:
        """Density exponent fitted through the last two closed bands."""
        closed = [b for b in self.bands if not b.is_open]
        if len(closed) < 2:
            raise DataError(f"round {self.round_id}: tail fit needs two closed bands")
        b1, b2 = closed[-2], closed[-1]
        if b1.population_share <= 0.0 or b2.population_share <= 0.0:
            raise DataError(f"round {self.round_id}: tail fit needs positive shares")
        d1 = b1.population_share / b1.width
        d2 = b2.population_share / b2.width
        m1 = 0.5 * (b1.lower + b1.upper)
        m2 = 0.5 * (b2.lower + b2.upper)
        return math.log(d1 / d2) / math.log(m2 / m1)

    def representative_incomes(self) -> np.ndarray:
        """Per-band representative income: recorded mean when present, else the
        midpoint (closed bands) or the tail fit's conditional mean (open band)."""
        out = np.empty(len(self.bands))
        for i, b in enumerate(self.bands):
            if b.mean_total_expenditure is not None:
                out[i] = b.mean_total_expenditure
            elif not b.is_open:
                out[i] = 0.5 * (b.lower + b.upper)
            else:
                a = self._tail_exponent
                # conditional mean of a Pareto density exponent a above the edge
                out[i] = b.lower * (a - 1.0) / (a - 2.0) if a > 2.0 else self.knots[-1]
        return out

    def mean_income(self) -> float:
        return float(np.dot(self.shares, self.representative_incomes()))


# ---------------------------------------------------------------------------
# loading and saving
# ---------------------------------------------------------------------------

def _parse_float(text: str, where: str, finite: str = "") -> float:
    """The number in a CSV cell; ``finite`` names a column that refuses inf and nan."""
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"{where}: cannot parse number {text!r}") from None
    if finite and not math.isfinite(value):
        raise DataError(f"{where}: {finite} {value} is not finite")
    return value


_ROUND_HEADER = ["round_id", "year", "band_lower", "band_upper",
                 "population_share", "mean_total_expenditure",
                 "mean_cereal_expenditure"]


def _normalize_shares(round_id: str, bands: list) -> list:
    total = sum(b.population_share for b in bands)
    err = abs(total - 1.0)
    if err > SHARE_WARN_TOL:
        raise DataError(f"round {round_id}: population shares sum to {total:.6g}")
    if err > SHARE_SILENT_TOL:
        warnings.warn(f"round {round_id}: shares sum to {total:.6g}; renormalizing")
    if err > 0.0:
        bands = [replace(b, population_share=b.population_share / total) for b in bands]
    return bands


def _csv_rows(path, header: list):
    """Yield ``(where, row)`` for every nonblank data row of a CSV file that
    starts with ``header``; ``where`` is ``path:line`` for error messages."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise DataError(f"{path}: expected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            where = f"{path}:{lineno}"
            if len(row) != len(header):
                raise DataError(f"{where}: expected {len(header)} fields")
            yield where, row


def load_rounds(path) -> list:
    """Load every round in a rounds CSV, in order of first appearance."""
    by_id = {}
    for where, row in _csv_rows(path, _ROUND_HEADER):
        rid = row[0].strip()
        year = _parse_float(row[1], where, finite="year")
        band = Band(
            lower=_parse_float(row[2], where),
            upper=_parse_float(row[3], where),
            population_share=_parse_float(row[4], where),
            mean_total_expenditure=(
                _parse_float(row[5], where) if row[5].strip() else None),
            mean_cereal_expenditure=(
                _parse_float(row[6], where) if row[6].strip() else None),
        )
        by_id.setdefault(rid, (year, []))[1].append(band)
        if by_id[rid][0] != year:
            raise DataError(f"{where}: round {rid} has conflicting years")
    if not by_id:
        raise DataError(f"{path}: no data rows")
    rounds = []
    for rid, (year, bands) in by_id.items():
        bands = _normalize_shares(rid, bands)
        rounds.append(BandedDistribution(round_id=rid, year=year, bands=tuple(bands)))
    return rounds


def write_csv(path, header: list, rows) -> None:
    """One line per row tuple, the whole file formatted by one ``%``.  Each
    column's format comes from the first row: a ``str`` cell is written as
    is, any other value as "%.12g"."""
    rows = list(rows)
    first = rows[0] if rows else ()
    line = ",".join("%s" if isinstance(cell, str) else "%.12g" for cell in first) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(rows)) % tuple(itertools.chain.from_iterable(rows)))


def write_curves(path, header: list, keys, grid, curves) -> None:
    """A "key, y, value" file of curves on one shared grid, the bytes that
    ``write_csv`` writes for the rows (key, y, value): the grid is formatted
    once, each key is spliced into a line template (a ``str`` key as is,
    with its "%" doubled, any other as "%.12g"), and each curve is written
    by one ``%`` over its values, so only one curve's text is held."""
    points = ["%.12g,%%.12g\n" % y for y in np.asarray(grid, dtype=float).tolist()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for key, values in zip(keys, curves):
            text = key.replace("%", "%%") if isinstance(key, str) else "%.12g" % key
            fh.write((text + ",").join(["", *points])
                     % tuple(np.asarray(values, dtype=float).tolist()))


def save_rounds(path, rounds: Sequence[BandedDistribution]) -> None:
    """Write rounds in the rounds schema; a missing mean is an empty cell."""
    def optional(value):
        return "" if value is None else "%.12g" % value
    write_csv(path, _ROUND_HEADER, (
        (rnd.round_id, rnd.year, b.lower, b.upper, b.population_share,
         optional(b.mean_total_expenditure), optional(b.mean_cereal_expenditure))
        for rnd in rounds for b in rnd.bands))


@dataclass(frozen=True)
class DeflatorTable:
    """CPI by year plus the reference year that deflation expresses incomes in."""

    years: np.ndarray
    cpis: np.ndarray
    reference_year: float

    def __post_init__(self):
        years = np.asarray(self.years, dtype=float)
        cpis = np.asarray(self.cpis, dtype=float)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "cpis", cpis)
        if years.size == 0 or years.size != cpis.size:
            raise DataError("deflator table needs matching year/cpi columns")
        if not (np.isfinite(years).all() and np.isfinite(cpis).all()):
            raise DataError("deflator years and CPI values must be finite")
        if (np.diff(years) <= 0.0).any():
            raise DataError("deflator years must be strictly increasing")
        if not (cpis > 0.0).all():
            raise DataError("CPI values must be positive")
        if not (years[0] <= self.reference_year <= years[-1]):
            raise DataError(f"reference year {self.reference_year} outside the table")

    def cpi(self, year: float) -> float:
        """CPI at a year, linearly interpolated between bracketing entries."""
        if not (self.years[0] <= year <= self.years[-1]):
            raise DataError(
                f"year {year} outside the deflator range "
                f"[{self.years[0]:g}, {self.years[-1]:g}]; no extrapolation")
        return float(np.interp(year, self.years, self.cpis))


def load_deflators(path, reference_year: float = 1974.0) -> DeflatorTable:
    years, cpis = [], []
    for where, row in _csv_rows(path, ["year", "cpi"]):
        years.append(_parse_float(row[0], where, finite="year"))
        cpis.append(_parse_float(row[1], where, finite="CPI"))
    order = np.argsort(years)
    return DeflatorTable(np.asarray(years)[order], np.asarray(cpis)[order],
                         reference_year)


# ---------------------------------------------------------------------------
# monetary transforms
# ---------------------------------------------------------------------------

def _scale_monetary(rnd: BandedDistribution, factor: float) -> BandedDistribution:
    if not factor > 0.0:
        raise DomainError(f"scale factor must be positive, got {factor}")

    def scaled(value):
        return None if value is None else value * factor
    bands = tuple(
        replace(b, lower=b.lower * factor, upper=b.upper * factor,
                mean_total_expenditure=scaled(b.mean_total_expenditure),
                mean_cereal_expenditure=scaled(b.mean_cereal_expenditure))
        for b in rnd.bands)
    return replace(rnd, bands=bands)


def deflate(rnd: BandedDistribution, table: DeflatorTable) -> BandedDistribution:
    """Convert nominal values to the reference year's prices; shares untouched."""
    ratio = table.cpi(table.reference_year) / table.cpi(rnd.year)
    return _scale_monetary(rnd, ratio)


def collapse_rescale(rnd: BandedDistribution, target_mean: float) -> BandedDistribution:
    """Rescale monetary values so the round's estimated mean equals target_mean."""
    if not target_mean > 0.0:
        raise DomainError(f"target mean must be positive, got {target_mean}")
    mean = rnd.mean_income()
    if not mean > 0.0:
        raise DataError(f"round {rnd.round_id}: estimated mean income is zero")
    return _scale_monetary(rnd, target_mean / mean)


# ---------------------------------------------------------------------------
# empirical distribution
# ---------------------------------------------------------------------------

def empirical_cdf(rnd: BandedDistribution):
    """Piecewise-linear CDF through the cumulative shares at ``rnd.knots``."""
    if len(rnd.bands) < 2:
        raise DataError(f"round {rnd.round_id}: need at least 2 bands for a CDF")
    knots = rnd.knots
    cum = np.concatenate([[0.0], np.cumsum(rnd.shares)])
    cum[-1] = 1.0
    return lambda y: np.interp(y, knots, cum, left=0.0, right=1.0)


# ---------------------------------------------------------------------------
# synthetic rounds
# ---------------------------------------------------------------------------

def synth_round(dist: distlib.SteadyStateIPDF, band_edges, n_population: int,
                seed: int, monod: tuple, round_id: str = "synth",
                year: float = 2000.0) -> BandedDistribution:
    """Generate a survey round from the model law.

    Band counts are multinomial draws from the exact band probabilities;
    per-band mean expenditure is the exact conditional expectation; cereal
    expenditure follows the saturating consumption curve s = V y / (K + y)
    evaluated at the band mean, with (V, K) = ``monod``.
    """
    if n_population <= 0:
        raise DomainError(f"population must be positive, got {n_population}")
    edges = np.asarray(band_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 3:
        raise DataError("need at least 3 band edges (2 bands)")
    if (np.diff(edges) <= 0.0).any() or edges[0] < 0.0:
        raise DataError("band edges must be nonnegative and strictly increasing")
    v_sat, k_half = float(monod[0]), float(monod[1])
    if not (v_sat > 0.0 and k_half > 0.0):
        raise DomainError("Monod parameters must be positive")
    # the multinomial is conditioned on the range the edges cover
    raw = np.diff(distlib.observed_cdf(dist, edges))
    total = raw.sum()
    if total <= 0.0:
        raise DataError("band edges carry no probability mass")
    means = distlib.observed_band_means(dist, edges)
    with np.errstate(over="ignore"):
        cereal = v_sat * means / (k_half + means)
    if np.isinf(cereal).any():
        raise DomainError(f"cereal expenditure V y / (K + y) overflows at V={v_sat:g}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_population, raw / total)
    shares = counts / n_population
    bands = tuple(
        Band(lower=edges[i], upper=edges[i + 1], population_share=shares[i],
             mean_total_expenditure=means[i], mean_cereal_expenditure=cereal[i])
        for i in range(len(raw)))
    return BandedDistribution(round_id=round_id, year=year, bands=bands)
