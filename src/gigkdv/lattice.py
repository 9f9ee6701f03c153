"""Discrete mKdV dynamics on the quadrant of Z^2.

Each cell applies the scalar involution to its west/south neighbours,

    (x[n, t], y[n, t]) = f_dk(x[n, t-1], y[n-1, t]),

so the field is determined by boundary data along the t = 0 row (x values)
and the n = 0 column (y values).  Rows are computed one at a time in
O(n_sites) memory.  With x fixed, the carrier y moves along a row by the
Moebius map of the nonnegative matrix [[alpha x^2, x], [beta x, 1]], so a
row is a prefix product of 2x2 matrices (Blelloch 1990, CMU-CS-90-190),
scanned in blocks of `_BLOCK` cells; each cell is still evaluated by `f_dk`.

With boundary draws from the detailed-balance laws -- alternating between
the input pair and the mapped pair according to the parity of n + t -- the
product measure is stationary, and `stationarity_report` verifies it by
two-sample KS tests per parity class.  The t = 0 frame carries an extra
reference row of y draws (unused by the dynamics) so that both fields have
a baseline sample.

Per-cell conservation x[n, t-1] * y[n-1, t] = x[n, t] * y[n, t] holds
exactly up to round-off.  It is asserted on every cell, and each scanned
block carrier is checked against the cell it replaces.
"""

import csv
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dist
from .balance import BalanceSpec, input_laws, output_laws
from .errors import DomainError, positive
from .ks import ks_2samp
from .maps import MapParams, f_dk
from .rng import rng_stream

__all__ = [
    "LatticeConfig",
    "LatticeFrame",
    "stationary_config",
    "save_boundary",
    "load_boundary",
    "evolve",
    "stationarity_report",
    "StationarityReport",
]

_BLOCK = 64  # cells per block of the row scan


@dataclass(frozen=True)
class LatticeConfig:
    n_sites: int
    horizon: int
    map: MapParams
    laws: tuple  # ((x law, y law) of even cells, (x law, y law) of odd cells)
    seed: int = 0
    # (x0, ycol, yref) to replay, as `load_boundary` returns them; None:
    # i.i.d. draws from the laws
    boundary: tuple | None = None

    def __post_init__(self):
        if self.n_sites < 1 or self.horizon < 1:
            raise DomainError("need n_sites >= 1 and horizon >= 1")
        if self.boundary is not None:
            x0, ycol, yref = self.boundary
            if (len(x0), len(ycol), len(yref)) != (self.n_sites, self.horizon,
                                                    self.n_sites):
                raise DomainError(
                    f"replay sizes (x0 {len(x0)}, ycol {len(ycol)}, yref "
                    f"{len(yref)}) do not match the config (n {self.n_sites}, "
                    f"t {self.horizon})")
            positive("boundary values must be finite and > 0", x0, ycol, yref)


@dataclass(frozen=True)
class LatticeFrame:
    t: int
    x_row: np.ndarray  # site values x[1..N] at time t
    y_row: np.ndarray


def stationary_config(map: MapParams, lam: float, c1: float, c2: float,
                      n_sites: int, horizon: int, seed: int = 0,
                      boundary: tuple | None = None) -> LatticeConfig:
    """Boundary laws of the stationary lattice measure.

    Even-parity cells carry the input laws of the fdk `BalanceSpec`
    (GIG(-lam, alpha c1, c2), GIG(-lam, beta c2, c1)), odd-parity cells its
    output laws, the same with c1 <-> c2; for c1 == c2 the parities
    coincide and the measure is a plain product measure.
    """
    spec = BalanceSpec(map, lam, c1, c2)
    return LatticeConfig(n_sites=n_sites, horizon=horizon, map=map,
                         laws=(input_laws(spec), output_laws(spec)),
                         seed=seed, boundary=boundary)


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

def _parity_draws(laws, indices: np.ndarray, rng_even, rng_odd):
    law_even, law_odd = laws
    out = np.empty(len(indices))
    even = indices % 2 == 0
    n_even = int(np.count_nonzero(even))
    if n_even:
        out[even] = dist.draw(law_even, rng_even, n_even)
    if len(indices) - n_even:
        out[~even] = dist.draw(law_odd, rng_odd, len(indices) - n_even)
    return out


def _boundary_arrays(config: LatticeConfig):
    """(x row at t=0, y column for t=1..T, reference y row at t=0)."""
    if config.boundary is not None:
        return config.boundary
    n_idx = np.arange(1, config.n_sites + 1)
    t_idx = np.arange(1, config.horizon + 1)
    x_laws, y_laws = zip(*config.laws)  # (even, odd) per field
    return tuple(  # x0 on streams 10/11, ycol on 12/13, yref on 14/15
        _parity_draws(laws, idx, rng_stream(config.seed, stream),
                      rng_stream(config.seed, stream + 1))
        for laws, idx, stream in ((x_laws, n_idx, 10), (y_laws, t_idx, 12),
                                  (y_laws, n_idx, 14)))


def save_boundary(path, x0: np.ndarray, ycol: np.ndarray, yref: np.ndarray):
    """Write boundary arrays as (kind, index, value) CSV rows."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "index", "value"])
        for kind, arr in (("x0", x0), ("ycol", ycol), ("yref", yref)):
            for i, v in enumerate(arr, start=1):
                w.writerow([kind, i, repr(float(v))])


def load_boundary(path):
    """(x0, ycol, yref) from a file written by `save_boundary`; the indices
    of each kind must run 1, 2, ... in file order."""
    parts = {"x0": [], "ycol": [], "yref": []}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["kind", "index", "value"]:
            raise DomainError(f"{path}: not a boundary file")
        for row in reader:
            try:
                if len(row) != 3 or row[0] not in parts:
                    raise ValueError
                index, value = int(row[1]), float(row[2])
            except ValueError:
                raise DomainError(f"{path}: malformed row {row!r}") from None
            values = parts[row[0]]
            if index != len(values) + 1:
                raise DomainError(f"{path}: row {row!r} needs index {len(values) + 1}: "
                                  "the indices of each kind run 1, 2, ... in file order")
            values.append(value)
    return tuple(np.asarray(parts[k]) for k in ("x0", "ycol", "yref"))


# ---------------------------------------------------------------------------
# row scan
# ---------------------------------------------------------------------------

def _out_of_range(t: int) -> DomainError:
    return DomainError(f"row {t} leaves the floating-point range; the "
                       "boundary values are too large or too small")


def _row(config: LatticeConfig, x_prev: np.ndarray, y_entry: float, t: int):
    """Row t, (x[., t], y[., t]), from x[., t-1] and y[0, t], in three passes:
    (1) each block's composite matrix, all blocks at once; (2) the carrier
    entering each block, composed from y[0, t]; (3) every cell by `f_dk`,
    all blocks at once, each from its scanned entry carrier.
    """
    n = len(x_prev)
    xb = np.pad(x_prev, (0, -n % _BLOCK), constant_values=1.0)
    xb = xb.reshape(-1, _BLOCK)  # the padding cells are computed, then dropped
    m = len(xb) - 1  # the last block's composite feeds no later block
    a, b, c, d = np.ones(m), np.zeros(m), np.zeros(m), np.ones(m)
    al, be = config.map.alpha, config.map.beta
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for k in range(_BLOCK):
            # the cell matrix divided by max(x, 1): [[alpha x xs, xs],
            # [beta xs, s]] with xs = min(x, 1) and s = 1 / max(x, 1), whose
            # entries stay in range for every finite x > 0
            x = xb[:-1, k]
            xs = np.minimum(x, 1.0)
            s, axs, bxs = xs / x, al * x * xs, be * xs
            a, b, c, d = axs * a + xs * c, axs * b + xs * d, bxs * a + s * c, bxs * b + s * d
            r = 1.0 / (a + b + c + d)  # entries are >= 0, so nothing cancels
            a, b, c, d = a * r, b * r, c * r, d * r
    # an entry overflowed, or c = d = 0 (beta = 0 and d underflowed): the
    # block then sends every carrier past the floating-point range
    if not np.all(np.isfinite(a + b + c + d)) or np.any(c + d == 0.0):
        raise _out_of_range(t)
    entry = [float(y_entry)]
    for ai, bi, ci, di in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()):
        entry.append((ai * entry[-1] + bi) / (ci * entry[-1] + di))
    entry = carrier = np.array(entry)
    u, v = np.empty_like(xb), np.empty_like(xb)
    try:
        for k in range(_BLOCK):
            u[:, k], carrier = f_dk(config.map, (xb[:, k], carrier))
            v[:, k] = carrier
    except DomainError:  # the cells' x are in range, so a carrier or an image left it
        raise _out_of_range(t) from None
    x, y = u.ravel()[:n], v.ravel()[:n]
    # the scanned carrier entering each block equals the last cell before it
    if not np.all(np.abs(entry[1:] - v[:-1, -1]) <= 1e-12 * v[:-1, -1]):
        raise ArithmeticError(f"scanned block carrier drifted in row {t}")
    # x y = x_prev y_in as (x / y_in)(y / x_prev) = 1: the factors are the
    # cell's ratio and its inverse, so no product can overflow
    ratio = (x / np.concatenate((entry[:1], y[:-1]))) * (y / x_prev)
    if not np.all(np.abs(ratio - 1.0) <= 1e-12):
        raise ArithmeticError(f"cell conservation violated in row {t}")
    return x, y


def evolve(config: LatticeConfig):
    """Yield LatticeFrame(t) for t = 0..horizon.

    Frame 0 holds the boundary x row and the reference y row.  Each later
    frame is computed from the one before (see `_row`), so memory stays
    O(n_sites) for any horizon.  Every produced value is strictly positive;
    identical configs (same seed) produce bit-identical streams.
    """
    x0, ycol, yref = _boundary_arrays(config)
    yield LatticeFrame(0, x0.copy(), yref.copy())
    x = x0
    for t in range(1, config.horizon + 1):
        x, y = _row(config, x, ycol[t - 1], t)
        yield LatticeFrame(t, x, y)


# ---------------------------------------------------------------------------
# stationarity verification
# ---------------------------------------------------------------------------

@dataclass
class StationarityReport:
    probe_times: list
    n_sites: int
    seed: int
    tests: list = field(default_factory=list)  # rows of result dicts
    passed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def stationarity_report(config: LatticeConfig, probe_times) -> StationarityReport:
    """Two-sample KS of probe-time site marginals against t = 0, each
    passing at p > 0.01.

    Each probe row is split by the parity of n + t and compared with the
    same parity class of the baseline row (x and y fields separately),
    since the stationary assignment alternates laws by parity.
    """
    probes = sorted(set(int(t) for t in probe_times))
    if any(t < 1 or t > config.horizon for t in probes):
        raise DomainError("probe times must lie in [1, horizon]")
    if config.n_sites < 2:
        raise DomainError("stationarity needs n_sites >= 2, so that both "
                          "parity classes of a row hold a site")

    frames = {f.t: f for f in evolve(config) if f.t == 0 or f.t in probes}

    n_idx = np.arange(1, config.n_sites + 1)
    report = StationarityReport(probe_times=probes, n_sites=config.n_sites,
                                seed=config.seed)
    for t in probes:
        for parity in (0, 1):
            base_mask = n_idx % 2 == parity
            probe_mask = (n_idx + t) % 2 == parity
            for fld in ("x", "y"):
                base = getattr(frames[0], f"{fld}_row")[base_mask]
                cur = getattr(frames[t], f"{fld}_row")[probe_mask]
                stat, p = ks_2samp(cur, base)
                report.tests.append({
                    "field": fld, "t": t, "parity": parity,
                    "statistic": stat, "p_value": p,
                    "n_probe": int(len(cur)), "pass": p > 0.01})
    report.passed = all(row["pass"] for row in report.tests)
    return report
