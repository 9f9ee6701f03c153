"""GIG laws on (0, inf), with the Gamma and inverse-Gamma laws as zero rates.

Densities are normalized in log space through `specfun`.  The CDFs of the
two limit families are the regularized incomplete gamma functions; the GIG
CDF, which has no closed form, is computed by panel quadrature of the
density in the log variable, where the integrand is analytic and decays
doubly exponentially.  Sampling is exact: a three-piece-envelope rejection
sampler in the log variable for the GIG (valid for every real order via
reciprocity), and the generator's gamma method for the two limit families.

Parameter convention (density kernels on x > 0):

    GIG(lam, a, b)   ~ x^(lam-1) exp(-a x - b / x),      a, b >= 0

A zero rate is the weak limit of the GIG as that rate goes to 0:
GIG(lam, a, 0) is Gamma(lam, a), which needs lam > 0, and GIG(lam, 0, b) is
InvGamma(-lam, b) ~ x^(lam-1) exp(-b / x), which needs lam < 0.  The GIG
normalizer is singular there, so these laws keep their closed forms.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from . import specfun
from .errors import DomainError, positive
from .ks import ks_1samp
from .rng import rng_stream

__all__ = [
    "GigParams",
    "log_pdf",
    "cdf",
    "ext_laplace",
    "ext_laplace_log",
    "sample",
    "draw",
    "reciprocal_law",
    "check_battery",
]


@dataclass(frozen=True)
class GigParams:
    """Order and rates of a GIG law, a, b >= 0; b = 0 is Gamma(lam, a) and
    a = 0 is InvGamma(-lam, b) (see the module docstring)."""

    lam: float
    a: float
    b: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.a, self.b))):
            raise DomainError("GIG parameters must be finite")
        if self.a < 0.0 or self.b < 0.0 or self.a == self.b == 0.0:
            raise DomainError(f"GIG requires a, b >= 0, not both zero, got a={self.a}, "
                              f"b={self.b}")
        if self.b == 0.0 and not self.lam > 0.0:
            raise DomainError(f"the Gamma limit (b = 0) requires lam > 0, got lam={self.lam}")
        if self.a == 0.0 and not self.lam < 0.0:
            raise DomainError(
                f"the inverse-Gamma limit (a = 0) requires lam < 0, got lam={self.lam}")


def log_pdf(law: GigParams, x) -> float | np.ndarray:
    """Log of the normalized density at x > 0."""
    xv = positive("log_pdf requires x > 0", x)
    log_x = np.log(xv)
    if law.b == 0.0:  # Gamma(lam, a)
        out = (law.lam * math.log(law.a) - math.lgamma(law.lam)
               + (law.lam - 1.0) * log_x - law.a * xv)
    elif law.a == 0.0:  # InvGamma(-lam, b)
        out = (-law.lam * math.log(law.b) - math.lgamma(-law.lam)
               + (law.lam - 1.0) * log_x - law.b / xv)
    else:
        out = _log_weight(law, log_x, _log_weight_center(law)) - log_x
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# CDF: incomplete gamma functions, and quadrature for the GIG
# ---------------------------------------------------------------------------

# a panel of `cdf` is never wider than the grid spacing of `_window`, where
# 6 nodes stay within ~1e-15 of 16; a chunk of panels holds 2^16 nodes
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)
_CHUNK_PANELS = (1 << 16) // len(_GL_NODES)


def _log_weight_center(law: GigParams):
    # (c, u0, z) of log w(t) = c + lam u - 2 z sinh(u / 2)^2, u = t - u0, the
    # integrand of the CDF after x = e^t, w(t) = f(e^t) e^t, for a, b > 0: no
    # terms of size z = 2 sqrt(ab) cancel, so the rounding does not grow with z
    z = 2.0 * math.sqrt(law.a * law.b)
    log_kve = specfun.bessel_k_log_scaled(law.lam, z)
    return -math.log(2.0) - log_kve, 0.5 * (math.log(law.b) - math.log(law.a)), z


def _log_weight(law: GigParams, t: np.ndarray, center) -> np.ndarray:
    # log w(t); center = _log_weight_center(law) is computed once by the caller
    c, u0, z = center
    u = t - u0
    s = np.sinh(0.5 * u)
    return c + law.lam * u - 2.0 * z * s * s


def _weight_mode(law: GigParams) -> float:
    # maximizer of t -> log w(t)
    lam, a, b = law.lam, law.a, law.b
    return math.log((lam + math.sqrt(lam * lam + 4.0 * a * b)) / (2.0 * a))


def _window(law: GigParams):
    # (t_lo, t_hi, grid spacing): region outside carries < ~1e-15 mass
    t0 = _weight_mode(law)
    center = _log_weight_center(law)
    lw0 = float(_log_weight(law, np.array(t0), center))

    def beyond(t):
        return float(_log_weight(law, np.array(t), center)) <= lw0 - 130.0

    def expand(direction):
        # a law narrower than the first half-width of 1 starts lower, so the
        # cuts do not grow like (a b)^(1/4); a wider one starts at 1
        step, t = 1.0, t0
        while beyond(t + direction * 0.5 * step):
            step *= 0.5
        while not beyond(t + direction * step):
            step *= 2.0
            if step > 1e12:
                raise DomainError("CDF integrand fails to decay")
        return t + direction * step

    # curvature of log w at the mode sets the narrowest feature scale; the
    # spacing is 3/8 of min(1/4, 1.5 / that curvature's square root)
    m = math.exp(t0)
    spacing = min(0.09375, 0.5625 / math.sqrt(1.0 + law.a * m + law.b / m))
    return expand(-1.0), expand(+1.0), spacing


def cdf(law: GigParams, x) -> float | np.ndarray:
    """P(X <= x), monotone in x; vectorized over an array of query points.

    The zero-rate laws are exact: the regularized incomplete gamma functions
    P(lam, a x) for b = 0 and Q(-lam, b / x) for a = 0, whose cost does not
    depend on lam.  The GIG is integrated in t = log x over the panels
    between the merged cuts of a uniform grid (spacing `_window`) and the
    query points, with a 6-node Gauss-Legendre rule on each: within 1e-15
    of 16 nodes on every such panel, and to an absolute accuracy of about
    1e-13, which does not degrade as a b grows.
    """
    xv = positive("cdf requires x > 0", x)
    scalar = xv.ndim == 0
    xs = np.atleast_1d(xv)
    if law.a == 0.0 or law.b == 0.0:
        with np.errstate(over="ignore"):  # an infinite argument is the exact limit
            out = (gammainc(law.lam, law.a * xs) if law.b == 0.0
                   else gammaincc(-law.lam, law.b / xs))
        return float(out[0]) if scalar else out
    # one stable sort merges the grid with the query points (two sorted runs
    # for a KS test's sorted sample); a point at or below t_lo follows the
    # first grid cut, after zero-width panels only, so its value is exactly 0
    t_lo, t_hi, spacing = _window(law)
    n_grid = int(math.ceil((t_hi - t_lo) / spacing)) + 1
    cuts = np.concatenate([np.linspace(t_lo, t_hi, n_grid),
                           np.clip(np.log(xs), t_lo, t_hi)])
    order = np.argsort(cuts, kind="stable")
    cuts = cuts[order]
    center = _log_weight_center(law)
    vals = np.zeros(len(cuts))
    for start in range(0, len(cuts) - 1, _CHUNK_PANELS):
        seg = cuts[start:start + _CHUNK_PANELS + 1]
        half = 0.5 * np.diff(seg)
        # one row per node, so each numpy loop runs along the panels
        w = np.exp(_log_weight(law, (seg[:-1] + half) + _GL_NODES[:, None] * half, center))
        vals[start + 1:start + len(seg)] = (_GL_WEIGHTS @ w) * half
    np.clip(np.cumsum(vals, out=vals), 0.0, 1.0, out=vals)
    out = np.empty_like(vals)
    out[order] = vals
    return float(out[n_grid]) if scalar else out[n_grid:]


# ---------------------------------------------------------------------------
# extended Laplace transform and reciprocity
# ---------------------------------------------------------------------------

def ext_laplace_log(law: GigParams, s: float, sigma: float, theta: float) -> float:
    """log E[X^s exp(sigma X + theta / X)] for X ~ GIG(lam, a, b).

    Requires a, b > 0, sigma < a and theta < b; the transform is the ratio
    of two GIG normalizers and evaluates through log Bessel values.
    """
    if law.a == 0.0 or law.b == 0.0:
        raise DomainError(f"ext_laplace requires a, b > 0, got {law}")
    if not (sigma < law.a and theta < law.b):
        raise DomainError(
            f"tilt constraints violated: need sigma < a and theta < b, "
            f"got sigma={sigma}, theta={theta} for {law}")
    lam, a, b = law.lam, law.a, law.b
    return (0.5 * (lam + s) * (math.log(b - theta) - math.log(a - sigma))
            + 0.5 * lam * (math.log(a) - math.log(b))
            + specfun.bessel_k_log(lam + s, 2.0 * math.sqrt((a - sigma) * (b - theta)))
            - specfun.bessel_k_log(lam, 2.0 * math.sqrt(a * b)))


def ext_laplace(law: GigParams, s: float, sigma: float, theta: float) -> float:
    """E[X^s exp(sigma X + theta / X)]; see `ext_laplace_log`."""
    return math.exp(ext_laplace_log(law, s, sigma, theta))


def reciprocal_law(law: GigParams) -> GigParams:
    """Law of 1/X: GIG(lam,a,b) -> GIG(-lam,b,a); Gamma <-> InvGamma."""
    return GigParams(-law.lam, law.b, law.a)


# ---------------------------------------------------------------------------
# exact sampling
# ---------------------------------------------------------------------------

def _gig_envelope(lam_abs: float, omega: float):
    # setup of the three-piece envelope around the log-density mode
    # (uniform center, exponential wings); lam_abs >= 0, omega > 0
    alpha = omega * omega / (math.sqrt(omega * omega + lam_abs * lam_abs) + lam_abs)

    def psi(x):
        return -alpha * (np.cosh(x) - 1.0) - lam_abs * (np.expm1(x) - x)

    def dpsi(x):
        return -alpha * np.sinh(x) - lam_abs * np.expm1(x)

    v = -float(psi(1.0))
    if 0.5 <= v <= 2.0:
        t = 1.0
    elif v > 2.0:
        t = math.sqrt(2.0 / (alpha + lam_abs))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam_abs))

    v = -float(psi(-1.0))
    if 0.5 <= v <= 2.0:
        s = 1.0
    elif v > 2.0:
        s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam_abs))
    else:
        cap = math.log(1.0 + 1.0 / alpha + math.sqrt(1.0 / alpha ** 2 + 2.0 / alpha))
        s = min(1.0 / lam_abs, cap) if lam_abs > 0.0 else cap

    eta, zeta = -float(psi(t)), -float(dpsi(t))
    vartheta, xi = -float(psi(-s)), float(dpsi(-s))
    p, r = 1.0 / xi, 1.0 / zeta
    t_shift, s_shift = t - r * eta, s - p * vartheta
    q = t_shift + s_shift
    return psi, (p, q, r, t, s, t_shift, s_shift, eta, zeta, vartheta, xi)


def _outside(law: GigParams) -> str:
    return f"{law} lies outside the sampler's floating-point range"


def _sample_gig(law: GigParams, rng: np.random.Generator, n: int) -> np.ndarray:
    lam, a, b = law.lam, law.a, law.b
    lam_abs = abs(lam)
    omega = 2.0 * math.sqrt(a * b)
    # where a b underflows or the setup leaves the floating-point range,
    # the acceptance test below would fail forever
    try:
        psi, consts = _gig_envelope(lam_abs, omega)
        mode_shift = lam_abs / omega + math.sqrt(1.0 + (lam_abs / omega) ** 2)
    except (ZeroDivisionError, OverflowError):  # a divisor underflowed, a power overflowed
        raise DomainError(_outside(law)) from None
    if not all(map(math.isfinite, (*consts, mode_shift))):
        raise DomainError(_outside(law))
    p, q, r, t, s, t_shift, s_shift, eta, zeta, vartheta, xi = consts

    out = np.empty(n)
    filled = 0
    while filled < n:
        m = n - filled
        u, v, w = rng.random((3, m))
        cand = np.where(
            u < q / (p + q + r),
            -s_shift + q * v,
            np.where(u < (q + r) / (p + q + r),
                     t_shift - r * np.log(v),
                     -s_shift + p * np.log(v)))
        env = np.where((cand >= -s_shift) & (cand <= t_shift), 1.0,
                       np.where(cand > t_shift,
                                np.exp(-eta - zeta * (cand - t)),
                                np.exp(-vartheta + xi * (cand + s))))
        accept = w * env <= np.exp(psi(cand))
        k = int(np.count_nonzero(accept))
        out[filled:filled + k] = cand[accept]
        filled += k

    with np.errstate(over="ignore", invalid="ignore"):  # `draw` checks the draws
        z = np.exp(out) * mode_shift
        if lam < 0.0:
            z = 1.0 / z
        return z * math.sqrt(b / a)


def draw(law: GigParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws using an existing generator stream; a draw outside
    (0, inf) raises DomainError."""
    if n < 1:
        raise DomainError("need n >= 1")
    if law.b == 0.0:
        out = rng.gamma(law.lam, 1.0 / law.a, size=n)
    elif law.a == 0.0:
        with np.errstate(divide="ignore"):  # checked below
            out = 1.0 / rng.gamma(-law.lam, 1.0 / law.b, size=n)
    else:
        out = _sample_gig(law, rng, n)
    return positive(_outside(law), out)


def sample(law: GigParams, seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. exact draws, deterministic for a given (seed, stream)."""
    return draw(law, rng_stream(seed, stream), n)


# ---------------------------------------------------------------------------
# invariant battery (CLI `dist check`)
# ---------------------------------------------------------------------------

_KS_N = 100_000  # draws per law in the sampler KS battery


def _ks_battery_points():
    # 20 distinct shapes (lam, a b): eight mixed ones, then each lam at a b
    # = 1e-4 (near the Gamma or inverse-Gamma limit), 1e-2 and 1e3 in turn
    lams = [-5.0, -2.0, -0.5, 0.0, 0.7, 1.5, 3.0, 5.0]
    abs_ = [(0.1, 1.0), (1.0, 0.1), (1.0, 1.0), (3.0, 7.0), (10.0, 10.0),
            (0.1, 10.0), (10.0, 0.1), (2.5, 0.4)]
    return ([GigParams(lam, *ab) for lam, ab in zip(lams, abs_)]
            + [GigParams(lams[i % 8], 1.0, (1e-4, 1e-2, 1e3)[(i - 8) % 3])
               for i in range(8, 20)])


def check_battery(seed: int = 20260809):
    """Invariant rows (test, statistic, threshold, pass) for `dist check`."""
    rows = []

    # pointwise reciprocity of log densities on a log grid
    res = 0.0
    grid = np.geomspace(1e-3, 1e3, 61)
    for law in (GigParams(0.7, 2.0, 0.5), GigParams(-1.3, 0.3, 4.0)):
        rec = reciprocal_law(law)
        lhs = log_pdf(law, grid)
        rhs = log_pdf(rec, 1.0 / grid) - 2.0 * np.log(grid)
        res = max(res, float(np.max(np.abs(lhs - rhs))))
    rows.append(("reciprocity_pointwise", res, 1e-10, res <= 1e-10))

    # weak limits: GIG -> Gamma (b -> 0) and GIG -> InvGamma (a -> 0)
    lam, rate = 1.2, 0.8
    xs = np.geomspace(0.05, 20.0, 40)
    d_gamma = float(np.max(np.abs(cdf(GigParams(lam, rate, 1e-8), xs)
                                  - cdf(GigParams(lam, rate, 0.0), xs))))
    rows.append(("weak_limit_gamma", d_gamma, 1e-3, d_gamma <= 1e-3))
    d_inv = float(np.max(np.abs(cdf(GigParams(-lam, 1e-8, rate), xs)
                                - cdf(GigParams(-lam, 0.0, rate), xs))))
    rows.append(("weak_limit_invgamma", d_inv, 1e-3, d_inv <= 1e-3))

    # transform vs direct quadrature of the tilted density
    law = GigParams(0.3, 2.0, 1.0)
    s, sg, th = 0.0, -0.7, -1.1
    t_lo, t_hi, width = _window(law)
    edges = np.linspace(t_lo - 3.0, t_hi + 3.0, 2400)
    mids = 0.5 * (edges[:-1] + edges[1:])
    # a 16-node rule of its own, independent of the rule `cdf` uses
    integ, center = 0.0, _log_weight_center(law)
    for k, wgt in zip(*np.polynomial.legendre.leggauss(16)):
        nodes = mids + 0.5 * (edges[1] - edges[0]) * k
        x = np.exp(nodes)
        integ += wgt * np.sum(np.exp(_log_weight(law, nodes, center) + s * nodes
                                     + sg * x + th / x))
    integ *= 0.5 * (edges[1] - edges[0])
    rel = abs(integ - ext_laplace(law, s, sg, th)) / ext_laplace(law, s, sg, th)
    rows.append(("ext_laplace_vs_quadrature", rel, 1e-8, rel <= 1e-8))

    # sampler KS battery
    worst_p = 1.0
    for i, law in enumerate(_ks_battery_points()):
        xs = sample(law, seed, _KS_N, stream=i)
        _, p = ks_1samp(xs, lambda v: cdf(law, v))
        worst_p = min(worst_p, p)
    rows.append(("sampler_ks_min_p", worst_p, 0.01, worst_p > 0.01))

    return rows
