"""GIG, Gamma and inverse-Gamma laws on (0, inf).

Densities are normalized in log space through `specfun`.  The CDFs of the
two limit families are the regularized incomplete gamma functions; the GIG
CDF, which has no closed form, is computed by panel quadrature of the
density in the log variable, where the integrand is analytic and decays
doubly exponentially.  Sampling is exact: a three-piece-envelope rejection
sampler in the log variable for the GIG (valid for every real order via
reciprocity), and the generator's gamma method for the two limit families.

Parameter convention (density kernels on x > 0):

    GIG(lam, a, b)   ~ x^(lam-1) exp(-a x - b / x),      a, b > 0
    Gamma(lam, a)    ~ x^(lam-1) exp(-a x),              lam, a > 0
    InvGamma(lam, b) ~ x^(-lam-1) exp(-b / x),           lam, b > 0

Gamma and InvGamma are the weak limits of the GIG for b -> 0 and a -> 0;
they are separate variants because the GIG normalizer is singular there.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc

from . import specfun
from .errors import DomainError
from .rng import rng_stream

__all__ = [
    "GigParams",
    "GammaParams",
    "InvGammaParams",
    "MarginalLaw",
    "make_law",
    "log_pdf",
    "cdf",
    "ext_laplace",
    "ext_laplace_log",
    "gig_moment",
    "sample",
    "draw",
    "reciprocal_law",
    "tilt",
    "check_battery",
]


@dataclass(frozen=True)
class GigParams:
    """Order and rates of a GIG law; strict interior (a, b > 0)."""

    lam: float
    a: float
    b: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.a, self.b))):
            raise DomainError("GIG parameters must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise DomainError(f"GIG requires a > 0 and b > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class GammaParams:
    lam: float
    a: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.a < math.inf):
            raise DomainError(f"Gamma requires finite lam > 0 and a > 0, got {self}")


@dataclass(frozen=True)
class InvGammaParams:
    lam: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.lam < math.inf and 0.0 < self.b < math.inf):
            raise DomainError(f"InvGamma requires finite lam > 0 and b > 0, got {self}")


MarginalLaw = GigParams | GammaParams | InvGammaParams


def make_law(lam: float, a: float, b: float) -> MarginalLaw:
    """GIG(lam, a, b) with zero rates mapped to the limit families.

    a == 0 yields InvGamma(-lam, b) (needs lam < 0), b == 0 yields
    Gamma(lam, a) (needs lam > 0); both zero is rejected.
    """
    if a < 0.0 or b < 0.0:
        raise DomainError("rates must be >= 0")
    if a == 0.0 and b == 0.0:
        raise DomainError("a and b cannot both be zero")
    if a == 0.0:
        return InvGammaParams(-lam, b)
    if b == 0.0:
        return GammaParams(lam, a)
    return GigParams(lam, a, b)


def _log_norm(law: MarginalLaw) -> float:
    # log of the density's normalizing constant (the multiplier, not its
    # reciprocal)
    if isinstance(law, GigParams):
        return (0.5 * law.lam * (math.log(law.a) - math.log(law.b))
                - math.log(2.0)
                - specfun.bessel_k_log(law.lam, 2.0 * math.sqrt(law.a * law.b)))
    if isinstance(law, GammaParams):
        return law.lam * math.log(law.a) - specfun.log_gamma(law.lam)
    return law.lam * math.log(law.b) - specfun.log_gamma(law.lam)


def log_pdf(law: MarginalLaw, x) -> float | np.ndarray:
    """Log of the normalized density at x > 0."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv <= 0.0) or not np.all(np.isfinite(xv)):
        raise DomainError("log_pdf requires x > 0")
    t = np.log(xv)
    if isinstance(law, GigParams):
        out = _log_norm(law) + (law.lam - 1.0) * t - law.a * xv - law.b / xv
    elif isinstance(law, GammaParams):
        out = _log_norm(law) + (law.lam - 1.0) * t - law.a * xv
    else:
        out = _log_norm(law) + (-law.lam - 1.0) * t - law.b / xv
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# CDF: incomplete gamma functions, and quadrature for the GIG
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _log_weight(law: GigParams, t: np.ndarray) -> np.ndarray:
    # integrand of the CDF after x = e^t:  w(t) = f(e^t) e^t
    x = np.exp(t)
    return _log_norm(law) + law.lam * t - law.a * x - law.b / x


def _weight_mode(law: GigParams) -> float:
    # maximizer of t -> log w(t)
    lam, a, b = law.lam, law.a, law.b
    return math.log((lam + math.sqrt(lam * lam + 4.0 * a * b)) / (2.0 * a))


def _window(law: GigParams):
    # (t_lo, t_hi, panel width): region outside carries < ~1e-15 mass
    t0 = _weight_mode(law)
    lw0 = float(_log_weight(law, np.array(t0)))

    def expand(direction):
        step, t = 1.0, t0
        while float(_log_weight(law, np.array(t + direction * step))) > lw0 - 130.0:
            step *= 2.0
            if step > 1e12:
                raise DomainError("CDF integrand fails to decay")
        return t + direction * step

    # curvature of log w at the mode sets the narrowest feature scale
    m = math.exp(t0)
    width = min(0.25, 1.5 / math.sqrt(1.0 + law.a * m + law.b / m))
    return expand(-1.0), expand(+1.0), width


def _panel_integrals(law: GigParams, edges: np.ndarray, width: float) -> np.ndarray:
    # integral of w over each [edges[i], edges[i+1]], Gauss-Legendre on
    # subpanels no wider than `width`
    lo, hi = edges[:-1], edges[1:]
    n_sub = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    owner = np.repeat(np.arange(len(lo)), n_sub)
    steps = np.repeat((hi - lo) / n_sub, n_sub)
    # index of each subpanel within its panel
    offset = np.arange(n_sub.sum()) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    sub_lo = lo[owner] + offset * steps
    half = 0.5 * steps
    nodes = sub_lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
    vals = np.exp(_log_weight(law, nodes.ravel())).reshape(nodes.shape)
    sub = (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half
    out = np.zeros(len(lo))
    np.add.at(out, owner, sub)
    return out


def cdf(law: MarginalLaw, x) -> float | np.ndarray:
    """P(X <= x), monotone in x; vectorized over an array of query points.

    Gamma(lam, a) and InvGamma(lam, b) are exact: the regularized incomplete
    gamma functions P(lam, a x) and Q(lam, b / x), whose cost does not
    depend on lam.  The GIG is integrated by quadrature to absolute accuracy
    ~1e-12.
    """
    xv = np.asarray(x, dtype=float)
    scalar = xv.ndim == 0
    xs = np.atleast_1d(xv)
    if np.any(xs <= 0.0) or not np.all(np.isfinite(xs)):
        raise DomainError("cdf requires x > 0")
    if not isinstance(law, GigParams):
        with np.errstate(over="ignore"):  # an infinite argument is the exact limit
            out = (gammainc(law.lam, law.a * xs) if isinstance(law, GammaParams)
                   else gammaincc(law.lam, law.b / xs))
        return float(out[0]) if scalar else out
    # the query points are sorted once and the density is integrated
    # panel-by-panel between consecutive points, all subpanels in
    # whole-array operations, so a full KS-test evaluation costs one pass
    t_lo, t_hi, width = _window(law)
    t = np.log(xs)
    order = np.argsort(t, kind="stable")
    ts = np.clip(t[order], t_lo, t_hi)
    edges = np.concatenate([[t_lo], ts])
    panels = _panel_integrals(law, edges, width)
    vals = np.clip(np.cumsum(panels), 0.0, 1.0)
    out = np.empty_like(vals)
    out[order] = vals
    out[t <= t_lo] = 0.0
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# extended Laplace transform and exponential tilting
# ---------------------------------------------------------------------------

def ext_laplace_log(law: GigParams, s: float, sigma: float, theta: float) -> float:
    """log E[X^s exp(sigma X + theta / X)] for X ~ GIG(lam, a, b).

    Requires sigma < a and theta < b; the transform is the ratio of two
    GIG normalizers and evaluates through log Bessel values.
    """
    if not isinstance(law, GigParams):
        raise DomainError("ext_laplace is defined for GIG laws")
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


def gig_moment(law: GigParams, order: float) -> float:
    """E[X^order] = (b/a)^(order/2) K_(lam+order) / K_lam at 2 sqrt(ab)."""
    return ext_laplace(law, order, 0.0, 0.0)


def reciprocal_law(law: MarginalLaw) -> MarginalLaw:
    """Law of 1/X: GIG(lam,a,b) -> GIG(-lam,b,a); Gamma <-> InvGamma."""
    if isinstance(law, GigParams):
        return GigParams(-law.lam, law.b, law.a)
    if isinstance(law, GammaParams):
        return InvGammaParams(law.lam, law.a)
    return GammaParams(law.lam, law.b)


def tilt(law: GigParams, s: float, a_tilt: float, b_tilt: float) -> GigParams:
    """Reweight by x^s exp(a_tilt x + b_tilt / x) and renormalize.

    GIG(lam, a, b) -> GIG(lam + s, a - a_tilt, b - b_tilt); tilts compose
    additively.  Requires a_tilt < a and b_tilt < b.
    """
    if not isinstance(law, GigParams):
        raise DomainError("tilt is defined for GIG laws")
    if not (a_tilt < law.a and b_tilt < law.b):
        raise DomainError(f"tilt bounds violated for {law}: ({s}, {a_tilt}, {b_tilt})")
    return GigParams(law.lam + s, law.a - a_tilt, law.b - b_tilt)


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


def _sample_gig(law: GigParams, rng: np.random.Generator, n: int) -> np.ndarray:
    lam, a, b = law.lam, law.a, law.b
    lam_abs = abs(lam)
    omega = 2.0 * math.sqrt(a * b)
    # where a b underflows or the envelope overflows to nan, the acceptance
    # test below would fail forever
    psi, consts = _gig_envelope(lam_abs, omega) if omega > 0.0 else (None, [math.nan])
    if not all(map(math.isfinite, consts)):
        raise DomainError(f"{law} lies outside the sampler's floating-point range")
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

    mode_shift = lam_abs / omega + math.sqrt(1.0 + (lam_abs / omega) ** 2)
    z = np.exp(out) * mode_shift
    if lam < 0.0:
        z = 1.0 / z
    return z * math.sqrt(b / a)


def draw(law: MarginalLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws using an existing generator stream."""
    if n < 1:
        raise DomainError("need n >= 1")
    if isinstance(law, GigParams):
        return _sample_gig(law, rng, n)
    if isinstance(law, GammaParams):
        return rng.gamma(law.lam, 1.0 / law.a, size=n)
    return 1.0 / rng.gamma(law.lam, 1.0 / law.b, size=n)


def sample(law: MarginalLaw, seed: int, n: int, stream: int = 0) -> np.ndarray:
    """n i.i.d. exact draws, deterministic for a given (seed, stream)."""
    return draw(law, rng_stream(seed, stream), n)


# ---------------------------------------------------------------------------
# invariant battery (CLI `dist check`)
# ---------------------------------------------------------------------------

def _ks_battery_points():
    lams = [-5.0, -2.0, -0.5, 0.0, 0.7, 1.5, 3.0, 5.0]
    abs_ = [(0.1, 1.0), (1.0, 0.1), (1.0, 1.0), (3.0, 7.0), (10.0, 10.0),
            (0.1, 10.0), (10.0, 0.1), (2.5, 0.4)]
    pts = []
    for i in range(20):
        pts.append(GigParams(lams[i % len(lams)], *abs_[i % len(abs_)]))
    return pts


def check_battery(seed: int = 20260809, ks_n: int = 100_000):
    """Invariant rows (test, statistic, threshold, pass) for `dist check`."""
    from scipy import stats

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
                                  - cdf(GammaParams(lam, rate), xs))))
    rows.append(("weak_limit_gamma", d_gamma, 1e-3, d_gamma <= 1e-3))
    d_inv = float(np.max(np.abs(cdf(GigParams(-lam, 1e-8, rate), xs)
                                - cdf(InvGammaParams(lam, rate), xs))))
    rows.append(("weak_limit_invgamma", d_inv, 1e-3, d_inv <= 1e-3))

    # transform vs direct quadrature of the tilted density
    law = GigParams(0.3, 2.0, 1.0)
    s, sg, th = 0.0, -0.7, -1.1
    t_lo, t_hi, width = _window(law)
    edges = np.linspace(t_lo - 3.0, t_hi + 3.0, 2400)
    mids = 0.5 * (edges[:-1] + edges[1:])
    integ = 0.0
    for k, wgt in zip(_GL_NODES, _GL_WEIGHTS):
        nodes = mids + 0.5 * (edges[1] - edges[0]) * k
        x = np.exp(nodes)
        integ += wgt * np.sum(np.exp(_log_weight(law, nodes) + s * nodes
                                     + sg * x + th / x))
    integ *= 0.5 * (edges[1] - edges[0])
    rel = abs(integ - ext_laplace(law, s, sg, th)) / ext_laplace(law, s, sg, th)
    rows.append(("ext_laplace_vs_quadrature", rel, 1e-8, rel <= 1e-8))

    # sampler KS battery
    worst_p = 1.0
    for i, law in enumerate(_ks_battery_points()):
        xs = sample(law, seed, ks_n, stream=i)
        p = stats.kstest(xs, lambda v: cdf(law, v)).pvalue
        worst_p = min(worst_p, p)
    rows.append(("sampler_ks_min_p", worst_p, 0.01, worst_p > 0.01))

    return rows
