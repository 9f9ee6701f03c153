"""SPD-cone linear algebra, the matrix cell map, and the MGIG law.

The map

    F(x, y) = ( y (I + a x y)^-1 (I + b x y),
                x (I + b y x)^-1 (I + a y x) ),     a = alpha, b = beta,

is an involution on pairs of symmetric positive-definite matrices with
|Jacobian| = 1 and the product identity u v = y x.  The MGIG(p, a, b) law
has density proportional to

    det(x)^(p - (r+1)/2) exp(-(tr(a x) + tr(b x^-1)) / 2)

on the SPD cone.  Draws are exact: Bartlett draws from a Wishart envelope
of x or of x^-1, accepted with probability h / sup h, where sup h has a
closed form.  Where the envelope's first block accepts under 1 % (a b ill
conditioned, or r >= 4 at most orders p), sampling is Metropolis-Hastings
on the Cholesky factor with burn-in-only scale adaptation.  The normalizer
has no closed form for r >= 2 (exact Bessel form at r = 1); it is the
envelope's mass times the mean of h / sup h over its proposals, drawn in
vectorized blocks.  Each h comes from the Bartlett factor itself: log det
x and tr(b x^-1) need no x, Cholesky or inverse per draw.

Symmetric matrices are flattened isometrically (off-diagonal entries
weighted by sqrt(2)) so that finite-difference Jacobian determinants agree
with the intrinsic matrix calculus.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import specfun
from .errors import DomainError, IllConditionedError, NotSpdError
from .maps import MapParams
from .rng import rng_stream

__all__ = [
    "COND_CEILING",
    "MgigParams",
    "McmcConfig",
    "MgigSample",
    "check_spd",
    "random_spd",
    "sym_to_vec",
    "vec_to_sym",
    "f_dk_matrix",
    "jacobian_abs_matrix",
    "mgig_log_pdf_unnorm",
    "mgig_log_norm",
    "mgig_mode",
    "mgig_sample",
    "endo_det_residual",
    "prop51_battery",
]

COND_CEILING = 1e12
# Wishart draws built and weighed at once by mgig_log_norm and by exact sampling
# up to r = 3; above, 9 _BLOCK / r^2 of them, so that a block's (n, r, r)
# arrays keep their size at r = 3 (`_block`)
_BLOCK = 1 << 14
# exact sampling falls back to the chains when its first block accepts less
_EXACT_MIN_ACCEPT = 0.01


def check_spd(x, what: str = "matrix") -> np.ndarray:
    """Validate symmetry (to 1e-12 relative) and positive definiteness."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise NotSpdError(f"{what} must be square, got shape {x.shape}")
    with np.errstate(over="ignore"):  # entries above ~1e154 overflow it
        scale = np.linalg.norm(x)
    if not 0.0 < scale < np.inf:
        raise NotSpdError(f"{what} needs finite entries and a finite, nonzero norm")
    if np.linalg.norm(x - x.T) > 1e-12 * scale:
        raise NotSpdError(f"{what} is not symmetric")
    x = 0.5 * (x + x.T)
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        raise NotSpdError(f"{what} is not positive definite") from None
    return x


def random_spd(r: int, rng: np.random.Generator) -> np.ndarray:
    """Well-conditioned random SPD matrix: random rotation of
    eigenvalues exp(U(-1, 1))."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    eig = np.exp(rng.uniform(-1.0, 1.0, size=r))
    return check_spd(q @ np.diag(eig) @ q.T)


def _sqrtm_spd(x: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(x)
    return q @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ q.T


def sym_to_vec(x: np.ndarray) -> np.ndarray:
    """Isometric flattening: diagonal entries then sqrt(2)-weighted
    upper-triangle entries."""
    r = x.shape[-1]
    iu = np.triu_indices(r, k=1)
    return np.concatenate([np.diagonal(x, axis1=-2, axis2=-1),
                           math.sqrt(2.0) * x[..., iu[0], iu[1]]], axis=-1)


def vec_to_sym(v: np.ndarray, r: int) -> np.ndarray:
    """Inverse of `sym_to_vec`."""
    iu = np.triu_indices(r, k=1)
    x = np.zeros(v.shape[:-1] + (r, r))
    x[..., np.arange(r), np.arange(r)] = v[..., :r]
    off = v[..., r:] / math.sqrt(2.0)
    x[..., iu[0], iu[1]] = off
    x[..., iu[1], iu[0]] = off
    return x


# ---------------------------------------------------------------------------
# the matrix cell map
# ---------------------------------------------------------------------------

def f_dk_matrix(p: MapParams, xy):
    """Map an SPD pair (or batch of pairs, shape (..., r, r)) through F.

    Outputs are re-symmetrized after an asymmetry check (1e-8 relative) and
    verified SPD.
    Raises IllConditionedError when an intermediate inverse exceeds the
    condition ceiling, NotSpdError when an image leaves the cone, and
    DomainError when an image's norm leaves the floating-point range.
    """
    if not (p.alpha > 0.0 and p.beta > 0.0):
        raise DomainError("matrix map requires alpha > 0 and beta > 0")
    x, y = (np.asarray(m, dtype=float) for m in xy)
    if x.shape != y.shape or x.shape[-1] != x.shape[-2]:
        raise DomainError(f"shape mismatch: {x.shape} vs {y.shape}")
    r = x.shape[-1]
    eye = np.eye(r)
    xy_ = x @ y
    yx_ = y @ x
    with np.errstate(over="ignore"):  # an overflow fails the ceiling below
        a_x = eye + p.alpha * xy_
        a_y = eye + p.beta * yx_
    cond = max(np.max(np.linalg.cond(a_x)), np.max(np.linalg.cond(a_y)))
    if cond > COND_CEILING:
        raise IllConditionedError(
            f"intermediate condition number {cond:.3e} exceeds {COND_CEILING:.0e}")
    u = y @ np.linalg.solve(a_x, eye + p.beta * xy_)
    v = x @ np.linalg.solve(a_y, eye + p.alpha * yx_)

    def finish(m, name):
        with np.errstate(over="ignore"):  # entries above ~1e154 overflow it
            scale = np.linalg.norm(m, axis=(-2, -1))
        if not np.all(scale < np.inf):
            raise DomainError(f"image {name} leaves the floating-point range")
        asym = np.linalg.norm(m - np.swapaxes(m, -1, -2), axis=(-2, -1))
        if np.any(asym > 1e-8 * scale):
            raise NotSpdError(f"image {name} asymmetric beyond tolerance")
        m = 0.5 * (m + np.swapaxes(m, -1, -2))
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotSpdError(f"image {name} is not positive definite") from None
        return m

    return finish(u, "u"), finish(v, "v")


def jacobian_abs_matrix(p: MapParams, xy) -> float:
    """|det| of the finite-difference Jacobian of F in isometric coordinates,
    by central differences with step 1e-6 * max(1, |coordinate|).

    The map acts on two symmetric matrices, d = r(r+1) free coordinates;
    cost grows like d^2 map evaluations, so dimensions above 4 are
    rejected.
    """
    x = check_spd(xy[0], "x")
    y = check_spd(xy[1], "y")
    r = x.shape[0]
    if r > 4:
        raise DomainError("finite-difference Jacobian is limited to r <= 4")
    d_half = r * (r + 1) // 2
    z0 = np.concatenate([sym_to_vec(x), sym_to_vec(y)])
    d = 2 * d_half

    def apply(z):
        u, v = f_dk_matrix(p, (vec_to_sym(z[:d_half], r), vec_to_sym(z[d_half:], r)))
        return np.concatenate([sym_to_vec(u), sym_to_vec(v)])

    jac = np.empty((d, d))
    for i in range(d):
        h = 1e-6 * max(1.0, abs(z0[i]))
        zp, zm = z0.copy(), z0.copy()
        zp[i] += h
        zm[i] -= h
        jac[:, i] = (apply(zp) - apply(zm)) / (2.0 * h)
    return abs(float(np.linalg.det(jac)))


def endo_det_residual(x) -> float:
    """Relative residual of Det(h -> x h x) = (det x)^(r+1) on symmetrics."""
    x = check_spd(x)
    r = x.shape[0]
    d = r * (r + 1) // 2
    op = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        op[:, j] = sym_to_vec(x @ vec_to_sym(e, r) @ x)
    target = np.linalg.det(x) ** (r + 1)
    return abs(float(np.linalg.det(op)) - target) / target


# ---------------------------------------------------------------------------
# MGIG law
# ---------------------------------------------------------------------------

@dataclass
class MgigParams:
    """Order p and SPD rate matrices (a, b) of an MGIG law."""

    p: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = check_spd(self.a, "a")
        self.b = check_spd(self.b, "b")
        if self.a.shape != self.b.shape:
            raise DomainError("a and b must have equal dimension")
        if not math.isfinite(self.p):
            raise DomainError("p must be finite")

    @property
    def r(self) -> int:
        return self.a.shape[0]


def _logdet_spd(x: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(x)
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)


def mgig_log_pdf_unnorm(params: MgigParams, x) -> float | np.ndarray:
    """Log of the unnormalized MGIG density; batched over leading axes."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 2
    if single:
        x = check_spd(x, "x")[None]
    r = params.r
    if x.shape[-1] != r:
        raise DomainError("dimension mismatch with the law")
    try:
        out = sum(_log_kernel_terms(params, x))
    except np.linalg.LinAlgError:
        raise NotSpdError("x must be positive definite") from None
    return float(out[0]) if single else out


def _log_kernel_terms(params: MgigParams, x: np.ndarray):
    # the three terms of the unnormalized log density at x, one matrix or a
    # batch
    ld = _logdet_spd(x)
    tr_ax = np.einsum("ij,...ji->...", params.a, x)
    tr_bxi = np.einsum("ij,...ji->...", params.b, np.linalg.inv(x))
    return (params.p - 0.5 * (params.r + 1)) * ld, -0.5 * tr_ax, -0.5 * tr_bxi


def mgig_mode(params: MgigParams) -> np.ndarray:
    """Maximizer of the density: the SPD root of  x a x - (2p - r - 1) x = b.

    Conjugating by a^(1/2) turns the quadratic into a scalar-like one, so
    the mode is exact:  x* = a^-1/2 [ (c/2) I + ((c/2)^2 I + a^1/2 b
    a^1/2)^1/2 ] a^-1/2  with c = 2p - (r+1).
    """
    c = 2.0 * params.p - (params.r + 1)
    a_half = _sqrtm_spd(params.a)
    a_half_inv = np.linalg.inv(a_half)
    inner = (c * c / 4.0) * np.eye(params.r) + a_half @ params.b @ a_half
    root = _sqrtm_spd(0.5 * (inner + inner.T))
    x = a_half_inv @ ((c / 2.0) * np.eye(params.r) + root) @ a_half_inv
    return check_spd(x, "mode")


def _bartlett_variates(df: float, r: int, n: int, rng: np.random.Generator):
    # the random part of n Bartlett draws x = C A A^T C^T, C = chol(v), with
    # A from `_bartlett_factors`: the normals below the diagonal,
    # (n, r(r-1)/2), then the diagonal sqrt(chi2(df - i)), (r, n), drawn in
    # the order scipy.stats.wishart.rvs consumes the generator
    normals = rng.normal(size=n * (r * (r - 1) // 2)).reshape(n, -1)
    diag = np.empty((r, n))
    for i in range(r):
        diag[i] = rng.chisquare(df - i, size=n) ** 0.5
    return normals, diag


def _bartlett_factors(normals: np.ndarray, diag: np.ndarray) -> np.ndarray:
    # the lower triangular A of Bartlett (1933), holding `normals` below its
    # diagonal and `diag` on it, one per draw
    r = diag.shape[0]
    il = np.tril_indices(r, k=-1)
    a = np.zeros((len(normals), r, r))
    a[:, il[0], il[1]] = normals
    a[:, np.arange(r), np.arange(r)] = diag.T
    return a


def _block(r: int) -> int:
    return max(1, min(_BLOCK, 9 * _BLOCK // (r * r)))


def _lower_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    # low^-1 rhs for a batch of lower triangular low, by forward
    # substitution; a zero pivot gives inf or nan, not an error
    y = np.empty(low.shape[:1] + rhs.shape)
    for i in range(rhs.shape[0]):
        y[:, i] = (rhs[i] - np.einsum("nj,njk->nk", low[:, i, :i], y[:, :i])
                   ) / low[:, i, i, None]
    return y


def mgig_log_norm(params: MgigParams, seed: int = 0, n: int = 200_000):
    """(log normalizer, standard error of the log).

    r = 1 is the exact scalar Bessel form (se = 0).  For r >= 2, log Z is
    the log mass of the exact sampler's Wishart envelope plus the log mean
    of h / sup h, a weight in [0, 1], over n of its proposals; the returned
    se is the delta-method error of the log and should gate any tolerance
    that consumes this value.  Raises DomainError when the weights'
    effective size (sum w)^2 / sum w^2 is below 1,000: one weight then
    dominates, and the se is about 1 nat whatever the real error.
    """
    if params.r == 1:
        a, b = float(params.a[0, 0]), float(params.b[0, 0])
        ln = (math.log(2.0) + 0.5 * params.p * (math.log(b) - math.log(a))
              + specfun.bessel_k_log(params.p, math.sqrt(a * b)))
        return ln, 0.0
    env = _envelope_setup(params)
    rng = rng_stream(seed, 90_001)
    # the proposals are drawn and weighed a block at a time, so only the log
    # weights are held for all n
    lw = np.empty(n)
    size = _block(params.r)
    for s in range(0, n, size):
        block = lw[s:s + size]
        block[:] = _weigh(env, *_bartlett_variates(env.nu, params.r, len(block), rng))[2]
    m = np.max(lw)
    w = np.exp(lw - m)
    mean_w = float(np.mean(w))
    ess = mean_w * mean_w * n / float(np.mean(w * w))
    if not ess >= 1000.0:
        raise DomainError(f"the MGIG normalizer's importance weights have effective size "
                          f"{ess:.3g} of {n} draws, below 1000")
    se = float(np.std(w) / (mean_w * math.sqrt(n)))
    return env.log_mass + m + math.log(mean_w), se


# ---------------------------------------------------------------------------
# MCMC sampling on the Cholesky factor
# ---------------------------------------------------------------------------

@dataclass
class McmcConfig:
    """Burn-in and thinning of `mgig_sample`; the number of chains, the
    initial step and its adaptation during burn-in are class constants."""

    burn_in: int = 3000
    thin: int = 10
    chains = 8
    step = 0.4
    target_accept = 0.3
    adapt_every = 50

    def __post_init__(self):
        for name, low in (("burn_in", 0), ("thin", 1)):
            if not getattr(self, name) >= low:
                raise DomainError(f"MCMC {name} must be >= {low}, "
                                  f"got {getattr(self, name)}")


@dataclass
class MgigSample:
    """Draws plus the diagnostics of the run that produced them."""

    draws: np.ndarray            # (n, r, r)
    acceptance_rate: float
    rhat: dict = field(default_factory=dict)
    ess: dict = field(default_factory=dict)
    step: float = 0.0
    seed: int = 0
    ok: bool = False
    sampler: str = "mcmc"        # or "rejection", for exact draws

    def diagnostics_dict(self) -> dict:
        return {
            "sampler": self.sampler,
            "acceptance_rate": self.acceptance_rate,
            "rhat": dict(self.rhat),
            "ess": dict(self.ess),
            "step": self.step,
            "seed": self.seed,
            "ok": self.ok,
        }


def _split_rhat(series: np.ndarray) -> float:
    # series shape (chains, n); split-chain potential scale reduction
    c, n = series.shape
    half = n // 2
    parts = series[:, :2 * half].reshape(2 * c, half)
    means = parts.mean(axis=1)
    w = float(np.mean(parts.var(axis=1, ddof=1)))
    b = half * float(np.var(means, ddof=1))
    var_plus = (half - 1) / half * w + b / half
    if w <= 0.0:
        return float("inf")
    return math.sqrt(var_plus / w)


def _ess(series: np.ndarray) -> float:
    # Geyer initial-positive-sequence estimate over pooled chains
    c, n = series.shape
    centered = series - series.mean(axis=1, keepdims=True)
    acf = np.zeros(n)
    for row in centered:
        f = np.fft.rfft(np.concatenate([row, np.zeros(n)]))
        ac = np.fft.irfft(f * np.conj(f))[:n]
        acf += ac / ac[0] if ac[0] > 0 else 0.0
    acf /= c
    tau = 1.0
    for k in range(1, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return c * n / tau


def _log_gamma_r(x: float, r: int) -> float:
    # log of the multivariate gamma function Gamma_r(x)
    return 0.25 * r * (r - 1) * math.log(math.pi) + sum(
        math.lgamma(x - 0.5 * i) for i in range(r))


def _envelope(p: float, a: np.ndarray, b: np.ndarray):
    """(log mass, nu, k, log sup h) of the best Wishart(nu, a^-1) envelope
    of MGIG(p, a, b).

    The MGIG kernel over the Wishart kernel is h(x) = |x|^-k e^(-tr(b x^-1)/2)
    with k = nu/2 - p > 0, and whitening by b gives sup h = |b|^-k (2k)^(rk)
    e^(-rk).  The Wishart normalizer times sup h is the MGIG normalizer over
    the acceptance rate, so nu minimizes it, over nu > max(r - 1, 2p).  The
    mass is convex in nu with its minimum inside that range, and a
    golden-section search over s = log(nu - max(r - 1, 2p)) finds it.
    """
    r = a.shape[0]
    ld_a, ld_b = _logdet_spd(a), _logdet_spd(b)
    lo = max(r - 1.0, 2.0 * p)

    def terms(s):
        nu, k = lo + math.exp(s), 0.5 * (lo - 2.0 * p + math.exp(s))
        log_sup = -k * ld_b + r * k * (math.log(2.0 * k) - 1.0)
        wishart = 0.5 * nu * (r * math.log(2.0) - ld_a) + _log_gamma_r(0.5 * nu, r)
        return wishart + log_sup, nu, k, log_sup

    shrink = 0.5 * (math.sqrt(5.0) - 1.0)
    s0, s1 = -30.0, 15.0
    for _ in range(60):
        m0, m1 = s1 - shrink * (s1 - s0), s0 + shrink * (s1 - s0)
        if terms(m0)[0] < terms(m1)[0]:
            s1 = m1
        else:
            s0 = m0
    return terms(0.5 * (s0 + s1))


class _EnvelopeSetup(NamedTuple):
    # the better of the two Wishart envelopes of an MGIG law (`_envelope`):
    # of x ~ MGIG(p, a, b), or of x^-1 ~ MGIG(-p, b, a), whose normalizer is
    # the same, so their masses compare the acceptance rates.  Its proposals
    # are y = C A A^T C^T with C = chol(a^-1) of that side, weighed from A
    log_mass: float
    nu: float
    k: float
    log_sup: float
    mirrored: bool
    chol_v: np.ndarray
    ld_v: float          # log det C C^T
    c_inv: np.ndarray
    whiten: np.ndarray   # C^-1 chol(b), so that tr(b y^-1) = |A^-1 whiten|_F^2


def _envelope_setup(params: MgigParams) -> _EnvelopeSetup:
    sides = [(params.p, params.a, params.b), (-params.p, params.b, params.a)]
    envelopes = [_envelope(*side) for side in sides]
    mirrored = bool(envelopes[1][0] < envelopes[0][0])
    _, a, b = sides[mirrored]
    chol_v = np.linalg.cholesky(np.linalg.inv(a))
    c_inv = np.linalg.inv(chol_v)
    return _EnvelopeSetup(*envelopes[mirrored], mirrored, chol_v, -_logdet_spd(a),
                          c_inv, c_inv @ np.linalg.cholesky(b))


def _weigh(env: _EnvelopeSetup, normals: np.ndarray, diag: np.ndarray):
    # (A, log det y, log h - log sup h) of the proposals y = C A A^T C^T of
    # env whose Bartlett factors A hold `normals` and `diag`.  chi-square
    # variates of small df underflow to 0, so a proposal may be singular;
    # its log h is then -inf
    factor = _bartlett_factors(normals, diag)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ld_y = 2.0 * np.sum(np.log(diag), axis=0) + env.ld_v
        tr_byi = np.sum(_lower_solve(factor, env.whiten) ** 2, axis=(1, 2))
        log_h = -env.k * ld_y - 0.5 * tr_byi
    log_h[~np.isfinite(log_h)] = -np.inf
    return factor, ld_y, log_h - env.log_sup


def _mgig_rejection(params: MgigParams, seed: int, n: int) -> MgigSample | None:
    # exact draws by rejection from the envelope of `_envelope_setup`; None
    # when the first block accepts fewer than _EXACT_MIN_ACCEPT
    env = _envelope_setup(params)
    r = params.r
    size = _block(r)
    out = np.empty((n, r, r))
    ld = np.empty(n)
    rng = rng_stream(seed, 77_002)
    filled = accepted = proposed = 0
    worst = -math.inf  # the largest log h - log sup h met, <= 0 in exact arithmetic
    while filled < n:
        factor, ld_y, log_w = _weigh(env, *_bartlett_variates(env.nu, r, size, rng))
        worst = max(worst, float(np.max(log_w)))
        keep = np.flatnonzero(np.log(rng.random(size)) < log_w)
        accepted += len(keep)
        proposed += size
        if proposed == size and len(keep) < _EXACT_MIN_ACCEPT * size:
            return None
        keep = keep[:n - filled]
        part = slice(filled, filled + len(keep))
        if env.mirrored:  # x = y^-1 = w w^T with w^T = A^-1 C^-1
            w = np.swapaxes(_lower_solve(factor[keep], env.c_inv), -1, -2)
            ld[part] = -ld_y[keep]
        else:  # x = y = w w^T with w = C A
            w = env.chol_v @ factor[keep]
            ld[part] = ld_y[keep]
        out[part] = w @ np.swapaxes(w, -1, -2)
        filled += len(keep)
    tr = np.trace(out, axis1=-2, axis2=-1)
    rhat = {"logdet": _split_rhat(ld[None]), "trace": _split_rhat(tr[None])}
    ess = {"logdet": _ess(ld[None]), "trace": _ess(tr[None])}
    return MgigSample(draws=out, acceptance_rate=accepted / proposed, rhat=rhat,
                      ess=ess, seed=seed, ok=worst <= 1e-9, sampler="rejection")


def mgig_sample(params: MgigParams, seed: int, n: int,
                mcmc: McmcConfig | None = None) -> MgigSample:
    """n MGIG draws: exact and i.i.d., or from Metropolis chains.

    The draws come by rejection from a Wishart envelope (of x or of x^-1,
    whichever accepts more), tuned in closed form with no pilot run;
    `acceptance_rate` is accepted over proposed draws, `step` is 0, and
    `ok` is False only if a proposal exceeds the envelope (a fault).  Where
    the first block of proposals accepts fewer than 1 % (a b ill
    conditioned, or r >= 4 at most p: 0.2 % at r = 4, p = 0.5 with
    identity rates), the draws come from `_mgig_mcmc`, which `mcmc`
    configures; exact draws ignore it.  `sampler` names which ran.  Split
    R-hat and ESS of log det X and tr X are attached either way.
    """
    cfg = mcmc or McmcConfig()
    if -(-n // cfg.chains) < 4:
        # split R-hat needs at least two draws in each half of every chain,
        # and any run may fall back to the chains
        raise DomainError(f"need n >= {3 * cfg.chains + 1} for {cfg.chains} "
                          "chains (4 draws per chain)")
    r = params.r
    if -(-n // cfg.chains) * cfg.chains * r * r > np.iinfo(np.intp).max // 8:
        raise DomainError(f"{n} draws of {r} x {r} matrices are more float64 "
                          "values than numpy can index")
    run = _mgig_rejection(params, seed, n)
    return run if run is not None else _mgig_mcmc(params, seed, n, cfg)


def _mgig_mcmc(params: MgigParams, seed: int, n: int,
               mcmc: McmcConfig | None = None) -> MgigSample:
    """n MGIG draws by random-walk Metropolis on the Cholesky factor.

    Scale adaptation runs only during burn-in (the adapted step is then
    frozen so the chain targets the exact stationary law).  Convergence
    diagnostics (acceptance rate within [0.1, 0.6], split-chain Rhat of
    log det X and tr X below 1.05) are attached to the result; failures
    set `ok = False` rather than raising.  A kept draw that is not positive
    definite in floating point raises NotSpdError.
    """
    cfg = mcmc or McmcConfig()
    r, chains = params.r, cfg.chains
    d = r * (r + 1) // 2
    per_chain = -(-n // chains)
    # an n too large to hold fails here, before any MCMC work
    kept = np.empty((chains, per_chain, r, r))
    rng = rng_stream(seed, 77_001)

    # theta = (log diag L, strict lower L); every evaluation refills the
    # row-major cells of one L per chain in place and reads L^T as a view
    il = np.tril_indices(r, k=-1)
    lower_cells = il[0] * r + il[1]
    chol = np.zeros((chains, r, r))
    chol_cells = chol.reshape(chains, r * r)
    chol_diag = chol_cells[:, ::r + 1]
    chol_t = np.swapaxes(chol, -1, -2)
    x = np.empty((chains, r, r))
    x_cells = x.reshape(chains, r * r)
    # log det x = 2 sum_i log L_ii and the Cholesky volume factor
    # sum_i (r + 2 - i) log L_ii are one linear form in log diag L
    coef = (2.0 * params.p - (r + 1)) + np.arange(r + 1, 1, -1, dtype=float)
    # the kernel's two traces, each one matrix-vector product on the batch
    a_t, b_t = params.a.T.ravel(), params.b.T.ravel()

    def fill_x(theta):
        # x = L L^T of every chain, written to the buffer x
        np.exp(theta[:, :r], out=chol_diag)
        chol_cells[:, lower_cells] = theta[:, r:]
        return np.matmul(chol, chol_t, out=x)

    def log_target(theta):
        # the density of x = L L^T pulled back to theta.  Summed in another
        # order than _log_kernel_terms plus the volume term, it may differ in
        # the last bit; that flips an accept decision only when log u lies
        # within an ulp of the log ratio, so the oracle tests and the pinned
        # digests are the guard that the draws hold
        fill_x(theta)
        return theta[:, :r] @ coef - 0.5 * (
            x_cells @ a_t + np.linalg.inv(x).reshape(chains, -1) @ b_t)

    chol0 = np.linalg.cholesky(mgig_mode(params))
    theta0 = np.concatenate([np.log(np.diag(chol0)), chol0[il]])
    theta = theta0[None, :] + 0.05 * rng.standard_normal((chains, d))
    lt = log_target(theta)

    # filled in place, z and u take the same draws from rng as new arrays of
    # their shapes would
    z, prop, u = np.empty((chains, d)), np.empty((chains, d)), np.empty(chains)

    def advance(step):
        # one random-walk Metropolis step of every chain; returns the moves
        # accepted
        rng.standard_normal(out=z)
        np.multiply(z, step, out=prop)
        np.add(prop, theta, out=prop)
        lt_prop = log_target(prop)
        rng.random(out=u)
        accept = np.log(u) < lt_prop - lt
        np.copyto(theta, prop, where=accept[:, None])
        np.copyto(lt, lt_prop, where=accept)
        return int(np.count_nonzero(accept))

    step = cfg.step
    for _ in range(cfg.burn_in // cfg.adapt_every):
        acc_window = sum(advance(step) for _ in range(cfg.adapt_every))
        rate = acc_window / (chains * cfg.adapt_every)
        step *= math.exp(0.5 * (rate - cfg.target_accept))
    for _ in range(cfg.burn_in % cfg.adapt_every):
        advance(step)

    accepted = 0
    for k in range(per_chain):
        accepted += sum(advance(step) for _ in range(cfg.thin))
        # carrying x through accept and reject would take a masked copy per
        # step; a kept draw is rebuilt instead, once per thin steps, from
        # theta by the exp and the matmul that built it when it was
        # proposed, so it has the same bits
        kept[:, k] = fill_x(theta)

    acc_rate = accepted / (chains * per_chain * cfg.thin)
    try:
        ld = _logdet_spd(kept.reshape(-1, r, r)).reshape(chains, per_chain)
    except np.linalg.LinAlgError:
        # at r >= 22 the chains drift to draws with eigenvalues near 1e-17
        raise NotSpdError(f"the MGIG chains at r = {r} reached a draw that is not "
                          "positive definite in floating point") from None
    tr = np.trace(kept, axis1=-2, axis2=-1)
    rhat = {"logdet": _split_rhat(ld), "trace": _split_rhat(tr)}
    ess = {"logdet": _ess(ld), "trace": _ess(tr)}
    ok = (0.1 <= acc_rate <= 0.6) and all(v < 1.05 for v in rhat.values())
    draws = kept.reshape(-1, r, r)[:n]
    return MgigSample(draws=draws, acceptance_rate=acc_rate, rhat=rhat,
                      ess=ess, step=step, seed=seed, ok=ok)


# ---------------------------------------------------------------------------
# verification battery (CLI `matrix check`)
# ---------------------------------------------------------------------------

def prop51_battery(r: int, alpha: float, beta: float, seed: int,
                   n_pairs: int = 100):
    """Involution / product / Jacobian / symmetry rows at dimension r."""
    p = MapParams(alpha, beta)
    rng = rng_stream(seed, 40_000 + r)
    inv_max = prod_max = asym_max = jac_dev = endo_max = 0.0
    n_jac = min(n_pairs, 12)
    for i in range(n_pairs):
        x, y = random_spd(r, rng), random_spd(r, rng)
        u, v = f_dk_matrix(p, (x, y))
        x2, y2 = f_dk_matrix(p, (u, v))
        denom = max(np.linalg.norm(x), np.linalg.norm(y))
        inv_max = max(inv_max, np.linalg.norm(x2 - x) / denom,
                      np.linalg.norm(y2 - y) / denom)
        yx = y @ x
        prod_max = max(prod_max, np.linalg.norm(u @ v - yx) / np.linalg.norm(yx))
        raw_u = y @ np.linalg.solve(np.eye(r) + alpha * x @ y,
                                    np.eye(r) + beta * x @ y)
        asym_max = max(asym_max, np.linalg.norm(raw_u - raw_u.T)
                       / np.linalg.norm(raw_u))
        if i < n_jac:
            jac_dev = max(jac_dev, abs(jacobian_abs_matrix(p, (x, y)) - 1.0))
            endo_max = max(endo_max, endo_det_residual(x))
    rows = [
        (f"involution_r{r}", inv_max, 1e-10, inv_max <= 1e-10),
        (f"uv_equals_yx_r{r}", prod_max, 1e-10, prod_max <= 1e-10),
        (f"image_symmetry_r{r}", asym_max, 1e-12, asym_max <= 1e-12),
        (f"jacobian_unit_r{r}", jac_dev, 1e-4 if r > 1 else 1e-6,
         jac_dev <= (1e-4 if r > 1 else 1e-6)),
        (f"endo_det_identity_r{r}", endo_max, 1e-8, endo_max <= 1e-8),
    ]
    if r == 1:
        from . import maps as scalar_maps
        x, y = random_spd(1, rng), random_spd(1, rng)
        u, v = f_dk_matrix(p, (x, y))
        us, vs = scalar_maps.f_dk(p, (float(x[0, 0]), float(y[0, 0])))
        dev = max(abs(float(u[0, 0]) - us), abs(float(v[0, 0]) - vs))
        rows.append(("scalar_reduction_r1", dev, 1e-14, dev <= 1e-14))
    return rows
