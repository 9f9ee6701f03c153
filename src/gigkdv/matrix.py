"""SPD-cone linear algebra, the matrix cell map, and the MGIG law.

The map

    F(x, y) = ( y (I + a x y)^-1 (I + b x y),
                x (I + b y x)^-1 (I + a y x) ),     a = alpha, b = beta,

is an involution on pairs of symmetric positive-definite matrices with
|Jacobian| = 1 and the product identity u v = y x.  The MGIG(p, a, b) law
has density proportional to

    det(x)^(p - (r+1)/2) exp(-(tr(a x) + tr(b x^-1)) / 2)

on the SPD cone.  Its normalizer has no closed form for r >= 2 and is
estimated by importance sampling against a mode-matched Wishart proposal,
drawn in one vectorized pass by the Bartlett decomposition (exact Bessel
form at r = 1); sampling is Metropolis-Hastings on the Cholesky factor
with burn-in-only scale adaptation.

Symmetric matrices are flattened isometrically (off-diagonal entries
weighted by sqrt(2)) so that finite-difference Jacobian determinants agree
with the intrinsic matrix calculus.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import multigammaln

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
        ld = _logdet_spd(x)
    except np.linalg.LinAlgError:
        raise NotSpdError("x must be positive definite") from None
    out = _log_kernel(params, x, ld)
    return float(out[0]) if single else out


def _log_kernel(params: MgigParams, x: np.ndarray, ld: np.ndarray) -> np.ndarray:
    # unnormalized log density of a batch x whose log det x is ld
    tr_ax = np.einsum("ij,kji->k", params.a, x)
    tr_bxi = np.einsum("ij,kji->k", params.b, np.linalg.inv(x))
    return (params.p - 0.5 * (params.r + 1)) * ld - 0.5 * (tr_ax + tr_bxi)


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


def _wishart_proposal(params: MgigParams):
    # scale 2 a^-1 halves the linear rate (importance weights then keep an
    # exp(-tr(a x)/4) envelope); degrees of freedom match the target mode
    # in trace
    v = 2.0 * np.linalg.inv(params.a)
    mode = mgig_mode(params)
    df = params.r + 1.0 + np.trace(mode) / (2.0 * np.trace(np.linalg.inv(params.a)))
    df = max(df, params.r + 1.5)
    return df, check_spd(v, "proposal scale")


def _wishart_log_pdf(df: float, v: np.ndarray, x: np.ndarray,
                     ld_x: np.ndarray) -> np.ndarray:
    # ld_x is log det x, which the caller shares with the target density
    r = v.shape[0]
    vinv = np.linalg.inv(v)
    return (0.5 * (df - r - 1.0) * ld_x
            - 0.5 * np.einsum("ij,kji->k", vinv, x)
            - 0.5 * df * r * math.log(2.0)
            - 0.5 * df * _logdet_spd(v)
            - multigammaln(0.5 * df, r))


def _wishart_draws(df: float, v: np.ndarray, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    # Bartlett (1933): x = C A A^T C^T with C = chol(v), A lower triangular,
    # A_ij ~ N(0, 1) below the diagonal and A_ii = sqrt(chi2(df - i)); the
    # generator is consumed in the order scipy.stats.wishart.rvs uses
    r = v.shape[0]
    il = np.tril_indices(r, k=-1)
    a = np.zeros((n, r, r))
    a[:, il[0], il[1]] = rng.normal(size=n * len(il[0])).reshape(n, -1)
    for i in range(r):
        a[:, i, i] = rng.chisquare(df - i, size=n) ** 0.5
    a = np.linalg.cholesky(v) @ a
    return a @ np.swapaxes(a, -1, -2)


def mgig_log_norm(params: MgigParams, seed: int = 0, n: int = 200_000):
    """(log normalizer, standard error of the log).

    r = 1 is the exact scalar Bessel form (se = 0).  For r >= 2 the
    normalizer is estimated by importance sampling from the mode-matched
    Wishart proposal; the returned se is the delta-method error of the log
    and should gate any tolerance that consumes this value.
    """
    if params.r == 1:
        a, b = float(params.a[0, 0]), float(params.b[0, 0])
        ln = (math.log(2.0) + 0.5 * params.p * (math.log(b) - math.log(a))
              + specfun.bessel_k_log(params.p, math.sqrt(a * b)))
        return ln, 0.0
    df, v = _wishart_proposal(params)
    draws = _wishart_draws(df, v, n, rng_stream(seed, 90_001))
    ld = _logdet_spd(draws)
    lw = _log_kernel(params, draws, ld) - _wishart_log_pdf(df, v, draws, ld)
    m = np.max(lw)
    w = np.exp(lw - m)
    mean_w = float(np.mean(w))
    log_norm = m + math.log(mean_w)
    se = float(np.std(w) / (mean_w * math.sqrt(n)))
    return log_norm, se


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

    def diagnostics_dict(self) -> dict:
        return {
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


def mgig_sample(params: MgigParams, seed: int, n: int,
                mcmc: McmcConfig | None = None) -> MgigSample:
    """n MGIG draws by random-walk Metropolis on the Cholesky factor.

    Scale adaptation runs only during burn-in (the adapted step is then
    frozen so the chain targets the exact stationary law).  Convergence
    diagnostics (acceptance rate within [0.1, 0.6], split-chain Rhat of
    log det X and tr X below 1.05) are attached to the result; failures
    set `ok = False` rather than raising.
    """
    cfg = mcmc or McmcConfig()
    if -(-n // cfg.chains) < 4:
        # split R-hat needs at least two draws in each half of every chain
        raise DomainError(f"need n >= {3 * cfg.chains + 1} for {cfg.chains} "
                          "chains (4 draws per chain)")
    r, chains = params.r, cfg.chains
    d = r * (r + 1) // 2
    rng = rng_stream(seed, 77_001)

    # theta = (log diag L, strict lower L); every evaluation refills the
    # row-major cells of one L per chain in place and reads L^T as a view
    il = np.tril_indices(r, k=-1)
    lower_cells = il[0] * r + il[1]
    chol = np.zeros((chains, r * r))
    chol_t = np.swapaxes(chol.reshape(chains, r, r), -1, -2)
    weights = np.arange(r + 1, 1, -1, dtype=float)  # r+1-i+1 for i = 1..r

    def log_target(theta):
        # the density of x = L L^T pulled back to theta, and x; the
        # Cholesky volume factor contributes sum_i (r + 2 - i) log L_ii
        np.exp(theta[:, :r], out=chol[:, ::r + 1])
        chol[:, lower_cells] = theta[:, r:]
        x = chol.reshape(chains, r, r) @ chol_t
        jac = (weights * theta[:, :r]).sum(axis=-1)
        return _log_kernel(params, x, 2.0 * theta[:, :r].sum(axis=-1)) + jac, x

    chol0 = np.linalg.cholesky(mgig_mode(params))
    theta0 = np.concatenate([np.log(np.diag(chol0)), chol0[il]])
    theta = theta0[None, :] + 0.05 * rng.standard_normal((chains, d))

    step = cfg.step
    lt, x = log_target(theta)
    accepted = 0
    acc_window = []

    per_chain = -(-n // chains)
    kept = np.empty((chains, per_chain, r, r))
    for it in range(cfg.burn_in + per_chain * cfg.thin):
        prop = theta + step * rng.standard_normal((chains, d))
        lt_prop, x_prop = log_target(prop)
        accept = np.log(rng.random(chains)) < lt_prop - lt
        np.copyto(theta, prop, where=accept[:, None])
        np.copyto(lt, lt_prop, where=accept)
        np.copyto(x, x_prop, where=accept[:, None, None])
        if it < cfg.burn_in:
            acc_window.append(np.count_nonzero(accept) / chains)
            if (it + 1) % cfg.adapt_every == 0:
                rate = float(np.mean(acc_window))
                step *= math.exp(0.5 * (rate - cfg.target_accept))
                acc_window = []
        else:
            accepted += int(np.count_nonzero(accept))
            k, rest = divmod(it - cfg.burn_in + 1, cfg.thin)
            if rest == 0:
                kept[:, k - 1] = x

    acc_rate = accepted / (chains * per_chain * cfg.thin)
    ld = _logdet_spd(kept.reshape(-1, r, r)).reshape(chains, per_chain)
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
