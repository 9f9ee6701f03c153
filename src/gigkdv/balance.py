"""Detailed-balance verification for the cell maps.

For the scalar map with independent inputs

    X ~ GIG(-lam, alpha c1, c2),   Y ~ GIG(-lam, beta c2, c1)

the image (U, V) = f_dk(X, Y) is again an independent pair with the same
laws under c1 <-> c2; the conjugated variant uses A ~ GIG(-lam, alpha c1,
c2), B ~ GIG(lam, c1, beta c2) and psi.  The matrix variant replaces GIG
by MGIG with rate matrices (alpha a, b) and (beta b, a).  Verification is
two-pronged:

* deterministic -- the log-density transport identity
  log f_X + log f_Y = log f_U + log f_V pointwise (a consequence of the
  unit |Jacobian|), exact up to round-off for the scalar laws and up to
  the Monte-Carlo error of the MGIG normalizers for the matrix ones;

* statistical -- Kolmogorov-Smirnov tests of the mapped marginals against
  the claimed laws plus a permutation-calibrated distance-correlation
  test of independence between the mapped coordinates.

`machinery_check` exercises the joint-transform identities that pin these
laws down uniquely: the product identity x_{-s} y_s = u_{-s} v_s of the
four tilted-moment transforms, and the closed Bessel form of y_s and v_s
(checked as ratios, where the undetermined proportionality constants
cancel).
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import dist, matrix
from .errors import DomainError, positive
from .maps import MapParams, f_dk, psi
from .rng import rng_stream
from .specfun import bessel_k_log

__all__ = [
    "BalanceSpec",
    "BalanceReport",
    "KsStat",
    "IndependenceStat",
    "MatrixNormalizers",
    "MachineryResult",
    "input_laws",
    "output_laws",
    "transport_residual",
    "transport_grid_max",
    "matrix_normalizers",
    "spec_params",
    "distance_correlation_test",
    "monte_carlo_balance",
    "machinery_check",
]


@dataclass(frozen=True)
class BalanceSpec:
    """Map parameters plus the (lam, c1, c2) of the claimed stationary laws.

    variant: "fdk" (plain scalar map), "psi" (conjugated scalar map) or
    "matrix" (SPD map; `a` and `b` hold the rate matrices and c1/c2 are
    unused).
    """

    map: MapParams
    lam: float
    c1: float = 1.0
    c2: float = 1.0
    variant: str = "fdk"
    a: np.ndarray | None = None
    b: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in ("fdk", "psi", "matrix"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.variant == "matrix":
            if self.a is None or self.b is None:
                raise DomainError("matrix variant needs rate matrices a and b")
            object.__setattr__(self, "a", matrix.check_spd(self.a, "a"))
            object.__setattr__(self, "b", matrix.check_spd(self.b, "b"))
            if not (self.map.alpha > 0.0 and self.map.beta > 0.0):
                raise DomainError("matrix variant requires alpha, beta > 0")
            # the four laws take alpha a, alpha b, beta a and beta b as rates;
            # a product that fails there is named here for its flag
            for name, scale in (("alpha", self.map.alpha), ("beta", self.map.beta)):
                for mat in ("a", "b"):
                    with np.errstate(over="ignore"):  # check_spd rejects it
                        scaled = scale * getattr(self, mat)
                    matrix.check_spd(scaled, f"{name} * {mat}")
        else:
            if not (self.c1 > 0.0 and self.c2 > 0.0):
                raise DomainError("c1, c2 must be > 0")
            # a zero alpha or beta turns two of the laws into Gamma or
            # inverse-Gamma limits, which exist for lambda > 0 only
            zero = [name for name in ("alpha", "beta") if getattr(self.map, name) == 0.0]
            if zero and not self.lam > 0.0:
                raise DomainError(f"{zero[0]} = 0 requires lambda > 0, got lambda={self.lam}")

    @property
    def r(self) -> int:
        return 1 if self.variant != "matrix" else self.a.shape[0]


def input_laws(spec: BalanceSpec):
    """(law of the first input, law of the second input)."""
    al, be = spec.map.alpha, spec.map.beta
    if spec.variant == "fdk":
        return (dist.GigParams(-spec.lam, al * spec.c1, spec.c2),
                dist.GigParams(-spec.lam, be * spec.c2, spec.c1))
    if spec.variant == "psi":
        return (dist.GigParams(-spec.lam, al * spec.c1, spec.c2),
                dist.GigParams(spec.lam, spec.c1, be * spec.c2))
    return (matrix.MgigParams(spec.lam, al * spec.a, spec.b),
            matrix.MgigParams(spec.lam, be * spec.b, spec.a))


def output_laws(spec: BalanceSpec):
    """Claimed laws of the mapped pair: the input laws under the structural
    swap c1 <-> c2 (a <-> b for the matrix variant)."""
    if spec.variant == "matrix":
        swapped = replace(spec, a=spec.b, b=spec.a)
    else:
        swapped = replace(spec, c1=spec.c2, c2=spec.c1)
    return input_laws(swapped)


# ---------------------------------------------------------------------------
# deterministic transport identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixNormalizers:
    """Log normalizers of the four MGIG laws with their MC standard errors."""

    log_x: float
    log_y: float
    log_u: float
    log_v: float
    se: float  # combined standard error of log_x + log_y - log_u - log_v


def matrix_normalizers(spec: BalanceSpec, seed: int = 0,
                       n: int = 200_000) -> MatrixNormalizers:
    """Estimate the four normalizers of a matrix BalanceSpec.

    At r = 1 the values are exact Bessel forms and se = 0.
    """
    law_x, law_y = input_laws(spec)
    law_u, law_v = output_laws(spec)
    vals, ses = [], []
    for i, law in enumerate((law_x, law_y, law_u, law_v)):
        ln, se = matrix.mgig_log_norm(law, seed=seed + i, n=n)
        vals.append(ln)
        ses.append(se)
    return MatrixNormalizers(*vals, se=float(np.sqrt(np.sum(np.square(ses)))))


def transport_residual(spec: BalanceSpec, point,
                       normalizers: MatrixNormalizers | None = None):
    """|log f_X(x) + log f_Y(y) - log f_U(u) - log f_V(v)| at one point, or
    at every point of arrays x and y for the scalar variants.

    All densities are fully normalized.  The psi variant is evaluated
    through its conjugation (x, y) = (a, 1/b), under which its laws map
    exactly onto the fdk laws and the residual is identical.  For the
    matrix variant the result carries the MC error of the normalizers
    (supply `normalizers` to control it); gate with 3x their `se`.
    """
    if spec.variant == "psi":
        a, b = point
        return transport_residual(replace(spec, variant="fdk"), (a, 1.0 / b))
    law_x, law_y = input_laws(spec)
    law_u, law_v = output_laws(spec)
    if spec.variant == "fdk":
        x, y = point
        u, v = f_dk(spec.map, (x, y))
        return abs(dist.log_pdf(law_x, x) + dist.log_pdf(law_y, y)
                   - dist.log_pdf(law_u, u) - dist.log_pdf(law_v, v))
    x, y = point
    u, v = matrix.f_dk_matrix(spec.map, (x, y))
    norm = normalizers if normalizers is not None else matrix_normalizers(spec)
    unnorm = (matrix.mgig_log_pdf_unnorm(law_x, x)
              + matrix.mgig_log_pdf_unnorm(law_y, y)
              - matrix.mgig_log_pdf_unnorm(law_u, u)
              - matrix.mgig_log_pdf_unnorm(law_v, v))
    return abs(unnorm - norm.log_x - norm.log_y + norm.log_u + norm.log_v)


def transport_grid_max(spec: BalanceSpec, grid_n: int = 20,
                       normalizers: MatrixNormalizers | None = None,
                       seed: int = 0) -> float:
    """Max transport residual over a grid (scalar: log grid on [0.05, 20]^2,
    where both variants share the fdk laws; matrix: seeded random SPD
    pairs)."""
    if spec.variant in ("fdk", "psi"):
        pts = np.geomspace(0.05, 20.0, grid_n)
        xg, yg = np.meshgrid(pts, pts)
        return float(np.max(transport_residual(replace(spec, variant="fdk"), (xg, yg))))
    rng = rng_stream(seed, 51_000)
    norm = normalizers if normalizers is not None else matrix_normalizers(spec, seed)
    worst = 0.0
    for _ in range(grid_n):
        x = matrix.random_spd(spec.r, rng)
        y = matrix.random_spd(spec.r, rng)
        worst = max(worst, transport_residual(spec, (x, y), normalizers=norm))
    return worst


# ---------------------------------------------------------------------------
# distance-correlation independence test
# ---------------------------------------------------------------------------

_BATCH_CELLS = 1 << 16  # permutation cells per batch: 65 permutations at m = 1000
# Permutation statistics within this relative distance of the observed one
# count as ties (>=): round-off, about 1e-13 relative, must not split
# statistics that are mathematically equal, as with tied data or m = 2.
_TIE_RTOL = 1e-10


def _dist_matrix(z: np.ndarray) -> np.ndarray:
    # z: (m, d) sample; returns the double-centered distance matrix, built
    # in blocks of rows whose differences span about _BATCH_CELLS cells
    m = len(z)
    d = np.empty((m, m))
    rows = max(1, _BATCH_CELLS // (m * z.shape[1]))
    for s in range(0, m, rows):
        diff = z[s:s + rows, None, :] - z[None, :, :]
        np.sqrt(np.sum(diff * diff, axis=-1), out=d[s:s + rows])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def _dcor_matrices(u: np.ndarray, v: np.ndarray):
    """Statistic of (u, v[idx]) for rows idx, from the double-centered
    distance matrices of (m, d) samples; None if a sample is constant."""
    ca, cb = _dist_matrix(u), _dist_matrix(v)
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0)
                     * max(float((cb * cb).mean()), 0.0))
    if dvar <= 0.0:
        return None

    def dcor_of(idx):
        g = cb.take(idx, 0).take(idx, 1)
        np.multiply(ca, g, out=g)
        dcov2 = max(float(g.mean()), 0.0)
        return math.sqrt(dcov2 / dvar)

    return lambda rows: np.array([dcor_of(idx) for idx in rows])


def _sorted_row_sums(z: np.ndarray):
    """(sort order of z, sorted z minus its median, sum_j |z_i - z_j| of each
    sorted z_i), the sums from prefix sums of the sorted sample."""
    order = np.argsort(z, kind="stable")
    d = z[order] - z[order[len(z) // 2]]  # exact zeros for a constant sample
    k = np.arange(len(d))
    cs = np.cumsum(d)
    return order, d, (k * d - (cs - d)) + ((cs[-1] - cs) - (len(d) - 1 - k) * d)


def _dcor_1d(u: np.ndarray, v: np.ndarray):
    """Statistic of (u, v[idx]) for rows idx, 1-D samples, in O(m log m) per
    row; None if a sample is constant.

    With a_ij = |u_i - u_j|, row sums a_i. and total a.. (b likewise),
    m^2 dCov^2 = sum_ij a_ij b_ij - (2/m) sum_i a_i. b_i. + a.. b.. / m^2
    (Huo & Szekely 2016, Technometrics 58(4)).  Only the first two sums
    depend on the pairing.  With u sorted, the first is 2 (2 C - T): T is the
    sum of (u_j - u_i)(v_j - v_i) over i < j, an O(m) cross product, and C
    the same sum over concordant pairs, i.e. over the 2-D dominance pairs
    of (position, rank of v).  C is summed over the log2(m) levels of a
    bottom-up merge: at each level every block of positions is put in rank
    order, and each pair with i in the block's left half and j in its right
    half is counted once, through prefix sums within the block.
    """
    m = len(u)
    ou, us, a = _sorted_row_sums(u)
    ov, vs, b = _sorted_row_sums(v)
    m2 = float(m) * m

    def dcov2_self(z, rowsum):
        sum_sq = 2.0 * m * np.dot(z, z) - 2.0 * z.sum() ** 2  # sum_ij (z_i - z_j)^2
        total = rowsum.sum()
        return sum_sq / m2 - 2.0 * np.dot(rowsum, rowsum) / (m2 * m) + total * total / (m2 * m2)

    dvar = math.sqrt(max(dcov2_self(us, a), 0.0) * max(dcov2_self(vs, b), 0.0))
    if dvar <= 0.0:
        return None
    rank_v = np.empty(m, dtype=np.intp)
    rank_v[ov] = np.arange(m)
    levels = max(1, (m - 1).bit_length())
    width = 1 << levels
    pad = width - m
    # padding cells take the last positions and the lowest ranks, with zero
    # values, so every pair that involves one contributes exactly zero
    us_pad = np.concatenate((us, np.zeros(pad)))
    vs_pad = np.concatenate((np.zeros(pad), vs))
    block_key = np.min_scalar_type(width >> 1)  # small keys: numpy radix-sorts them
    cross0 = us.sum() * vs.sum()
    const = a.sum() * b.sum() / (m2 * m2)

    def dcor_of(rows):
        n_rows = len(rows)
        r = rank_v[rows[:, ou]]  # rank of the v paired with the k-th smallest u
        cross = m * (vs[r] @ us) - cross0
        row_term = b[r] @ a
        grid = np.arange(n_rows)[:, None]
        by_rank = np.empty((n_rows, width), dtype=np.intp)  # positions in rank order
        by_rank[:, :pad] = np.arange(m, width)
        by_rank[grid, r + pad] = np.arange(m)
        conc = np.zeros(n_rows)
        for lev in range(levels):
            key = (by_rank >> (lev + 1)).astype(block_key)
            rank = np.argsort(key, axis=1, kind="stable")
            pos = by_rank[grid, rank]
            left = 1.0 - ((pos >> lev) & 1)
            uu, ww = us_pad[pos], vs_pad[rank]
            sums = np.stack((left, left * uu, left * ww, left * uu * ww))
            blocks = sums.reshape(4, n_rows, width >> (lev + 1), 2 << lev)
            np.cumsum(blocks, axis=-1, out=blocks)
            cnt, su, sw, suw = sums
            conc += np.einsum("pk,pk->p", 1.0 - left,
                              cnt * uu * ww - uu * sw - ww * su + suw)
        dcov2 = 2.0 * (2.0 * conc - cross) / m2 - 2.0 * row_term / (m2 * m) + const
        return np.sqrt(np.maximum(dcov2, 0.0) / dvar)

    return dcor_of


def distance_correlation_test(u: np.ndarray, v: np.ndarray,
                              n_perm: int = 499,
                              rng: np.random.Generator | None = None):
    """Distance correlation of two samples with a permutation p-value.

    Returns (dcor, p), where dcor = sqrt(dCov^2 / sqrt(dVar^2_u dVar^2_v))
    lies in [0, 1] (Szekely, Rizzo & Bakirov 2007, Ann. Statist. 35(6)),
    and is 0 when a sample is constant.  For 1-D samples every statistic
    comes from sorting and dominance sums, O(m log m) per permutation;
    permutations are batched, so that a batch costs O(log m) numpy steps, in
    O(_BATCH_CELLS + m) memory.  For d > 1 the double-centered distance
    matrices are computed once, in blocks of rows, and each permutation
    re-indexes the second one, O(m^2) per permutation after an O(m^2 d)
    setup, in O(m^2 + _BATCH_CELLS) memory.  The p-value
    (1 + #{perm >= observed}) / (n_perm + 1) is exact under independence.
    """
    if rng is None:
        rng = rng_stream(0, 60_000)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    m = u.shape[0]
    if v.shape[0] != m:
        raise DomainError("samples must have equal length")
    u, v = u.reshape(m, -1), v.reshape(m, -1)
    if u.shape[1] == v.shape[1] == 1:
        dcor_of = _dcor_1d(u[:, 0], v[:, 0])
    else:
        dcor_of = _dcor_matrices(u, v)
    if dcor_of is None:
        return 0.0, 1.0
    obs = float(dcor_of(np.arange(m)[None, :])[0])
    hits, batch = 0, max(1, _BATCH_CELLS // m)
    for start in range(0, n_perm, batch):
        rows = np.array([rng.permutation(m)
                         for _ in range(min(batch, n_perm - start))])
        hits += int(np.count_nonzero(dcor_of(rows) >= obs - _TIE_RTOL * obs))
    return obs, (1.0 + hits) / (n_perm + 1.0)


# ---------------------------------------------------------------------------
# Monte-Carlo balance reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KsStat:
    statistic: float
    p_value: float
    n: int


@dataclass(frozen=True)
class IndependenceStat:
    statistic: float
    p_value: float
    n_used: int
    n_permutations: int


@dataclass
class BalanceReport:
    variant: str
    params: dict
    seed: int
    n: int
    max_log_residual: float
    residual_tol: float
    ks_stats: dict
    independence: IndependenceStat
    pass_flags: dict = field(default_factory=dict)
    mcmc: dict | None = None
    passed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def spec_params(spec: BalanceSpec) -> dict:
    """Map and law parameters of a spec, as reports record them."""
    out = {"alpha": spec.map.alpha, "beta": spec.map.beta, "lambda": spec.lam}
    if spec.variant == "matrix":
        out.update(r=spec.r, a=spec.a.tolist(), b=spec.b.tolist())
    else:
        out.update(c1=spec.c1, c2=spec.c2)
    return out


# every p-value of a verdict is gated at _P_THRESHOLD; the independence test
# runs _N_PERM permutations on a seeded subsample of _DCOR_M mapped pairs
_P_THRESHOLD = 0.01
_DCOR_M = 1000
_N_PERM = 499


def monte_carlo_balance(spec: BalanceSpec, seed: int, n: int,
                        y_override: "dist.GigParams | None" = None,
                        mcmc: "matrix.McmcConfig | None" = None) -> BalanceReport:
    """Sample, map, test: KS per mapped marginal, distance correlation for
    the mapped pair, plus the deterministic transport residual.

    `y_override` replaces the law of the second input (negative controls).
    """
    from scipy import stats

    if n < 1000:
        raise DomainError("need n >= 1000")
    if spec.variant == "matrix":
        return _matrix_balance(spec, seed, n, mcmc)

    law_x, law_y = input_laws(spec)
    if y_override is not None:
        law_y = y_override
    law_u, law_v = output_laws(spec)
    xs = dist.draw(law_x, rng_stream(seed, 1), n)
    ys = dist.draw(law_y, rng_stream(seed, 2), n)
    the_map = f_dk if spec.variant == "fdk" else psi
    us, vs = the_map(spec.map, (xs, ys))

    names = ("U", "V") if spec.variant == "fdk" else ("S", "T")
    ks = {}
    for name, data, law in ((names[0], us, law_u), (names[1], vs, law_v)):
        res = stats.kstest(data, lambda q: dist.cdf(law, q))
        ks[name] = KsStat(float(res.statistic), float(res.pvalue), n)

    return _verdict(spec, seed, n, ks, (us, vs), 1, transport_grid_max(spec), 1e-9)


def _ess_stride(series: np.ndarray) -> int:
    # subsampling stride that leaves roughly independent values
    ess = matrix._ess(np.asarray(series)[None, :])
    return max(1, int(math.ceil(len(series) / max(ess, 1.0))))


def _matrix_balance(spec, seed, n, mcmc):
    from scipy import stats

    law_x, law_y = input_laws(spec)
    law_u, law_v = output_laws(spec)
    runs = {}
    for i, (key, law) in enumerate((("X", law_x), ("Y", law_y),
                                    ("U_ref", law_u), ("V_ref", law_v))):
        runs[key] = matrix.mgig_sample(law, seed + 17 * i + 1, n, mcmc=mcmc)
    us, vs = matrix.f_dk_matrix(spec.map, (runs["X"].draws, runs["Y"].draws))

    def functionals(draws):
        return {"logdet": matrix._logdet_spd(draws),
                "trace": np.trace(draws, axis1=-2, axis2=-1)}

    # residual MCMC autocorrelation makes nominal KS p-values
    # anti-conservative, so each series is subsampled to its effective size
    ks = {}
    max_stride = 1
    for key, mapped, ref in (("U", us, runs["U_ref"].draws),
                             ("V", vs, runs["V_ref"].draws)):
        fm, fr = functionals(mapped), functionals(ref)
        for fname in fm:
            stride = _ess_stride(fm[fname])
            sm = fm[fname][::stride]
            sr = fr[fname][::_ess_stride(fr[fname])]
            max_stride = max(max_stride, stride)
            res = stats.ks_2samp(sm, sr)
            ks[f"{key}_{fname}"] = KsStat(float(res.statistic),
                                          float(res.pvalue), len(sm))

    norm = matrix_normalizers(spec, seed, n=400_000)
    resid = transport_grid_max(spec, grid_n=5, normalizers=norm, seed=seed)
    return _verdict(spec, seed, n, ks,
                    (matrix.sym_to_vec(us), matrix.sym_to_vec(vs)), max_stride,
                    resid, max(3.0 * norm.se, 1e-9), runs)


def _verdict(spec, seed, n, ks, pair, stride, resid, tol, runs=None):
    """The BalanceReport of one verdict: `ks` holds its KS tests, `pair` the
    mapped samples, `resid` the transport residual, gated at `tol`, and
    `runs` the MGIG sampler runs of the matrix variant.  The independence
    test takes a seeded subsample of _DCOR_M rows among every `stride`-th
    row of `pair`."""
    pool = np.arange(0, len(pair[0]), stride)
    sub = rng_stream(seed, 3).choice(pool, size=min(_DCOR_M, len(pool)),
                                     replace=False)
    stat, p = distance_correlation_test(pair[0][sub], pair[1][sub],
                                        n_perm=_N_PERM, rng=rng_stream(seed, 4))
    ind = IndependenceStat(float(stat), float(p), len(sub), _N_PERM)
    flags = {f"ks_{k}": ks[k].p_value > _P_THRESHOLD for k in ks}
    flags["independence"] = ind.p_value > _P_THRESHOLD
    flags["transport"] = resid <= tol
    mcmc = None
    if runs is not None:
        flags["mcmc_ok"] = all(run.ok for run in runs.values())
        mcmc = {k: run.diagnostics_dict() for k, run in runs.items()}
    return BalanceReport(
        variant=spec.variant, params=spec_params(spec), seed=seed, n=n,
        max_log_residual=resid, residual_tol=tol, ks_stats=ks,
        independence=ind, pass_flags=flags, mcmc=mcmc,
        passed=all(flags.values()))


# ---------------------------------------------------------------------------
# proof-machinery identities
# ---------------------------------------------------------------------------

@dataclass
class MachineryResult:
    s: float
    sigma: float
    theta: float
    transforms: dict           # MC estimates of x_{-s}, y_s, u_{-s}, v_s
    product_lhs: float
    product_rhs: float
    product_se: float
    product_dev_se: float       # |lhs - rhs| in combined-SE units
    y_form_rel: float           # closed Bessel form vs transform ratio, y_s
    v_form_rel: float           # same for v_s

    def rows(self):
        """(test, statistic, threshold, pass) per identity."""
        return [
            ("product_dev_se", self.product_dev_se, 4.0, self.product_dev_se <= 4.0),
            ("y_closed_form_rel", self.y_form_rel, 1e-8, self.y_form_rel <= 1e-8),
            ("v_closed_form_rel", self.v_form_rel, 1e-8, self.v_form_rel <= 1e-8),
        ]

    @property
    def passed(self) -> bool:
        return all(row[-1] for row in self.rows())


def _closed_ratio(r_s: float, beta: float, c1: float, c2: float,
                  pt1, pt2, flip: bool) -> float:
    # ((c2-th)/(c1-sg))^(r_s/2) K_{r_s}(2 sqrt(beta (c1-sg)(c2-th))),
    # as a ratio between two tilt points so the constant factor cancels;
    # `flip` inverts the power-law prefactor (the v_s form)
    def lg(sg, th):
        pref = 0.5 * r_s * (math.log(c2 - th) - math.log(c1 - sg))
        if flip:
            pref = -pref
        return pref + bessel_k_log(r_s, 2.0 * math.sqrt(beta * (c1 - sg) * (c2 - th)))

    return math.exp(lg(*pt1) - lg(*pt2))


def machinery_check(spec: BalanceSpec, s: float, sigma: float, theta: float,
                    seed: int, n: int) -> MachineryResult:
    """Check the tilted-transform identities that characterize the laws.

    Monte-Carlo route: the product identity x_{-s} y_s = u_{-s} v_s is
    estimated twice -- from (A, B) draws and from their psi image -- and
    the two estimates must agree within 4 combined standard errors.
    Closed-form route: ratios y_s(pt1)/y_s(pt2) and v_s(pt1)/v_s(pt2)
    computed from the extended Laplace transform must match the closed
    Bessel forms (power-law prefactor times K_{lam+s}) to 1e-8.
    """
    if spec.variant != "psi":
        raise DomainError("machinery_check runs on the psi variant")
    if not (sigma < 0.0 and theta < 0.0):
        raise DomainError("sigma and theta must be strictly negative")
    al, be = spec.map.alpha, spec.map.beta
    if be == 0.0 or al == 0.0:
        raise DomainError("closed forms need alpha, beta > 0")
    if n < 2:
        raise DomainError(f"a standard error needs n >= 2, got n={n}")
    law_a, law_b = input_laws(spec)

    rng1, rng2 = rng_stream(seed, 5), rng_stream(seed, 6)
    a1, b1 = dist.draw(law_a, rng1, n), dist.draw(law_b, rng1, n)
    a2, b2 = dist.draw(law_a, rng2, n), dist.draw(law_b, rng2, n)
    s_img, t_img = psi(spec.map, (a2, b2))

    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lhs_sample = a1 ** (-s) * b1 ** s * np.exp(
            sigma * (b1 + al * a1) + theta * (1.0 / a1 + be / b1))
        rhs_sample = s_img ** (-s) * t_img ** s * np.exp(
            sigma * (1.0 / s_img + be / t_img) + theta * (t_img + al * s_img))
        lhs, rhs = float(lhs_sample.mean()), float(rhs_sample.mean())
        se = math.hypot(float(lhs_sample.std()) / math.sqrt(n),
                        float(rhs_sample.std()) / math.sqrt(n))
        transforms = {
            "x_minus_s": float(np.mean(a1 ** (-s) * np.exp(al * sigma * a1 + theta / a1))),
            "y_s": float(np.mean(b1 ** s * np.exp(sigma * b1 + be * theta / b1))),
            "u_minus_s": float(np.mean(s_img ** (-s)
                                       * np.exp(al * theta * s_img + sigma / s_img))),
            "v_s": float(np.mean(t_img ** s * np.exp(theta * t_img + be * sigma / t_img))),
        }
    # an infinite standard error would pass any |lhs - rhs|
    out_of_range = (f"the tilt s={s}, sigma={sigma}, theta={theta} leaves the "
                    "floating-point range")
    positive(out_of_range, lhs, rhs, se, *transforms.values())

    # analytic route: y_s(sg, th) = L_B(s, sg, beta*th), B ~ GIG(lam, c1, beta c2);
    # v_s(sg, th) = L_T(s, th, beta*sg), T ~ GIG(lam, c2, beta c1)
    pt1 = (sigma, theta)
    pt2 = (2.0 * sigma, 0.5 * theta - 1.0)
    law_t = dist.GigParams(spec.lam, spec.c2, be * spec.c1)
    r_s = spec.lam + s
    try:
        y_ratio = math.exp(dist.ext_laplace_log(law_b, s, pt1[0], be * pt1[1])
                           - dist.ext_laplace_log(law_b, s, pt2[0], be * pt2[1]))
        y_closed = _closed_ratio(r_s, be, spec.c1, spec.c2, pt1, pt2, flip=False)
        v_ratio = math.exp(dist.ext_laplace_log(law_t, s, pt1[1], be * pt1[0])
                           - dist.ext_laplace_log(law_t, s, pt2[1], be * pt2[0]))
        v_closed = _closed_ratio(r_s, be, spec.c1, spec.c2, pt1, pt2, flip=True)
    except OverflowError:
        raise DomainError(out_of_range) from None
    positive(out_of_range, y_ratio, y_closed, v_ratio, v_closed)

    return MachineryResult(
        s=s, sigma=sigma, theta=theta, transforms=transforms,
        product_lhs=lhs, product_rhs=rhs, product_se=se,
        product_dev_se=abs(lhs - rhs) / se,
        y_form_rel=abs(y_ratio - y_closed) / y_closed,
        v_form_rel=abs(v_ratio - v_closed) / v_closed)
