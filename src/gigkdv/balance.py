"""Detailed-balance verification for the cell maps.

For the scalar map with independent inputs

    X ~ GIG(-lam, alpha c1, c2),   Y ~ GIG(-lam, beta c2, c1)

the image (U, V) = f_dk(X, Y) is again an independent pair with the same
laws under c1 <-> c2; the conjugated variant, psi, is this under (x, y) ->
(x, 1/y).  The matrix variant replaces GIG by MGIG with rate matrices
(alpha a, b) and (beta b, a).  Each variant is declared once, and
`monte_carlo_balance` gives every verdict, two-pronged:

* deterministic -- the log-density transport identity
  log f_X + log f_Y = log f_U + log f_V pointwise (a consequence of the
  unit |Jacobian|), on the unnormalized densities, whose normalizers
  cancel, gated in units of their rounding (and of the MC error of the
  MGIG normalizers' estimated imbalance);

* statistical -- Kolmogorov-Smirnov tests of the mapped marginals against
  the claimed laws (scalar: the CDF; matrix: log det and trace of reference
  draws) plus a permutation-calibrated distance-correlation independence test.

`machinery_check` exercises the joint-transform identities that pin these
laws down uniquely: the product identity x_{-s} y_s = u_{-s} v_s of the
four tilted-moment transforms, and the closed Bessel form of y_s and v_s
(checked as ratios, where the undetermined proportionality constants
cancel).
"""

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import dist, matrix
from .errors import DomainError, positive
from .ks import ks_1samp, ks_2samp
from .maps import MapParams, f_dk, psi
from .rng import rng_stream
from .specfun import bessel_k_log

__all__ = [
    "BalanceSpec",
    "BalanceReport",
    "KsStat",
    "IndependenceStat",
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
        if self.variant not in _VARIANTS:
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


class _Variant(NamedTuple):
    rates: tuple        # spec fields of the two rates; the output laws swap them
    laws: tuple         # builds each input's law from (lam, its two rates)
    cell_map: Callable  # calls the map through its module binding, which a tracer may replace
    ks_names: tuple     # the two mapped marginals, as the KS tests name them
    kernel: Callable    # (law, z) -> the terms of the law's unnormalized log density at z
    transport: Callable  # (spec, grid_n, seed) -> (transport grid, normalizer imbalance, its se)


def _gig(lam, a, b):
    return dist.GigParams(-lam, a, b)


def _gig_kernel(law, z):
    return (law.lam - 1.0) * np.log(z), -law.a * z, -law.b / z


def _scalar_transport(spec, grid_n, seed):
    # X and U, and Y and V, share the Bessel factor of their normalizers (or
    # the Gamma factor of a zero-rate limit), and the power-law factors of
    # the four cancel
    pts = np.geomspace(0.05, 20.0, grid_n)
    return np.meshgrid(pts, pts), 0.0, 0.0


def _matrix_transport(spec, grid_n, seed):
    # a refused normalizer fails before any pair is drawn
    norm, se = matrix_normalizers(spec, seed)
    rng = rng_stream(seed, 51_000)
    pairs = [(matrix.random_spd(spec.r, rng), matrix.random_spd(spec.r, rng))
             for _ in range(grid_n)]
    return tuple(np.array(side) for side in zip(*pairs)), norm, se


# psi is fdk under (x, y) -> (x, 1/y): its second input is the reciprocal of
# fdk's, and its transport terms are fdk's (see transport_residual)
_VARIANTS = {
    "fdk": _Variant(("c1", "c2"), (_gig, _gig), lambda *args: f_dk(*args), ("U", "V"),
                    _gig_kernel, _scalar_transport),
    "psi": _Variant(("c1", "c2"), (_gig, lambda *rates: dist.reciprocal_law(_gig(*rates))),
                    lambda *args: psi(*args), ("S", "T"), _gig_kernel, _scalar_transport),
    "matrix": _Variant(("a", "b"), (matrix.MgigParams, matrix.MgigParams),
                       lambda *args: matrix.f_dk_matrix(*args), ("U", "V"),
                       matrix._log_kernel_terms, _matrix_transport),
}


def input_laws(spec: BalanceSpec):
    """(law of the first input, law of the second input)."""
    var = _VARIANTS[spec.variant]
    first, second = (getattr(spec, name) for name in var.rates)
    law_x, law_y = var.laws
    return (law_x(spec.lam, spec.map.alpha * first, second),
            law_y(spec.lam, spec.map.beta * second, first))


def output_laws(spec: BalanceSpec):
    """Claimed laws of the mapped pair: the input laws under the structural
    swap c1 <-> c2 (a <-> b for the matrix variant)."""
    first, second = _VARIANTS[spec.variant].rates
    return input_laws(replace(spec, **{first: getattr(spec, second),
                                       second: getattr(spec, first)}))


# ---------------------------------------------------------------------------
# deterministic transport identity
# ---------------------------------------------------------------------------

def matrix_normalizers(spec: BalanceSpec, seed: int = 0):
    """(N, se): N = log Z_X + log Z_Y - log Z_U - log Z_V, 0 in exact
    arithmetic, and its standard error, each log Z of a matrix spec's four
    laws from 400,000 draws of `matrix.mgig_log_norm` (exact at r = 1)."""
    laws = (*input_laws(spec), *output_laws(spec))
    est = [matrix.mgig_log_norm(law, seed=(seed + i) % 2**64, n=400_000)
           for i, law in enumerate(laws)]
    return (est[0][0] + est[1][0] - est[2][0] - est[3][0],
            math.sqrt(sum(se * se for _, se in est)))


def transport_residual(spec: BalanceSpec, point):
    """(k, S) at a point (x, y), or at every point of arrays x and y: k is
    log h_X(x) + log h_Y(y) - log h_U(u) - log h_V(v) for the unnormalized
    densities h of the four laws and (u, v) the image of (x, y), and S the
    sum of the absolute values of every term of k, which scales its rounding.

    No normalizer is evaluated.  Matrix x and y may be stacks of matrices.
    The psi variant is evaluated through its conjugation (x, y) = (a, 1/b),
    under which its laws map exactly onto the fdk laws.
    """
    if spec.variant == "psi":
        a, b = point
        return transport_residual(replace(spec, variant="fdk"), (a, 1.0 / b))
    var = _VARIANTS[spec.variant]
    x, y = point
    k = scale = 0.0
    for sign, law, z in zip((1.0, 1.0, -1.0, -1.0), (*input_laws(spec), *output_laws(spec)),
                            (x, y, *var.cell_map(spec.map, (x, y)))):
        for term in var.kernel(law, z):
            k = k + sign * term
            scale = scale + np.abs(term)
    return k, scale


def transport_grid_max(spec: BalanceSpec, grid_n: int = 20, seed: int = 0):
    """(residual, tol) at the grid point where residual / tol is largest;
    the identity holds on the grid when residual <= tol.

    residual = |k - N| with k and S from `transport_residual`, and tol =
    16 eps S + 3 se, N being log Z_X + log Z_Y - log Z_U - log Z_V and se
    its standard error.  The rounding of k is about eps S (at most 1.3 eps S
    measured); lambda of U off by 1e-6 relative gives over 200 eps S.
    Scalar: N = se = 0 in closed form, on a log grid over [0.05, 20]^2,
    grid_n to a side.  Matrix: N and se from `matrix_normalizers`, on grid_n
    seeded random SPD pairs.
    """
    grid, norm, se = _VARIANTS[spec.variant].transport(spec, grid_n, seed)
    k, scale = transport_residual(spec, grid)
    resid = np.abs(k - norm)
    tol = 16.0 * np.finfo(float).eps * scale + 3.0 * se
    worst = np.argmax(resid / tol)
    return float(resid.flat[worst]), float(tol.flat[worst])


# ---------------------------------------------------------------------------
# distance-correlation independence test
# ---------------------------------------------------------------------------

# Permutation cells per batch: 65 permutations at m = 1000.  For d > 1 it is
# also the size of a block of rows, and of each of the two gather buffers
# that every permutation of the triangle sums reuses.
_BATCH_CELLS = 1 << 16
# Cells per chunk of rows of the d = 1 merge levels.  A chunk's buffers,
# about 90 bytes per cell (1.5 MB), fit a 2 MB L2 cache; buffers for a whole
# batch of 65 rows at m = 1000 did not, and a batch took about 15 % longer.
_LEVEL_CELLS = 1 << 14
# Permutation statistics within this relative distance of the observed one
# count as ties (>=): round-off, about 1e-13 relative, must not split
# statistics that are mathematically equal, as with tied data or m = 2.
_TIE_RTOL = 1e-10


def _dist_matrix(z: np.ndarray) -> np.ndarray:
    # z: (m, d) sample; returns the double-centered distance matrix, built
    # in blocks of rows whose differences span about _BATCH_CELLS cells and
    # centered in place
    m = len(z)
    d = np.empty((m, m))
    rows = max(1, _BATCH_CELLS // (m * z.shape[1]))
    for s in range(0, m, rows):
        diff = z[s:s + rows, None, :] - z[None, :, :]
        np.sqrt(np.sum(diff * diff, axis=-1), out=d[s:s + rows])
    col, row = d.mean(axis=0, keepdims=True), d.mean(axis=1, keepdims=True)
    grand = d.mean()
    d -= col
    d -= row
    d += grand
    return d


def _dcor_matrices(u: np.ndarray, v: np.ndarray):
    """(observed statistic, statistic of (u, v[idx]) for rows idx), from the
    double-centered distance matrices A of u and B of v, (m, d) samples;
    None if a sample is constant.

    A and B are symmetric, so over blocks of rows [s, e) of about
    _BATCH_CELLS cells a permutation's sum_ij A_ij B[idx_i, idx_j] is the
    sum of <A[s:e, s:e], B_idx[s:e, s:e]> + <2 A[s:e, e:], B_idx[s:e, e:]>:
    532,000 cells at m = 1000, not 1,000,000.  The two pieces of A are
    packed once as contiguous arrays (np.vdot copies a strided operand), and
    each block's gathers of B go into two buffers allocated once.

    At most two m x m matrices are held at once: B is built and gives its
    dVar; A is built, and the mean of A B, written over B, is the observed
    dCov^2; A gives its dVar, is packed and dropped; B is built again for
    the permutations.
    """
    m = len(u)
    cb = _dist_matrix(v)
    var_v = float((cb * cb).mean())
    ca = _dist_matrix(u)
    dcov2 = max(float(np.multiply(ca, cb, out=cb).mean()), 0.0)
    del cb
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0) * max(var_v, 0.0))
    if dvar <= 0.0:
        return None
    step = min(m, max(1, _BATCH_CELLS // m))
    # (s, A[s:e, s:e], 2 A[s:e, e:]) of each block of rows; buffers for the
    # rows B[idx[s:e]] and for their gathered square and upper part
    pieces = [(s, ca[s:s + step, s:s + step].copy(), 2.0 * ca[s:s + step, s + step:])
              for s in range(0, m, step)]
    del ca
    cb = _dist_matrix(v)
    bufs = [np.empty(step * m), np.empty(step * m)]

    def dcov2_of(idx, row_buf, col_buf):
        # mode="clip" lets take write straight into `out`; under the default
        # "raise" numpy gathers into a temporary and copies.  A permutation's
        # indices are all in range, so nothing is clipped.
        total = 0.0
        for s, a_sq, a_up in pieces:
            k = len(a_sq)
            e = s + k
            rows = cb.take(idx[s:e], 0, out=row_buf[:k * m].reshape(k, m), mode="clip")
            b_sq = rows.take(idx[s:e], 1, out=col_buf[:k * k].reshape(k, k), mode="clip")
            b_up = rows.take(idx[e:], 1, out=col_buf[k * k:k * (m - s)].reshape(k, m - e),
                             mode="clip")
            total += np.vdot(a_sq, b_sq) + np.vdot(a_up, b_up)
        return total

    def dcor_of(rows):
        dcov2 = np.array([dcov2_of(idx, *bufs) for idx in rows]) / (float(m) * m)
        return np.sqrt(np.maximum(dcov2, 0.0) / dvar)

    return math.sqrt(dcov2 / dvar), dcor_of


def _sorted_row_sums(z: np.ndarray):
    """(sort order of z, sorted z minus its median, sum_j |z_i - z_j| of each
    sorted z_i), the sums from prefix sums of the sorted sample."""
    order = np.argsort(z, kind="stable")
    d = z[order] - z[order[len(z) // 2]]  # exact zeros for a constant sample
    k = np.arange(len(d))
    cs = np.cumsum(d)
    return order, d, (k * d - (cs - d)) + ((cs[-1] - cs) - (len(d) - 1 - k) * d)


def _dcor_1d(u: np.ndarray, v: np.ndarray):
    """(observed statistic, statistic of (u, v[idx]) for rows idx), 1-D
    samples, in O(m log m) per row; None if a sample is constant.

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

    The levels run over chunks of rows of about _LEVEL_CELLS cells, each
    row padded to 2^ceil(log2 m) cells, in buffers allocated at setup:
    about 90 bytes per cell, 1.5 MB at m = 1000.  A short last chunk uses a
    prefix of each.  Beyond them a batch of 65 rows at m = 1000 allocates
    1.04 MB.  The four prefix channels are two complex arrays, and a complex
    add is two real adds bit for bit, so every level makes the same
    floating-point operations in the same order as four real np.cumsum
    channels.
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
    cross0 = us.sum() * vs.sum()
    const = a.sum() * b.sum() / (m2 * m2)
    # buffers for one chunk of rows: by_rank holds positions in rank order
    # and key the block of each; the prefix channels (cnt, su) and (sw, suw)
    # are the real and imaginary parts of two complex arrays
    chunk = max(1, _LEVEL_CELLS // width)
    cells = chunk * width
    by_rank_buf, pos_buf = np.empty(cells, dtype=np.intp), np.empty(cells, dtype=np.intp)
    key_buf = np.empty(cells, dtype=np.min_scalar_type((width >> 1) - 1))
    uu_buf, ww_buf, right_buf, term_buf, tmp_buf = (np.empty(cells) for _ in range(5))
    sums_buf = np.empty(2 * cells, dtype=complex)

    def concordant(r):
        # C of each row of r, the ranks of v in the order of u; at most
        # `chunk` rows, which take a prefix of every buffer
        n_rows = len(r)
        n = n_rows * width
        by_rank, pos, uu, ww, right, term, tmp = (
            buf[:n].reshape(n_rows, width)
            for buf in (by_rank_buf, pos_buf, uu_buf, ww_buf, right_buf, term_buf, tmp_buf))
        sums = sums_buf[:2 * n].reshape(2, n_rows, width)
        cnt, su, sw, suw = (part for pair in sums for part in (pair.real, pair.imag))
        by_rank[:, :pad] = np.arange(m, width)
        np.put_along_axis(by_rank, r + pad, np.arange(m), axis=1)
        row_start = np.arange(0, n, width)[:, None]
        conc = np.zeros(n_rows)
        for lev in range(levels):
            span = 2 << lev
            # the narrowest key dtype that holds every block index: numpy
            # radix-sorts 8- and 16-bit keys, one pass per byte
            key = key_buf.view(np.min_scalar_type((width >> (lev + 1)) - 1))[:n]
            key = key.reshape(n_rows, width)
            np.right_shift(by_rank, lev + 1, out=key, casting="unsafe")
            rank = np.argsort(key, axis=1, kind="stable")
            vs_pad.take(rank, out=ww, mode="clip")  # in range: nothing is clipped
            rank += row_start
            by_rank.take(rank, out=pos, mode="clip")
            us_pad.take(pos, out=uu, mode="clip")
            # right = 1.0 for the right half of a block, else 0.0; the count
            # channel cnt starts as left = 1.0 - right
            np.bitwise_and(pos, 1 << lev, out=rank)
            np.multiply(rank, 1.0 / (1 << lev), out=right)
            np.subtract(1.0, right, out=cnt)
            np.multiply(cnt, uu, out=su)
            np.multiply(cnt, ww, out=sw)
            np.multiply(su, ww, out=suw)
            # prefix sums within each block, in np.cumsum's sequential order;
            # a short block is summed by span - 1 adds over all blocks at once
            blocks = sums.reshape(2, n_rows, width >> (lev + 1), span)
            if span <= 8:
                for k in range(1, span):
                    np.add(blocks[..., k], blocks[..., k - 1], out=blocks[..., k])
            else:
                np.cumsum(blocks, axis=-1, out=blocks)
            # cnt uu ww - uu sw - ww su + suw, left to right
            np.multiply(cnt, uu, out=term)
            term *= ww
            term -= np.multiply(uu, sw, out=tmp)
            term -= np.multiply(ww, su, out=tmp)
            term += suw
            conc += np.einsum("pk,pk->p", right, term)
        return conc

    def dcor_of(rows):
        r = rank_v[rows[:, ou]]  # rank of the v paired with the k-th smallest u
        cross = m * (vs[r] @ us) - cross0
        row_term = b[r] @ a
        conc = np.concatenate([concordant(r[s:s + chunk]) for s in range(0, len(r), chunk)])
        dcov2 = 2.0 * (2.0 * conc - cross) / m2 - 2.0 * row_term / (m2 * m) + const
        return np.sqrt(np.maximum(dcov2, 0.0) / dvar)

    return float(dcor_of(np.arange(m)[None, :])[0]), dcor_of


def distance_correlation_test(u: np.ndarray, v: np.ndarray,
                              n_perm: int = 499,
                              rng: np.random.Generator | None = None,
                              stop_hits: int | None = None):
    """Distance correlation of two samples with a permutation p-value.

    Returns (dcor, p, n_run), where dcor = sqrt(dCov^2 / sqrt(dVar^2_u
    dVar^2_v)) lies in [0, 1] (Szekely, Rizzo & Bakirov 2007, Ann. Statist.
    35(6)), and is 0 when a sample is constant.  For 1-D samples every statistic
    comes from sorting and dominance sums, O(m log m) per permutation;
    permutations are batched, so that a batch costs O(log m) numpy steps
    per chunk of rows.  The steps work in O(_LEVEL_CELLS + m) buffers
    allocated at setup, 1.5 MB at m = 1000, and a batch allocates
    O(_BATCH_CELLS + m) more, 1.04 MB at m = 1000.  For d > 1 the
    double-centered distance matrices are computed in blocks of rows, and
    each permutation sums the product over the upper triangle of blocks of
    rows of the re-indexed second matrix, gathered into two reused buffers
    of _BATCH_CELLS cells, O(m^2) per permutation after an O(m^2 d) setup.
    The permutations hold the second m x m float64 matrix and the first
    one's packed triangle; two full matrices are held only at setup, which
    also gives the observed statistic.

    A permutation whose statistic reaches the observed one is a hit.  With
    stop_hits=None every permutation runs and p = (1 + hits) / (n_perm + 1).
    With stop_hits = h the p-value is Besag and Clifford's sequential one
    (1991, Biometrika 78): the test stops at the first batch whose running
    count reaches h, and p = h / L, where L is the 1-based index of the
    h-th hit in the permutation stream, so p does not depend on the batch
    size; a test that never reaches h runs all n_perm permutations and
    returns the p above.  Both p-values are exact under independence.
    n_run is the permutations p rests on: L if the test stopped, n_perm if
    not, 0 for a constant sample.  The rest of the batch that holds the
    h-th hit is computed too, and not counted.
    """
    if rng is None:
        rng = rng_stream(0, 60_000)
    if not n_perm >= 0:
        raise DomainError(f"n_perm must be >= 0, got {n_perm}")
    if stop_hits is not None and (not isinstance(stop_hits, (int, np.integer)) or stop_hits < 1):
        raise DomainError(f"stop_hits must be None or an integer >= 1, got {stop_hits!r}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size == 0 or v.size == 0:
        raise DomainError("samples must be non-empty")
    m = u.shape[0]
    if v.shape[0] != m:
        raise DomainError("samples must have equal length")
    u, v = u.reshape(m, -1), v.reshape(m, -1)
    if u.shape[1] == v.shape[1] == 1:
        setup = _dcor_1d(u[:, 0], v[:, 0])
    else:
        setup = _dcor_matrices(u, v)
    if setup is None:
        return 0.0, 1.0, 0
    obs, dcor_of = setup
    batch = max(1, _BATCH_CELLS // m)
    hits = 0
    for start in range(0, n_perm, batch):
        stats = dcor_of(np.array([rng.permutation(m)
                                  for _ in range(min(batch, n_perm - start))]))
        hit = np.flatnonzero(stats >= obs - _TIE_RTOL * obs)
        if stop_hits is not None and hits + len(hit) >= stop_hits:
            n_run = start + int(hit[stop_hits - hits - 1]) + 1
            return obs, stop_hits / n_run, n_run
        hits += len(hit)
    return obs, (1.0 + hits) / (n_perm + 1.0), n_perm


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
    # n_permutations: the permutations that p_value rests on
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
# runs up to _N_PERM permutations on a seeded subsample of _DCOR_M mapped
# pairs and stops at the _STOP_HITS-th hit, with Besag and Clifford's
# sequential p-value.  The flag is the full test's: while _STOP_HITS /
# _N_PERM > _P_THRESHOLD, a test that stops has p > _P_THRESHOLD and so
# would the full one, and a test that does not stop is the full one
_P_THRESHOLD = 0.01
_DCOR_M = 1000
_N_PERM = 499
_STOP_HITS = 10


def monte_carlo_balance(spec: BalanceSpec, seed: int, n: int,
                        y_override: "dist.GigParams | matrix.MgigParams | None" = None,
                        mcmc: "matrix.McmcConfig | None" = None) -> BalanceReport:
    """Sample, map, test: KS per mapped marginal, distance correlation for
    the mapped pair, plus the deterministic transport residual.

    The distance-correlation test stops at its _STOP_HITS-th hit with
    Besag and Clifford's sequential p-value (see
    distance_correlation_test); its flag is the one all _N_PERM
    permutations would give, and `independence.n_permutations` counts the
    permutations its p-value rests on.

    A scalar marginal is tested against its CDF; a matrix one by log det
    and trace against draws of its law, thinned to their effective size
    where a chain fed them.  `y_override` replaces the law of the second
    input in every variant (negative controls) and must be of the variant's
    family; `mcmc` configures the matrix chains and is rejected otherwise.
    """
    if n < 1000:
        raise DomainError("need n >= 1000")
    var = _VARIANTS[spec.variant]
    law_x, law_y = input_laws(spec)
    if y_override is not None:
        if type(y_override) is not type(law_y):
            raise DomainError(f"y_override must be a {type(law_y).__name__} for {spec.variant}")
        law_y = y_override
    law_u, law_v = output_laws(spec)
    # on streams of its own, before any draw: a refused normalizer costs none
    resid, tol = transport_grid_max(spec, seed=seed)
    ks, mcmc_report = {}, None
    if spec.variant != "matrix":
        if mcmc is not None:
            raise DomainError(f"mcmc applies to the matrix variant, not to {spec.variant}")
        xs = dist.draw(law_x, rng_stream(seed, 1), n)
        ys = dist.draw(law_y, rng_stream(seed, 2), n)
        pair = var.cell_map(spec.map, (xs, ys))
        for name, data, law in zip(var.ks_names, pair, (law_u, law_v)):
            ks[name] = KsStat(*ks_1samp(data, lambda q: dist.cdf(law, q)), n)
        stride = 1
    else:
        runs = {key: matrix.mgig_sample(law, (seed + 17 * i + 1) % 2**64, n, mcmc=mcmc)
                for i, (key, law) in enumerate((("X", law_x), ("Y", law_y),
                                                ("U_ref", law_u), ("V_ref", law_v)))}
        mapped = var.cell_map(spec.map, (runs["X"].draws, runs["Y"].draws))

        # residual MCMC autocorrelation makes nominal KS p-values
        # anti-conservative, so a series that a chain fed is subsampled to
        # its effective size; a series of exact draws is i.i.d. and kept whole
        def step_of(series, *keys):
            if not any(runs[k].sampler == "mcmc" for k in keys):
                return 1
            ess = matrix._ess(series[None, :])
            return max(1, int(math.ceil(len(series) / max(ess, 1.0))))

        stride = 1
        for name, draws, ref in zip(var.ks_names, mapped, ("U_ref", "V_ref")):
            for fname, functional in (("logdet", matrix._logdet_spd),
                                      ("trace", lambda x: np.trace(x, axis1=-2, axis2=-1))):
                sm, sr = functional(draws), functional(runs[ref].draws)
                step = step_of(sm, "X", "Y")
                stride = max(stride, step)
                sm, sr = sm[::step], sr[::step_of(sr, ref)]
                ks[f"{name}_{fname}"] = KsStat(*ks_2samp(sm, sr), len(sm))
        pair = [matrix.sym_to_vec(draws) for draws in mapped]
        mcmc_report = {k: run.diagnostics_dict() for k, run in runs.items()}

    pool = np.arange(0, len(pair[0]), stride)
    sub = rng_stream(seed, 3).choice(pool, size=min(_DCOR_M, len(pool)),
                                     replace=False)
    stat, p, n_run = distance_correlation_test(pair[0][sub], pair[1][sub], n_perm=_N_PERM,
                                               rng=rng_stream(seed, 4), stop_hits=_STOP_HITS)
    ind = IndependenceStat(float(stat), float(p), len(sub), n_run)
    flags = {f"ks_{k}": ks[k].p_value > _P_THRESHOLD for k in ks}
    flags["independence"] = ind.p_value > _P_THRESHOLD
    flags["transport"] = resid <= tol
    if mcmc_report is not None:
        flags["mcmc_ok"] = all(run["ok"] for run in mcmc_report.values())
    return BalanceReport(
        variant=spec.variant, params=spec_params(spec), seed=seed, n=n,
        max_log_residual=resid, residual_tol=tol, ks_stats=ks,
        independence=ind, pass_flags=flags, mcmc=mcmc_report,
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
    _, law_t = output_laws(spec)
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
