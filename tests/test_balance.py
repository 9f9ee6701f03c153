import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gigkdv import balance, dist, matrix, maps
from gigkdv.errors import DomainError
from gigkdv.rng import rng_stream

P12 = maps.MapParams(1.0, 2.0)


def fdk_spec(lam=0.5, c1=1.0, c2=1.0, alpha=1.0, beta=2.0):
    return balance.BalanceSpec(maps.MapParams(alpha, beta), lam=lam,
                               c1=c1, c2=c2, variant="fdk")


def matrix_spec(seed=100, lam=1.1, r=2):
    rng = rng_stream(seed, 0)
    a, b = matrix.random_spd(r, rng), matrix.random_spd(r, rng)
    return balance.BalanceSpec(P12, lam=lam, variant="matrix", a=a, b=b)


class TestLawAssignment:
    def test_fdk_laws(self):
        spec = fdk_spec(lam=0.5, c1=1.0, c2=3.0)
        law_x, law_y = balance.input_laws(spec)
        assert law_x == dist.GigParams(-0.5, 1.0, 3.0)
        assert law_y == dist.GigParams(-0.5, 6.0, 1.0)
        law_u, law_v = balance.output_laws(spec)
        assert law_u == dist.GigParams(-0.5, 3.0, 1.0)
        assert law_v == dist.GigParams(-0.5, 2.0, 3.0)

    def test_psi_laws(self):
        spec = replace(fdk_spec(lam=0.5, c1=1.0, c2=3.0), variant="psi")
        law_a, law_b = balance.input_laws(spec)
        assert law_a == dist.GigParams(-0.5, 1.0, 3.0)
        assert law_b == dist.GigParams(0.5, 1.0, 6.0)
        law_s, law_t = balance.output_laws(spec)
        assert law_s == dist.GigParams(-0.5, 3.0, 1.0)
        assert law_t == dist.GigParams(0.5, 3.0, 2.0)

    def test_structural_swap(self):
        # output laws are exactly the input laws under c1 <-> c2
        spec = fdk_spec(lam=-1.2, c1=0.7, c2=2.5)
        assert balance.output_laws(spec) == balance.input_laws(
            replace(spec, c1=spec.c2, c2=spec.c1))

    def test_beta_zero_limits(self):
        spec = replace(fdk_spec(lam=0.8, alpha=1.0, beta=0.0), variant="psi")
        _, law_b = balance.input_laws(spec)
        assert law_b == dist.GigParams(0.8, 1.0, 0.0)
        _, law_t = balance.output_laws(spec)
        assert law_t == dist.GigParams(0.8, 1.0, 0.0)

    def test_type_one_symmetric_point(self):
        # c1 == c2: inputs and outputs share the same laws (type I balance)
        spec = fdk_spec(lam=0.5, c1=1.0, c2=1.0)
        assert balance.input_laws(spec) == balance.output_laws(spec)

    def test_matrix_laws(self):
        spec = matrix_spec()
        law_x, law_y = balance.input_laws(spec)
        assert np.allclose(law_x.a, spec.map.alpha * spec.a)
        assert np.allclose(law_y.a, spec.map.beta * spec.b)
        law_u, _ = balance.output_laws(spec)
        assert np.allclose(law_u.a, spec.map.alpha * spec.b)
        assert np.allclose(law_u.b, spec.a)

    # each variant with the spec fields that its output laws swap
    @pytest.mark.parametrize("variant,first,second", [
        ("fdk", "c1", "c2"), ("psi", "c1", "c2"), ("matrix", "a", "b")])
    def test_output_laws_swap_the_declared_rates(self, variant, first, second):
        spec = (matrix_spec() if variant == "matrix" else replace(
            fdk_spec(lam=-0.7, c1=0.6, c2=2.5, alpha=1.5, beta=0.8), variant=variant))
        swapped = replace(spec, **{first: getattr(spec, second),
                                   second: getattr(spec, first)})
        for got, want in zip(balance.output_laws(spec), balance.input_laws(swapped)):
            assert type(got) is type(want)
            for name in vars(want):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("lam,c1,c2,alpha,beta", [
        (0.5, 1.0, 3.0, 1.0, 2.0), (-1.3, 0.3, 7.0, 2.5, 0.1), (0.8, 1.0, 2.0, 1.0, 0.0),
        (0.0, 2.0, 0.5, 0.7, 3.0)])
    def test_psi_laws_are_fdk_laws_conjugated(self, lam, c1, c2, alpha, beta):
        # psi is fdk under (x, y) -> (x, 1/y): the same first law, and the
        # law of 1/Y as the second, equal to the last bit
        fdk = fdk_spec(lam=lam, c1=c1, c2=c2, alpha=alpha, beta=beta)
        psi = replace(fdk, variant="psi")
        for laws_of in (balance.input_laws, balance.output_laws):
            first, second = laws_of(fdk)
            assert laws_of(psi) == (first, dist.reciprocal_law(second))

    def test_unknown_variant_message(self):
        with pytest.raises(DomainError, match=r"^unknown variant 'fkd'$"):
            replace(fdk_spec(), variant="fkd")


class TestTransport:
    EPS = np.finfo(float).eps

    def test_spec_point(self):
        k, scale = balance.transport_residual(fdk_spec(), (1.0, 1.0))
        assert abs(k) <= 16.0 * self.EPS * scale

    def test_grid(self):
        resid, tol = balance.transport_grid_max(fdk_spec())
        assert resid <= tol < 1e-12

    def test_psi_conjugation_identical(self):
        spec_psi = replace(fdk_spec(), variant="psi")
        for a, b in ((1.0, 1.0), (0.3, 4.0)):
            assert balance.transport_residual(spec_psi, (a, b)) == \
                balance.transport_residual(fdk_spec(), (a, 1.0 / b))

    def test_matrix_r1_equals_scalar(self):
        spec1 = balance.BalanceSpec(P12, lam=-0.5, variant="matrix",
                                    a=np.array([[2.0]]), b=np.array([[3.0]]))
        got = balance.transport_residual(spec1, (np.array([[1.3]]), np.array([[0.7]])))
        # the r = 1 MGIG(lam, a, b) marginal is GIG(lam, a/2, b/2)
        scalar = balance.BalanceSpec(P12, lam=0.5, c1=1.0, c2=1.5, variant="fdk")
        want = balance.transport_residual(scalar, (1.3, 0.7))
        assert got == pytest.approx(want, abs=1e-12)
        assert balance.matrix_normalizers(spec1)[1] == 0.0

    def test_matrix_r2_within_mc_error(self):
        spec = matrix_spec()
        resid, tol = balance.transport_grid_max(spec, grid_n=4, seed=31)
        assert resid <= tol
        # the normalizers' imbalance, not rounding, sets both
        norm, se = balance.matrix_normalizers(spec, 31)
        assert (resid, tol) == pytest.approx((abs(norm), 3.0 * se))

    def test_matrix_residual_evaluates_no_normalizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("transport_residual evaluated a normalizer")

        monkeypatch.setattr(matrix, "mgig_log_norm", refuse)
        rng = rng_stream(31, 0)
        for r in (2, 3):
            xy = [np.array([matrix.random_spd(r, rng) for _ in range(10)]) for _ in range(2)]
            k, scale = balance.transport_residual(matrix_spec(r=r), xy)
            assert k.shape == scale.shape == (10,)
            assert np.all(np.abs(k) <= 16.0 * self.EPS * scale)

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e5, 1e6])
    @pytest.mark.parametrize("lam", [-2.0, 0.5, 2.0])
    def test_gate_scales_with_the_terms(self, c, lam, monkeypatch):
        # the terms grow like c, and so does their rounding, about 1e-9 at
        # c = 1e5; lambda of U off by 1e-6 relative must still fail at every c
        spec = fdk_spec(lam=lam, c1=c, c2=c)
        resid, tol = balance.transport_grid_max(spec)
        assert resid <= tol
        laws = balance.output_laws

        def wrong_u(spec):
            law_u, law_v = laws(spec)
            return replace(law_u, lam=law_u.lam * (1.0 + 1e-6)), law_v

        monkeypatch.setattr(balance, "output_laws", wrong_u)
        resid, tol = balance.transport_grid_max(spec)
        assert resid > tol


def oracle_dcor_test(u, v, n_perm, rng, stop_hits=None):
    """The O(m^2)-per-permutation test for 1-D samples: double-centered
    distance matrices, the second re-indexed for every permutation; with
    stop_hits = h, p = h / L at the L-th permutation, the h-th hit."""
    def centered(z):
        d = np.abs(z[:, None] - z[None, :])
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    ca, cb = centered(u), centered(v)
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0)
                     * max(float((cb * cb).mean()), 0.0))
    if dvar <= 0.0:
        return 0.0, 1.0

    def dcor_of(cb_mat):
        return math.sqrt(max(float((ca * cb_mat).mean()), 0.0) / dvar)

    obs = dcor_of(cb)
    hits = 0
    for k in range(n_perm):
        idx = rng.permutation(len(u))
        hits += dcor_of(cb[np.ix_(idx, idx)]) >= obs - balance._TIE_RTOL * obs
        if hits == stop_hits:
            return obs, hits / (k + 1.0)
    return obs, (1.0 + hits) / (n_perm + 1.0)


def oracle_dcor_matrices_test(u, v, n_perm, rng, stop_hits=None):
    """The d > 1 test as first written: Euclidean double-centered distance
    matrices, the second re-indexed by np.ix_ for every permutation; with
    stop_hits = h, p = h / L at the L-th permutation, the h-th hit."""
    def centered(z):
        diff = z[:, None, :] - z[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    ca, cb = centered(u), centered(v)
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0)
                     * max(float((cb * cb).mean()), 0.0))

    def dcor_of(idx):
        dcov2 = max(float((ca * cb[np.ix_(idx, idx)]).mean()), 0.0)
        return math.sqrt(dcov2 / dvar)

    obs = dcor_of(np.arange(len(u)))
    hits = 0
    for k in range(n_perm):
        hits += dcor_of(rng.permutation(len(u))) >= obs - balance._TIE_RTOL * obs
        if hits == stop_hits:
            return obs, hits / (k + 1.0)
    return obs, (1.0 + hits) / (n_perm + 1.0)


def oracle_block_dcor(u, v, rows):
    """The d > 1 permutation kernel before the triangle sums: each
    permutation summed over blocks of full rows of B re-indexed by
    cb.take(idx[blk], 0).take(idx, 1).  Returns dCov^2 / dVar of each row."""
    m = len(u)
    ca, cb = balance._dist_matrix(u), balance._dist_matrix(v)
    dvar = math.sqrt(float((ca * ca).mean()) * float((cb * cb).mean()))
    step = max(1, balance._BATCH_CELLS // m)
    blocks = [slice(s, s + step) for s in range(0, m, step)]
    dcov2 = np.array([sum(np.vdot(ca[blk], cb.take(idx[blk], 0).take(idx, 1))
                          for blk in blocks) for idx in rows]) / (float(m) * m)
    return dcov2 / dvar


def oracle_merge_dcor_1d(u, v, rows):
    """The 1-D merge kernel as first written, with fresh arrays for every
    step of every level: the dCor of (u, v[idx]) for each row idx of rows,
    the observed pairing for rows=None, or None if a sample is constant."""
    m = len(u)
    ou, us, a = balance._sorted_row_sums(u)
    ov, vs, b = balance._sorted_row_sums(v)
    m2 = float(m) * m

    def dcov2_self(z, rowsum):
        sum_sq = 2.0 * m * np.dot(z, z) - 2.0 * z.sum() ** 2
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
    us_pad = np.concatenate((us, np.zeros(pad)))
    vs_pad = np.concatenate((np.zeros(pad), vs))
    block_key = np.min_scalar_type(width >> 1)
    cross0 = us.sum() * vs.sum()
    const = a.sum() * b.sum() / (m2 * m2)
    if rows is None:
        rows = np.arange(m)[None, :]
    n_rows = len(rows)
    r = rank_v[rows[:, ou]]
    cross = m * (vs[r] @ us) - cross0
    row_term = b[r] @ a
    grid = np.arange(n_rows)[:, None]
    by_rank = np.empty((n_rows, width), dtype=np.intp)
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


def independence_calibration(seed, reps, m, n_perm):
    """How many of `reps` independent GIG pairs of m draws each give a
    permutation p <= 0.01; super-uniform calibration keeps it near reps/100."""
    law = dist.GigParams(0.5, 1.0, 1.0)
    hits = 0
    for k in range(reps):
        rng = rng_stream(seed, 61_000 + k)
        u = dist.draw(law, rng, m)
        v = dist.draw(law, rng, m)
        _, p, _ = balance.distance_correlation_test(u, v, n_perm=n_perm, rng=rng)
        hits += p <= 0.01
    return hits


def direct_dcor(u, v):
    """dCor(u, v) = dCov(u, v) / sqrt(dVar(u) dVar(v)) from its O(m^2)
    definition by double-centered Euclidean distance matrices (Szekely,
    Rizzo & Bakirov 2007, Ann. Statist. 35(6))."""
    def centered(z):
        d = np.linalg.norm(z[:, None, :] - z[None, :, :], axis=-1)
        return d - d.mean(axis=0) - d.mean(axis=1)[:, None] + d.mean()

    ca, cb = centered(u), centered(v)
    dcov2, dvar_u, dvar_v = (ca * cb).mean(), (ca * ca).mean(), (cb * cb).mean()
    return math.sqrt(dcov2 / math.sqrt(dvar_u * dvar_v))


def dcor_sample(kind, m, seed):
    rng = rng_stream(seed, m)
    if kind == "ties":  # integer values, many ties in both samples
        u = rng.integers(0, 5, m).astype(float)
        v = rng.integers(0, 3, m) + (u > 2.0)
    elif kind == "heavy":  # GIG draws spread over several decades
        law = dist.GigParams(-0.5, 0.01, 5.0)
        u = dist.draw(law, rng, m)
        v = dist.draw(law, rng, m) * (1.0 + 0.05 * u)
    else:
        u = rng.normal(size=m)
        v = u * u + rng.normal(size=m)
    return u, np.asarray(v, dtype=float)


class TestDistanceCorrelation:
    @pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 500, 1000])
    @pytest.mark.parametrize("kind", ["ties", "heavy", "dependent"])
    def test_matches_quadratic_oracle(self, kind, m):
        n_perm = 99 if m < 1000 else 49
        for seed in range(3 if m < 100 else 1):
            u, v = dcor_sample(kind, m, seed)
            stat, p, _ = balance.distance_correlation_test(
                u, v, n_perm=n_perm, rng=rng_stream(seed, 7))
            want_stat, want_p = oracle_dcor_test(u, v, n_perm, rng_stream(seed, 7))
            assert stat == pytest.approx(want_stat, rel=1e-10, abs=0.0)
            assert p == want_p

    @pytest.mark.parametrize("m", [2, 3, 5, 63, 64, 65, 999, 1000, 1024, 1025])
    @pytest.mark.parametrize("kind", ["ties", "heavy", "dependent"])
    def test_merge_kernel_matches_oracle_bits(self, kind, m):
        # the observed pairing, a full batch and a ragged last batch, in the
        # order of distance_correlation_test, through the same buffers; at
        # m = 1000 the 65 and 22 rows run as chunks of 16 and a short chunk.
        # The setup's observed statistic is the identity row's, bit for bit
        u, v = dcor_sample(kind, m, 0)
        setup = balance._dcor_1d(u, v)
        if oracle_merge_dcor_1d(u, v, None) is None:
            assert setup is None
            return
        obs, dcor_of = setup
        batch = max(1, balance._BATCH_CELLS // m)
        perms = np.argsort(rng_stream(1, m).random((batch + batch // 3 + 1, m)), axis=1)
        for rows in (np.arange(m)[None, :], perms[:batch], perms[batch:]):
            got, want = dcor_of(rows), oracle_merge_dcor_1d(u, v, rows)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        identity = dcor_of(np.arange(m)[None, :])
        assert np.array_equal(np.array([obs]).view(np.int64), identity.view(np.int64))

    def test_merge_kernel_matches_oracle_bits_at_1e5(self):
        u, v = dcor_sample("heavy", 100_000, 0)
        obs, _ = balance._dcor_1d(u, v)
        got = np.array([obs])
        assert np.array_equal(got.view(np.int64), oracle_merge_dcor_1d(u, v, None).view(np.int64))

    def test_merge_batch_allocates_no_level_arrays(self):
        # the levels work in buffers allocated at setup, and the batch's own
        # arrays peak at 1.04 MB; fresh arrays for every step of every level
        # took a 9.71 MB peak here
        u, v = dcor_sample("dependent", 1000, 0)
        _, dcor_of = balance._dcor_1d(u, v)
        rows = np.array([rng_stream(8, 0).permutation(1000) for _ in range(65)])
        tracemalloc.start()
        try:
            dcor_of(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_constant_sample(self):
        # a constant sample, of scalars or of 3-vectors, returns before any
        # permutation is drawn, and counts none
        z = np.linspace(0.1, 3.0, 40)
        z3 = rng_stream(6, 0).normal(size=(40, 3))
        for u, v in ((np.full(40, 0.1), z), (z, np.full(40, 0.7)),
                     (np.full((40, 3), 0.1), z3), (z3, np.full((40, 3), 0.7))):
            rng = rng_stream(6, 1)
            assert balance.distance_correlation_test(u, v, n_perm=9, rng=rng) == (0.0, 1.0, 0)
            assert rng.random() == rng_stream(6, 1).random()

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("m", [2, 3, 64, 65, 66, 130, 131, 1000])
    def test_triangle_kernel_matches_block_oracle(self, m, d, monkeypatch):
        # 65-row blocks at every m: below one block, exact block edges and a
        # ragged last block of one row (m = 66, 131) or 25 rows (m = 1000)
        monkeypatch.setattr(balance, "_BATCH_CELLS", 65 * m)
        rng = rng_stream(d, 400 + m)
        u = rng.normal(size=(m, d))
        v = np.column_stack([u[:, :1] ** 2, rng.normal(size=(m, d - 1))])
        rows = np.array([rng.permutation(m) for _ in range(5)])
        _, dcor_of = balance._dcor_matrices(u, v)
        got = dcor_of(rows) ** 2
        np.testing.assert_allclose(got, oracle_block_dcor(u, v, rows), rtol=1e-12, atol=0.0)

    def test_permutation_batch_allocates_no_matrix(self):
        # the gathers go into buffers allocated at setup; the full-row
        # kernel allocated two 520 KB temporaries for every block
        rng = rng_stream(7, 0)
        u, v = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))
        _, dcor_of = balance._dcor_matrices(u, v)
        rows = np.array([rng.permutation(1000) for _ in range(65)])
        tracemalloc.start()
        try:
            dcor_of(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256_000

    @pytest.mark.parametrize("m", [2, 3, 64, 500, 1000])
    def test_vectors_match_ix_oracle(self, m):
        # at m = 1000 each permutation is summed over 65-row blocks with a
        # ragged last block of 25 rows
        n_perm = 99 if m < 1000 else 19
        for seed in range(3 if m < 100 else 1):
            rng = rng_stream(seed, 100 + m)
            u = rng.normal(size=(m, 3))
            v = np.column_stack([u[:, 0] ** 2, rng.normal(size=(m, 2))])
            got = balance.distance_correlation_test(u, v, n_perm=n_perm,
                                                    rng=rng_stream(seed, 8))
            assert got[:2] == oracle_dcor_matrices_test(u, v, n_perm, rng_stream(seed, 8))

    @pytest.mark.parametrize("d", [3, 6, 15])
    def test_dimensions_match_ix_oracle(self, d):
        # m = 700 splits the distance matrix into blocks of rows with a
        # ragged last block at each d
        rng = rng_stream(d, 200)
        u = rng.normal(size=(700, d))
        v = np.column_stack([u[:, :1] ** 2, rng.normal(size=(700, d - 1))])
        got = balance.distance_correlation_test(u, v, n_perm=19,
                                                rng=rng_stream(d, 9))
        assert got[:2] == oracle_dcor_matrices_test(u, v, 19, rng_stream(d, 9))

    def test_distance_matrix_memory_bounded(self):
        # an (m, m, d) difference tensor once took a 104 MB peak here, and
        # centering by full-size temporaries 24.6 MB; one 8 MB matrix remains
        z = rng_stream(3, 0).normal(size=(1000, 6))
        tracemalloc.start()
        try:
            balance._dist_matrix(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_vector_test_builds_three_distance_matrices(self, monkeypatch):
        # B for its dVar, A for its dVar and the observed dCov^2, B again for
        # the permutations; rebuilding A for the observed statistic made 4
        built = []
        dist_matrix = balance._dist_matrix

        def counting(z):
            built.append(len(z))
            return dist_matrix(z)

        monkeypatch.setattr(balance, "_dist_matrix", counting)
        rng = rng_stream(5, 0)
        u, v = rng.normal(size=(200, 3)), rng.normal(size=(200, 2))
        balance.distance_correlation_test(u, v, n_perm=19, rng=rng)
        assert built == [200, 200, 200]

    def test_vector_test_memory_bounded(self):
        # two 8 MB distance matrices and a block of rows; holding a third
        # and fourth matrix for each permutation once took 32.4 MB
        rng = rng_stream(4, 0)
        u, v = rng.normal(size=(1000, 3)), rng.normal(size=(1000, 3))
        tracemalloc.start()
        try:
            balance.distance_correlation_test(u, v, n_perm=49, rng=rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    @pytest.mark.parametrize("n_perm", [-1, -5])
    def test_negative_permutation_count(self, n_perm):
        z = np.linspace(0.1, 3.0, 40)
        with pytest.raises(DomainError, match="n_perm"):
            balance.distance_correlation_test(z, z[::-1], n_perm=n_perm)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_sample(self, shape):
        with pytest.raises(DomainError, match="non-empty"):
            balance.distance_correlation_test(np.empty(shape), np.empty(shape), n_perm=9)

    def test_three_vectors_unchanged(self):
        # d > 1 keeps the double-centered matrices; the p-value was computed
        # by the matrix code for every dimension before the 1-D path existed,
        # the statistic when it became the distance correlation
        rng = rng_stream(5, 0)
        u, v = rng.normal(size=(150, 3)), rng.normal(size=(150, 3))
        assert balance.distance_correlation_test(u, v, n_perm=99, rng=rng)[:2] == \
            (0.2707109613184893, 0.21)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("kind", ["independent", "dependent", "identical"])
    def test_statistic_is_distance_correlation(self, kind, d):
        rng = rng_stream(d, 300)
        u = rng.normal(size=(300, d))
        v = {"independent": rng.normal(size=(300, d)),
             "dependent": u ** 2 + 0.3 * rng.normal(size=(300, d)),
             "identical": u.copy()}[kind]
        want = direct_dcor(u, v)
        for scale in (1.0, 100.0):
            stat, _, _ = balance.distance_correlation_test(scale * u, v, n_perm=9)
            assert 0.0 <= stat <= 1.0 + 1e-12
            assert stat == pytest.approx(want, rel=1e-10, abs=1e-14)

    def test_detects_dependence(self):
        rng = rng_stream(1, 0)
        u = rng.normal(size=400)
        v = u * u + 0.1 * rng.normal(size=400)
        stat, p, _ = balance.distance_correlation_test(u, v, n_perm=199, rng=rng)
        assert p <= 0.01
        assert stat > 0.1

    def test_independent_null(self):
        rng = rng_stream(2, 0)
        u, v = rng.normal(size=400), rng.normal(size=400)
        _, p, _ = balance.distance_correlation_test(u, v, n_perm=199, rng=rng)
        assert p > 0.05

    def test_calibration_super_uniform(self):
        hits = independence_calibration(seed=0, reps=100, m=200, n_perm=99)
        # P(p <= 0.01) <= 0.01 under the null; 100 repetitions
        assert hits <= 4

    @pytest.mark.parametrize("d,m", [(1, 300), (3, 120)])
    def test_sequential_p_matches_oracle(self, d, m, monkeypatch):
        # batches of 8 or of 1 permutation: h = 3 stops mid-batch in the
        # first batch at d = 1 and in the third at d = 3, h = 10 in a later
        # batch, h = 100 never; p = h / L on the prefix of the oracle's
        # permutation stream, whatever the batch size
        rng = rng_stream(0, 500 + d)
        u, v = rng.normal(size=(m, d)), rng.normal(size=(m, d))
        if d == 1:
            u, v = u[:, 0], v[:, 0]
        oracle = oracle_dcor_test if d == 1 else oracle_dcor_matrices_test
        runs = []
        for h in (3, 10, 100):
            got = []
            for rows in (8, 1):
                monkeypatch.setattr(balance, "_BATCH_CELLS", rows * m)
                got.append(balance.distance_correlation_test(u, v, 99, rng_stream(0, 9),
                                                             stop_hits=h))
            assert got[0] == got[1]
            stat, p, n_run = got[0]
            want = oracle(u, v, 99, rng_stream(0, 9), stop_hits=h)
            assert stat == pytest.approx(want[0], rel=1e-10, abs=0.0)
            assert p == want[1]
            if h < 100:
                assert p == h / n_run
            else:
                assert n_run == 99 and want == oracle(u, v, 99, rng_stream(0, 9))
            runs.append(n_run)
        assert runs[0] % 8 and runs[1] > 8 and runs[1] % 8

    def test_sequential_flag_matches_full_test(self):
        # at the verdict's stop count and gate, on null and on dependent
        # pairs: a test that stops has p > 0.01, and so does the full one
        law = dist.GigParams(0.5, 1.0, 1.0)
        gate, h = balance._P_THRESHOLD, balance._STOP_HITS
        for c in (0.0, 0.15):
            stopped = failed = 0
            for k in range(200):
                rng = rng_stream(0, 62_000 + k)
                u = dist.draw(law, rng, 200)
                v = dist.draw(law, rng, 200) + c * u
                _, p_full, _ = balance.distance_correlation_test(u, v, 99, rng_stream(1, k))
                _, p_seq, n_run = balance.distance_correlation_test(u, v, 99, rng_stream(1, k),
                                                                    stop_hits=h)
                assert (p_seq > gate) == (p_full > gate)
                stopped += n_run < 99
                failed += p_full <= gate
            # both branches are exercised: the null stops, the dependent fails
            assert stopped > 100 if c == 0.0 else failed > 50

    def test_stop_count_keeps_every_verdict_flag(self):
        # a stopped test has p = h / L >= _STOP_HITS / _N_PERM, which must
        # clear the gate for its flag to be the full test's
        assert balance._STOP_HITS / balance._N_PERM > balance._P_THRESHOLD

    @pytest.mark.parametrize("stop_hits", [0, -3, 2.0, "10"])
    def test_bad_stop_count(self, stop_hits):
        z = np.linspace(0.1, 3.0, 40)
        with pytest.raises(DomainError, match="stop_hits"):
            balance.distance_correlation_test(z, z[::-1], n_perm=9, stop_hits=stop_hits)


class TestMonteCarloBalance:
    def test_fdk_passes(self):
        rep = balance.monte_carlo_balance(fdk_spec(), seed=11, n=30_000)
        assert rep.passed, rep.pass_flags
        assert set(rep.ks_stats) == {"U", "V"}
        assert rep.independence.p_value > 0.01

    def test_negative_control_fails(self):
        spec = fdk_spec()
        bad = dist.GigParams(-spec.lam, spec.map.beta * spec.c2, 2.0 * spec.c1)
        rep = balance.monte_carlo_balance(spec, seed=11, n=30_000,
                                          y_override=bad)
        assert rep.ks_stats["U"].p_value < 0.01
        assert not rep.passed

    def test_psi_classical_my(self):
        spec = balance.BalanceSpec(maps.MapParams(1.0, 0.0), lam=0.8,
                                   c1=1.0, c2=2.0, variant="psi")
        rep = balance.monte_carlo_balance(spec, seed=12, n=30_000)
        assert rep.passed, rep.pass_flags
        assert set(rep.ks_stats) == {"S", "T"}

    def test_report_round_trip(self):
        rep = balance.monte_carlo_balance(fdk_spec(), seed=13, n=5000)
        d = rep.to_dict()
        assert d["variant"] == "fdk" and "ks_stats" in d
        assert isinstance(d["independence"]["p_value"], float)

    def test_matrix_variant_keeps_every_exact_draw(self):
        # i.i.d. draws are not thinned: every KS test runs at n against n
        # draws, and the independence test draws from every row
        rep = balance.monte_carlo_balance(matrix_spec(), seed=5, n=1000)
        assert {d["sampler"] for d in rep.mcmc.values()} == {"rejection"}
        assert all(stat.n == 1000 for stat in rep.ks_stats.values())
        assert rep.independence.n_used == 1000

    def test_matrix_variant(self):
        rep = balance.monte_carlo_balance(
            matrix_spec(), seed=41, n=6000,
            mcmc=matrix.McmcConfig(thin=15))
        assert rep.passed, rep.pass_flags
        assert rep.mcmc is not None and rep.pass_flags["mcmc_ok"]

    def test_matrix_wrong_y_control_fails(self):
        # the second input drawn at order lam + 1: the mapped first marginal
        # no longer has its claimed law
        spec = balance.BalanceSpec(P12, lam=1.1, variant="matrix", a=np.eye(2), b=np.eye(2))
        bad = matrix.MgigParams(spec.lam + 1.0, spec.map.beta * spec.b, spec.a)
        rep = balance.monte_carlo_balance(spec, seed=1, n=4000, y_override=bad)
        assert rep.ks_stats["U_logdet"].p_value < 1e-10
        assert not rep.passed

    def test_y_override_of_the_wrong_family_is_rejected(self):
        scalar, mat = fdk_spec(), matrix_spec()
        with pytest.raises(DomainError, match="y_override must be a GigParams"):
            balance.monte_carlo_balance(scalar, 1, 1000, y_override=balance.input_laws(mat)[1])
        with pytest.raises(DomainError, match="y_override must be a MgigParams"):
            balance.monte_carlo_balance(mat, 1, 1000, y_override=balance.input_laws(scalar)[1])

    @pytest.mark.parametrize("variant", ["fdk", "psi"])
    def test_mcmc_is_rejected_for_scalar_variants(self, variant):
        spec = replace(fdk_spec(), variant=variant)
        with pytest.raises(DomainError, match="mcmc applies to the matrix variant"):
            balance.monte_carlo_balance(spec, 1, 1000, mcmc=matrix.McmcConfig())

    @pytest.mark.parametrize("variant,module,name", [
        ("fdk", balance, "f_dk"), ("psi", balance, "psi"), ("matrix", matrix, "f_dk_matrix")])
    def test_verdict_maps_through_the_module_binding(self, variant, module, name, monkeypatch):
        # a tracer replaces these bindings to count map calls; a verdict that
        # held its own reference to the map would bypass the replacement
        sizes = []
        inner = getattr(module, name)

        def counting(params, xy):
            sizes.append(len(xy[0]))
            return inner(params, xy)

        monkeypatch.setattr(module, name, counting)
        spec = (matrix_spec() if variant == "matrix"
                else replace(fdk_spec(), variant=variant))
        balance.monte_carlo_balance(spec, seed=3, n=1000)
        assert 1000 in sizes

    @pytest.mark.parametrize("variant", ["fdk", "psi", "matrix"])
    def test_verdict_gates_transport_once_through_the_module_binding(self, variant,
                                                                     monkeypatch):
        # a tracer replaces the binding to time the transport gate
        calls = []
        inner = balance.transport_grid_max

        def counting(spec, *args, **kwargs):
            calls.append(spec.variant)
            return inner(spec, *args, **kwargs)

        monkeypatch.setattr(balance, "transport_grid_max", counting)
        spec = (matrix_spec() if variant == "matrix"
                else replace(fdk_spec(), variant=variant))
        balance.monte_carlo_balance(spec, seed=3, n=1000)
        assert calls == [variant]

    def test_refused_normalizer_draws_nothing(self, monkeypatch):
        # one importance weight dominates each normalizer of a = diag(1e6,
        # 1e-6): the verdict is refused before it draws from any law
        def no_draws(*args, **kwargs):
            raise AssertionError("the verdict drew before its transport gate")

        monkeypatch.setattr(matrix, "mgig_sample", no_draws)
        spec = balance.BalanceSpec(P12, lam=0.5, variant="matrix",
                                   a=np.diag([1e6, 1e-6]), b=np.eye(2))
        with pytest.raises(DomainError, match="effective size"):
            balance.monte_carlo_balance(spec, seed=7, n=20_000)


class TestMachinery:
    SPEC = balance.BalanceSpec(P12, lam=0.5, c1=1.0, c2=1.0, variant="psi")

    def test_product_identity_and_closed_forms(self):
        res = balance.machinery_check(self.SPEC, s=0.7, sigma=-1.0, theta=-0.5,
                                      seed=21, n=150_000)
        assert res.product_dev_se <= 4.0
        assert res.y_form_rel <= 1e-8
        assert res.v_form_rel <= 1e-8
        assert res.passed

    def test_zero_limit(self):
        res = balance.machinery_check(self.SPEC, s=0.0, sigma=-1e-9,
                                      theta=-1e-9, seed=22, n=5000)
        for v in res.transforms.values():
            assert v == pytest.approx(1.0, abs=1e-6)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            balance.machinery_check(self.SPEC, 0.5, 0.1, -1.0, 1, 1000)
        with pytest.raises(DomainError):
            balance.machinery_check(fdk_spec(), 0.5, -1.0, -1.0, 1, 1000)


def test_spec_validation():
    with pytest.raises(DomainError):
        balance.BalanceSpec(P12, lam=0.5, c1=0.0, c2=1.0)
    with pytest.raises(DomainError):
        balance.BalanceSpec(P12, lam=0.5, variant="matrix", a=None, b=None)
    with pytest.raises(DomainError):
        balance.BalanceSpec(P12, lam=0.5, variant="nope")
