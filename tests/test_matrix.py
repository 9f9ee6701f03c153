import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import multigammaln

from gigkdv import balance, dist, matrix, maps, specfun
from gigkdv.errors import DomainError, IllConditionedError, NotSpdError
from gigkdv.rng import rng_stream

P12 = maps.MapParams(1.0, 2.0)


def spd_pair(r, seed):
    rng = rng_stream(seed, 1000 + r)
    return matrix.random_spd(r, rng), matrix.random_spd(r, rng)


class TestMapMatrix:
    def test_scalar_reduction(self):
        x, y = np.array([[1.3]]), np.array([[0.4]])
        u, v = matrix.f_dk_matrix(P12, (x, y))
        us, vs = maps.f_dk(P12, (1.3, 0.4))
        assert u[0, 0] == pytest.approx(us, rel=1e-15)
        assert v[0, 0] == pytest.approx(vs, rel=1e-15)

    def test_commuting_identity_case(self):
        # x = y = I commutes with everything, so u = ((1+beta)/(1+alpha)) I
        # and v = u^-1 (forced by the product identity u v = y x = I)
        eye = np.eye(3)
        u, v = matrix.f_dk_matrix(P12, (eye, eye))
        assert np.allclose(u, 1.5 * eye, rtol=1e-14)
        assert np.allclose(v, eye / 1.5, rtol=1e-14)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_involution_and_product(self, r):
        for seed in range(8):
            x, y = spd_pair(r, seed)
            u, v = matrix.f_dk_matrix(P12, (x, y))
            x2, y2 = matrix.f_dk_matrix(P12, (u, v))
            denom = max(np.linalg.norm(x), np.linalg.norm(y))
            assert np.linalg.norm(x2 - x) / denom <= 1e-10
            assert np.linalg.norm(y2 - y) / denom <= 1e-10
            yx = y @ x
            assert np.linalg.norm(u @ v - yx) / np.linalg.norm(yx) <= 1e-10

    def test_requires_positive_params(self):
        x, y = spd_pair(2, 0)
        with pytest.raises(DomainError):
            matrix.f_dk_matrix(maps.MapParams(1.0, 0.0), (x, y))

    def test_condition_ceiling(self):
        x = np.diag([1e14, 1e-14])
        y = np.eye(2)
        with pytest.raises(IllConditionedError):
            matrix.f_dk_matrix(P12, (x, y))

    def test_batched(self):
        xs = np.stack([spd_pair(2, s)[0] for s in range(5)])
        ys = np.stack([spd_pair(2, s)[1] for s in range(5)])
        us, vs = matrix.f_dk_matrix(P12, (xs, ys))
        u0, v0 = matrix.f_dk_matrix(P12, (xs[3], ys[3]))
        assert np.allclose(us[3], u0, rtol=1e-14)
        assert np.allclose(vs[3], v0, rtol=1e-14)


class TestJacobian:
    @pytest.mark.parametrize("r,tol", [(1, 1e-6), (2, 1e-4), (3, 1e-4)])
    def test_unit_determinant(self, r, tol):
        for seed in range(4):
            x, y = spd_pair(r, seed)
            assert matrix.jacobian_abs_matrix(P12, (x, y)) == pytest.approx(
                1.0, abs=tol)

    def test_endomorphism_determinant(self):
        for r in (1, 2, 3):
            x, _ = spd_pair(r, 7)
            assert matrix.endo_det_residual(x) <= 1e-8

    def test_dimension_cap(self):
        x, y = spd_pair(5, 1)
        with pytest.raises(DomainError):
            matrix.jacobian_abs_matrix(P12, (x, y))

    def test_isometric_vectorization(self):
        x, y = spd_pair(3, 11)
        v = matrix.sym_to_vec(x)
        assert np.allclose(matrix.vec_to_sym(v, 3), x)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(x), rel=1e-14)
        assert float(v @ matrix.sym_to_vec(y)) == pytest.approx(
            float(np.sum(x * y)), rel=1e-13)


class TestSpdChecks:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpdError):
            matrix.check_spd(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSpdError):
            matrix.check_spd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_params_validated(self):
        with pytest.raises(NotSpdError):
            matrix.MgigParams(1.0, np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2))
        with pytest.raises(DomainError):
            matrix.MgigParams(1.0, np.eye(2), np.eye(3))


class TestMgigDensity:
    def test_scalar_case_matches_gig(self):
        law = matrix.MgigParams(0.7, np.array([[2.0]]), np.array([[3.0]]))
        gig = dist.GigParams(0.7, 1.0, 1.5)
        for x in (0.2, 1.0, 4.0):
            got = (matrix.mgig_log_pdf_unnorm(law, np.array([[x]]))
                   - matrix.mgig_log_norm(law)[0])
            assert got == pytest.approx(dist.log_pdf(gig, x), rel=1e-12)

    def test_unnormalized_at_identity(self):
        a, b = spd_pair(3, 2)
        law = matrix.MgigParams(1.9, a, b)
        want = -(np.trace(a) + np.trace(b)) / 2.0
        assert matrix.mgig_log_pdf_unnorm(law, np.eye(3)) == pytest.approx(
            want, rel=1e-14)

    def test_rejects_non_spd_argument(self):
        law = matrix.MgigParams(1.0, *spd_pair(2, 3))
        with pytest.raises(NotSpdError):
            matrix.mgig_log_pdf_unnorm(law, np.array([[1.0, 0.0], [0.0, -2.0]]))

    def test_mode_scalar_formula(self):
        law = matrix.MgigParams(2.0, np.array([[3.0]]), np.array([[5.0]]))
        lam, a0, b0 = 2.0, 1.5, 2.5
        want = ((lam - 1.0) + math.sqrt((lam - 1.0) ** 2 + 4.0 * a0 * b0)) / (2.0 * a0)
        assert matrix.mgig_mode(law)[0, 0] == pytest.approx(want, rel=1e-12)

    def test_mode_is_stationary_point(self):
        law = matrix.MgigParams(1.4, *spd_pair(2, 5))
        m = matrix.mgig_mode(law)
        f0 = matrix.mgig_log_pdf_unnorm(law, m)
        rng = rng_stream(0, 3)
        for _ in range(6):
            d = rng.standard_normal((2, 2)) * 1e-4
            d = 0.5 * (d + d.T)
            assert matrix.mgig_log_pdf_unnorm(law, m + d) <= f0 + 1e-10


def wishart_draws(chol_v, normals, diag):
    """Bartlett (1933): x = C A A^T C^T with C = chol_v and A the factor of
    `normals` and `diag`."""
    a = chol_v @ matrix._bartlett_factors(normals, diag)
    return a @ np.swapaxes(a, -1, -2)


def wishart_log_pdf(df, v, x, ld_x):
    """Wishart(df, v) log density at a batch x whose log det is ld_x, from x
    itself: the oracle of the importance weights."""
    r = v.shape[0]
    return (0.5 * (df - r - 1.0) * ld_x
            - 0.5 * np.einsum("ij,kji->k", np.linalg.inv(v), x)
            - 0.5 * df * r * math.log(2.0)
            - 0.5 * df * matrix._logdet_spd(v)
            - multigammaln(0.5 * df, r))


def extended_logdet_inv(x):
    """(log det x, x^-1) of a batch of SPD x by Gauss-Jordan elimination
    without pivoting, in the precision of x's dtype."""
    r = x.shape[-1]
    aug = np.concatenate([x, np.broadcast_to(np.eye(r, dtype=x.dtype), x.shape)], axis=-1)
    ld = np.zeros(len(x), dtype=x.dtype)
    for j in range(r):
        pivot = aug[:, j, j].copy()
        ld += np.log(pivot)
        aug[:, j] /= pivot[:, None]
        col = aug[:, :, j].copy()
        col[:, j] = 0.0
        aug -= col[:, :, None] * aug[:, None, j]
    return ld, aug[..., r:]


def bartlett_draws(df, v, n, rng):
    """n Wishart(df, v) draws, all at once, through the Bartlett helpers."""
    variates = matrix._bartlett_variates(df, v.shape[0], n, rng)
    return wishart_draws(np.linalg.cholesky(v), *variates)


class TestNormalizer:
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_bartlett_draws_match_scipy(self, r):
        # scipy.stats.wishart.rvs is the oracle: the same generator calls in
        # the same order, so the draws and the generator state after them
        # are bitwise equal
        v = matrix.random_spd(r, rng_stream(3, r))
        for df in (r - 0.4, r + 1.7, r + 6.25):
            for n in (1, 9, 2000):
                want_rng, got_rng = rng_stream(11, r), rng_stream(11, r)
                want = stats.wishart.rvs(df=df, scale=v, size=n,
                                         random_state=want_rng)
                got = bartlett_draws(df, v, n, got_rng)
                assert got.shape == (n, r, r)
                assert np.array_equal(got, want.reshape(n, r, r))
                assert got_rng.random() == want_rng.random()

    def test_importance_sampling_matches_exact_r1(self):
        # run the shipped estimator, the envelope's mass times the mean of
        # h / sup h over its proposals, on an r = 1 law, where the
        # normalizer has the exact Bessel form
        law = matrix.MgigParams(0.8, np.array([[2.0]]), np.array([[1.3]]))
        exact, _ = matrix.mgig_log_norm(law)
        env = matrix._envelope_setup(law)
        variates = matrix._bartlett_variates(env.nu, 1, 200_000, rng_stream(17, 90_001))
        lw = matrix._weigh(env, *variates)[2]
        assert np.all(lw <= 1e-12)
        m = lw.max()
        w = np.exp(lw - m)
        est = env.log_mass + m + math.log(w.mean())
        se = w.std() / (w.mean() * math.sqrt(len(w)))
        assert abs(est - exact) <= 3.0 * se

    def test_exact_r1_above_kve_range(self):
        # sqrt(ab) = 1e10 lies above the range of scipy's kve
        import mpmath as mp

        mp.mp.dps = 40
        law = matrix.MgigParams(0.8, np.array([[2e10]]), np.array([[5e9]]))
        want = mp.log(2) + 0.4 * mp.log(mp.mpf(5e9) / 2e10) + mp.log(mp.besselk(0.8, 1e10))
        got, se = matrix.mgig_log_norm(law)
        assert se == 0.0
        assert float(abs(got - want)) <= 1e-15 * float(abs(want))

    def test_seed_consistency_r2(self):
        law = matrix.MgigParams(1.3, *spd_pair(2, 9))
        ln1, se1 = matrix.mgig_log_norm(law, seed=1, n=80_000)
        ln2, se2 = matrix.mgig_log_norm(law, seed=2, n=80_000)
        assert abs(ln1 - ln2) <= 3.0 * math.hypot(se1, se2)

    @pytest.mark.parametrize("r,p,pair_seed,want", [
        (2, 1.3, 9, (-0.7752513219302124, 0.0008466662051113284)),
        (3, 2.2, 4, (3.5953309556086177, 0.0008290930104093721)),
    ])
    def test_pinned_estimate(self, r, p, pair_seed, want):
        # re-recorded when the normalizer came to weigh the proposals of the
        # exact sampler's envelope; the blocks must not move a bit
        law = matrix.MgigParams(p, *spd_pair(r, pair_seed))
        assert matrix.mgig_log_norm(law, seed=5, n=400_000) == want

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_log_weights_match_x_oracle(self, r):
        # per-draw log det y and log h - log sup h from the Bartlett factor
        # against h of y itself, at 6 laws per r: lambda on [-3, 3], rates
        # random_spd scaled by e^s and e^-s, s on [-2, 2].  The oracle runs
        # in extended precision: formed in double, y of condition number 6e5
        # alone moves it by 2e-11 |lw|.  The envelope's df can lie near
        # r - 1, so some y are near singular; in long double the oracle's
        # own error grows like cond(y) 5e-20, so above cond 1e7 it runs in
        # mpmath at 60 digits (40 leave 3e-12 at cond 2e16)
        import mpmath as mp

        rng = rng_stream(2030, r)
        for i in range(6):
            s, lam = rng.uniform(-2.0, 2.0), rng.uniform(-3.0, 3.0)
            law = matrix.MgigParams(lam, matrix.random_spd(r, rng) * math.exp(s),
                                    matrix.random_spd(r, rng) * math.exp(-s))
            env = matrix._envelope_setup(law)
            b = law.a if env.mirrored else law.b
            normals, diag = matrix._bartlett_variates(env.nu, r, 2000, rng_stream(i, 90_001))
            factor, ld_y, got = matrix._weigh(env, normals, diag)
            # chi2 variates of small df underflow to 0, and such a y weighs 0
            ok = np.all(diag > 0.0, axis=0)
            assert np.count_nonzero(ok) > 1900 and np.all(got[~ok] == -np.inf)
            y = wishart_draws(env.chol_v.astype(np.longdouble), normals, diag)
            cond = np.full(len(y), np.inf)
            cond[ok] = np.linalg.cond(y[ok].astype(float))
            ld, want = np.empty(len(y)), np.empty(len(y))
            ld_fine, y_inv = extended_logdet_inv(y[cond <= 1e7])
            ld[cond <= 1e7] = ld_fine
            want[cond <= 1e7] = -env.k * ld_fine - 0.5 * np.einsum("ij,nji->n", b, y_inv)
            for j in np.flatnonzero(ok & (cond > 1e7)):
                with mp.workdps(60):
                    w_mp = mp.matrix(env.chol_v.tolist()) * mp.matrix(factor[j].tolist())
                    y_mp = w_mp * w_mp.T
                    ld_mp, y_mp_inv = mp.log(mp.det(y_mp)), mp.inverse(y_mp)
                    ld[j] = float(ld_mp)
                    want[j] = float(-env.k * ld_mp - sum(
                        b[q, t] * y_mp_inv[t, q] for q in range(r) for t in range(r)) / 2)
            for value, oracle in ((got, want - env.log_sup), (ld_y, ld)):
                value, oracle = value[ok], oracle[ok]
                assert np.all(np.abs(value - oracle)
                              <= 1e-12 * np.maximum(1.0, np.abs(oracle))), (r, i)

    @pytest.mark.parametrize("r,p", [(3, -2.0), (5, 2.0)])
    def test_mirror_law_same_normalizer(self, r, p):
        # x ~ MGIG(p, a, b) and x^-1 ~ MGIG(-p, b, a) have one normalizer.
        # Rates spd_pair(r, 1); the law takes seed 5 and its mirror seed 6,
        # so the two estimates are independent
        a, b = spd_pair(r, 1)
        ln1, se1 = matrix.mgig_log_norm(matrix.MgigParams(p, a, b), seed=5, n=400_000)
        ln2, se2 = matrix.mgig_log_norm(matrix.MgigParams(-p, b, a), seed=6, n=400_000)
        assert abs(ln1 - ln2) <= 4.0 * math.hypot(se1, se2)
        assert max(se1, se2) < 0.01

    @pytest.mark.parametrize("a", [(1e3, 1e-3), (1e6, 1e-6)], ids=["cond1e6", "cond1e12"])
    def test_dominated_weights_raise(self, a):
        # effective sizes of about 3.9 and 1 of 400,000: the delta-method se
        # would read about 1 nat whatever the real error
        law = matrix.MgigParams(1.0, np.diag(a), np.eye(2))
        with pytest.raises(DomainError, match="effective size"):
            matrix.mgig_log_norm(law, seed=5, n=400_000)

    def test_memory_bounded(self):
        # one (n, r, r) array per step once took a 35 MB peak at this size
        law = matrix.MgigParams(1.3, *spd_pair(2, 9))
        tracemalloc.start()
        try:
            matrix.mgig_log_norm(law, seed=5, n=400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25_000_000

    def test_block_memory_bounded_at_r22(self):
        # one block of 16,384 proposals of 22 x 22 matrices once took a
        # 166 MB peak here; a block of 9 * 16,384 / r^2 proposals keeps the
        # size of its arrays at r = 3 (about 4 MB here at r = 3 and 22)
        law = matrix.MgigParams(0.5, np.eye(22), np.eye(22))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="effective size"):
                matrix.mgig_log_norm(law, seed=5, n=16_384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    def test_identity_rates_r2(self):
        law = matrix.MgigParams(3.0, np.eye(2), np.eye(2))
        ln1, se1 = matrix.mgig_log_norm(law, seed=5, n=100_000)
        ln2, se2 = matrix.mgig_log_norm(law, seed=6, n=100_000)
        assert abs(ln1 - ln2) <= 3.0 * math.hypot(se1, se2)
        assert se1 < 0.05


class TestNormalizersCancel:
    # the laws of a matrix spec are X (alpha a, b), Y (beta b, a), U (alpha b,
    # a) and V (beta a, b), so Z_X Z_Y = Z_U Z_V: the transport identity
    # holds for the unnormalized densities alone
    MAP = maps.MapParams(1.3, 0.4)

    def laws(self, lam, a, b):
        spec = balance.BalanceSpec(self.MAP, lam, variant="matrix", a=a, b=b)
        return (*balance.input_laws(spec), *balance.output_laws(spec))

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_unnormalized_residual(self, r):
        rng = rng_stream(23, 2000 + r)
        worst = 0.0
        for _ in range(50):
            a, b, x, y = (matrix.random_spd(r, rng) for _ in range(4))
            law_x, law_y, law_u, law_v = self.laws(rng.uniform(-3.0, 3.0), a, b)
            u, v = matrix.f_dk_matrix(self.MAP, (x, y))
            res = (matrix.mgig_log_pdf_unnorm(law_x, x) + matrix.mgig_log_pdf_unnorm(law_y, y)
                   - matrix.mgig_log_pdf_unnorm(law_u, u)
                   - matrix.mgig_log_pdf_unnorm(law_v, v))
            worst = max(worst, abs(res))
        assert worst <= 1e-12

    def test_normalizers_cancel_r1(self):
        def log_norm(law):  # exact Bessel form of log Z at r = 1
            a, b = float(law.a[0, 0]), float(law.b[0, 0])
            return (math.log(2.0) + 0.5 * law.p * (math.log(b) - math.log(a))
                    + specfun.bessel_k_log(law.p, math.sqrt(a * b)))

        rng = rng_stream(23, 2001)
        worst = 0.0
        for _ in range(50):
            a, b = matrix.random_spd(1, rng), matrix.random_spd(1, rng)
            lx, ly, lu, lv = map(log_norm, self.laws(rng.uniform(-3.0, 3.0), a, b))
            worst = max(worst, abs(lx + ly - lu - lv))
        assert worst <= 1e-12


def eigdensity_expectation(p, fn):
    """2-d eigenvalue-space quadrature oracle for MGIG(p, I, I) at r = 2.

    The density of the ordered eigenvalues is proportional to
    (l1 l2)^(p - 3/2) e^(-(l1 + 1/l1 + l2 + 1/l2)/2) |l1 - l2|.
    """
    def w(l1, l2):
        return ((l1 * l2) ** (p - 1.5)
                * math.exp(-0.5 * (l1 + 1.0 / l1 + l2 + 1.0 / l2))
                * abs(l1 - l2))

    num, _ = integrate.dblquad(lambda l2, l1: w(l1, l2) * fn(l1, l2),
                               1e-4, 60.0, 1e-4, 60.0, epsabs=1e-11)
    den, _ = integrate.dblquad(lambda l2, l1: w(l1, l2),
                               1e-4, 60.0, 1e-4, 60.0, epsabs=1e-11)
    return num / den


def oracle_mgig_sample(params, seed, n, mcmc=None):
    """The chain loop of matrix.mgig_sample as it stood before the step
    loop was rewritten: it carried x through accept and reject, and formed
    log det x and the volume term as separate sums.  The rewrite must keep
    its draws and diagnostics bit for bit."""
    cfg = mcmc or matrix.McmcConfig()
    r, chains = params.r, cfg.chains
    d = r * (r + 1) // 2
    rng = rng_stream(seed, 77_001)

    il = np.tril_indices(r, k=-1)
    lower_cells = il[0] * r + il[1]
    chol = np.zeros((chains, r * r))
    chol_t = np.swapaxes(chol.reshape(chains, r, r), -1, -2)
    weights = np.arange(r + 1, 1, -1, dtype=float)
    a_t, b_t = params.a.T.ravel(), params.b.T.ravel()
    ld_coef = params.p - 0.5 * (r + 1)

    def log_target(theta):
        np.exp(theta[:, :r], out=chol[:, ::r + 1])
        chol[:, lower_cells] = theta[:, r:]
        x = chol.reshape(chains, r, r) @ chol_t
        jac = (weights * theta[:, :r]).sum(axis=-1)
        traces = (x.reshape(chains, -1) @ a_t
                  + np.linalg.inv(x).reshape(chains, -1) @ b_t)
        return ld_coef * (2.0 * theta[:, :r].sum(axis=-1)) - 0.5 * traces + jac, x

    chol0 = np.linalg.cholesky(matrix.mgig_mode(params))
    theta0 = np.concatenate([np.log(np.diag(chol0)), chol0[il]])
    theta = theta0[None, :] + 0.05 * rng.standard_normal((chains, d))

    step = cfg.step
    lt, x = log_target(theta)
    accepted = 0
    acc_window = 0

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
            acc_window += int(np.count_nonzero(accept))
            if (it + 1) % cfg.adapt_every == 0:
                rate = acc_window / (chains * cfg.adapt_every)
                step *= math.exp(0.5 * (rate - cfg.target_accept))
                acc_window = 0
        else:
            accepted += int(np.count_nonzero(accept))
            k, rest = divmod(it - cfg.burn_in + 1, cfg.thin)
            if rest == 0:
                kept[:, k - 1] = x

    acc_rate = accepted / (chains * per_chain * cfg.thin)
    ld = matrix._logdet_spd(kept.reshape(-1, r, r)).reshape(chains, per_chain)
    tr = np.trace(kept, axis1=-2, axis2=-1)
    rhat = {"logdet": matrix._split_rhat(ld), "trace": matrix._split_rhat(tr)}
    ess = {"logdet": matrix._ess(ld), "trace": matrix._ess(tr)}
    ok = (0.1 <= acc_rate <= 0.6) and all(v < 1.05 for v in rhat.values())
    return matrix.MgigSample(draws=kept.reshape(-1, r, r)[:n], acceptance_rate=acc_rate,
                             rhat=rhat, ess=ess, step=step, seed=seed, ok=ok)


class TestMcmc:
    def test_r1_matches_exact_sampler(self):
        law = matrix.MgigParams(0.7, np.array([[2.0]]), np.array([[3.0]]))
        run = matrix.mgig_sample(law, seed=3, n=8000)
        assert run.ok
        gig = dist.GigParams(0.7, 1.0, 1.5)
        xs = run.draws[:, 0, 0][::4]
        assert stats.kstest(xs, lambda v: dist.cdf(gig, v)).pvalue > 0.01

    def test_diagnostics_populated(self):
        law = matrix.MgigParams(1.3, *spd_pair(2, 13))
        run = matrix.mgig_sample(law, seed=5, n=4000)
        assert 0.1 <= run.acceptance_rate <= 0.6
        assert set(run.rhat) == {"logdet", "trace"}
        assert all(v < 1.05 for v in run.rhat.values())
        assert run.ok
        d = run.diagnostics_dict()
        assert d["seed"] == 5 and "ess" in d

    def test_logdet_expectation_against_quadrature(self):
        p = 3.0
        law = matrix.MgigParams(p, np.eye(2), np.eye(2))
        want = eigdensity_expectation(p, lambda l1, l2: math.log(l1 * l2))
        run = matrix.mgig_sample(law, seed=21, n=20_000,
                                 mcmc=matrix.McmcConfig(thin=10))
        assert run.ok
        ld = np.log(np.linalg.det(run.draws))
        se = ld.std() / math.sqrt(min(run.ess["logdet"], len(ld)))
        assert abs(ld.mean() - want) <= 4.0 * se

    @pytest.mark.parametrize("r,p,pair_seed,seed,digest,acc_rate,step", [
        (2, 1.3, 13, 5,
         "dd9ccc32491644f6512ad40be5f428a0ef05092592b94c1694ffe0a6fc2d27ea",
         0.3819444444444444, 0.5305767100386997),
        (3, 2.4, 4, 9,
         "53339d382111cd28afdb693b484e684e615ca8f6eba23e40265181a0549e50f3",
         0.27361111111111114, 0.41580422940774614),
    ])
    def test_pinned_run(self, r, p, pair_seed, seed, digest, acc_rate, step):
        # draws, acceptance rate and adapted step of a small run, computed
        # by the sampler that built the Cholesky factor anew at every step
        law = matrix.MgigParams(p, *spd_pair(r, pair_seed))
        cfg = matrix.McmcConfig(burn_in=200, thin=3)
        run = matrix._mgig_mcmc(law, seed, 240, mcmc=cfg)
        assert run.draws.shape == (240, r, r)
        assert hashlib.sha256(run.draws.tobytes()).hexdigest() == digest
        assert run.acceptance_rate == acc_rate
        assert run.step == step

    # r = 1 has no strict-lower cells; burn-in 120 is not a multiple of
    # adapt_every, and neither n is a multiple of the 8 chains
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("burn_in,thin", [(0, 1), (120, 3), (None, None)])
    @pytest.mark.parametrize("n", [25, 243])
    def test_matches_oracle(self, r, burn_in, thin, n):
        law = matrix.MgigParams(0.5 * r + 0.8, *spd_pair(r, 31 + r))
        cfg = None if burn_in is None else matrix.McmcConfig(burn_in=burn_in, thin=thin)
        seed = 1000 * r + n
        got = matrix._mgig_mcmc(law, seed, n, mcmc=cfg)
        want = oracle_mgig_sample(law, seed, n, mcmc=cfg)
        assert got.draws.shape == (n, r, r)
        assert np.array_equal(got.draws, want.draws)
        assert got.diagnostics_dict() == want.diagnostics_dict()

    @pytest.mark.parametrize("field,value", [
        ("chains", 0), ("burn_in", -1), ("thin", 0), ("thin", -3),
        ("adapt_every", 0), ("step", 0.0), ("step", -0.1),
        ("step", math.inf), ("step", math.nan), ("target_accept", 0.0),
        ("target_accept", 1.0), ("target_accept", math.nan)])
    def test_config_validated(self, field, value):
        # burn_in and thin are checked; the other settings are class
        # constants, which no caller can set
        error = DomainError if field in ("burn_in", "thin") else TypeError
        with pytest.raises(error, match=field):
            matrix.McmcConfig(**{field: value})

    def test_config_limits_accepted(self):
        cfg = matrix.McmcConfig(burn_in=0, thin=1)
        law = matrix.MgigParams(1.3, *spd_pair(2, 13))
        assert matrix.mgig_sample(law, 1, 32, mcmc=cfg).draws.shape == (32, 2, 2)

    def test_deterministic(self):
        law = matrix.MgigParams(1.3, *spd_pair(2, 13))
        r1 = matrix.mgig_sample(law, seed=5, n=500)
        r2 = matrix.mgig_sample(law, seed=5, n=500)
        assert np.array_equal(r1.draws, r2.draws)


def random_mgig(r, rng):
    # lambda uniform on [-3, 3]; rates random_spd scaled by e^s and e^-s,
    # s uniform on [-3, 3]
    s, lam = rng.uniform(-3.0, 3.0, size=2)
    return matrix.MgigParams(lam, matrix.random_spd(r, rng) * math.exp(s),
                             matrix.random_spd(r, rng) * math.exp(-s))


def log_h(p, a, b, nu, x):
    # the MGIG(p, a, b) kernel over the Wishart(nu, a^-1) kernel, from x
    # itself rather than from its Bartlett factor
    k = 0.5 * nu - p
    return (-k * np.linalg.slogdet(x)[1]
            - 0.5 * np.einsum("ij,nji->n", b, np.linalg.inv(x)))


def mgig_functionals(x):
    return np.stack([np.linalg.slogdet(x)[1], np.trace(x, axis1=1, axis2=2),
                     x[:, 0, 1]])


def wishart_proposal(law):
    """A Wishart proposal matched to the mode of `law`, the reference of
    `is_oracle_moments`: scale 2 a^-1 halves the linear rate (the weights
    then keep an exp(-tr(a x)/4) envelope), and the degrees of freedom match
    the mode in trace."""
    v = 2.0 * np.linalg.inv(law.a)
    df = law.r + 1.0 + np.trace(matrix.mgig_mode(law)) / (2.0 * np.trace(np.linalg.inv(law.a)))
    return max(df, law.r + 1.5), matrix.check_spd(v, "proposal scale")


def envelope_is_moments(law, seed, n=100_000):
    """Self-normalized IS means of `mgig_functionals` and their delta-method
    standard errors, from the Wishart envelope of x or of x^-1 that the
    exact sampler picks, with weights h computed from x itself by `log_h`."""
    sides = [(law.p, law.a, law.b), (-law.p, law.b, law.a)]
    envelopes = [matrix._envelope(*side) for side in sides]
    mirror = bool(envelopes[1][0] < envelopes[0][0])
    p, a, b = sides[mirror]
    nu = envelopes[mirror][1]
    normals, diag = matrix._bartlett_variates(nu, law.r, n, rng_stream(seed, 6))
    y = wishart_draws(np.linalg.cholesky(np.linalg.inv(a)), normals, diag)
    y = y[np.linalg.cond(y) < 1e12]  # chi2 variates of small df may underflow
    lw = log_h(p, a, b, nu, y)
    w = np.exp(lw - lw.max())
    w /= w.sum()
    assert 1.0 / np.sum(w ** 2) >= 1000.0  # the oracle's own effective size
    f = mgig_functionals(np.linalg.inv(y) if mirror else y)
    mean = f @ w
    return mean, np.sqrt((f - mean[:, None]) ** 2 @ w ** 2)


def is_oracle_moments(law, seed, n=100_000):
    """Self-normalized IS means of `mgig_functionals` and their delta-method
    standard errors, from `wishart_proposal`, built for x or, at
    lambda < 0, for x^-1 ~ MGIG(-p, b, a)."""
    mirror = law.p < 0.0
    side = matrix.MgigParams(-law.p, law.b, law.a) if mirror else law
    df, v = wishart_proposal(side)
    normals, diag = matrix._bartlett_variates(df, law.r, n, rng_stream(seed, 5))
    y = wishart_draws(np.linalg.cholesky(v), normals, diag)
    ld = np.linalg.slogdet(y)[1]
    lw = sum(matrix._log_kernel_terms(side, y)) - wishart_log_pdf(df, v, y, ld)
    w = np.exp(lw - lw.max())
    w /= w.sum()
    assert 1.0 / np.sum(w ** 2) >= 1000.0  # the oracle's own effective size
    f = mgig_functionals(np.linalg.inv(y) if mirror else y)
    mean = f @ w
    return mean, np.sqrt((f - mean[:, None]) ** 2 @ w ** 2)


class TestExactSampler:
    def test_r1_matches_gig_cdf(self):
        # MGIG(p, a, b) at r = 1 is GIG(p, a/2, b/2); both envelopes are taken
        rng = rng_stream(2027, 1)
        p_values, sides = [], set()
        for i in range(20):
            lam, a, b = rng.uniform(-3.0, 3.0), *np.exp(rng.uniform(-3.0, 3.0, 2))
            law = matrix.MgigParams(lam, np.array([[a]]), np.array([[b]]))
            sides.add(matrix._envelope(-lam, law.b, law.a)[0]
                      < matrix._envelope(lam, law.a, law.b)[0])
            run = matrix.mgig_sample(law, i, 20_000)
            assert run.sampler == "rejection" and run.ok
            gig = dist.GigParams(lam, a / 2.0, b / 2.0)
            p_values.append(stats.kstest(run.draws[:, 0, 0],
                                         lambda q: dist.cdf(gig, q)).pvalue)
        assert sides == {False, True}
        assert min(p_values) > 0.001, p_values

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_envelope_bounds_kernel_ratio(self, r):
        # h <= sup h over 7 random laws, both sides, 5,000 proposals each;
        # and the closed-form sup h is attained at x = b / (2k)
        rng = rng_stream(2028, r)
        for _ in range(7):
            law = random_mgig(r, rng)
            for p, a, b in ((law.p, law.a, law.b), (-law.p, law.b, law.a)):
                _, nu, k, log_sup = matrix._envelope(p, a, b)
                normals, diag = matrix._bartlett_variates(nu, r, 5000, rng)
                chol_v = np.linalg.cholesky(np.linalg.inv(a))
                x = wishart_draws(chol_v, normals, diag)
                # chi2 variates of small df can leave x singular in floating point
                ok = np.linalg.cond(x) < 1e12
                assert np.count_nonzero(ok) > 4000
                assert np.max(log_h(p, a, b, nu, x[ok]) - log_sup) <= 1e-9
                top = log_h(p, a, b, nu, (b / (2.0 * k))[None])[0]
                assert top == pytest.approx(log_sup, abs=1e-9 * max(1.0, abs(log_sup)))

    @pytest.mark.parametrize("r", [2, 3])
    def test_moments_match_importance_oracle(self, r):
        # means of log det x, tr x and x_01 over 20,000 exact draws against
        # a self-normalized IS estimate from the mode-matched Wishart
        # proposal of x (lambda >= 0) or of x^-1 (lambda < 0), within 4
        # combined standard errors, at 6 random laws
        rng = rng_stream(2029, r)
        for i in range(6):
            law = random_mgig(r, rng)
            draws = matrix.mgig_sample(law, i, 20_000).draws
            got = mgig_functionals(draws)
            mean, se = got.mean(axis=1), got.std(axis=1) / math.sqrt(len(draws))
            want, want_se = is_oracle_moments(law, i)
            assert np.all(np.abs(mean - want) <= 4.0 * np.hypot(se, want_se)), (law, i)

    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_exact_at_r5(self, lam):
        # at r = 5 the envelope of identity rates accepts about 4 %, so the
        # draws are exact; their moments match an IS estimate from that
        # envelope within 4 combined standard errors
        law = matrix.MgigParams(lam, np.eye(5), np.eye(5))
        run = matrix.mgig_sample(law, 5, 20_000)
        assert run.sampler == "rejection" and run.ok
        assert 0.01 <= run.acceptance_rate < 0.1
        got = mgig_functionals(run.draws)
        mean, se = got.mean(axis=1), got.std(axis=1) / math.sqrt(len(run.draws))
        want, want_se = envelope_is_moments(law, 5)
        assert np.all(np.abs(mean - want) <= 4.0 * np.hypot(se, want_se))

    def test_low_acceptance_at_r4_runs_the_chains(self):
        # at r = 4, lambda = 0.5 the envelope accepts about 0.2 %: the first
        # block falls back to the chains, which run as if called directly
        law = matrix.MgigParams(0.5, np.eye(4), np.eye(4))
        cfg = matrix.McmcConfig(burn_in=200, thin=2)
        got = matrix.mgig_sample(law, 11, 400, mcmc=cfg)
        want = matrix._mgig_mcmc(law, 11, 400, mcmc=cfg)
        assert got.sampler == "mcmc"
        assert np.array_equal(got.draws, want.draws)
        assert got.diagnostics_dict() == want.diagnostics_dict()

    def test_singular_proposals_rejected(self):
        # the search picks nu of about 2.57 here, so chi2(nu - 2) variates
        # underflow to 0; such proposals are rejected without a warning
        law = matrix.MgigParams(0.0, np.eye(3), np.eye(3))
        assert 2.5 < matrix._envelope(0.0, law.a, law.b)[1] < 2.6
        run = matrix.mgig_sample(law, 3, 4000)
        assert run.sampler == "rejection" and run.ok
        assert np.all(np.linalg.eigvalsh(run.draws) > 0.0)
        assert 0.01 <= run.acceptance_rate < 0.02

    def test_ill_conditioned_falls_back_to_chains(self):
        law = matrix.MgigParams(0.0, np.diag([1e2, 1e-2]), np.eye(2))
        cfg = matrix.McmcConfig(burn_in=200, thin=2)
        got = matrix.mgig_sample(law, 11, 400, mcmc=cfg)
        want = matrix._mgig_mcmc(law, 11, 400, mcmc=cfg)
        assert got.sampler == "mcmc"
        assert np.array_equal(got.draws, want.draws)
        assert got.diagnostics_dict() == want.diagnostics_dict()

    @pytest.mark.parametrize("r,p", [(1, -1.5), (2, 0.5), (2, -2.0), (3, 1.7)])
    def test_same_seed_same_bytes(self, r, p):
        # exact draws ignore the chains' burn-in and thinning
        law = matrix.MgigParams(p, *spd_pair(r, 7))
        r1 = matrix.mgig_sample(law, 9, 3000)
        r2 = matrix.mgig_sample(law, 9, 3000, mcmc=matrix.McmcConfig(burn_in=0, thin=1))
        assert r1.sampler == "rejection"
        assert r1.draws.tobytes() == r2.draws.tobytes()
        assert r1.diagnostics_dict() == r2.diagnostics_dict()
        assert r1.step == 0.0 and r1.draws.shape == (3000, r, r)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_prop51_battery(r):
    rows = matrix.prop51_battery(r, 1.0, 2.0, seed=5, n_pairs=25)
    assert all(bool(row[-1]) for row in rows), [row for row in rows if not row[-1]]
