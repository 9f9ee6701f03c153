import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

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


def bartlett_draws(df, v, n, rng):
    """n Wishart(df, v) draws, all at once, through the Bartlett helpers."""
    variates = matrix._bartlett_variates(df, v.shape[0], n, rng)
    return matrix._wishart_draws(np.linalg.cholesky(v), *variates)


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
        # run the generic IS machinery on an r = 1 law, where the
        # normalizer has the exact Bessel form
        law = matrix.MgigParams(0.8, np.array([[2.0]]), np.array([[1.3]]))
        exact, _ = matrix.mgig_log_norm(law)
        df, v = matrix._wishart_proposal(law)
        draws = bartlett_draws(df, v, 200_000, rng_stream(17, 90_001))
        lw = (matrix.mgig_log_pdf_unnorm(law, draws)
              - matrix._wishart_log_pdf(df, v, draws, matrix._logdet_spd(draws)))
        m = lw.max()
        w = np.exp(lw - m)
        est = m + math.log(w.mean())
        se = w.std() / (w.mean() * math.sqrt(len(w)))
        assert abs(est - exact) <= 3.0 * se

    def test_seed_consistency_r2(self):
        law = matrix.MgigParams(1.3, *spd_pair(2, 9))
        ln1, se1 = matrix.mgig_log_norm(law, seed=1, n=80_000)
        ln2, se2 = matrix.mgig_log_norm(law, seed=2, n=80_000)
        assert abs(ln1 - ln2) <= 3.0 * math.hypot(se1, se2)

    @pytest.mark.parametrize("r,p,pair_seed,want", [
        (2, 1.3, 9, (-0.7734063559004278, 0.0024171556772016878)),
        (3, 2.2, 4, (3.6035974382676996, 0.0035338161771855904)),
    ])
    def test_pinned_estimate(self, r, p, pair_seed, want):
        # recorded at aeafd57, when all n draws were built in one array; the
        # blocks must not move a bit
        law = matrix.MgigParams(p, *spd_pair(r, pair_seed))
        assert matrix.mgig_log_norm(law, seed=5, n=400_000) == want

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
        run = matrix.mgig_sample(law, seed, 240, mcmc=cfg)
        assert run.draws.shape == (240, r, r)
        assert hashlib.sha256(run.draws.tobytes()).hexdigest() == digest
        assert run.acceptance_rate == acc_rate
        assert run.step == step

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


@pytest.mark.parametrize("r", [1, 2, 3])
def test_prop51_battery(r):
    rows = matrix.prop51_battery(r, 1.0, 2.0, seed=5, n_pairs=25)
    assert all(bool(row[-1]) for row in rows), [row for row in rows if not row[-1]]
