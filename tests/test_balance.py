import math
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
        assert law_b == dist.GammaParams(0.8, 1.0)
        _, law_t = balance.output_laws(spec)
        assert law_t == dist.GammaParams(0.8, 1.0)

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


class TestTransport:
    def test_spec_point(self):
        assert balance.transport_residual(fdk_spec(), (1.0, 1.0)) <= 1e-9

    def test_grid(self):
        assert balance.transport_grid_max(fdk_spec()) <= 1e-9

    def test_psi_conjugation_identical(self):
        spec_psi = replace(fdk_spec(), variant="psi")
        for a, b in ((1.0, 1.0), (0.3, 4.0)):
            assert balance.transport_residual(spec_psi, (a, b)) == \
                balance.transport_residual(fdk_spec(), (a, 1.0 / b))

    def test_matrix_r1_equals_scalar(self):
        spec1 = balance.BalanceSpec(P12, lam=-0.5, variant="matrix",
                                    a=np.array([[2.0]]), b=np.array([[3.0]]))
        norm = balance.matrix_normalizers(spec1)
        assert norm.se == 0.0
        got = balance.transport_residual(
            spec1, (np.array([[1.3]]), np.array([[0.7]])), normalizers=norm)
        # the r = 1 MGIG(lam, a, b) marginal is GIG(lam, a/2, b/2)
        scalar = balance.BalanceSpec(P12, lam=0.5, c1=1.0, c2=1.5, variant="fdk")
        want = balance.transport_residual(scalar, (1.3, 0.7))
        assert got == pytest.approx(want, abs=1e-12)

    def test_matrix_r2_within_mc_error(self):
        spec = matrix_spec()
        norm = balance.matrix_normalizers(spec, seed=31, n=150_000)
        resid = balance.transport_grid_max(spec, grid_n=4, normalizers=norm,
                                           seed=31)
        assert resid <= 3.0 * norm.se


def oracle_dcor_test(u, v, n_perm, rng):
    """The O(m^2)-per-permutation test for 1-D samples: double-centered
    distance matrices, the second re-indexed for every permutation."""
    def centered(z):
        d = np.abs(z[:, None] - z[None, :])
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    ca, cb = centered(u), centered(v)
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0)
                     * max(float((cb * cb).mean()), 0.0))
    if dvar <= 0.0:
        return 0.0, 1.0

    def dcor_of(cb_mat):
        return math.sqrt(max(float((ca * cb_mat).mean()), 0.0) / math.sqrt(dvar))

    obs = dcor_of(cb)
    hits = 0
    for _ in range(n_perm):
        idx = rng.permutation(len(u))
        hits += dcor_of(cb[np.ix_(idx, idx)]) >= obs - balance._TIE_RTOL * obs
    return obs, (1.0 + hits) / (n_perm + 1.0)


def oracle_dcor_matrices_test(u, v, n_perm, rng):
    """The d > 1 test as first written: Euclidean double-centered distance
    matrices, the second re-indexed by np.ix_ for every permutation."""
    def centered(z):
        diff = z[:, None, :] - z[None, :, :]
        d = np.sqrt(np.sum(diff * diff, axis=-1))
        return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()

    ca, cb = centered(u), centered(v)
    dvar = math.sqrt(max(float((ca * ca).mean()), 0.0)
                     * max(float((cb * cb).mean()), 0.0))

    def dcor_of(idx):
        dcov2 = max(float((ca * cb[np.ix_(idx, idx)]).mean()), 0.0)
        return math.sqrt(dcov2 / math.sqrt(dvar))

    obs = dcor_of(np.arange(len(u)))
    hits = sum(dcor_of(rng.permutation(len(u))) >= obs - balance._TIE_RTOL * obs
               for _ in range(n_perm))
    return obs, (1.0 + hits) / (n_perm + 1.0)


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
            stat, p = balance.distance_correlation_test(
                u, v, n_perm=n_perm, rng=rng_stream(seed, 7))
            want_stat, want_p = oracle_dcor_test(u, v, n_perm, rng_stream(seed, 7))
            assert stat == pytest.approx(want_stat, rel=1e-10, abs=0.0)
            assert p == want_p

    def test_constant_sample(self):
        z = np.linspace(0.1, 3.0, 40)
        for u, v in ((np.full(40, 0.1), z), (z, np.full(40, 0.7))):
            assert balance.distance_correlation_test(u, v, n_perm=9) == (0.0, 1.0)

    @pytest.mark.parametrize("m", [2, 3, 64, 500])
    def test_vectors_match_ix_oracle(self, m):
        for seed in range(3 if m < 100 else 1):
            rng = rng_stream(seed, 100 + m)
            u = rng.normal(size=(m, 3))
            v = np.column_stack([u[:, 0] ** 2, rng.normal(size=(m, 2))])
            got = balance.distance_correlation_test(u, v, n_perm=99,
                                                    rng=rng_stream(seed, 8))
            assert got == oracle_dcor_matrices_test(u, v, 99, rng_stream(seed, 8))

    def test_three_vectors_unchanged(self):
        # d > 1 keeps the double-centered matrices; the value was computed
        # by the matrix code for every dimension before the 1-D path existed
        rng = rng_stream(5, 0)
        u, v = rng.normal(size=(150, 3)), rng.normal(size=(150, 3))
        assert balance.distance_correlation_test(u, v, n_perm=99, rng=rng) == \
            (0.2256708286891229, 0.21)

    def test_detects_dependence(self):
        rng = rng_stream(1, 0)
        u = rng.normal(size=400)
        v = u * u + 0.1 * rng.normal(size=400)
        stat, p = balance.distance_correlation_test(u, v, n_perm=199, rng=rng)
        assert p <= 0.01
        assert stat > 0.1

    def test_independent_null(self):
        rng = rng_stream(2, 0)
        u, v = rng.normal(size=400), rng.normal(size=400)
        _, p = balance.distance_correlation_test(u, v, n_perm=199, rng=rng)
        assert p > 0.05

    def test_calibration_super_uniform(self):
        hits = balance.independence_calibration(seed=0, reps=100, m=200,
                                                n_perm=99)
        # P(p <= 0.01) <= 0.01 under the null; 100 repetitions
        assert hits <= 4


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

    def test_matrix_variant(self):
        rep = balance.monte_carlo_balance(
            matrix_spec(), seed=41, n=6000,
            mcmc=matrix.McmcConfig(thin=15))
        assert rep.passed, rep.pass_flags
        assert rep.mcmc is not None and rep.pass_flags["mcmc_ok"]


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
