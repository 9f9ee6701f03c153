import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats

from gigkdv import dist, specfun
from gigkdv.errors import DomainError

LAWS = [
    dist.GigParams(0.5, 1.0, 1.0),
    dist.GigParams(-2.3, 0.4, 3.0),
    dist.GigParams(3.0, 8.0, 0.2),
    dist.GigParams(1.7, 2.2, 0.0),  # Gamma(1.7, 2.2)
    dist.GigParams(0.4, 0.9, 0.0),  # Gamma(0.4, 0.9)
    dist.GigParams(-0.9, 0.0, 1.4),  # InvGamma(0.9, 1.4)
]


def law_id(law):
    """Test id of a law; a zero-rate law keeps the id of its limit family
    (shape and rate), so the ids stay stable."""
    if law.b == 0.0:
        return f"GammaParams(lam={law.lam}, a={law.a})"
    if law.a == 0.0:
        return f"InvGammaParams(lam={-law.lam}, b={law.b})"
    return str(law)


def quad_integral(law, weight=None, lo=0.0, hi=np.inf):
    """Adaptive-quadrature oracle for integrals of the density."""
    # split at the maximizer of x f(x), where the mass sits
    if law.b == 0.0:
        mode = law.lam / law.a
    elif law.a == 0.0:
        mode = -law.b / law.lam
    else:
        mode = math.exp(dist._weight_mode(law))

    def f(x):
        v = math.exp(dist.log_pdf(law, x))
        return v * weight(x) if weight else v

    left, _ = integrate.quad(f, lo, mode, limit=200)
    right, _ = integrate.quad(f, mode, hi, limit=200)
    return left + right


class TestLogPdf:
    def test_gig_frozen_example(self):
        # GIG(0.5, 1, 1) at x = 1: -log(2 K_{1/2}(2)) - 2
        want = -math.log(2.0 * specfun.bessel_k(0.5, 2.0)) - 2.0
        assert dist.log_pdf(dist.GigParams(0.5, 1.0, 1.0), 1.0) == pytest.approx(
            want, rel=1e-14)

    def test_gamma_frozen_example(self):
        want = math.log(9.0 * math.exp(-3.0))
        assert dist.log_pdf(dist.GigParams(2.0, 3.0, 0.0), 1.0) == pytest.approx(
            want, rel=1e-14)

    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    def test_density_normalized(self, law):
        assert quad_integral(law) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            dist.log_pdf(LAWS[0], 0.0)
        with pytest.raises(DomainError):
            dist.log_pdf(LAWS[0], -1.0)

    @given(lam=st.floats(-4.0, 4.0), a=st.floats(0.1, 8.0),
           b=st.floats(0.1, 8.0), x=st.floats(1e-3, 1e3))
    def test_reciprocity_pointwise(self, lam, a, b, x):
        law = dist.GigParams(lam, a, b)
        lhs = dist.log_pdf(law, x)
        rhs = dist.log_pdf(dist.reciprocal_law(law), 1.0 / x) - 2.0 * math.log(x)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCdf:
    def test_limits(self):
        # the lower limit uses x = 1e-30: Gamma laws with lam < 1 carry
        # power-law mass near zero, so tiny but nonzero values are exact
        for law in LAWS:
            assert dist.cdf(law, 1e-30) <= 1e-9
            assert dist.cdf(law, 1e30) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_special_case(self):
        xs = np.geomspace(0.01, 10.0, 200)
        got = dist.cdf(dist.GigParams(1.0, 2.0, 0.0), xs)
        assert np.max(np.abs(got - (1.0 - np.exp(-2.0 * xs)))) <= 1e-10

    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    def test_matches_quadrature(self, law):
        for x in (0.2, 1.0, 4.0):
            assert dist.cdf(law, x) == pytest.approx(
                quad_integral(law, hi=x), abs=1e-9)

    def test_monotone(self):
        xs = np.geomspace(1e-3, 1e3, 400)
        for law in LAWS[:3]:
            assert np.all(np.diff(dist.cdf(law, xs)) >= 0.0)

    def test_median_and_reciprocity(self):
        law = dist.GigParams(1.2, 0.7, 2.0)
        xs = np.geomspace(0.05, 30.0, 300)
        v = dist.cdf(law, xs)
        med = xs[np.searchsorted(v, 0.5)]
        assert dist.cdf(law, med) == pytest.approx(0.5, abs=0.02)
        rec = dist.reciprocal_law(law)
        assert np.max(np.abs(v + dist.cdf(rec, 1.0 / xs) - 1.0)) <= 1e-10

    def test_weak_limits(self):
        xs = np.geomspace(0.05, 20.0, 50)
        lam, rate = 1.2, 0.8
        d = np.abs(dist.cdf(dist.GigParams(lam, rate, 1e-8), xs)
                   - dist.cdf(dist.GigParams(lam, rate, 0.0), xs))
        assert np.max(d) <= 1e-3
        d = np.abs(dist.cdf(dist.GigParams(-lam, 1e-8, rate), xs)
                   - dist.cdf(dist.GigParams(-lam, 0.0, rate), xs))
        assert np.max(d) <= 1e-3


def oracle_panel_integrals(law, edges, width):
    """The per-panel list comprehension that `dist._panel_integrals`
    replaced: one `np.arange` call per panel for the subpanel offsets."""
    lo, hi = edges[:-1], edges[1:]
    n_sub = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    owner = np.repeat(np.arange(len(lo)), n_sub)
    starts = np.repeat(lo, n_sub)
    steps = np.repeat((hi - lo) / n_sub, n_sub)
    offset = np.concatenate([np.arange(k) for k in n_sub]) if len(n_sub) else np.array([])
    sub_lo = starts + offset * steps
    half = 0.5 * steps
    nodes = sub_lo[:, None] + half[:, None] * (dist._GL_NODES[None, :] + 1.0)
    vals = np.exp(dist._log_weight(law, nodes.ravel(), dist._log_norm(law))
                  ).reshape(nodes.shape)
    sub = (vals * dist._GL_WEIGHTS[None, :]).sum(axis=1) * half
    out = np.zeros(len(lo))
    np.add.at(out, owner, sub)
    return out


def cdf_edges(law, xs):
    # the edges and width that `cdf` builds: window start, then the sorted,
    # clipped log query points
    t_lo, t_hi, width = dist._window(law)
    return np.concatenate([[t_lo], np.clip(np.sort(np.log(xs)), t_lo, t_hi)]), width


def counted_edges(counts, width=0.01):
    # edges of panels holding exactly counts[i] subpanels of `width` each,
    # around the mode of CHUNK_LAW; a panel (k - 1/2) widths wide has k
    spans = (np.asarray(counts) - 0.5) * width
    t0 = dist._weight_mode(CHUNK_LAW) - 0.5 * spans.sum()
    return t0 + np.concatenate([[0.0], np.cumsum(spans)]), width


WEAK_GRID = np.geomspace(0.05, 20.0, 40)
CHUNK_LAW = dist.GigParams(0.7, 3.0, 7.0)
CHUNK = dist._CHUNK_SUBPANELS


@pytest.mark.parametrize("law,edges_width", [
    (dist.GigParams(0.7, 3.0, 7.0),
     cdf_edges(dist.GigParams(0.7, 3.0, 7.0),
               dist.sample(dist.GigParams(0.7, 3.0, 7.0), 20260809, 100_000, stream=4))),
    (dist.GigParams(1.2, 0.8, 1e-8), cdf_edges(dist.GigParams(1.2, 0.8, 1e-8), WEAK_GRID)),
    (dist.GigParams(-1.2, 1e-8, 0.8), cdf_edges(dist.GigParams(-1.2, 1e-8, 0.8), WEAK_GRID)),
    (dist.GigParams(-2.3, 0.4, 3.0), cdf_edges(dist.GigParams(-2.3, 0.4, 3.0), np.array([1.7]))),
    # subpanel totals one below, at and one above a chunk
    (CHUNK_LAW, counted_edges([1] * (CHUNK - 1))),
    (CHUNK_LAW, counted_edges([1] * CHUNK)),
    (CHUNK_LAW, counted_edges([1] * (CHUNK + 1))),
    # a panel that would straddle the first chunk starts the second
    (CHUNK_LAW, counted_edges([1] * (CHUNK - 2) + [3] + [1] * 10)),
    # a panel wider than a chunk is a chunk of its own
    (CHUNK_LAW, counted_edges([2, 2 * CHUNK + 5, 1])),
], ids=["gig-1e5-draws", "weak-gamma-grid", "weak-invgamma-grid", "single-point",
        "subpanels-4095", "subpanels-4096", "subpanels-4097", "panel-straddles-chunk",
        "panel-wider-than-chunk"])
def test_panel_integrals_match_oracle(law, edges_width):
    edges, width = edges_width
    assert np.array_equal(dist._panel_integrals(law, edges, width),
                          oracle_panel_integrals(law, edges, width))


def test_cdf_memory_bounded():
    # the nodes are evaluated in chunks: 1e6 points once took a 592 MB peak
    law = dist.GigParams(0.7, 3.0, 7.0)
    xs = dist.sample(law, 3, 1_000_000)
    tracemalloc.start()
    try:
        dist.cdf(law, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000_000


@pytest.mark.parametrize("law,oracle", [
    (dist.GigParams(1e-6, 0.9, 0.0), stats.gamma(1e-6, scale=1.0 / 0.9)),
    (dist.GigParams(-1e-6, 0.0, 1.4), stats.invgamma(1e-6, scale=1.4)),
], ids=["gamma", "invgamma"])
def test_limit_cdf_tiny_shape(law, oracle):
    # quadrature in the log variable needs a window growing like 1/lam,
    # 183 MB of nodes at lam = 1e-3; the incomplete gamma function does not
    xs = np.geomspace(1e-300, 1e3, 61)
    tracemalloc.start()
    try:
        got = dist.cdf(law, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert np.max(np.abs(got - oracle.cdf(xs))) <= 1e-14


class TestExtLaplace:
    def test_unit_at_zero(self):
        assert dist.ext_laplace(dist.GigParams(0.3, 2.0, 1.0), 0.0, 0.0, 0.0) == 1.0

    def test_monte_carlo_oracle(self):
        law = dist.GigParams(0.3, 2.0, 1.0)
        xs = dist.sample(law, 1313, 1_000_000)
        f = xs ** 1.5 * np.exp(-1.0 * xs - 0.5 / xs)
        se = f.std() / 1000.0
        assert abs(f.mean() - dist.ext_laplace(law, 1.5, -1.0, -0.5)) <= 4.0 * se

    def test_reciprocal_substitution(self):
        law = dist.GigParams(-1.1, 0.7, 2.5)
        rec = dist.reciprocal_law(law)
        for s, sg, th in ((1.5, -1.0, -0.5), (0.0, -2.0, 0.3), (-0.7, 0.2, -1.0)):
            assert dist.ext_laplace(law, s, sg, th) == pytest.approx(
                dist.ext_laplace(rec, -s, th, sg), rel=1e-13)

    def test_matches_quadrature(self):
        law = dist.GigParams(0.3, 2.0, 1.0)
        s, sg, th = 0.0, -0.7, -1.1
        oracle = quad_integral(law, weight=lambda x: math.exp(sg * x + th / x))
        assert dist.ext_laplace(law, s, sg, th) == pytest.approx(oracle, rel=1e-8)

    def test_moment_is_mean(self):
        law = dist.GigParams(0.9, 1.3, 2.1)
        m = dist.ext_laplace(law, 1.0, 0.0, 0.0)
        oracle = quad_integral(law, weight=lambda x: x)
        assert m == pytest.approx(oracle, rel=1e-9)

    def test_tilt_domain(self):
        law = dist.GigParams(0.3, 2.0, 1.0)
        with pytest.raises(DomainError):
            dist.ext_laplace(law, 0.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            dist.ext_laplace(law, 0.0, 0.0, 1.0)


class TestTilt:
    def test_pointwise_density(self):
        # the density reweighted by x^s exp(at x + bt / x) and renormalized
        # is that of GIG(lam + s, a - at, b - bt)
        law = dist.GigParams(1.0, 2.0, 2.0)
        s, at, bt = 1.0, 1.0, 0.5
        out = dist.GigParams(law.lam + s, law.a - at, law.b - bt)
        log_const = dist.ext_laplace_log(law, s, at, bt)
        for x in (0.1, 0.7, 1.0, 3.0, 12.0):
            lhs = (dist.log_pdf(law, x) + s * math.log(x) + at * x + bt / x
                   - log_const)
            assert lhs == pytest.approx(dist.log_pdf(out, x), abs=1e-10)


class TestSampling:
    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    def test_ks_against_cdf(self, law):
        xs = dist.sample(law, 2026, 30_000)
        assert stats.kstest(xs, lambda v: dist.cdf(law, v)).pvalue > 0.01

    def test_deterministic(self):
        law = dist.GigParams(-1.0, 1.0, 2.0)
        assert np.array_equal(dist.sample(law, 5, 100), dist.sample(law, 5, 100))
        assert not np.array_equal(dist.sample(law, 5, 100),
                                  dist.sample(law, 6, 100))

    def test_mean_within_four_se(self):
        law = dist.GigParams(0.9, 1.3, 2.1)
        xs = dist.sample(law, 77, 1_000_000)
        want = dist.ext_laplace(law, 1.0, 0.0, 0.0)
        assert abs(xs.mean() - want) <= 4.0 * xs.std() / 1000.0

    def test_reciprocal_draws(self):
        law = dist.GigParams(2.0, 3.0, 5.0)
        rec = dist.reciprocal_law(law)
        assert rec == dist.GigParams(-2.0, 5.0, 3.0)
        assert dist.reciprocal_law(rec) == law
        xs = dist.sample(law, 11, 50_000)
        assert stats.kstest(1.0 / xs, lambda v: dist.cdf(rec, v)).pvalue > 0.01

    def test_gamma_mean(self):
        law = dist.GigParams(1.7, 2.2, 0.0)
        xs = dist.sample(law, 99, 1_000_000)
        assert abs(xs.mean() - 1.7 / 2.2) <= 4.0 * xs.std() / 1000.0

    @pytest.mark.parametrize("law", [
        dist.GigParams(0.5, 1e308, 1.0),   # omega^2 overflows: nan envelope
        dist.GigParams(-2.0, 1.0, 1e308),
        dist.GigParams(0.5, 1e-200, 1e-200),  # omega underflows to 0
        dist.GigParams(1.0, 1e-320, 1.0),  # alpha ** 2 underflows to 0
        dist.GigParams(-1e308, 1.0, 1.0),  # the mode shift overflows
        dist.GigParams(1.0, 1e-320, 0.0),  # the Gamma draws overflow
        dist.GigParams(-1.0, 0.0, 1e-320),  # the inverse-Gamma draws underflow
        dist.GigParams(2e154, 1e-154, 1e154),  # the GIG draws overflow
    ], ids=str)
    def test_out_of_range_rejected(self, law):
        with pytest.raises(DomainError, match="floating-point range"):
            dist.sample(law, 0, 5)

    def test_fixed_point_symmetric(self):
        law = dist.GigParams(0.0, 2.0, 2.0)
        assert dist.reciprocal_law(law) == law


def test_zero_rate_limits():
    # a zero rate is the Gamma (b = 0) or inverse-Gamma (a = 0) limit
    gamma, invgamma = dist.GigParams(0.5, 2.0, 0.0), dist.GigParams(-0.5, 0.0, 2.0)
    assert dist.reciprocal_law(gamma) == invgamma
    assert dist.reciprocal_law(dist.GigParams(0.5, 2.0, 1.0)) == dist.GigParams(-0.5, 1.0, 2.0)
    assert dist.log_pdf(gamma, 1.5) == pytest.approx(
        stats.gamma(0.5, scale=0.5).logpdf(1.5), rel=1e-14)
    assert dist.log_pdf(invgamma, 1.5) == pytest.approx(
        stats.invgamma(0.5, scale=2.0).logpdf(1.5), rel=1e-14)
    with pytest.raises(DomainError, match="not both zero"):
        dist.GigParams(0.5, 0.0, 0.0)
    with pytest.raises(DomainError, match="the Gamma limit"):
        dist.GigParams(-0.5, 2.0, 0.0)
    with pytest.raises(DomainError, match="inverse-Gamma limit"):
        dist.GigParams(0.5, 0.0, 2.0)
    with pytest.raises(DomainError, match="a, b >= 0"):
        dist.GigParams(0.5, -1.0, 2.0)


def test_check_battery_full():
    # the 20-point sampler battery at its production sample size
    rows = dist.check_battery(ks_n=100_000)
    assert all(bool(r[-1]) for r in rows), rows


def test_ks_battery_laws_are_distinct():
    # a GIG law's shape is (lam, a b): (a, b) and (a c, b / c) differ only
    # by the scale c, so 20 KS tests need 20 distinct shapes
    laws = dist._ks_battery_points()
    assert len(laws) == 20
    assert len({(law.lam, law.a * law.b) for law in laws}) == 20
