import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammainc, gammaincc

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

    def test_density_normalized_above_kve_range(self):
        # at z = 2 sqrt(ab) = 2e10 scipy's kve is nan; the normalizer once
        # came from a quadrature fallback off by 1.24 nats, and the mass was
        # 0.290.  Summing terms of size z, whose spacing is 3.8e-6, left the
        # mass at 1 + 2.7e-6; the centered weight of `cdf` has no such terms.
        # The trapezoid rule over mode +- 40 sd converges spectrally here, on
        # nodes 2^-23 apart that are exact in floating point
        law = dist.GigParams(2.0, 1e10, 1e10)
        step = 2.0 ** -23
        xs = 1.0 + step * np.arange(-2400, 2401)  # 40 sd = 2374 steps
        mass = np.sum(np.exp(dist.log_pdf(law, xs))) * step
        assert mass == pytest.approx(1.0, abs=1e-14)

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


_ORACLE_GL_NODES, _ORACLE_GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_ORACLE_CHUNK_SUBPANELS = (1 << 16) // 16


def oracle_panels(law, edges, width):
    """Integral of the CDF integrand over each [edges[i], edges[i+1]]: the
    subpanel quadrature that `dist.cdf` used before its merged grid, 16-node
    Gauss-Legendre on subpanels no wider than `width`, in chunks of whole
    panels holding at most 4,096 subpanels."""
    lo, hi = edges[:-1], edges[1:]
    n_sub = np.maximum(1, np.ceil((hi - lo) / width).astype(int))
    ends = np.cumsum(n_sub)
    center = dist._log_weight_center(law)
    out = np.zeros(len(lo))
    start = 0
    while start < len(lo):
        limit = ends[start] - n_sub[start] + _ORACLE_CHUNK_SUBPANELS
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        k = n_sub[start:stop]
        owner = np.repeat(np.arange(stop - start), k)
        offset = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
        step = ((hi[start:stop] - lo[start:stop]) / k)[owner]
        sub_lo = lo[start:stop][owner] + offset * step
        half = 0.5 * step
        nodes = sub_lo[:, None] + half[:, None] * (_ORACLE_GL_NODES[None, :] + 1.0)
        vals = np.exp(dist._log_weight(law, nodes.ravel(), center)).reshape(nodes.shape)
        sub = (vals * _ORACLE_GL_WEIGHTS[None, :]).sum(axis=1) * half
        np.add.at(out[start:stop], owner, sub)
        start = stop
    return out


def oracle_cdf(law, x):
    """The CDF by the panel quadrature `dist.cdf` replaced: one panel per
    gap between consecutive sorted query points, split by
    `oracle_panels`.  It shares the integrand `dist._log_weight`,
    which `test_cdf_matches_mpmath` checks on its own."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if law.a == 0.0 or law.b == 0.0:
        return (gammainc(law.lam, law.a * xs) if law.b == 0.0
                else gammaincc(-law.lam, law.b / xs))
    t_lo, t_hi, _ = dist._window(law)
    m = math.exp(dist._weight_mode(law))
    width = min(0.25, 1.5 / math.sqrt(1.0 + law.a * m + law.b / m))
    t = np.log(xs)
    order = np.argsort(t, kind="stable")
    edges = np.concatenate([[t_lo], np.clip(t[order], t_lo, t_hi)])
    vals = np.clip(np.cumsum(oracle_panels(law, edges, width)), 0.0, 1.0)
    out = np.empty_like(vals)
    out[order] = vals
    out[t <= t_lo] = 0.0
    return out


def grid_size(law):
    t_lo, t_hi, spacing = dist._window(law)
    return math.ceil((t_hi - t_lo) / spacing) + 1


def on_grid_line(law):
    # a point whose log is exactly one of the grid cuts of `cdf`
    t_lo, t_hi, _ = dist._window(law)
    grid = np.linspace(t_lo, t_hi, grid_size(law))
    return next(x for x in np.exp(grid[len(grid) // 2:]) if np.log(x) in grid)


def panels_in_chunk(offset):
    # draws of CHUNK_LAW that, with the grid's cuts, leave a chunk of panels
    # plus `offset` between consecutive cuts
    n = dist._CHUNK_PANELS - grid_size(CHUNK_LAW) + 1 + offset
    return dist.sample(CHUNK_LAW, 11, n)


WEAK_GRID = np.geomspace(0.05, 20.0, 40)
CHUNK_LAW = dist.GigParams(0.7, 3.0, 7.0)
EDGE_LAW = dist.GigParams(-2.3, 0.4, 3.0)

ORACLE_CASES = (
    [(law, dist.sample(law, 20260809, 100_000, stream=i), f"battery-{i}")
     for i, law in enumerate(dist._ks_battery_points())]
    + [(law, np.geomspace(1e-6, 1e6, 2001), f"geomspace-{law_id(law)}") for law in LAWS]
    + [(dist.GigParams(1.2, 0.8, 1e-8), WEAK_GRID, "weak-gamma-grid"),
       (dist.GigParams(-1.2, 1e-8, 0.8), WEAK_GRID, "weak-invgamma-grid"),
       (EDGE_LAW, np.array([1.7]), "single-point"),
       (EDGE_LAW, np.array([on_grid_line(EDGE_LAW)]), "point-on-grid-line"),
       (EDGE_LAW, np.array([1.3, 0.2, 1.3, 1.3, 0.2]), "duplicate-points"),
       (EDGE_LAW, np.array([1e-300, 1e-200, 1e-100, 1.0]), "points-below-window"),
       (EDGE_LAW, np.array([1.0, 1e100, 1e200, 1e300]), "points-above-window"),
       (EDGE_LAW, np.array([4.0, 0.3, 2.0, 0.9, 1e-300, 1e300]), "unsorted"),
       (CHUNK_LAW, panels_in_chunk(-1), "panels-chunk-minus-1"),
       (CHUNK_LAW, panels_in_chunk(0), "panels-chunk"),
       (CHUNK_LAW, panels_in_chunk(1), "panels-chunk-plus-1")])


@pytest.mark.parametrize("law,xs", [case[:2] for case in ORACLE_CASES],
                         ids=[case[2] for case in ORACLE_CASES])
def test_cdf_matches_oracle(law, xs):
    got = dist.cdf(law, xs)
    assert np.max(np.abs(got - oracle_cdf(law, xs))) <= 1e-14
    if law.a > 0.0 and law.b > 0.0:
        # the points at or below the window get an exact 0
        t_lo = dist._window(law)[0]
        assert np.all(got[np.log(xs) <= t_lo] == 0.0)


@pytest.mark.parametrize("lam,a,b,tol", [(2.0, 1e6, 1e6, 1e-13), (2.0, 1e8, 1e8, 1e-12),
                                         (2.0, 1e12, 1e12, 1e-12), (-3.5, 1e16, 1e16, 1e-12)])
def test_cdf_matches_mpmath(lam, a, b, tol):
    # at large a b the two terms a x and b / x of the log density cancel
    # to within 2 sqrt(ab) of each other; their rounding once cost 6.8e-11
    # at a = b = 1e6 and 5.4e-9 at 1e8.  Above 2 sqrt(ab) = 1e9 scipy's kve
    # is nan, and a total mass of 0.029 at 1e12 came of it
    import mpmath as mp

    mp.mp.dps = 40
    z = 2 * mp.sqrt(mp.mpf(a) * b)
    norm = (mp.mpf(a) / b) ** (mp.mpf(lam) / 2) / (2 * mp.besselk(lam, z))

    def density(s):
        return norm * s ** (lam - 1) * mp.exp(-a * s - b / s)

    mode, sd = mp.sqrt(mp.mpf(b) / a), mp.sqrt(mp.mpf(b) / a) / mp.sqrt(z)
    ks = (-3.0, -1.0, -0.3, 0.0, 0.5, 2.0, 4.0)
    xs = np.array([float(mode + k * sd) for k in ks])
    want = [mp.quad(density, [0] + [mode + j * sd for j in range(-40, 41, 4)
                                    if mode + j * sd < x] + [x]) for x in xs]
    got = dist.cdf(dist.GigParams(lam, a, b), xs)
    assert np.max(np.abs(got - np.array([float(w) for w in want]))) <= tol


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


@pytest.mark.parametrize("a,cuts", [(1e12, 78), (1e16, 61)])
def test_cdf_narrow_law_grid_bounded(a, cuts):
    # the window once grew from a half-width of 1 by doubling, whatever
    # the law's width: at a = b = 1e12 one point took 5,028,316 grid cuts
    # and a 161 MB peak
    law = dist.GigParams(2.0, a, a)
    assert grid_size(law) == cuts
    tracemalloc.start()
    try:
        got = dist.cdf(law, np.array([0.5, 1.0, 2.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    # the mass sits within about 1e-6 of x = 1, about half on each side
    assert got[0] == 0.0 and abs(got[1] - 0.5) < 1e-3 and abs(got[2] - 1.0) < 1e-13


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
    rows = dist.check_battery()
    assert all(bool(r[-1]) for r in rows), rows


def test_ks_battery_laws_are_distinct():
    # a GIG law's shape is (lam, a b): (a, b) and (a c, b / c) differ only
    # by the scale c, so 20 KS tests need 20 distinct shapes
    laws = dist._ks_battery_points()
    assert len(laws) == 20
    assert len({(law.lam, law.a * law.b) for law in laws}) == 20
