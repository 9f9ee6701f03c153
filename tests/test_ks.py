"""gigkdv.ks against scipy.stats: the same statistic and p-value in every bit."""

import warnings

import numpy as np
import pytest
from scipy import stats

from gigkdv import ks
from gigkdv.rng import rng_stream


def uniform_cdf(u):
    return np.clip(u, 0.0, 1.0)


def sample_at(n, d):
    """n points whose statistic against uniform_cdf is max(d, 1/n - d):
    D+ = d is reached at every point, D- = 1/n - d."""
    return (np.arange(1, n + 1) / n - d)[::-1].copy()


def assert_1samp_matches(x, cdf):
    want = stats.kstest(x, cdf)
    assert ks.ks_1samp(x, cdf) == (want.statistic, want.pvalue)


def assert_2samp_matches(a, b):
    with warnings.catch_warnings():
        # scipy warns when the exact equal-size p-value rounds past 1 and it
        # falls back to the asymptotic law; the port takes the same fallback
        warnings.simplefilter("ignore", RuntimeWarning)
        want = stats.ks_2samp(a, b)
    assert ks.ks_2samp(a, b) == (want.statistic, want.pvalue)


# (n, d) with the branch of the null law P(D_n >= d) that each reaches;
# t = n d
ONE_SAMPLE = [
    ("support-below", 1, 0.5),  # t <= 1/2: p = 1
    ("support-above", 1, 1.0),  # d >= 1: p = 0
    ("ruben-gambino-low", 50, 0.015),  # t <= 1, n <= 140
    ("ruben-gambino-low-large-n", 1000, 0.0008),  # t <= 1, n > 140
    ("ruben-gambino-high", 50, 0.99),  # t >= n - 1
    ("smirnov-exact", 50, 0.6),  # d >= 1/2
    ("durbin-small-n", 50, 0.1),  # n d^2 <= 0.754693
    ("pomeranz", 50, 0.2),  # n d^2 <= 4
    ("miller", 50, 0.35),  # n d^2 > 4, n <= 140
    ("tail-zero", 10_000, 0.2),  # n d^2 >= 370
    ("smirnov-large-n", 1000, 0.05),  # n d^2 >= 2.2
    ("durbin-window", 1000, 0.005),  # n d^1.5 <= 1.4
    ("pelz-good", 1000, 0.03),  # n d^1.5 > 1.4
    ("pelz-good-large-n", 200_000, 0.001),  # n > 100,000
]


class TestOneSample:
    @pytest.mark.parametrize("n,d", [case[1:] for case in ONE_SAMPLE],
                             ids=[case[0] for case in ONE_SAMPLE])
    def test_each_null_branch_matches_scipy(self, n, d):
        x = sample_at(n, d)
        assert ks.ks_1samp(x, uniform_cdf)[0] == pytest.approx(d, abs=1e-12)
        assert_1samp_matches(x, uniform_cdf)

    @pytest.mark.parametrize("n", [2, 7, 60, 140, 141, 1000, 100_000])
    @pytest.mark.parametrize("shift", [0.0, 0.02, 0.3])
    def test_normal_draws_match_scipy(self, n, shift):
        x = rng_stream(5, n).normal(shift, 1.0, n)
        assert_1samp_matches(x, stats.norm.cdf)

    def test_nan_sample_gives_nan(self):
        x = np.array([0.1, np.nan, 0.5])
        assert np.isnan(stats.kstest(x, uniform_cdf).pvalue)
        assert all(np.isnan(ks.ks_1samp(x, uniform_cdf)))


class TestTwoSample:
    @pytest.mark.parametrize("n1,n2", [
        (500, 500),  # exact, equal sizes
        (10_000, 10_000),
        (300, 500),  # exact, unequal sizes: delegated to scipy
        (20_000, 100),  # asymptotic, round(en) = 100 <= 140
        (20_000, 5_000),  # asymptotic, round(en) = 4,000 > 140
    ])
    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.5])
    def test_normal_draws_match_scipy(self, n1, n2, shift):
        rng = rng_stream(6, n1 + n2)
        assert_2samp_matches(rng.normal(shift, 1.0, n1), rng.normal(0.0, 1.0, n2))

    def test_identical_samples_have_h_zero(self):
        a = rng_stream(7).normal(size=200)
        assert ks.ks_2samp(a, a[::-1]) == (0.0, 1.0)
        assert_2samp_matches(a, a[::-1])

    @pytest.mark.parametrize("n1,n2", [(400, 400), (20_000, 20_000), (20_000, 300)])
    def test_ties_between_the_samples(self, n1, n2):
        rng = rng_stream(8, n1 + n2)
        a = np.round(rng.normal(0.0, 1.0, n1), 1)
        b = np.round(rng.normal(0.1, 1.0, n2), 1)
        assert_2samp_matches(a, b)

    @pytest.mark.parametrize("n", [5, 7, 13])
    def test_interleaved_samples_take_the_asymptotic_fallback(self, n):
        # d = 1/n, where the exact sum rounds to 1.0000000000000002
        assert ks._prob_outside_square(n, 1) > 1.0
        a = np.arange(n, dtype=float)
        assert ks.ks_2samp(a, a + 0.5)[0] == 1.0 / n
        assert_2samp_matches(a, a + 0.5)

    def test_nan_sample_gives_nan(self):
        assert all(np.isnan(ks.ks_2samp([0.1, np.nan], [0.2, 0.3])))


def test_equal_size_fallbacks_stay_out_of_the_delegated_window():
    # ks_2samp(n, n) falls back to the one-sample null at round(n / 2)
    # draws when the exact sum leaves [0, 1]; the port leaves the window
    # n <= 140, n d^2 > 0.754693 of that null to scipy.stats, so no such
    # fallback may land there.  round(n / 2) <= 140 up to n = 281.
    fallbacks = 0
    for n in range(1, 282):
        en = round(float(n) * n / (2.0 * n))
        assert en <= 140
        for h in range(1, n + 1):
            if 0 <= ks._prob_outside_square(n, h) <= 1:
                continue
            fallbacks += 1
            d = h / n
            assert en * d * d <= 0.754693 or en * d <= 1.0, (n, h)
    assert fallbacks > 0
