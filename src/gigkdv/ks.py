"""Two-sided Kolmogorov-Smirnov tests without `scipy.stats`.

`ks_1samp(x, cdf)` and `ks_2samp(a, b)` return the (statistic, p-value)
pair of `scipy.stats.kstest(x, cdf)` and `scipy.stats.ks_2samp(a, b)` with
the default two-sided alternative and `method="auto"`, bit for bit as
scipy 1.17.1 computes it.  Importing `scipy.stats` costs about 0.7 s, while
the tests themselves take milliseconds, so the code below is a port of the
branches that gigkdv's two-sided tests on 1-D float arrays reach:

* the null law of the one-sample statistic, scipy's `kstwo.sf`, chooses
  among Ruben-Gambino closed forms, `special.smirnov`, the Durbin matrix
  method in the form of Marsaglia, Tsang & Wang (2003, J. Stat. Softw.
  8(18)) and the Pelz-Good expansion, by the rules of Simard & L'Ecuyer
  (2011, J. Stat. Softw. 39(11));
* the two-sample null is exact for equal sizes up to 10,000 and
  `kstwo.sf(d, round(n1 n2 / (n1 + n2)))` above 10,000.

Two windows are left to `scipy.stats`, imported there: the one-sample
null for n <= 140 and n d^2 > 0.754693 (scipy's Pomeranz recursion and
Miller's tail), and the exact null for unequal sizes up to 10,000 (a
compiled kernel in scipy).  `ks_1samp` is only called with n >= 1000, no
fallback of equal sizes lands in the first window (`tests/test_ks.py`),
and unequal sizes reach it only when one sample has over 10,000 draws and
the other about 140.  Matrix verdicts with unequal thinned samples (`balance
verify --variant matrix --r 3`) and `lattice stationarity` with an odd
`--n` reach the second.

Every numpy call and operand type follows scipy's code: the statistic
reaches the null law as a 0-d float64 array, as scipy's `np.nditer` hands
it over, and the powers, exponentials and scaling by 2^128 (in long double)
run through the same numpy loops, so the p-values agree in every bit.  The
one departure, `ks_2samp` counting each sample's own points from its ties
instead of searching for them, yields the same integer counts.

Ported from scipy/stats/_ksstats.py and scipy/stats/_stats_py.py:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import math

import numpy as np
from scipy import special

__all__ = ["ks_1samp", "ks_2samp"]

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_2j / (2j (2j - 1)) for j = 8, ..., 1, with B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]

_MAX_EXACT_2SAMP = 10_000


def ks_1samp(x, cdf) -> tuple[float, float]:
    """Two-sided one-sample KS test of the sample `x` against the continuous
    CDF `cdf` (called once, on the sorted sample): (D_n, P(D_n >= d))."""
    x = np.sort(np.asarray(x, dtype=np.float64))
    if np.isnan(np.max(x)):
        return math.nan, math.nan
    n = len(x)
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), _kstwo_sf(d, n)


def ks_2samp(a, b) -> tuple[float, float]:
    """Two-sided two-sample KS test: (sup |F_a - F_b|, P(D >= d)) under the
    null that `a` and `b` come from one continuous law."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if np.isnan(np.max(a)) or np.isnan(np.max(b)):
        return math.nan, math.nan
    n1, n2 = len(a), len(b)
    # F_a - F_b at the points of a, then of b: a sample's count of points
    # <= each of its own points ends at that point's last tie; its count
    # across, ties included, is a right-sided search in the other sample
    diffs_a = _right_counts(a) / n1 - np.searchsorted(b, a, side="right") / n2
    diffs_b = np.searchsorted(a, b, side="right") / n1 - _right_counts(b) / n2
    min_s = np.clip(-min(np.min(diffs_a), np.min(diffs_b)), 0, 1)
    max_s = max(np.max(diffs_a), np.max(diffs_b))
    d = min_s if min_s > max_s else max_s
    if max(n1, n2) <= _MAX_EXACT_2SAMP:
        if n1 != n2:
            from scipy import stats

            res = stats.ks_2samp(a, b)
            return float(res.statistic), float(res.pvalue)
        # the exact null lives on the lattice h / n
        h = round(d * n1)
        d = h / n1
        if h == 0:
            return d, 1.0
        p = _prob_outside_square(n1, h)
        if 0 <= p <= 1:
            return d, p
    # Smirnov's asymptotic law, also scipy's fallback for an exact p-value
    # outside [0, 1]
    m, n = float(n1), float(n2)
    return float(d), _kstwo_sf(d, round(m * n / (m + n)))


def _right_counts(s):
    # for sorted s, the number of entries <= s[i]: the end of s[i]'s run of ties
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True)) + 1
    return np.repeat(ends, np.diff(ends, prepend=0))


def _prob_outside_square(n, h):
    # P(D_{n,n} >= h/n) = 2 (A0 - A0 A1 + A0 A1 A2 - ...), the ratios
    # A_k = binom(2n, n - (k+1)h) / binom(2n, n - kh) summed by Horner's rule
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    return 2 * p


def _kstwo_sf(d, n):
    """P(D_n >= d) for the one-sample statistic D_n of n draws."""
    d = np.asarray(d, dtype=np.float64)
    if np.isnan(d):
        return math.nan
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    return float(np.clip(_kolmogn_sf(n, d), 0.0, 1.0))


def _kolmogn_sf(n, x):
    # Simard & L'Ecuyer's choice of method for 1/2n < x < 1; the CDF
    # methods return P(D_n <= x)
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x) ** n
    if x >= 0.5:  # exact: 2 * smirnov
        return 2 * special.smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _kolmogn_dmtw(n, x)
        # the Pomeranz recursion and Miller's tail: see the module docstring
        from scipy import stats

        return stats.kstwo.sf(x, n)
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * special.smirnov(n, x)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogn_dmtw(n, x)
    return 1.0 - _kolmogn_pelz_good(n, x)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n^n) by Stirling's series, with n log n removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_dmtw(n, d):
    # Durbin's matrix: with d = (k - h)/n, P(D_n <= d) is n!/n^n times the
    # (k, k) entry of H^n for an m x m matrix H, m = 2k - 1, raised by
    # squaring with the powers rescaled by 2^128 to stay in range
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and, reversed, the last row) of H:
    # v[j] = (1 - h^(j+1)) / (j+1)! except v[-1]; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _kolmogn_pelz_good(n, x):
    # Pelz & Good (1976): the Li-Chien/Korolyuk expansion
    # P(D_n <= x) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5,
    # z = x sqrt(n), with each K_i rewritten by the Jacobi theta functional
    # equation into a series that converges fast for small z
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # sum_i c_i q^(i^2) over odd i by Horner's rule
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the sums over all integers k: (pi^2 k^2) q^(k^2) in K2 and
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2) in K3, summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
