import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gigkdv import maps
from gigkdv.errors import DomainError, positive

coord = st.floats(1e-3, 1e3)
params = st.sampled_from([maps.MapParams(1.0, 2.0), maps.MapParams(0.5, 3.0),
                          maps.MapParams(2.5, 0.1), maps.MapParams(1.0, 0.0),
                          maps.MapParams(0.0, 2.0)])
FOUR_MAPS = [maps.MapParams(1.0, 2.0), maps.MapParams(0.5, 3.0),
             maps.MapParams(1.0, 0.0), maps.MapParams(0.0, 2.0)]


class TestFdk:
    def test_example_point(self):
        assert maps.f_dk(maps.MapParams(1.0, 2.0), (1.0, 1.0)) == (1.5, 2.0 / 3.0)

    def test_beta_zero_closed_form(self):
        p = maps.MapParams(1.5, 0.0)
        for x, y in ((0.3, 2.0), (5.0, 5.0)):
            w = 1.5 * x * y + 1.0
            u, v = maps.f_dk(p, (x, y))
            assert u == pytest.approx(y / w, rel=1e-15)
            assert v == pytest.approx(x * w, rel=1e-15)

    @given(p=params, x=coord, y=coord)
    def test_involution(self, p, x, y):
        u, v = maps.f_dk(p, (x, y))
        x2, y2 = maps.f_dk(p, (u, v))
        assert x2 == pytest.approx(x, rel=1e-12)
        assert y2 == pytest.approx(y, rel=1e-12)

    @given(p=params, x=coord, y=coord)
    def test_product_conserved(self, p, x, y):
        u, v = maps.f_dk(p, (x, y))
        assert u * v == pytest.approx(x * y, rel=5e-15)

    @pytest.mark.parametrize("x,y", [(1e200, 1.0), (1e160, 1e160),
                                     (1.0, 1e200), (1e300, 1e10)])
    def test_finite_where_intermediates_overflow(self, x, y):
        p = maps.MapParams(1.0, 2.0)
        u, v = maps.f_dk(p, (x, y))
        assert math.isfinite(u) and math.isfinite(v)
        x2, y2 = maps.f_dk(p, (u, v))
        assert x2 == pytest.approx(x, rel=1e-12)
        assert y2 == pytest.approx(y, rel=1e-12)
        # a cell without overflow in the same call keeps the plain formula
        ua, va = maps.f_dk(p, (np.array([x, 0.3]), np.array([y, 2.0])))
        assert (ua[0], va[0]) == (u, v)
        wa, wb = 1.0 * 0.6 + 1.0, 2.0 * 0.6 + 1.0
        assert (ua[1], va[1]) == (2.0 * wb / wa, 0.3 * wa / wb)

    def test_positive_domain_enforced(self):
        with pytest.raises(DomainError):
            maps.f_dk(maps.MapParams(1.0, 2.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            maps.f_dk(maps.MapParams(1.0, 2.0), (1.0, -2.0))

    def test_limit_consistency(self):
        x = np.geomspace(0.05, 20.0, 30)
        y = x[::-1]
        u0, v0 = maps.f_dk(maps.MapParams(1.0, 0.0), (x, y))
        ul, vl = maps.f_dk(maps.MapParams(1.0, 1e-12), (x, y))
        assert np.max(np.abs(ul - u0) / u0) <= 1e-9
        assert np.max(np.abs(vl - v0) / v0) <= 1e-9


class TestPsi:
    def test_matsumoto_yor_form(self):
        # psi at (alpha, beta) = (1, 0) is (1/(x+y), 1/x - 1/(x+y))
        p = maps.MapParams(1.0, 0.0)
        assert maps.psi(p, (1.0, 1.0)) == (0.5, 0.5)
        for x, y in ((0.4, 3.0), (2.0, 0.1)):
            s, t = maps.psi(p, (x, y))
            assert s == pytest.approx(1.0 / (x + y), rel=1e-14)
            assert t == pytest.approx(1.0 / x - 1.0 / (x + y), rel=1e-14)

    @given(p=params, a=coord, b=coord)
    def test_involution(self, p, a, b):
        s, t = maps.psi(p, (a, b))
        a2, b2 = maps.psi(p, (s, t))
        assert a2 == pytest.approx(a, rel=1e-12)
        assert b2 == pytest.approx(b, rel=1e-12)

    @given(p=params, a=coord, b=coord)
    def test_conjugation(self, p, a, b):
        # psi = I2^-1 o f_dk o I2 with I2(x, y) = (x, 1/y)
        s, t = maps.psi(p, (a, b))
        u, v = maps.f_dk(p, (a, 1.0 / b))
        assert s == pytest.approx(u, rel=1e-13)
        assert t == pytest.approx(1.0 / v, rel=1e-13)

    @given(p=params, a=coord, b=coord)
    def test_exchange_identities(self, p, a, b):
        r1, r2, r3 = maps.psi_identities(p, (a, b))
        assert abs(r1) <= 1e-12
        assert abs(r2) <= 1e-12
        assert abs(r3) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (2.0, 1.0)],
                             ids=["beta-above", "alpha-above"])
    @pytest.mark.parametrize("a,b", [(1e308, 1.0), (1.7e308, 1.7e308),
                                     (1e308, 1e300)])
    def test_finite_where_intermediates_overflow(self, alpha, beta, a, b):
        # beta a + b or alpha a + b overflows; the plain formula gave
        # (inf, inf) for beta > alpha and (0, 0) for alpha > beta
        p = maps.MapParams(alpha, beta)
        s, t = maps.psi(p, (a, b))
        w = (beta * (a / 1e300) + b / 1e300) / (alpha * (a / 1e300) + b / 1e300)
        assert s == pytest.approx(w / b, rel=1e-15)
        assert t == pytest.approx(w / a, rel=1e-15)
        a2, b2 = maps.psi(p, (s, t))
        assert a2 == pytest.approx(a, rel=1e-12)
        assert b2 == pytest.approx(b, rel=1e-12)
        # a cell without overflow in the same call keeps the plain formula
        sa, ta = maps.psi(p, (np.array([a, 0.3]), np.array([b, 2.0])))
        assert (sa[0], ta[0]) == (s, t)
        w = (beta * 0.3 + 2.0) / (alpha * 0.3 + 2.0)
        assert (sa[1], ta[1]) == (w / 2.0, w / 0.3)

    def test_symmetric_point(self):
        r1, _, _ = maps.psi_identities(maps.MapParams(1.0, 0.0), (1.0, 1.0))
        assert r1 == 0.0


class TestJacobian:
    def test_example_points(self):
        assert maps.jacobian_det(maps.MapParams(1.0, 2.0), (1.0, 1.0)) == \
            pytest.approx(-1.0, abs=1e-6)
        assert maps.jacobian_det(maps.MapParams(0.5, 3.0), (0.1, 10.0)) == \
            pytest.approx(-1.0, abs=1e-6)
        assert abs(maps.jacobian_det(maps.MapParams(0.5, 3.0), (2.0, 0.2))) == \
            pytest.approx(1.0, abs=1e-6)

    def test_battery(self):
        rng = np.random.default_rng(4)
        x = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 500))
        y = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 500))
        det = maps.jacobian_det(maps.MapParams(1.0, 2.0), (x, y))
        assert np.max(np.abs(det + 1.0)) <= 1e-6


def test_param_validation():
    with pytest.raises(DomainError):
        maps.MapParams(1.0, 1.0)
    with pytest.raises(DomainError):
        maps.MapParams(-0.5, 1.0)
    with pytest.raises(DomainError):
        maps.MapParams(float("nan"), 1.0)
    # one of alpha, beta may be zero
    maps.MapParams(0.0, 1.0)
    maps.MapParams(1.0, 0.0)
    with pytest.raises(DomainError):
        maps.MapParams(0.0, 0.0)


def test_check_battery_all_pass():
    rows = maps.check_battery(seed=20260809, n=2000)
    assert all(bool(r[-1]) for r in rows), [r for r in rows if not r[-1]]


def f_dk_checked_first(p, xy):
    """`maps.f_dk` with the overflow fallback tested on every general-branch
    call, before the range check: an oracle for every bit and every error."""
    x, y = positive(maps._COORDINATES, *xy)
    with np.errstate(over="ignore", invalid="ignore"):
        if p.beta == 0.0:
            w = p.alpha * x * y + 1.0
            u, v = y / w, x * w
        elif p.alpha == 0.0:
            w = p.beta * x * y + 1.0
            u, v = y * w, x / w
        else:
            xy_ = x * y
            wa = p.alpha * xy_ + 1.0
            wb = p.beta * xy_ + 1.0
            u, v = y * wb / wa, x * wa / wb
            ok = np.isfinite(u) & np.isfinite(v)
            if not np.all(ok):
                t, q = np.minimum(xy_, 1.0), 1.0 / np.maximum(xy_, 1.0)
                ratio = (p.beta * t + q) / (p.alpha * t + q)
                u, v = np.where(ok, u, y * ratio), np.where(ok, v, x / ratio)
    u, v = positive("the f_dk image leaves the floating-point range", u, v)
    return (float(u), float(v)) if u.ndim == 0 else (u, v)


def outcome(f, p, xy):
    """f(p, xy), or the message of the DomainError it raises."""
    try:
        return f(p, xy)
    except DomainError as e:
        return str(e)


@pytest.mark.parametrize("p", FOUR_MAPS, ids=str)
def test_f_dk_matches_the_checked_first_oracle(p):
    rng = np.random.default_rng(36)
    x, y = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), (2, 200, 16)))
    # 0-d points past the sampled range: an image that overflows after the
    # fallback, and subnormal coordinates
    edges = [(1.0, 1.7e308), (1.7e308, 1.0), (1e308, 1e308), (5e-324, 5e-324),
             (5e-324, 1.7e308)]
    cases = list(zip(x, y)) + list(zip(x[:, 0], y[:, 0])) + edges
    kinds = set()
    for xy in cases:
        want = outcome(f_dk_checked_first, p, xy)
        got = outcome(maps.f_dk, p, xy)
        if isinstance(want, str):
            assert got == want, xy
            kinds.add("error")
            continue
        assert type(got[0]) is type(want[0]), xy
        assert np.array_equal(got, want), xy
        if p.alpha and p.beta:
            with np.errstate(over="ignore", invalid="ignore"):
                wa, wb = p.alpha * xy[0] * xy[1] + 1.0, p.beta * xy[0] * xy[1] + 1.0
                if not np.all(np.isfinite(xy[1] * wb / wa)):
                    kinds.add("fallback")
        kinds.add("image")
    assert kinds == ({"error", "image", "fallback"} if p.alpha and p.beta
                     else {"error", "image"})
