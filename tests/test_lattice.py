import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gigkdv import dist, lattice, maps
from gigkdv.errors import DomainError
from gigkdv.rng import rng_stream

P12 = maps.MapParams(1.0, 2.0)


def small_config(n=200, t=12, seed=3, **kwargs):
    return lattice.stationary_config(P12, lam=0.5, c1=1.0, c2=1.0,
                                     n_sites=n, horizon=t, seed=seed, **kwargs)


def perturbed_laws(cfg):
    """The laws of `cfg` with the x rates scaled: a by 1/2 and b by 2."""
    return tuple((dist.GigParams(x.lam, x.a / 2.0, 2.0 * x.b), y) for x, y in cfg.laws)


def cell_oracle(cfg):
    """The lattice one cell at a time: x[n,t], y[n,t] = f_dk(x[n,t-1], y[n-1,t])."""
    x0, ycol, _ = lattice._boundary_arrays(cfg)
    x = np.empty((cfg.n_sites + 1, cfg.horizon + 1))
    y = np.empty_like(x)
    x[1:, 0], y[0, 1:] = x0, ycol
    for t in range(1, cfg.horizon + 1):
        for n in range(1, cfg.n_sites + 1):
            x[n, t], y[n, t] = maps.f_dk(cfg.map, (x[n, t - 1], y[n - 1, t]))
    return x[1:, 1:].T, y[1:, 1:].T


def assert_matches_oracle(cfg):
    frames = list(lattice.evolve(cfg))[1:]
    x_ref, y_ref = cell_oracle(cfg)
    assert len(frames) == cfg.horizon
    for f in frames:
        np.testing.assert_allclose(f.x_row, x_ref[f.t - 1], rtol=1e-12)
        np.testing.assert_allclose(f.y_row, y_ref[f.t - 1], rtol=1e-12)


class TestEvolve:
    def test_single_cell(self):
        laws = (dist.GigParams(0.5, 1, 1), dist.GigParams(0.5, 2, 1))
        cfg = lattice.LatticeConfig(1, 1, P12, (laws, laws), seed=3)
        frames = list(lattice.evolve(cfg))
        assert [f.t for f in frames] == [0, 1]
        y0 = dist.draw(cfg.laws[1][1], rng_stream(3, 13), 1)[0]
        u, v = maps.f_dk(P12, (frames[0].x_row[0], y0))
        assert frames[1].x_row[0] == u
        assert frames[1].y_row[0] == v

    def test_cellwise_involution(self):
        frames = list(lattice.evolve(small_config()))
        for t in range(1, len(frames)):
            x_in = frames[t - 1].x_row[1:]     # x[n, t-1], n >= 2
            y_in = frames[t].y_row[:-1]        # y[n-1, t]
            back_x, back_y = maps.f_dk(P12, (frames[t].x_row[1:],
                                             frames[t].y_row[1:]))
            assert np.allclose(back_x, x_in, rtol=1e-12)
            assert np.allclose(back_y, y_in, rtol=1e-12)

    def test_cellwise_conservation(self):
        frames = list(lattice.evolve(small_config()))
        for t in range(1, len(frames)):
            prod_in = frames[t - 1].x_row[1:] * frames[t].y_row[:-1]
            prod_out = frames[t].x_row[1:] * frames[t].y_row[1:]
            assert np.max(np.abs(prod_out - prod_in) / prod_in) <= 1e-13

    def test_deterministic_and_positive(self):
        f1 = list(lattice.evolve(small_config()))
        f2 = list(lattice.evolve(small_config()))
        for a, b in zip(f1, f2):
            assert np.array_equal(a.x_row, b.x_row)
            assert np.array_equal(a.y_row, b.y_row)
            assert np.all(a.x_row > 0.0) and np.all(a.y_row > 0.0)

    @pytest.mark.parametrize("t", [1, 12])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
    @pytest.mark.parametrize("alpha,beta", [(1, 2), (0.5, 3), (1, 0), (0, 2)])
    def test_matches_cell_oracle(self, alpha, beta, n, t):
        cfg = lattice.stationary_config(maps.MapParams(alpha, beta), lam=0.5,
                                        c1=1.0, c2=1.0, n_sites=n, horizon=t,
                                        seed=n + t)
        assert_matches_oracle(cfg)

    def test_matches_cell_oracle_asymmetric(self):
        cfg = lattice.stationary_config(maps.MapParams(0.5, 3.0), lam=-0.5,
                                        c1=1.0, c2=3.0, n_sites=300, horizon=7,
                                        seed=21)
        assert_matches_oracle(cfg)

    def test_memory_linear_in_row(self):
        n = 200_000
        cfg = small_config(n=n, t=60, seed=5)
        tracemalloc.start()
        try:
            for _ in lattice.evolve(cfg):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n * 8, peak / (n * 8)

    def test_checks_catch_a_wrong_cell(self, monkeypatch):
        def skewed(p, xy):
            u, v = maps.f_dk(p, xy)
            return u, v * (1.0 + 1e-9)
        monkeypatch.setattr(lattice, "f_dk", skewed)
        with pytest.raises(ArithmeticError):
            list(lattice.evolve(small_config()))

    def test_replay_boundary(self, tmp_path):
        cfg = small_config()
        arrays = lattice._boundary_arrays(cfg)
        path = tmp_path / "boundary.csv"
        lattice.save_boundary(path, *arrays)
        replayed = lattice.LatticeConfig(
            cfg.n_sites, cfg.horizon, cfg.map, cfg.laws,
            seed=999, boundary=lattice.load_boundary(path))
        for a, b in zip(lattice.evolve(cfg), lattice.evolve(replayed)):
            assert np.array_equal(a.x_row, b.x_row)
            assert np.array_equal(a.y_row, b.y_row)

    def test_replay_size_mismatch(self):
        cfg = small_config()
        with pytest.raises(DomainError, match="replay sizes"):
            lattice.LatticeConfig(cfg.n_sites + 1, cfg.horizon, cfg.map, cfg.laws,
                                  boundary=lattice._boundary_arrays(cfg))

    def test_values_near_the_float_limit(self):
        # f_dk, the conservation check and the row scan, whose cell matrices
        # are divided by max(x, 1), all stay finite for x near 1e300 and for
        # subnormal x, in any cell of a block
        def replayed(n, cells, value):
            cfg = small_config(n=n, t=4)
            x0, ycol, yref = lattice._boundary_arrays(cfg)
            x0[cells] = value
            ycol[:2] = 1e300
            return lattice.LatticeConfig(n, 4, P12, cfg.laws, boundary=(x0, ycol, yref))

        assert_matches_oracle(replayed(60, [0, 1, 30], 1e300))  # one block, no scan
        for value in (1e300, 1e-310):
            for first_or_last_of_a_block in ([0], [63]):
                assert_matches_oracle(replayed(200, first_or_last_of_a_block, value))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            laws = (dist.GigParams(0.5, 1, 1), dist.GigParams(0.5, 1, 1))
            lattice.LatticeConfig(0, 5, P12, (laws, laws))


class TestStationarity:
    def test_symmetric_case_passes(self):
        cfg = lattice.stationary_config(P12, lam=0.5, c1=1.0, c2=1.0,
                                        n_sites=20_000, horizon=12, seed=9)
        rep = lattice.stationarity_report(cfg, [6, 12])
        assert rep.passed, rep.tests

    def test_asymmetric_parity_marginals(self):
        # type-II parameters: interior marginals alternate by parity of n+t
        cfg = lattice.stationary_config(P12, lam=0.5, c1=1.0, c2=3.0,
                                        n_sites=20_000, horizon=10, seed=10)
        rep = lattice.stationarity_report(cfg, [5, 10])
        assert rep.passed, rep.tests
        frames = {f.t: f for f in lattice.evolve(cfg) if f.t in (0, 10)}
        n_idx = np.arange(1, cfg.n_sites + 1)
        even = (n_idx + 10) % 2 == 0
        law_even = dist.GigParams(-0.5, 1.0, 3.0)   # the x input law
        law_odd = dist.GigParams(-0.5, 3.0, 1.0)    # its c1 <-> c2 swap
        x = frames[10].x_row
        assert stats.kstest(x[even], lambda v: dist.cdf(law_even, v)).pvalue > 0.01
        assert stats.kstest(x[~even], lambda v: dist.cdf(law_odd, v)).pvalue > 0.01
        # and the classes genuinely differ
        assert stats.kstest(x[even], lambda v: dist.cdf(law_odd, v)).pvalue < 1e-6

    def test_perturbed_config_drifts(self):
        base = lattice.stationary_config(P12, lam=0.5, c1=1.0, c2=1.0,
                                         n_sites=20_000, horizon=12, seed=9)
        pert = lattice.LatticeConfig(base.n_sites, base.horizon, base.map,
                                     perturbed_laws(base), seed=9)
        rep = lattice.stationarity_report(pert, [6, 12])
        assert not rep.passed

    def test_probe_validation(self):
        cfg = small_config()
        with pytest.raises(DomainError):
            lattice.stationarity_report(cfg, [0])
        with pytest.raises(DomainError):
            lattice.stationarity_report(cfg, [99])

    def test_report_dict(self):
        rep = lattice.stationarity_report(small_config(n=2000), [6])
        d = rep.to_dict()
        assert d["probe_times"] == [6]
        assert {"field", "t", "parity", "p_value"} <= set(d["tests"][0])
