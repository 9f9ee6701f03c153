"""End-to-end acceptance battery.

Each criterion is a deterministic function of its frozen seeds and prints
one PASS/FAIL line (run pytest with -s to see them inline).  The final
criterion re-executes every earlier one with the same seeds and requires
the regenerated report bodies to be byte-identical.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from gigkdv import balance, dist, lattice, maps, matrix, specfun
from gigkdv.rng import rng_stream

ACC_SEED = 20260809

# registry of first-run report bodies, keyed by criterion number
_REPORTS: dict = {}
_RUNTIMES: dict = {}


def _fmt_line(num, name, passed, details):
    status = "PASS" if passed else "FAIL"
    return f"ACCEPTANCE {num} {name}: {status} ({details})"


def _finish(num, name, lines, passed, t0, limit):
    elapsed = time.time() - t0
    _REPORTS[num] = "\n".join(lines)
    _RUNTIMES[num] = elapsed
    print(_fmt_line(num, name, passed, f"runtime {elapsed:.1f}s"))
    for line in lines:
        print("   ", line)
    assert passed, f"criterion {num} failed:\n" + "\n".join(lines)
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


# --- criterion 1: scalar involution and Jacobian --------------------------

def _run_c1():
    lines = []
    ok = True
    rng = rng_stream(ACC_SEED, 101)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 10_000))
    xj = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 10_000))
    yj = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 10_000))
    for p in (maps.MapParams(1.0, 2.0), maps.MapParams(0.5, 3.0)):
        u, v = maps.f_dk(p, (x, y))
        x2, y2 = maps.f_dk(p, (u, v))
        inv = float(np.max(np.maximum(np.abs(x2 - x) / x, np.abs(y2 - y) / y)))
        det = maps.jacobian_det(p, (xj, yj))
        dev = float(np.max(np.abs(det + 1.0)))
        ok &= inv <= 1e-12 and dev <= 1e-6
        lines.append(f"alpha={p.alpha} beta={p.beta} max_involution={inv!r} "
                     f"max_signed_jacobian_dev={dev!r}")
    return lines, ok


def test_criterion_1_scalar_involution_jacobian():
    t0 = time.time()
    lines, ok = _run_c1()
    _finish(1, "scalar involution & Jacobian", lines, ok, t0, 5.0)


# --- criterion 2: matrix involution, Jacobian, product identity -----------

def _run_c2():
    lines = []
    ok = True
    p = maps.MapParams(1.0, 2.0)
    for r in (1, 2, 3):
        rng = rng_stream(ACC_SEED, 200 + r)
        inv = prod = jac = 0.0
        for i in range(100):
            xm, ym = matrix.random_spd(r, rng), matrix.random_spd(r, rng)
            u, v = matrix.f_dk_matrix(p, (xm, ym))
            x2, y2 = matrix.f_dk_matrix(p, (u, v))
            denom = max(np.linalg.norm(xm), np.linalg.norm(ym))
            inv = max(inv, float(np.linalg.norm(x2 - xm) / denom),
                      float(np.linalg.norm(y2 - ym) / denom))
            yx = ym @ xm
            prod = max(prod, float(np.linalg.norm(u @ v - yx)
                                   / np.linalg.norm(yx)))
            jac = max(jac, abs(matrix.jacobian_abs_matrix(p, (xm, ym)) - 1.0))
        ok &= inv <= 1e-10 and prod <= 1e-10 and jac <= 1e-4
        lines.append(f"r={r} max_involution={inv!r} max_uv_yx={prod!r} "
                     f"max_jacobian_dev={jac!r}")
    return lines, ok


def test_criterion_2_matrix_involution_jacobian():
    t0 = time.time()
    lines, ok = _run_c2()
    _finish(2, "matrix involution & Jacobian", lines, ok, t0, 60.0)


# --- criterion 3: density transport identity ------------------------------

_C3_POINTS = [
    (-2.0, (1.0, 2.0), (1.0, 1.0)),
    (-0.5, (0.5, 3.0), (1.0, 3.0)),
    (0.0, (1.0, 2.0), (1.0, 3.0)),
    (0.5, (0.5, 3.0), (1.0, 1.0)),
    (2.0, (1.0, 2.0), (1.0, 3.0)),
]


def _run_c3():
    lines = []
    ok = True
    for lam, (al, be), (c1, c2) in _C3_POINTS:
        spec = balance.BalanceSpec(maps.MapParams(al, be), lam=lam,
                                   c1=c1, c2=c2, variant="fdk")
        # tol is 16 eps S at the worst point, S the sum of the terms' sizes
        resid, tol = balance.transport_grid_max(spec, grid_n=20)
        ok &= resid <= tol < 1e-9
        lines.append(f"lambda={lam} alpha={al} beta={be} c=({c1},{c2}) "
                     f"max_log_residual={resid!r} tol={tol!r}")
    return lines, ok


def test_criterion_3_transport_identity():
    t0 = time.time()
    lines, ok = _run_c3()
    _finish(3, "density transport identity", lines, ok, t0, 5.0)


# --- criterion 4: Monte-Carlo detailed balance -----------------------------

def _matrix_spec_c4():
    rng = rng_stream(ACC_SEED, 400)
    a, b = matrix.random_spd(2, rng), matrix.random_spd(2, rng)
    return balance.BalanceSpec(maps.MapParams(1.0, 2.0), lam=1.1,
                               variant="matrix", a=a, b=b)


def _run_c4():
    lines = []
    ok = True
    scalar_specs = [
        ("fdk", balance.BalanceSpec(maps.MapParams(al, be), lam=lam,
                                    c1=c1, c2=c2, variant="fdk"))
        for lam, (al, be), (c1, c2) in _C3_POINTS]
    scalar_specs.append(("psi", balance.BalanceSpec(
        maps.MapParams(1.0, 2.0), lam=0.5, c1=1.0, c2=1.0, variant="psi")))
    scalar_specs.append(("psi-beta0", balance.BalanceSpec(
        maps.MapParams(1.0, 0.0), lam=0.8, c1=1.0, c2=2.0, variant="psi")))
    for i, (tag, spec) in enumerate(scalar_specs):
        rep = balance.monte_carlo_balance(spec, seed=ACC_SEED + i, n=100_000)
        ok &= rep.passed
        worst_ks = min(v.p_value for v in rep.ks_stats.values())
        lines.append(f"{tag} lambda={spec.lam} alpha={spec.map.alpha} "
                     f"beta={spec.map.beta} c=({spec.c1},{spec.c2}) "
                     f"min_ks_p={worst_ks!r} ind_p={rep.independence.p_value!r} "
                     f"passed={rep.passed}")

    # negative control: second input drawn with a doubled inverse rate
    nc_spec = scalar_specs[0][1]
    bad = dist.GigParams(-nc_spec.lam, nc_spec.map.beta * nc_spec.c2,
                         2.0 * nc_spec.c1)
    rep = balance.monte_carlo_balance(nc_spec, seed=ACC_SEED, n=100_000,
                                      y_override=bad)
    control_failed = rep.ks_stats["U"].p_value < 0.01 and not rep.passed
    ok &= control_failed
    lines.append(f"negative-control U_ks_p={rep.ks_stats['U'].p_value!r} "
                 f"detected={control_failed}")

    # matrix variant at r = 2, effective sample target 5e3
    mspec = _matrix_spec_c4()
    mrep = balance.monte_carlo_balance(mspec, seed=ACC_SEED + 50, n=12_000,
                                       mcmc=matrix.McmcConfig(thin=20))
    min_ess = min(min(d["ess"].values()) for d in mrep.mcmc.values())
    ok &= mrep.passed and min_ess >= 5000
    worst_ks = min(v.p_value for v in mrep.ks_stats.values())
    lines.append(f"matrix r=2 min_ks_p={worst_ks!r} "
                 f"ind_p={mrep.independence.p_value!r} min_ess={int(min_ess)} "
                 f"transport={float(mrep.max_log_residual)!r} "
                 f"tol={float(mrep.residual_tol)!r} passed={mrep.passed}")
    return lines, ok


def test_criterion_4_monte_carlo_balance():
    t0 = time.time()
    lines, ok = _run_c4()
    _finish(4, "Monte-Carlo detailed balance", lines, ok, t0, 600.0)


# --- criterion 5: extended Laplace transform -------------------------------

_C5_POINTS = [
    (dist.GigParams(0.3, 2.0, 1.0), 1.5, -1.0, -0.5),
    (dist.GigParams(-2.0, 1.0, 3.0), -1.0, -0.3, -2.0),
    (dist.GigParams(0.5, 1.0, 1.0), 2.0, -2.0, -1.0),
    (dist.GigParams(1.0, 2.0, 1.0), 1.0, 0.6, 0.3),
    (dist.GigParams(-0.5, 4.0, 2.0), 0.5, 1.5, -1.0),
    (dist.GigParams(2.5, 0.5, 0.5), -1.5, -0.1, -0.1),
    (dist.GigParams(0.0, 1.0, 2.0), 0.7, -5.0, -3.0),
    (dist.GigParams(-1.2, 3.0, 0.8), 0.0, -0.5, 0.2),
    (dist.GigParams(1.7, 1.2, 2.5), -0.8, 0.25, 1.0),
    (dist.GigParams(-3.0, 2.0, 2.0), 1.2, -1.0, -1.0),
]


def _run_c5():
    lines = []
    ok = True
    for i, (law, s, sg, th) in enumerate(_C5_POINTS):
        xs = dist.sample(law, ACC_SEED, 1_000_000, stream=500 + i)
        f = xs ** s * np.exp(sg * xs + th / xs)
        est, se = float(f.mean()), float(f.std()) / 1000.0
        want = dist.ext_laplace(law, s, sg, th)
        dev = abs(est - want) / se
        ok &= dev <= 4.0
        lines.append(f"law={law} s={s} sigma={sg} theta={th} "
                     f"mc={est!r} closed={want!r} dev_se={dev!r}")
    return lines, ok


def test_criterion_5_extended_laplace():
    t0 = time.time()
    lines, ok = _run_c5()
    _finish(5, "extended Laplace transform", lines, ok, t0, 120.0)


# --- criterion 6: proof-machinery identities -------------------------------

def _run_c6():
    spec = balance.BalanceSpec(maps.MapParams(1.0, 2.0), lam=0.5,
                               c1=1.0, c2=1.0, variant="psi")
    res = balance.machinery_check(spec, s=0.7, sigma=-1.0, theta=-0.5,
                                  seed=ACC_SEED, n=400_000)
    res2 = balance.machinery_check(spec, s=-0.4, sigma=-0.8, theta=-1.5,
                                   seed=ACC_SEED + 1, n=400_000)
    ok = res.passed and res2.passed
    lines = [
        f"s=0.7 product_dev_se={res.product_dev_se!r} y_form={res.y_form_rel!r} "
        f"v_form={res.v_form_rel!r}",
        f"s=-0.4 product_dev_se={res2.product_dev_se!r} y_form={res2.y_form_rel!r} "
        f"v_form={res2.v_form_rel!r}",
    ]
    return lines, ok


def test_criterion_6_machinery_identities():
    t0 = time.time()
    lines, ok = _run_c6()
    _finish(6, "proof-machinery identities", lines, ok, t0, 120.0)


# --- criterion 7: special functions ----------------------------------------

def _run_c7():
    lines = []
    ode_max = 0.0
    for nu in (-3.2, -0.5, 0.0, 0.7, 2.0):
        for z in np.geomspace(0.1, 50.0, 9):
            for kind in ("k", "i"):
                ode_max = max(ode_max, abs(specfun.ode_residual(kind, nu, float(z))))
    k_half = abs(specfun.bessel_k(0.5, 2.0)
                 - math.sqrt(math.pi / 4.0) * math.exp(-2.0)) \
        / (math.sqrt(math.pi / 4.0) * math.exp(-2.0))
    i_half = abs(specfun.bessel_i(0.5, 1.0)
                 - math.sqrt(2.0 / math.pi) * math.sinh(1.0)) \
        / (math.sqrt(2.0 / math.pi) * math.sinh(1.0))
    wr_max = 0.0
    for nu in (0.0, 0.5, 1.0, 2.0, 5.0):
        for z in (1.0, 2.0, 5.0, 10.0, 50.0):
            if z >= max(1.0, nu):
                w = (specfun.bessel_i(nu, z) * specfun.kv_deriv(nu, z)
                     - specfun.iv_deriv(nu, z) * specfun.bessel_k(nu, z))
                wr_max = max(wr_max, abs(w + 1.0 / z) * z)
    ok = ode_max <= 1e-6 and k_half <= 1e-12 and i_half <= 1e-12 \
        and wr_max <= 1e-10
    lines.append(f"ode_residual_max={ode_max!r} k_half_rel={k_half!r} "
                 f"i_half_rel={i_half!r} wronskian_max={wr_max!r}")
    return lines, ok


def test_criterion_7_special_functions():
    t0 = time.time()
    lines, ok = _run_c7()
    _finish(7, "special functions", lines, ok, t0, 5.0)


# --- criterion 8: lattice stationarity --------------------------------------

def _run_c8():
    p = maps.MapParams(1.0, 2.0)
    cfg = lattice.stationary_config(p, lam=0.5, c1=1.0, c2=1.0,
                                    n_sites=100_000, horizon=50,
                                    seed=ACC_SEED)
    rep = lattice.stationarity_report(cfg, [10, 25, 50])
    min_p = min(row["p_value"] for row in rep.tests)

    laws = tuple((dist.GigParams(x.lam, x.a / 2.0, 2.0 * x.b), y) for x, y in cfg.laws)
    pert = lattice.LatticeConfig(cfg.n_sites, cfg.horizon, cfg.map, laws,
                                 seed=ACC_SEED)
    rep_p = lattice.stationarity_report(pert, [10, 25, 50])
    drift_detected = not rep_p.passed
    ok = rep.passed and drift_detected
    lines = [
        f"stationary min_p={min_p!r} passed={rep.passed}",
        f"perturbed drift_detected={drift_detected} "
        f"min_p={min(row['p_value'] for row in rep_p.tests)!r}",
    ]
    return lines, ok


def test_criterion_8_lattice_stationarity():
    t0 = time.time()
    lines, ok = _run_c8()
    _finish(8, "lattice stationarity", lines, ok, t0, 180.0)


# --- criterion 9: reproducibility -------------------------------------------

def test_criterion_9_reproducibility():
    t0 = time.time()
    runners = {1: _run_c1, 2: _run_c2, 3: _run_c3, 4: _run_c4, 5: _run_c5,
               6: _run_c6, 7: _run_c7, 8: _run_c8}
    assert set(_REPORTS) == set(runners), "criteria 1-8 must run first"
    mismatches = []
    for num, fn in runners.items():
        lines, _ = fn()
        if "\n".join(lines) != _REPORTS[num]:
            mismatches.append(num)
    ok = not mismatches
    elapsed = time.time() - t0
    print(_fmt_line(9, "reproducibility", ok,
                    f"re-ran criteria {sorted(runners)}; runtime {elapsed:.1f}s"))
    assert ok, f"report bodies changed on re-run for criteria {mismatches}"
