"""Modified Bessel functions K_nu, I_nu and log-gamma kernels.

Everything downstream (GIG normalizers, extended Laplace transforms,
detailed-balance residuals) is computed in log space, so the log-scaled
variants are the primary surface here.  The hot path delegates to the
exponentially scaled AMOS routines; a double-exponential quadrature of the
defining integral

    K_nu(z) = (1/2) (z/2)^nu * integral_0^inf  t^(-nu-1) exp(-t - z^2/(4t)) dt

is kept as an independent cross-check (`bessel_k_quadrature`) and as the
fallback where the scaled routines leave double range (tiny z with large
|nu|).

K is even in its order; that symmetry is enforced by construction, so
``bessel_k(nu, z)`` and ``bessel_k(-nu, z)`` are bitwise identical.
"""

import math

import numpy as np
from scipy.special import gammaln, ive, kve

from .errors import DomainError, positive

__all__ = [
    "bessel_k",
    "bessel_k_log",
    "bessel_i",
    "bessel_i_log",
    "bessel_k_quadrature",
    "bessel_k_log_quadrature",
    "log_gamma",
    "kv_deriv",
    "iv_deriv",
    "ode_residual",
    "check_table",
]

_LOG_DBL_MAX = math.log(np.finfo(float).max)


def log_gamma(x):
    """log Gamma(x) for x > 0 (vectorized)."""
    out = gammaln(positive("log_gamma requires x > 0 and finite", x))
    return float(out) if out.ndim == 0 else out


_BESSEL_Z = "Bessel argument must be finite and > 0"


def bessel_k_log(nu: float, z) -> float | np.ndarray:
    """log K_nu(z) for z > 0, any real nu.

    Stable over the whole (nu, z) range the samplers hit: overflow of the
    scaled routine (z << 1 with |nu| large) falls back to the quadrature of
    the defining integral, which works directly in log space.
    """
    if not math.isfinite(nu):
        raise DomainError("Bessel order must be finite")
    nu = abs(nu)  # K_{-nu} = K_nu
    z = positive(_BESSEL_Z, z)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    with np.errstate(over="ignore", divide="ignore"):
        out = np.log(kve(nu, zv)) - zv
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = [bessel_k_log_quadrature(nu, float(zi)) for zi in zv[bad]]
    return float(out[0]) if scalar else out


def bessel_k(nu: float, z) -> float | np.ndarray:
    """K_nu(z) for z > 0.  Raises OverflowError outside double range.

    For arguments where the value is not representable (huge for tiny z and
    large |nu|, or underflowing to 0 for very large z) use `bessel_k_log`.
    """
    lk = bessel_k_log(nu, z)
    lv = np.asarray(lk)
    if np.any(lv > _LOG_DBL_MAX) or np.any(lv < -_LOG_DBL_MAX):
        raise OverflowError("K_nu(z) outside double range; use bessel_k_log")
    out = np.exp(lv)
    return float(out) if out.ndim == 0 else out


def bessel_i_log(nu: float, z) -> float | np.ndarray:
    """log I_nu(z) for z > 0.

    Underflow of the scaled routine (z small, nu large) is replaced by the
    leading terms of the ascending series, evaluated in log space.  Raises
    DomainError if I_nu(z) <= 0 (possible only for nu < -1 at small z).
    """
    if not math.isfinite(nu):
        raise DomainError("Bessel order must be finite")
    z = positive(_BESSEL_Z, z)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scaled = ive(nu, zv)
        out = np.log(scaled) + zv
    if np.any(scaled < 0.0):
        raise DomainError(f"I_nu(z) <= 0 for nu={nu}; log undefined")
    bad = ~np.isfinite(out)
    if np.any(bad):
        if nu < 0.0:
            raise DomainError(
                f"log I_nu out of scaled-routine range for nu={nu} < 0"
            )
        out[bad] = [_bessel_i_log_series(nu, float(zi)) for zi in zv[bad]]
    return float(out[0]) if scalar else out


def bessel_i(nu: float, z) -> float | np.ndarray:
    """I_nu(z) = sum_m (z/2)^(nu+2m) / (m! Gamma(nu+m+1)) for z > 0.

    Raises OverflowError when the value exceeds double range (z beyond
    ~709 for moderate orders); `bessel_i_log` covers that regime.
    """
    if not math.isfinite(nu):
        raise DomainError("Bessel order must be finite")
    z = positive(_BESSEL_Z, z)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    with np.errstate(over="ignore"):
        scaled = ive(nu, zv)
        out = scaled * np.exp(zv)
    if np.any(~np.isfinite(out)):
        raise OverflowError("I_nu(z) outside double range; use bessel_i_log")
    small = (out == 0.0) & (scaled == 0.0)
    if np.any(small):
        if nu < 0.0:
            raise DomainError(f"I_nu underflow for nu={nu} < 0")
        out[small] = [math.exp(_bessel_i_log_series(nu, float(zi))) for zi in zv[small]]
    return float(out[0]) if scalar else out


def _bessel_i_log_series(nu: float, z: float) -> float:
    # ascending series in ratio form; nu >= 0, z small enough that the
    # scaled routine underflowed
    lead = nu * math.log(z / 2.0) - math.lgamma(nu + 1.0)
    q = z * z / 4.0
    term, total = 1.0, 1.0
    for m in range(1, 200):
        term *= q / (m * (nu + m))
        total += term
        if term < 1e-18 * total:
            break
    return lead + math.log(total)


# ---------------------------------------------------------------------------
# quadrature of the defining integral (cross-check oracle + extreme fallback)
# ---------------------------------------------------------------------------

def _quad_window(nu: float, z: float):
    # concave exponent phi(u) = -nu*u - e^u - (z^2/4) e^-u with maximum at
    # e^u = z^2 / (2 (nu + sqrt(nu^2 + z^2)))
    q = z * z / 4.0
    w_star = 2.0 * q / (nu + math.hypot(nu, z))
    u0 = math.log(w_star)

    def phi(u):
        return -nu * u - math.exp(u) - q * math.exp(-u)

    phi_max = phi(u0)
    lo, hi = u0 - 1.0, u0 + 1.0
    while phi(lo) > phi_max - 120.0:
        lo -= max(1.0, 0.25 * (u0 - lo))
    while phi(hi) > phi_max - 120.0:
        hi += max(1.0, 0.25 * (hi - u0))
    return lo, hi, phi_max


def bessel_k_log_quadrature(nu: float, z: float) -> float:
    """log K_nu(z) by trapezoidal quadrature of the defining integral.

    Substituting t = e^u makes the integrand exp(-nu*u - e^u - (z^2/4)e^-u),
    which decays double-exponentially in both directions, so the trapezoid
    rule converges spectrally.  Step size is halved until two successive
    levels agree to 5e-14 relative.
    """
    if not (math.isfinite(nu) and math.isfinite(z)) or z <= 0.0:
        raise DomainError("quadrature requires finite nu and z > 0")
    nu = abs(nu)
    q = z * z / 4.0
    lo, hi, phi_max = _quad_window(nu, z)

    def log_sum(h):
        u = np.arange(lo, hi + 0.5 * h, h)
        phi = -nu * u - np.exp(u) - q * np.exp(-u)
        return math.log(np.sum(np.exp(phi - phi_max)) * h)

    h = (hi - lo) / 16.0
    prev = log_sum(h)
    for _ in range(11):
        h *= 0.5
        val = log_sum(h)
        if abs(val - prev) <= 5e-14 * max(1.0, abs(val)):
            prev = val
            break
        prev = val
    return nu * math.log(z / 2.0) - math.log(2.0) + phi_max + prev


def bessel_k_quadrature(nu: float, z: float) -> float:
    """K_nu(z) via the defining integral (independent of the AMOS path)."""
    return math.exp(bessel_k_log_quadrature(nu, z))


# ---------------------------------------------------------------------------
# derivative and residual helpers
# ---------------------------------------------------------------------------

def kv_deriv(nu: float, z: float) -> float:
    """K_nu'(z) = -(K_{nu-1}(z) + K_{nu+1}(z)) / 2."""
    return -0.5 * (bessel_k(nu - 1.0, z) + bessel_k(nu + 1.0, z))


def iv_deriv(nu: float, z: float) -> float:
    """I_nu'(z) = (I_{nu-1}(z) + I_{nu+1}(z)) / 2."""
    return 0.5 * (bessel_i(nu - 1.0, z) + bessel_i(nu + 1.0, z))


def _kv_stencil(nu: float, zs) -> np.ndarray:
    # K on a cluster of nearby arguments from ONE fixed quadrature rule in
    # extended precision, up to a common constant factor.  A finite
    # difference at h = 1e-5*z amplifies independent evaluation noise by
    # ~1e10, so the stencil values must share their discretization error
    # for the ODE residual to measure truth rather than rounding jitter.
    nu = abs(nu)
    zc = float(np.mean(zs))
    lo, hi, _ = _quad_window(nu, zc)
    n_nodes = max(600, int((hi - lo) / 0.04))
    u = np.linspace(lo, hi, n_nodes, dtype=np.longdouble)
    phi0 = -np.longdouble(nu) * u - np.exp(u)
    e_mu = np.exp(-u)
    out = []
    for zp in zs:
        zl = np.longdouble(zp)
        w = np.exp(phi0 - (zl * zl / 4.0) * e_mu)
        out.append(np.power(zl / 2.0, np.longdouble(nu)) * np.sum(w))
    return np.array(out, dtype=np.longdouble)


def _iv_stencil(nu: float, zs) -> np.ndarray:
    # ascending series with a truncation order shared across the stencil,
    # accumulated in extended precision; same smoothness rationale as
    # `_kv_stencil`.  The 1/Gamma(nu+m+1) chain is seeded once, so its seed
    # error is a common factor that cancels in the relative residual.
    zc = float(np.mean(zs))
    m_max = int(zc) + 60
    coeff = np.empty(m_max + 1, dtype=np.longdouble)
    coeff[0] = np.longdouble(1.0) / np.longdouble(math.gamma(nu + 1.0))
    for m in range(1, m_max + 1):
        coeff[m] = coeff[m - 1] / (np.longdouble(m) * np.longdouble(nu + m))
    out = []
    for zp in zs:
        zl = np.longdouble(zp)
        q = zl * zl / 4.0
        powers = q ** np.arange(m_max + 1, dtype=np.longdouble)
        out.append(np.power(zl / 2.0, np.longdouble(nu)) * np.sum(coeff * powers))
    return np.array(out, dtype=np.longdouble)


def ode_residual(kind: str, nu: float, z: float) -> float:
    """Relative residual of z^2 g'' + z g' - (z^2 + nu^2) g.

    Central differences at step h = 1e-5 * z on a three-point stencil
    evaluated by the module's smooth extended-precision rule (quadrature
    for K, series for I).  The residual is divided by (z^2 + nu^2)|g(z)|,
    the magnitude of the equation's own terms, so it is invariant under
    the stencil's common scale factor and meaningful uniformly in z.
    """
    if z <= 0.0:
        raise DomainError("ode_residual requires z > 0")
    h = 1e-5 * z
    zp, zm = z + h, z - h
    # offsets as actually represented; dividing by the nominal h would
    # inject a g' * (rounding of z+-h) / h^2 error far above truncation
    dp, dm = np.longdouble(zp - z), np.longdouble(z - zm)
    stencil = {"k": _kv_stencil, "i": _iv_stencil}[kind]
    gm, g0, gp = stencil(nu, (zm, z, zp))
    zl = np.longdouble(z)
    g1 = (gp - gm) / (dp + dm)
    g2 = 2.0 * (dm * gp - (dp + dm) * g0 + dp * gm) / (dp * dm * (dp + dm))
    scale = zl * zl + np.longdouble(nu) ** 2
    res = zl * zl * g2 + zl * g1 - scale * g0
    return float(res / (scale * abs(g0)))


def check_table():
    """Residual battery for the CLI: rows (test, nu, z, statistic, threshold, pass).

    Wronskian rows are restricted to z >= max(1, |nu|) where the identity
    does not suffer catastrophic cancellation in double precision.
    """
    rows = []
    for nu in (-3.2, -0.5, 0.0, 0.7, 2.0, 5.5):
        for z in (0.1, 0.5, 2.0, 10.0, 50.0):
            g = bessel_k(nu, z)
            r = abs(ode_residual("k", nu, z))
            rows.append(("ode_k", nu, z, r, 1e-6, r <= 1e-6))
            ri = abs(ode_residual("i", nu, z))
            rows.append(("ode_i", nu, z, ri, 1e-6, ri <= 1e-6))
            quad = bessel_k_quadrature(nu, z)
            rq = abs(g - quad) / quad
            rows.append(("k_vs_integral", nu, z, rq, 1e-12, rq <= 1e-12))
            kp, km = bessel_k(nu + 1.0, z), bessel_k(nu - 1.0, z)
            rec = kp - km - (2.0 * nu / z) * g
            rr = abs(rec) / max(kp, km, abs(2.0 * nu / z) * g)
            rows.append(("recurrence_k", nu, z, rr, 1e-10, rr <= 1e-10))
            if z >= max(1.0, abs(nu)):
                wr = bessel_i(nu, z) * kv_deriv(nu, z) - iv_deriv(nu, z) * bessel_k(nu, z)
                rw = abs(wr + 1.0 / z) * z
                rows.append(("wronskian", nu, z, rw, 1e-10, rw <= 1e-10))
    return rows
