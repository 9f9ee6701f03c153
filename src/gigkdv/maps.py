"""Scalar cell maps of the discrete mKdV lattice and their identities.

The core object is the involution on (0, inf)^2

    f_dk(x, y) = ( y (b x y + 1) / (a x y + 1),
                   x (a x y + 1) / (b x y + 1) ),      a = alpha, b = beta,

which preserves the product x*y and has signed Jacobian -1 everywhere.
`psi` is its conjugate under (x, y) -> (x, 1/y), the form in which the
Matsumoto-Yor property appears in the beta = 0 limit.  The alpha = 0 and
beta = 0 cases use dedicated closed forms instead of evaluating the
general rational expression at zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive

__all__ = [
    "MapParams",
    "f_dk",
    "psi",
    "psi_identities",
    "jacobian_det",
    "check_battery",
]


@dataclass(frozen=True)
class MapParams:
    """(alpha, beta) of the cell map; nonnegative, distinct, not both zero."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha, beta must be finite")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DomainError("alpha, beta must be >= 0")
        if self.alpha == self.beta:
            raise DomainError("alpha != beta required (the map degenerates)")


_COORDINATES = "coordinates must be finite and > 0"
_IMAGE = "the f_dk image leaves the floating-point range"


def f_dk(p: MapParams, xy):
    """Apply the cell involution to (x, y); accepts scalars or arrays.

    The product of the coordinates is conserved exactly up to round-off.
    An image outside the floating-point range, overflowed or underflowed
    to 0, raises DomainError.
    """
    x, y = positive(_COORDINATES, *xy)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
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
    try:
        u, v = positive(_IMAGE, u, v)
    except DomainError:
        if p.alpha == 0.0 or p.beta == 0.0:
            raise
        # an intermediate may have overflowed; the ratio wb / wa lies between
        # 1 and beta / alpha, and in this form only the image itself can
        with np.errstate(over="ignore"):  # checked below
            ok = np.isfinite(u) & np.isfinite(v)
            t, q = np.minimum(xy_, 1.0), 1.0 / np.maximum(xy_, 1.0)
            ratio = (p.beta * t + q) / (p.alpha * t + q)
            u, v = np.where(ok, u, y * ratio), np.where(ok, v, x / ratio)
        u, v = positive(_IMAGE, u, v)
    return (float(u), float(v)) if u.ndim == 0 else (u, v)


def psi(p: MapParams, ab):
    """Conjugated involution ((1/b)(beta a + b)/(alpha a + b), (1/a)(...)).

    Equals I2^-1 o f_dk o I2 with I2(x, y) = (x, 1/y), pointwise.  An image
    that leaves the floating-point range raises DomainError.
    """
    a, b = positive(_COORDINATES, *ab)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        if p.beta == 0.0:
            w = p.alpha * a + b
            s, t = 1.0 / w, b / (a * w)
        elif p.alpha == 0.0:
            w = p.beta * a + b
            s, t = w / (b * b), w / (a * b)
        else:
            num, den = p.beta * a + b, p.alpha * a + b
            w = num / den
            ok = np.isfinite(num) & np.isfinite(den)
            if not np.all(ok):
                # beta a + b or alpha a + b overflowed; scaled by max(a, b)
                # both lie in (0, 1 + max(alpha, beta)], and their ratio is
                # the same
                top = np.maximum(a, b)
                w = np.where(ok, w, (p.beta * (a / top) + b / top)
                             / (p.alpha * (a / top) + b / top))
            s, t = w / b, w / a
    s, t = positive("the psi image leaves the floating-point range", s, t)
    return (float(s), float(t)) if s.ndim == 0 else (s, t)


def psi_identities(p: MapParams, ab):
    """Relative residuals of the three exchange identities of psi.

    With (s, t) = psi(a, b):  s/t = a/b,  t + alpha s = 1/a + beta/b,
    b + alpha a = 1/s + beta/t.  Returns the three residuals, each scaled
    by the magnitude of its right-hand side.
    """
    a, b = positive(_COORDINATES, *ab)
    s, t = psi(p, (a, b))
    r1 = (s / t - a / b) / (a / b)
    rhs2 = 1.0 / a + p.beta / b
    r2 = (t + p.alpha * s - rhs2) / rhs2
    rhs3 = b + p.alpha * a
    r3 = (1.0 / s + p.beta / t - rhs3) / rhs3
    if np.ndim(r1) == 0:
        return float(r1), float(r2), float(r3)
    return r1, r2, r3


def jacobian_det(p: MapParams, xy):
    """Signed determinant of the 2x2 Jacobian of f_dk by central differences.

    Step h = 1e-6 * max(1, |coordinate|) per coordinate.  The exact value
    is -1 on the whole domain.
    """
    x, y = positive(_COORDINATES, *xy)
    hx = 1e-6 * np.maximum(1.0, np.abs(x))
    hy = 1e-6 * np.maximum(1.0, np.abs(y))
    uxp, vxp = f_dk(p, (x + hx, y))
    uxm, vxm = f_dk(p, (x - hx, y))
    uyp, vyp = f_dk(p, (x, y + hy))
    uym, vym = f_dk(p, (x, y - hy))
    du_dx = (uxp - uxm) / (2.0 * hx)
    dv_dx = (vxp - vxm) / (2.0 * hx)
    du_dy = (uyp - uym) / (2.0 * hy)
    dv_dy = (vyp - vym) / (2.0 * hy)
    det = du_dx * dv_dy - du_dy * dv_dx
    return float(det) if np.ndim(det) == 0 else det


def check_battery(seed: int = 20260809, n: int = 10_000):
    """Identity/Jacobian residual rows for `map check`.

    Random points have coordinates log-uniform in [1e-3, 1e3].
    """
    from .rng import rng_stream

    rng = rng_stream(seed, 0)
    x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
    y = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
    rows = []
    for p in (MapParams(1.0, 2.0), MapParams(0.5, 3.0), MapParams(1.0, 0.0),
              MapParams(0.0, 2.0)):
        u, v = f_dk(p, (x, y))
        x2, y2 = f_dk(p, (u, v))
        inv = float(np.max(np.maximum(np.abs(x2 - x) / x, np.abs(y2 - y) / y)))
        rows.append((f"involution_fdk[a={p.alpha};b={p.beta}]", inv, 1e-12, inv <= 1e-12))
        prod = float(np.max(np.abs(u * v - x * y) / (x * y)))
        rows.append((f"product_conserved[a={p.alpha};b={p.beta}]", prod, 5e-15, prod <= 5e-15))
        s, t = psi(p, (x, y))
        s2, t2 = psi(p, (s, t))
        invp = float(np.max(np.maximum(np.abs(s2 - x) / x, np.abs(t2 - y) / y)))
        rows.append((f"involution_psi[a={p.alpha};b={p.beta}]", invp, 1e-12, invp <= 1e-12))
        su, sv = f_dk(p, (x, 1.0 / y))
        conj = float(np.max(np.maximum(np.abs(su - s) / s, np.abs(1.0 / sv - t) / t)))
        rows.append((f"psi_conjugation[a={p.alpha};b={p.beta}]", conj, 5e-15, conj <= 5e-15))
        ids = psi_identities(p, (x, y))
        mid = float(np.max(np.abs(np.concatenate([np.atleast_1d(r) for r in ids]))))
        rows.append((f"psi_identities[a={p.alpha};b={p.beta}]", mid, 1e-12, mid <= 1e-12))

    # Jacobian battery on a milder grid: FD differencing loses digits at
    # extreme coordinate ratios
    xj = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=n))
    yj = np.exp(rng.uniform(math.log(0.05), math.log(20.0), size=n))
    for p in (MapParams(1.0, 2.0), MapParams(0.5, 3.0)):
        det = jacobian_det(p, (xj, yj))
        dev = float(np.max(np.abs(det + 1.0)))
        rows.append((f"jacobian_signed[a={p.alpha};b={p.beta}]", dev, 1e-6, dev <= 1e-6))

    # beta -> 0 limit agrees with the closed beta = 0 branch; the deviation
    # is beta*x*y, so the comparison grid keeps x*y moderate
    pl = MapParams(1.0, 1e-12)
    p0 = MapParams(1.0, 0.0)
    ul, vl = f_dk(pl, (xj, yj))
    u0, v0 = f_dk(p0, (xj, yj))
    lim = float(np.max(np.maximum(np.abs(ul - u0) / u0, np.abs(vl - v0) / v0)))
    rows.append(("beta_zero_limit", lim, 1e-9, lim <= 1e-9))
    return rows
