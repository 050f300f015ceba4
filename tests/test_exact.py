"""Exact-arithmetic checks of the closed forms against the share-space FOC.

sympy differentiates the decoupled FOC M(z) = phi omega - p - u0 - beta z,
with the price p taken from the engine's own share-space formula at
omega = w/(1+Nw), o = 1/(1+Nw), w = e^z, and each slope or comparative
static is compared with its closed form as a polynomial identity in
(w, beta, phi, N).
"""

import numpy as np
import sympy as sp

from platform_eq._families import a_coefficients, n_p_coefficients, n_pu_coefficients
from platform_eq.equilibrium import _share_price

z, b, f, N, u = sp.symbols("z beta phi N u0")
w = sp.exp(z)


def _side(x):
    """One decoupled side, which mirrors itself, on the side axis."""
    return np.array([x], dtype=object)


def _decoupled_foc(collusive: bool):
    """M(z) of one decoupled side, its price from `_share_price` on sympy shares."""
    om, o = w / (1 + N * w), 1 / (1 + N * w)
    p = _share_price(np.asarray(collusive), _side(om), _side(o), _side(b), _side(f), _side(0), N)
    return f * om - p[0] - u - b * z


def _series(family):
    """sum_m c_m w^m over a family's coefficients, lowest power first."""
    return sum(c * w ** m for m, c in enumerate(family.terms(b, f, N)))


def _is_zero(expr) -> bool:
    """expr, rational in e^z, vanishes identically (float constants made exact)."""
    x = sp.Symbol("w", positive=True)
    expr = sp.nsimplify(expr.subs(w, x), rational=True)
    return sp.expand(sp.numer(sp.together(expr))) == 0


def test_competitive_slope_is_the_a_family():
    # dM/dz (1+Nw)^2 (beta (1+(N-1)w)(1+Nw) - w phi)^2 = -sum_m a_m w^m
    slope = sp.diff(_decoupled_foc(False), z)
    den = (1 + N * w) ** 2 * (b * (1 + (N - 1) * w) * (1 + N * w) - w * f) ** 2
    assert _is_zero(slope * den + _series(a_coefficients))


def test_collusive_slope_is_the_pole_free_cubic():
    # dM^C/dz = -(beta (1+Nw)^3 - 2 phi w) / (1+Nw)^2
    slope = sp.diff(_decoupled_foc(True), z)
    assert _is_zero(slope + (b * (1 + N * w) ** 3 - 2 * f * w) / (1 + N * w) ** 2)


# on the root M = 0 the competitive price is p* = phi omega - u0 - beta z
P_STAR = f * w / (1 + N * w) - u - b * z


def test_price_u0_is_the_n_pu_family():
    # dz/du0 = 1/M_z: dp*/du0 + w sum n_pu_m w^m / sum a_m w^m = 0
    dp = sp.diff(P_STAR, z) / sp.diff(_decoupled_foc(False), z) + sp.diff(P_STAR, u)
    assert _is_zero(dp + w * _series(n_pu_coefficients) / _series(a_coefficients))


def test_price_n_is_the_n_p_family():
    # dz/dN = -M_N/M_z: dp*/dN - w^2 sum n_p_m w^m / sum a_m w^m = 0
    foc = _decoupled_foc(False)
    dp = -sp.diff(P_STAR, z) * sp.diff(foc, N) / sp.diff(foc, z) + sp.diff(P_STAR, N)
    assert _is_zero(dp - w ** 2 * _series(n_p_coefficients) / _series(a_coefficients))
