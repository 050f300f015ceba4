"""Exact-arithmetic checks of the closed forms against the share-space FOC.

sympy differentiates the decoupled FOC M(z) = phi omega - p - u0 - beta z,
with the price p taken from the engine's own share-space formula at
omega = w/(1+Nw), o = 1/(1+Nw), w = e^z, and each slope or comparative
static is compared with its closed form as a polynomial identity in
(w, beta, phi, N), and also (u0, z) for dpi*/dN.  The families take the
sympy symbols directly.
"""

import numpy as np
import sympy as sp

from platform_eq._families import (a_coefficients, d_csk_coefficients, d_piu_coefficients,
                                   n_csk_coefficients, n_csu_coefficients, n_nx_coefficients,
                                   n_p_coefficients, n_pik_coefficients, n_piu_coefficients,
                                   n_pu_coefficients)
from platform_eq.equilibrium import _share_price

z, b, f, N, u = sp.symbols("z beta phi N u0")
w = sp.exp(z)


def _side(x):
    """One decoupled side, which mirrors itself, on the side axis."""
    return np.array([x], dtype=object)


# the share omega of one platform, and the outside share o
OM, O = w / (1 + N * w), 1 / (1 + N * w)


def _price(collusive: bool):
    """p(z) of one decoupled side from `_share_price` on sympy shares."""
    return _share_price(np.asarray(collusive), _side(OM), _side(O), _side(b), _side(f), _side(0),
                        N)[0]


def _decoupled_foc(collusive: bool):
    """M(z) of one decoupled side, its price from `_share_price` on sympy shares."""
    return f * OM - _price(collusive) - u - b * z


def _series(family, *extra):
    """sum_m c_m w^m over a family's coefficients, lowest power first."""
    return sum(c * w ** m for m, c in enumerate(family(b, f, N, *extra)))


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


# consumer surplus beta ln(N+1) - p* + phi omega, without the constants mu
# and beta gamma_EM, which no derivative sees
CS_STAR = b * sp.log(N + 1) - P_STAR + f * OM


def _d_du0(q):
    """dq/du0 on the competitive root, where dz/du0 = 1/M_z."""
    return sp.diff(q, z) / sp.diff(_decoupled_foc(False), z) + sp.diff(q, u)


def _d_dn(q):
    """dq/dN on the competitive root, where dz/dN = -M_N/M_z."""
    foc = _decoupled_foc(False)
    return -sp.diff(q, z) * sp.diff(foc, N) / sp.diff(foc, z) + sp.diff(q, N)


def test_price_u0_is_the_n_pu_family():
    # dp*/du0 + w sum n_pu_m w^m / sum a_m w^m = 0
    assert _is_zero(_d_du0(P_STAR) + w * _series(n_pu_coefficients) / _series(a_coefficients))


def test_profit_u0_is_the_n_piu_family():
    # pi* = p(z) omega, u0 eliminated through the FOC:
    # dpi*/du0 + w sum n_piu_m w^m / sum d_piu_m w^m = 0
    d_pi = _d_du0(_price(False) * OM)
    assert _is_zero(d_pi + w * _series(n_piu_coefficients) / _series(d_piu_coefficients))


def test_cs_u0_is_the_n_csu_family():
    # dCS*/du0 - w sum n_csu_m w^m / sum a_m w^m = 0
    assert _is_zero(_d_du0(CS_STAR) - w * _series(n_csu_coefficients) / _series(a_coefficients))


def test_price_n_is_the_n_p_family():
    # dp*/dN - w^2 sum n_p_m w^m / sum a_m w^m = 0
    assert _is_zero(_d_dn(P_STAR) - w ** 2 * _series(n_p_coefficients) / _series(a_coefficients))


def test_participation_n_is_the_n_nx_family():
    # d(N omega)/dN - w sum n_nx_m w^m / sum d_piu_m w^m = 0
    assert _is_zero(_d_dn(N * OM)
                    - w * _series(n_nx_coefficients) / _series(d_piu_coefficients))


def test_cs_n_is_the_n_csk_family():
    # dCS*/dN - sum n_csk_m w^m / sum d_csk_m w^m = 0
    assert _is_zero(_d_dn(CS_STAR) - _series(n_csk_coefficients) / _series(d_csk_coefficients))


def test_profit_n_is_the_n_pik_family():
    # pi* = p* omega: dpi*/dN - w^2 sum n_pik_m(u0, z) w^m / sum d_piu_m w^m = 0
    assert _is_zero(_d_dn(P_STAR * OM)
                    - w ** 2 * _series(n_pik_coefficients, u, z) / _series(d_piu_coefficients))
