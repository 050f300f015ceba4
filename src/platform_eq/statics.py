"""Comparative statics of the competitive equilibrium: closed forms at zero
cross-side externalities, the implicit function theorem for any market, and a
finite-difference oracle that tests both.

Every analytic derivative is a ratio of polynomial series in e^{z*} whose
coefficients are polynomials in (beta_k, phi_kk, N) -- and, for the profit/N
numerator, (u0_k, z*).  The analytic ops refuse to run when the cross-side
externalities are nonzero: those closed forms simply do not apply there, and
silently returning them would be a correctness trap.  `ift_derivatives` covers
that regime from one 2x2 solve at z*.  A derivative that cannot be formed
raises ArithmeticError; none returns NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _families as fam
from .equilibrium import (SymmetricEquilibrium, _outside, _share_price, consumer_surplus,
                          mk_slope, omega, solve_cne)
from .model import MarketParams, Side

QUANTITIES = ("price", "profit", "consumer_surplus", "participation", "z")
DERIVATIVE_WRT = ("u0", "n_platforms")

FD_STEP_U0 = 1e-5
FD_STEP_N = 1e-4

# Imaginary step of `ift_derivatives`: a complex step subtracts nothing, so
# any step far below rounding size gives the derivative to full precision.
COMPLEX_STEP = 1e-20


class AnalyticDomainError(ValueError):
    """Analytic comparative statics requested outside their validity domain."""


@dataclass(frozen=True)
class CoeffSeries:
    """One coefficient family evaluated for concrete parameters.

    `coefficients[i]` multiplies e^{(m_start+i) z}.  Evaluation factors the
    lowest power out and runs Horner on the rest, which keeps deep-negative z
    from flushing the whole series to 0/0 cancellation.
    """

    name: str
    m_start: int
    coefficients: tuple[float, ...]
    beta: float
    phi_kk: float
    n: float
    u0: float | None = None
    z: float | None = None

    def eval_at_z(self, z) -> float | np.ndarray:
        out = fam.eval_series(np.asarray(self.coefficients), self.m_start, z)
        return float(out) if np.ndim(out) == 0 else out


def build_coeffs(family: str, params: MarketParams, side: Side,
                 extras: dict | None = None, n: float | None = None) -> CoeffSeries:
    """Build the named coefficient family for one side's parameters.

    `extras` must supply {"u0": ..., "z": ...} for the profit/N numerator
    family ("n_pik"); every other family is determined by (beta, phi_kk, N).
    """
    if family not in fam.FAMILIES:
        raise ValueError(f"unknown coefficient family {family!r}")
    m_start, builder, needs_extras = fam.FAMILIES[family]
    n = float(params.n_platforms if n is None else n)
    beta = params.beta[side.index]
    phi_kk = params.phi_own(side)
    if needs_extras:
        if not extras or "u0" not in extras or "z" not in extras:
            raise ValueError(f"family {family!r} needs extras {{'u0', 'z'}}")
        u0, z = float(extras["u0"]), float(extras["z"])
        coeffs = builder(beta, phi_kk, n, u0, z)
        return CoeffSeries(family, m_start, tuple(coeffs), beta, phi_kk, n, u0=u0, z=z)
    coeffs = builder(beta, phi_kk, n)
    return CoeffSeries(family, m_start, tuple(coeffs), beta, phi_kk, n)


@dataclass(frozen=True)
class DerivativeBundle:
    """Analytic and finite-difference values of one sensitivity, side by side."""

    quantity: str
    wrt: str
    side: Side
    analytic: float | None
    finite_difference: float
    agreement: float

    @property
    def sign_match(self) -> bool:
        if self.analytic is None:
            return True
        return np.sign(self.analytic) == np.sign(self.finite_difference)


@dataclass(frozen=True)
class AsymptoticLimits:
    """Extreme-outside-option limits of the competitive price and per-side profit."""

    p_u: float
    p_e: float
    pi_u: float
    pi_e: float


def _require_decoupled(params: MarketParams):
    if not params.cross_externalities_zero:
        raise AnalyticDomainError(
            "analytic comparative statics require zero cross-side externalities; "
            "use ift_derivatives instead")


def _z_star(params: MarketParams, side: Side, z_star: float | None, n: float | None) -> float:
    if z_star is not None:
        return float(z_star)
    return solve_cne(params, tol=1e-12, n=n).z.side(side)


def _ratio(num: CoeffSeries, den: CoeffSeries, z: float, sign: float = 1.0) -> float:
    d = den.eval_at_z(z)
    scale = max(1.0, max(abs(c) for c in den.coefficients))
    if abs(d) < 1e-300 * scale:
        raise ArithmeticError(f"vanishing denominator in {den.name}")
    n = num.eval_at_z(z)
    out = sign * n / d
    if not all(map(math.isfinite, (n, d, out))):  # a series overflowed at this z
        raise ArithmeticError(f"non-finite {num.name}/{den.name} at z = {z:.17g}")
    return out


# --------------------------------------------------------------------------
# analytic derivatives w.r.t. the outside utility
# --------------------------------------------------------------------------

def dz_du0(params: MarketParams, side: Side, z_star: float | None = None,
           n: float | None = None) -> float:
    """dz*/du0 = 1 / (dM/dz at z*); strictly negative in the existence region."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    slope = mk_slope(z, params.beta[side.index], params.phi_own(side), n)
    if not np.isfinite(slope) or abs(slope) < 1e-14:
        raise ArithmeticError("singular FOC derivative")
    return 1.0 / slope


def dprice_du0(params: MarketParams, side: Side, z_star: float | None = None,
               n: float | None = None) -> float:
    """dp*/du0 = -n_pu(e^{z*}) / d_pu(e^{z*})."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_pu", params, side, n=n),
                  build_coeffs("d_pu", params, side, n=n), z, sign=-1.0)


def dprofit_du0(params: MarketParams, side: Side, z_star: float | None = None,
                n: float | None = None) -> float:
    """dpi*/du0 = -n_piu(e^{z*}) / d_piu(e^{z*})."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_piu", params, side, n=n),
                  build_coeffs("d_piu", params, side, n=n), z, sign=-1.0)


def dcs_du0(params: MarketParams, side: Side, z_star: float | None = None,
            n: float | None = None) -> float:
    """dCS*/du0 = +n_csu(e^{z*}) / d_csu(e^{z*}); no leading minus, unlike price and profit."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_csu", params, side, n=n),
                  build_coeffs("d_csu", params, side, n=n), z)


# --------------------------------------------------------------------------
# analytic derivatives w.r.t. the number of platforms
# --------------------------------------------------------------------------

def dprice_dn(params: MarketParams, side: Side, z_star: float | None = None,
              n: float | None = None) -> float:
    """dp*/dN = n_p(e^{z*}) / d(e^{z*}) at real-valued N."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_p", params, side, n=n),
                  build_coeffs("d", params, side, n=n), z)


def dparticipation_dn(params: MarketParams, side: Side, z_star: float | None = None,
                      n: float | None = None) -> float:
    """d(N x*)/dN = n_nx(e^{z*}) / d_nx(e^{z*})."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_nx", params, side, n=n),
                  build_coeffs("d_nx", params, side, n=n), z)


def dcs_dn(params: MarketParams, side: Side, z_star: float | None = None,
           n: float | None = None) -> float:
    """dCS*/dN = n_csk(e^{z*}) / d_csk(e^{z*})."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    return _ratio(build_coeffs("n_csk", params, side, n=n),
                  build_coeffs("d_csk", params, side, n=n), z)


def dprofit_dn(params: MarketParams, side: Side, z_star: float | None = None,
               n: float | None = None) -> float:
    """dpi*/dN = n_pik(e^{z*}) / d_pik(e^{z*}); the numerator consumes u0 and z*."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    z = _z_star(params, side, z_star, n)
    extras = {"u0": params.u0[side.index], "z": z}
    return _ratio(build_coeffs("n_pik", params, side, extras=extras, n=n),
                  build_coeffs("d_pik", params, side, n=n), z)


# --------------------------------------------------------------------------
# implicit-function derivatives for any market
# --------------------------------------------------------------------------

def ift_derivatives(eq: SymmetricEquilibrium) -> dict[tuple[str, str], tuple[float, float]]:
    """d q_k / d u0_k and d q_k / dN of every quantity in QUANTITIES, on both
    sides k of a solved equilibrium, keyed (quantity, wrt) with (buyer, seller)
    values.  The sweep uses it for competitive rows with nonzero cross-side
    externalities; it holds for any market and for either regime.

    The FOC F(z; u0, N) = Phi omega - p - u0 - beta z, with the regime's price
    p, vanishes at z*, so dz/du0 = -F_z^{-1} F_u0 = F_z^{-1} and
    dz/dN = -F_z^{-1} F_N.  Price, profit p omega, consumer surplus,
    participation N omega and z itself are explicit in (z, N):
    dq/dtheta = q_z dz/dtheta + q_N dN/dtheta.  The
    partials in z_b, z_s and N come from one complex step each through the
    same share-space price: the shares omega and o are perturbed along their
    exact tangents omega_z = omega o, o_z = -N omega o, omega_N = -omega^2 and
    o_N = -omega o, so no e^z is formed in complex arithmetic.  A singular F_z
    or a non-finite result raises ArithmeticError.
    """
    params, n = eq.params, eq.n
    z = eq.z.as_array()
    om, o = omega(z, n), _outside(z, n)
    h = COMPLEX_STEP

    def partials(dz, dn):
        zc, nc = z + 1j * h * dz, n + 1j * h * dn
        omc = om + 1j * h * om * (o * dz - om * dn)
        oc = o - 1j * h * om * o * (n * dz + dn)
        with np.errstate(invalid="ignore", over="ignore"):
            p = _share_price(eq.regime, omc, oc, params.beta_arr, params.phi_arr, nc)
            F = params.phi_arr @ omc - p - params.u0_arr - params.beta_arr * zc
            cs = consumer_surplus(params, p, omc, nc)
        return np.concatenate([F, p, p * omc, cs, nc * omc, zc]).imag / h

    eye = np.eye(2)
    # columns: the partials along z_b, z_s and N
    J = np.column_stack([partials(eye[0], 0.0), partials(eye[1], 0.0),
                         partials(0.0 * eye[0], 1.0)])
    Fz, FN = J[:2, :2], J[:2, 2]
    scale = abs(Fz[0, 0] * Fz[1, 1]) + abs(Fz[0, 1] * Fz[1, 0])
    if not np.isfinite(J).all() or abs(np.linalg.det(Fz)) <= 1e-14 * scale:
        raise ArithmeticError("singular or non-finite FOC Jacobian F_z at z*")
    # columns: (dz_b, dz_s, dN) along u0_b, u0_s and N
    dz = np.linalg.solve(Fz, np.column_stack([eye, -FN]))
    D = J[2:] @ np.vstack([dz, [0.0, 0.0, 1.0]])
    if not np.isfinite(D).all():
        raise ArithmeticError("non-finite implicit-function derivative")
    return {(q, wrt): (float(D[2 * i, col[0]]), float(D[2 * i + 1, col[1]]))
            for i, q in enumerate(QUANTITIES)
            for wrt, col in (("u0", (0, 1)), ("n_platforms", (2, 2)))}


# --------------------------------------------------------------------------
# finite-difference oracle and limits
# --------------------------------------------------------------------------

def _equilibrium_quantity(eq, quantity: str, side: Side) -> float:
    k = side.index
    if quantity == "price":
        return eq.prices[k]
    if quantity == "profit":
        return eq.profit_per_side[k]
    if quantity == "consumer_surplus":
        return eq.consumer_surplus[k]
    if quantity == "participation":
        return eq.participation[k]
    if quantity == "z":
        return eq.z.side(side)
    raise ValueError(f"unknown quantity {quantity!r}")


def fd_derivative(quantity: str, wrt: str, params: MarketParams, side: Side,
                  h: float | None = None, tol: float = 1e-12) -> float:
    """Central difference of a solved equilibrium quantity.

    Works for any parameters (including nonzero cross externalities, where the
    analytic forms are unavailable).  For wrt="n_platforms" the solver is
    evaluated at real N +- h.
    """
    if wrt == "u0":
        h = FD_STEP_U0 if h is None else h
        u0 = list(params.u0)
        u0_hi, u0_lo = list(u0), list(u0)
        u0_hi[side.index] += h
        u0_lo[side.index] -= h
        hi = solve_cne(params.replace(u0=tuple(u0_hi)), tol=tol)
        lo = solve_cne(params.replace(u0=tuple(u0_lo)), tol=tol)
    elif wrt == "n_platforms":
        h = FD_STEP_N if h is None else h
        n = float(params.n_platforms)
        hi = solve_cne(params, tol=tol, n=n + h)
        lo = solve_cne(params, tol=tol, n=n - h)
    else:
        raise ValueError(f"unknown differentiation variable {wrt!r}")
    q_hi = _equilibrium_quantity(hi, quantity, side)
    q_lo = _equilibrium_quantity(lo, quantity, side)
    return (q_hi - q_lo) / (2.0 * h)


_ANALYTIC_OPS = {
    ("price", "u0"): dprice_du0,
    ("profit", "u0"): dprofit_du0,
    ("consumer_surplus", "u0"): dcs_du0,
    ("z", "u0"): dz_du0,
    ("price", "n_platforms"): dprice_dn,
    ("participation", "n_platforms"): dparticipation_dn,
    ("consumer_surplus", "n_platforms"): dcs_dn,
    ("profit", "n_platforms"): dprofit_dn,
}


def derivative_bundle(quantity: str, wrt: str, params: MarketParams, side: Side,
                      h: float | None = None) -> DerivativeBundle:
    """Pair the analytic derivative (when defined) with its FD oracle value."""
    fd = fd_derivative(quantity, wrt, params, side, h=h)
    analytic = None
    op = _ANALYTIC_OPS.get((quantity, wrt))
    if op is not None and params.cross_externalities_zero:
        analytic = op(params, side)
    if analytic is None:
        agreement = float("nan")
    else:
        agreement = abs(analytic - fd) / max(1e-12, abs(analytic))
    return DerivativeBundle(quantity=quantity, wrt=wrt, side=side,
                           analytic=analytic, finite_difference=fd,
                           agreement=agreement)


def asymptotic_limits(params: MarketParams, side: Side, n: float | None = None) -> AsymptoticLimits:
    """Price/profit limits as the outside utility goes to -inf (p_u, pi_u) or +inf (p_e, 0)."""
    _require_decoupled(params)
    n = float(params.n_platforms if n is None else n)
    beta = params.beta[side.index]
    phi_kk = params.phi_own(side)
    return AsymptoticLimits(
        p_u=n * beta / (n - 1.0) - phi_kk / (n - 1.0),
        p_e=beta,
        pi_u=beta / (n - 1.0) - phi_kk / ((n - 1.0) * n),
        pi_e=0.0,
    )
