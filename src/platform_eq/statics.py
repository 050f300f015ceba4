"""Comparative statics of the competitive equilibrium: the paper's closed forms
at zero cross-side externalities, the implicit function theorem for any market,
and a finite-difference oracle that tests both.

The closed forms are one table, `CLOSED_FORMS`: each (quantity, wrt) names a
numerator family, a denominator family and a sign.  Every family is a
polynomial series in e^{z*} whose coefficients are polynomials in
(beta_k, phi_kk, N) -- and, for the profit/N numerator, (u0_k, z*).  One
evaluator, `closed_form_columns`, runs every entry over the market sides of
many markets at once, one series evaluation per column.  It builds each
family once per distinct market side (beta_k, phi_kk) at each N, and the
profit/N numerator once per distinct (beta_k, phi_kk, u0_k, z*), so a u0
sweep pays for its sides, not its rows.  `closed_form` is its one-cell case
and `dprice_du0`, ..., `dprofit_dn` are that with its key bound.  It
refuses to run when the cross-side externalities are nonzero: those closed
forms simply do not apply there, and silently returning them would be a
correctness trap.
`ift_columns` covers that regime from one 2x2 solve at z* per market, over
many markets at once; `ift_derivatives` is its one-market case.  A
derivative that cannot be formed is an ArithmeticError, raised by the
one-cell forms and kept per cell by the column forms; none returns NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _families as fam
from .equilibrium import (SLOPE_Z_CAP, SymmetricEquilibrium, _Columns, _complex_partials,
                          _slope_denominator, solve_cne)
from .model import MarketParams, Side

QUANTITIES = ("price", "profit", "consumer_surplus", "participation", "z")
DERIVATIVE_WRT = ("u0", "n_platforms")

# Central-difference step of `fd_derivative`, in u0 and in N alike: its solves
# put noise of order NEWTON_TOL/h into a difference, so a smaller step loses
# more to that noise than it gains in truncation error.
FD_STEP = 1e-4


class AnalyticDomainError(ValueError):
    """Analytic comparative statics requested outside their validity domain."""


@dataclass(frozen=True)
class DerivativeBundle:
    """Analytic and finite-difference values of one sensitivity, side by side."""

    quantity: str
    wrt: str
    side: Side
    analytic: float | None
    finite_difference: float
    agreement: float


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


# --------------------------------------------------------------------------
# the paper's closed forms at zero cross-side externalities
# --------------------------------------------------------------------------

# (quantity, wrt) -> (numerator family, denominator family, sign): the
# derivative is sign * num(e^{z*}) / den(e^{z*}) with both families named in
# `_families.FAMILIES`.  dz*/du0 has no series of its own: `closed_form`
# returns 1 / mk_slope for it.
DZ_DU0 = ("z", "u0")
CLOSED_FORMS = {
    ("price", "u0"): ("n_pu", "a", -1.0),
    ("profit", "u0"): ("n_piu", "d_piu", -1.0),
    ("consumer_surplus", "u0"): ("n_csu", "a", 1.0),
    ("price", "n_platforms"): ("n_p", "a", 1.0),
    ("participation", "n_platforms"): ("n_nx", "d_piu", 1.0),
    ("consumer_surplus", "n_platforms"): ("n_csk", "d_csk", 1.0),
    ("profit", "n_platforms"): ("n_pik", "d_piu", 1.0),
}


class _Cells:
    """Cells (one market side each) at one N, columns of floats: each family's
    coefficients are built once per distinct side, the exact bits of its
    (beta, phi_kk) -- of (beta, phi_kk, u0, z*) for "n_pik" -- as on one
    cell, and every cell of that side gets that row, or its OverflowError;
    each series is evaluated once over the column of z*.  Nothing outlives
    the call that made the cells."""

    def __init__(self, n: float, beta, phi_kk, u0, z):
        self.n, self.beta, self.phi_kk, self.u0, self.z = n, beta, phi_kk, u0, z
        self.z_col = np.array(z, dtype=float)
        self._families: dict[str, tuple] = {}

    def family(self, name: str):
        """(coefficients, series at z*, max(1, max |c|), {cell: OverflowError})."""
        if name not in self._families:
            m0, family = fam.FAMILIES[name]
            cols = (self.beta, self.phi_kk, *((self.u0, self.z) if name == "n_pik" else ()))
            # the row of each distinct exact bits of a cell's arguments (-0.0
            # is not 0.0); its build takes those bits read back as floats
            where: dict[tuple, int] = {}
            index = [where.setdefault(key, len(where))
                     for key in map(tuple, np.array(cols).T.view(np.int64).tolist())]
            rows, failed = [], {}
            for j, args in enumerate(np.array(list(where)).view(float).tolist()):
                try:
                    rows.append(family(args[0], args[1], self.n, *args[2:]))
                except OverflowError as exc:  # a float power out of range
                    rows.append(None)
                    failed[j] = exc
            width = next((len(r) for r in rows if r is not None), 1)
            coeffs = np.array([[math.nan] * width if r is None else r for r in rows])[index]
            errors = {i: failed[j] for i, j in enumerate(index) if j in failed}
            self._families[name] = (coeffs, fam.eval_series(coeffs.T, m0, self.z_col),
                                    np.fmax(1.0, np.abs(coeffs).max(axis=-1)), errors)
        return self._families[name]


def _evaluate(key: tuple[str, str], cells: _Cells) -> tuple[np.ndarray, dict[int, Exception]]:
    """One closed form over the cells: (values, {cell: the exception it raises}).

    The checks run per cell and in order: the denominator's build, a
    vanishing denominator, the numerator's build, a non-finite value (a
    series overflowed at z*).
    """
    if key == DZ_DU0:  # 1 / mk_slope, its two squares per cell
        coeffs, _, _, errors = cells.family("a")
        z = np.minimum(cells.z_col, SLOPE_Z_CAP)
        num = fam.eval_series(coeffs.T, 0, z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            den = np.array([_slope_denominator(ez, b, f, cells.n)
                            for ez, b, f in zip(np.exp(z), cells.beta, cells.phi_kk)])
            slope = -num / den
            out = 1.0 / slope
        errors = dict(errors)
        for i in np.flatnonzero(~np.isfinite(slope) | (np.abs(slope) < 1e-14)).tolist():
            errors.setdefault(i, ArithmeticError("singular FOC derivative"))
        return out, errors
    num_name, den_name, sign = CLOSED_FORMS[key]
    _, den, scale, den_errors = cells.family(den_name)
    _, num, _, num_errors = cells.family(num_name)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = sign * num / den
    vanishing = np.abs(den) < 1e-300 * scale
    failed = vanishing | ~(np.isfinite(num) & np.isfinite(den) & np.isfinite(out))
    errors = {}
    for i in sorted({*den_errors, *num_errors, *np.flatnonzero(failed).tolist()}):
        if i in den_errors:
            errors[i] = den_errors[i]
        elif vanishing[i]:
            errors[i] = ArithmeticError(f"vanishing denominator in {den_name}")
        elif i in num_errors:
            errors[i] = num_errors[i]
        else:
            errors[i] = ArithmeticError(
                f"non-finite {num_name}/{den_name} at z = {cells.z[i]:.17g}")
    return out, errors


def closed_form(quantity: str, wrt: str, params: MarketParams, side: Side,
                z_star: float | None = None) -> float:
    """d quantity* / d wrt on one side, from the paper's closed form at z*.

    z* is solved unless given, at the market's own platform count (only a
    stage-1 solve takes a real-valued N, which `fd_derivative` uses to check
    the d/dN forms).  Only the profit/N numerator "n_pik" takes (u0, z*)
    besides (beta, phi_kk, N).  A vanishing denominator or a series that
    overflows at z* raises ArithmeticError.  It is the one-cell case of
    :func:`closed_form_columns`.
    """
    key = (quantity, wrt)
    if key != DZ_DU0 and key not in CLOSED_FORMS:
        raise ValueError(f"no closed form for d{quantity}/d{wrt}")
    _require_decoupled(params)
    if z_star is None:
        z_star = solve_cne(params).z.side(side)
    k = side.index
    values, errors = _evaluate(key, _Cells(float(params.n_platforms), [params.beta[k]],
                                           [params.phi[k][k]], [params.u0[k]], [float(z_star)]))
    if errors:
        raise errors[0]
    return float(values[0])


def closed_form_columns(markets, z_star) -> dict[tuple[str, str], tuple[np.ndarray, dict]]:
    """Every closed form of the table and dz*/du0, on both sides of many
    zero-cross markets at their solved z* (one (z_b, z_s) pair per market).

    Returns (quantity, wrt) -> (values, errors): values of shape
    (markets, 2), and errors mapping (market, side index) to the exception
    :func:`closed_form` raises at that cell, whose value is then not a
    result.  The markets are grouped by N, so that N stays one float in
    every coefficient, and each cell has the bits it has evaluated alone.
    """
    keys = (DZ_DU0, *CLOSED_FORMS)
    out = {key: (np.empty((len(markets), 2)), {}) for key in keys}
    z_star = [tuple(map(float, z)) for z in z_star]
    groups: dict[float, list[int]] = {}
    for i, params in enumerate(markets):
        _require_decoupled(params)
        groups.setdefault(float(params.n_platforms), []).append(i)
    for n, rows in groups.items():
        cells = [(i, k) for i in rows for k in (0, 1)]
        group = _Cells(n, [markets[i].beta[k] for i, k in cells],
                       [markets[i].phi[k][k] for i, k in cells],
                       [markets[i].u0[k] for i, k in cells],
                       [z_star[i][k] for i, k in cells])
        for key in keys:
            values, errors = _evaluate(key, group)
            out[key][0][rows] = values.reshape(-1, 2)
            out[key][1].update((cells[c], exc) for c, exc in errors.items())
    return out


# Each op takes (params, side, z_star=None).
_ANALYTIC_OPS = {key: partial(closed_form, *key) for key in (DZ_DU0, *CLOSED_FORMS)}
dprice_du0 = _ANALYTIC_OPS["price", "u0"]
dprofit_du0 = _ANALYTIC_OPS["profit", "u0"]
dcs_du0 = _ANALYTIC_OPS["consumer_surplus", "u0"]
dz_du0 = _ANALYTIC_OPS[DZ_DU0]
dprice_dn = _ANALYTIC_OPS["price", "n_platforms"]
dparticipation_dn = _ANALYTIC_OPS["participation", "n_platforms"]
dcs_dn = _ANALYTIC_OPS["consumer_surplus", "n_platforms"]
dprofit_dn = _ANALYTIC_OPS["profit", "n_platforms"]


# --------------------------------------------------------------------------
# implicit-function derivatives for any market
# --------------------------------------------------------------------------

def ift_columns(eqs: list) -> dict[tuple[str, str], tuple[np.ndarray, dict]]:
    """d q_k / d u0_k and d q_k / dN of every quantity in QUANTITIES on both
    sides k of many solved equilibria, in the layout of `closed_form_columns`:
    (quantity, wrt) -> (values of shape (len(eqs), 2), errors keyed (row,
    side index)).  The sweep uses it for competitive rows with nonzero
    cross-side externalities; it holds for any market and either regime.

    The FOC F(z; u0, N) = Phi omega - p - u0 - beta z, with the regime's price
    p, vanishes at z*, so dz/du0 = -F_z^{-1} F_u0 = F_z^{-1} and
    dz/dN = -F_z^{-1} F_N.  Price, profit p omega, consumer surplus,
    participation N omega and z itself are explicit in (z, N):
    dq/dtheta = q_z dz/dtheta + q_N dN/dtheta.  The partials in z_b, z_s and
    N are one complex-step call per N group, each row in its own regime,
    through the price the coupled Newton takes its Jacobian from; one stacked
    determinant, solve and product then serve every row.  A row with a
    singular F_z or a non-finite result has its ArithmeticError on both sides
    of every key.
    """
    d = np.full((len(eqs), 10, 3), np.nan)
    errors: dict[int, ArithmeticError] = {}
    groups: dict[float, list[int]] = {}
    for i, eq in enumerate(eqs):
        groups.setdefault(eq.n, []).append(i)
    for n, rows in groups.items():
        z = np.array([[eqs[i].z.z_b for i in rows], [eqs[i].z.z_s for i in rows]])
        c = _Columns.of([eqs[i].params for i in rows], [eqs[i].regime == "ce" for i in rows])
        # per row, columns the partials along z_b, z_s and N
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            J = np.ascontiguousarray(_complex_partials(c, z, n, np.eye(2, 3),
                                                       np.array([0.0, 0.0, 1.0])).transpose(1, 0, 2))
        ok = np.isfinite(J).all(axis=(1, 2))
        Fz = J[ok, :2, :2]
        scale = np.abs(Fz[:, 0, 0] * Fz[:, 1, 1]) + np.abs(Fz[:, 0, 1] * Fz[:, 1, 0])
        ok[ok] = ~(np.abs(np.linalg.det(Fz)) <= 1e-14 * scale)  # NaN passes
        for i in np.flatnonzero(~ok):
            errors[rows[i]] = ArithmeticError("singular or non-finite FOC Jacobian F_z at z*")
        # rows (dz_b, dz_s, dN), columns along u0_b, u0_s and N
        v = np.tile(np.eye(3), (ok.sum(), 1, 1))
        v[:, :2, 2] = -J[ok, :2, 2]
        v[:, :2] = np.linalg.solve(J[ok, :2, :2], v[:, :2])
        good = np.asarray(rows)[ok]
        d[good] = np.matmul(J[ok, 2:], v)
        for i in good[~np.isfinite(d[good]).all(axis=(1, 2))]:
            errors[i] = ArithmeticError("non-finite implicit-function derivative")
    side_errors = {(i, k): exc for i, exc in errors.items() for k in (0, 1)}
    return {(q, wrt): (np.stack([d[:, 2 * j, col[0]], d[:, 2 * j + 1, col[1]]], axis=1),
                       side_errors)
            for j, q in enumerate(QUANTITIES)
            for wrt, col in (("u0", (0, 1)), ("n_platforms", (2, 2)))}


def ift_derivatives(eq: SymmetricEquilibrium) -> dict[tuple[str, str], tuple[float, float]]:
    """`ift_columns` of one solved equilibrium: (quantity, wrt) -> (buyer,
    seller) values; a singular F_z or a non-finite result raises
    ArithmeticError."""
    table = ift_columns([eq])
    if table["z", "u0"][1]:
        raise table["z", "u0"][1][0, 0]
    return {key: tuple(values[0].tolist()) for key, (values, _errors) in table.items()}


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
                  h: float | None = None) -> float:
    """Central difference of a solved equilibrium quantity.

    Works for any parameters (including nonzero cross externalities, where the
    analytic forms are unavailable).  For wrt="n_platforms" the solver is
    evaluated at real N +- h.  The step h must be positive and finite.
    """
    h = FD_STEP if h is None else h
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if wrt == "u0":
        u0 = list(params.u0)
        u0_hi, u0_lo = list(u0), list(u0)
        u0_hi[side.index] += h
        u0_lo[side.index] -= h
        hi = solve_cne(params.replace(u0=tuple(u0_hi)))
        lo = solve_cne(params.replace(u0=tuple(u0_lo)))
    elif wrt == "n_platforms":
        n = float(params.n_platforms)
        hi = solve_cne(params, n=n + h)
        lo = solve_cne(params, n=n - h)
    else:
        raise ValueError(f"unknown differentiation variable {wrt!r}")
    q_hi = _equilibrium_quantity(hi, quantity, side)
    q_lo = _equilibrium_quantity(lo, quantity, side)
    return (q_hi - q_lo) / (2.0 * h)


def derivative_bundle(quantity: str, wrt: str, params: MarketParams,
                      side: Side) -> DerivativeBundle:
    """Pair the analytic derivative (when defined) with its FD oracle value."""
    fd = fd_derivative(quantity, wrt, params, side)
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


def asymptotic_limits(params: MarketParams, side: Side) -> AsymptoticLimits:
    """Price/profit limits as the outside utility goes to -inf (p_u, pi_u) or +inf (p_e, 0)."""
    _require_decoupled(params)
    n = float(params.n_platforms)
    beta = params.beta[side.index]
    phi_kk = params.phi_own(side)
    return AsymptoticLimits(
        p_u=n * beta / (n - 1.0) - phi_kk / (n - 1.0),
        p_e=beta,
        pi_u=beta / (n - 1.0) - phi_kk / ((n - 1.0) * n),
        pi_e=0.0,
    )
