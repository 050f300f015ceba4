"""Threshold functions and sign/direction classifiers over (phi_kk, beta_k) space.

Each classifier applies one proposition's hypotheses literally: it returns a
definite verdict only inside the stated sufficient region and Indeterminate in
the gaps the analysis leaves open.  Cubic-root thresholds are built from the
actual (N, phi_kk) pair and resolved through the shared cubic solver with a
table-driven branch choice (largest vs unique real root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _families as fam
from .equilibrium import mk_slope, omega, solve_decoupled_batch
from .model import (Cubic, MarketParams, Side, ce_existence_bound,
                    check_ce_existence, check_cne_existence,
                    cne_existence_bound, solve_cubic_real)

BOUNDARY_TOL = 1e-9
CS_DN_Z_CAP = math.log(2.0) / 5.0


class ThresholdKind(Enum):
    """Every named threshold curve, keyed by what it separates."""

    F_EXISTENCE = "f_existence"      # unique-CNE lower bound multiplier, N only
    CE_EXISTENCE = "ce_existence"    # unique-CE lower bound multiplier, N only
    GAMMA = "gamma"                  # z* sign boundary, needs (N, phi, u0)
    GAMMA_C = "gamma_c"              # collusive z sign boundary, needs (N, phi, u0)
    U_TILDE = "u_tilde"              # critical outside utility, competitive, (N, phi)
    U_TILDE_C = "u_tilde_c"          # critical outside utility, collusive, (N, phi)
    G_P_U = "g_p_u"                  # dp/du0 < 0 multiplier, N only
    F_P_U = "f_p_u"                  # dp/du0 > 0 upper multiplier, N only
    G_PI_U = "g_pi_u"                # dprofit/du0 < 0 multiplier, N only
    F_CS_U = "f_cs_u"                # dCS/du0 < 0 upper bound, cubic in (N, phi)
    G_P = "g_p"                      # dp/dN < 0 bound for phi<=0, cubic in (N, phi)
    F_P = "f_p"                      # dp/dN > 0 upper bound, cubic in (N, phi)
    G_X = "g_x"                      # participation-increase multiplier, N only
    G_CS = "g_cs"                    # dCS/dN > 0 multiplier, N only
    F_CS = "f_cs"                    # dCS/dN < 0 upper bound, cubic in (N, phi)
    G_PI = "g_pi"                    # dprofit/dN > 0 bound, cubic in (N, phi)
    H_PI = "h_pi"                    # dprofit/dN piecewise split multiplier, N only
    F_PI = "f_pi"                    # dprofit/dN piecewise split, cubic in (N, phi)
    TWO_PHI = "two_phi"              # dCS/du0 > 0 multiplier 2
    PHI = "phi"                      # dp/dN < 0 multiplier 1 for phi > 0


class Verdict(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INCREASING = "increasing"
    DECREASING = "decreasing"
    INDETERMINATE = "indeterminate"
    BOUNDARY = "boundary"


@dataclass(frozen=True)
class RegionLabel:
    """Classifier output: verdict plus the governing threshold values."""

    verdict: Verdict
    thresholds_used: tuple[tuple[ThresholdKind, float], ...] = ()
    margin: float = float("inf")
    reason: str = ""

    @property
    def sign(self) -> int:
        if self.verdict in (Verdict.POSITIVE, Verdict.INCREASING):
            return 1
        if self.verdict in (Verdict.NEGATIVE, Verdict.DECREASING):
            return -1
        return 0


# --------------------------------------------------------------------------
# threshold evaluation
# --------------------------------------------------------------------------

def _gp_cubic(n: float, phi: float) -> Cubic:
    return Cubic(4.0 * n**3,
                 phi * n**2 * (1.0 - 4.0 * n),
                 phi**2 * n * (2.0 * n - 3.0),
                 phi**3)


def _fp_cubic(n: float, phi: float) -> Cubic:
    return Cubic(-6.0 * n**2,
                 2.0 * phi * n * (3.0 * n - 1.0),
                 phi**2 * (3.0 - 4.0 * n),
                 phi**3)


def _fcsu_cubic(n: float, phi: float) -> Cubic:
    return Cubic(6.0 * n**2,
                 (-12.0 * n**2 + 5.0 * n - 1.0) * phi,
                 (8.0 * n - 3.0) * phi**2,
                 -2.0 * phi**3)


def _fpi_cubic(n: float, phi: float) -> Cubic:
    return Cubic(4.0 * n**3,
                 (2.0 - 5.0 * n) * n * phi,
                 -2.0 * n * phi**2,
                 2.0 * phi**3)


def _gpi_cubic(n: float, phi: float) -> Cubic:
    return Cubic(n**3 * (n**2 - 1.0),
                 n * (-7.0 * n**3 + 10.0 * n**2 - 5.0 * n + 1.0) * phi,
                 n * (6.0 * n**2 - 7.0 * n + 3.0) * phi**2,
                 -(2.0 * n**2 - 2.0 * n + 1.0) * phi**3)


def _fcs_cubic(n: float, phi: float) -> Cubic:
    y = fam.y_beta_coefficients(phi, n)
    return Cubic(float(y[3]), float(y[2]), float(y[1]), float(y[0]))


# kind -> (cubic builder, designated root)
_CUBIC_KINDS = {
    ThresholdKind.G_P: (_gp_cubic, "largest"),
    ThresholdKind.F_P: (_fp_cubic, "unique"),
    ThresholdKind.F_CS_U: (_fcsu_cubic, "unique"),
    ThresholdKind.F_PI: (_fpi_cubic, "largest"),
    ThresholdKind.G_PI: (_gpi_cubic, "unique"),
    ThresholdKind.F_CS: (_fcs_cubic, "largest"),
}

_NEEDS_PHI = {ThresholdKind.GAMMA, ThresholdKind.GAMMA_C, ThresholdKind.U_TILDE,
              ThresholdKind.U_TILDE_C} | set(_CUBIC_KINDS)
_NEEDS_U0 = {ThresholdKind.GAMMA, ThresholdKind.GAMMA_C}


def eval_threshold(kind: ThresholdKind, n: float, phi_kk: float | None = None,
                   u0: float | None = None) -> float:
    """Evaluate one threshold.

    N-only kinds return the multiplier of phi_kk (or the plain bound); cubic
    kinds return the designated real root of their polynomial in beta built
    with the actual phi_kk, i.e. a value directly comparable to beta_k.
    """
    n = float(n)
    if n < 2:
        raise ValueError("thresholds are defined for N >= 2")
    if kind in _NEEDS_PHI and phi_kk is None:
        raise ValueError(f"{kind.value} requires phi_kk")
    if kind in _NEEDS_U0 and u0 is None:
        raise ValueError(f"{kind.value} requires u0")

    if kind is ThresholdKind.F_EXISTENCE:
        return cne_existence_bound(n)
    if kind is ThresholdKind.CE_EXISTENCE:
        return ce_existence_bound(n)
    if kind is ThresholdKind.GAMMA:
        a = 2.0 * phi_kk - n * u0
        rad = a * a + 4.0 * phi_kk * (u0 - 2.0 * phi_kk / (n + 1.0))
        return (a + math.sqrt(max(rad, 0.0))) / (2.0 * (n + 1.0))
    if kind is ThresholdKind.GAMMA_C:
        return (2.0 * phi_kk - u0 * (n + 1.0)) / (n + 1.0) ** 2
    if kind is ThresholdKind.U_TILDE:
        if phi_kk <= 0:
            return 2.0 * phi_kk / (n + 1.0)
        return -2.0 * (n**4 - 2.0 * n**3 - 2.0 * n**2 + 2.0 * n + 2.0) * phi_kk \
            / (n**3 * (2.0 * n**3 + n**2 - 3.0 * n - 2.0))
    if kind is ThresholdKind.U_TILDE_C:
        if phi_kk <= 0:
            return 2.0 * phi_kk / (n + 1.0)
        return -2.0 * (n * (4.0 * n - 19.0) + 4.0) * phi_kk / (27.0 * n * (n + 1.0))
    if kind is ThresholdKind.G_P_U:
        return (n + math.sqrt((n - 1.0) * (n + 3.0)) + 1.0) / (2.0 * n)
    if kind is ThresholdKind.F_P_U:
        return 0.5 * (math.sqrt((n - 2.0) / n) + 1.0)
    if kind is ThresholdKind.G_PI_U:
        return math.sqrt((n - 1.0) / n**3) + 1.0 / n
    if kind is ThresholdKind.G_X:
        return (2.0 * n**2 - 2.0 * n + 1.0) / (n * (n**2 - n + 1.0))
    if kind is ThresholdKind.G_CS:
        return (2.0 * n**3 - n + 1.0) / (n**2 * (n**2 - n + 2.0))
    if kind is ThresholdKind.H_PI:
        return (2.0 * n - 1.0) / n**2
    if kind is ThresholdKind.TWO_PHI:
        return 2.0
    if kind is ThresholdKind.PHI:
        return 1.0

    if kind is ThresholdKind.F_P and n < 4:
        if n < 3:
            raise ValueError("f_p is defined for N >= 3")
        return 2.0 * phi_kk / 3.0
    builder, which = _CUBIC_KINDS[kind]
    if phi_kk == 0.0:
        return 0.0
    cubic = builder(n, phi_kk)
    roots = solve_cubic_real(cubic)
    if not roots:
        raise ValueError(f"threshold undefined here: {kind.value} cubic has no real root")
    if which == "unique":
        if len(roots) == 1:
            return roots[0]
        if len(roots) == 2:
            # numerically on the degenerate surface: the designated root is the
            # simple one, where the derivative does not vanish
            return max(roots, key=lambda r: abs(cubic.derivative(r)))
        raise ValueError(f"threshold undefined here: {kind.value} expects a unique real root")
    return roots[-1]


# --------------------------------------------------------------------------
# classifiers
# --------------------------------------------------------------------------

def _finish(verdict: Verdict, used: list[tuple[ThresholdKind, float]],
            margin: float, boundary_tol: float, reason: str = "") -> RegionLabel:
    if margin < boundary_tol:
        verdict = Verdict.BOUNDARY
    return RegionLabel(verdict=verdict, thresholds_used=tuple(used),
                       margin=margin, reason=reason)


def classify_existence(regime: str, params: MarketParams, side: Side,
                       boundary_tol: float = BOUNDARY_TOL) -> RegionLabel:
    """Positive iff the regime's uniqueness condition holds on this side."""
    n = float(params.n_platforms)
    beta = params.beta[side.index]
    phi_kk = params.phi_own(side)
    kind = ThresholdKind.F_EXISTENCE if regime == "cne" else ThresholdKind.CE_EXISTENCE
    mult = eval_threshold(kind, n)
    if phi_kk <= 0:
        return RegionLabel(Verdict.POSITIVE, ((kind, 0.0),), margin=float("inf"))
    bound = mult * phi_kk
    margin = abs(beta - bound)
    verdict = Verdict.POSITIVE if beta > bound else Verdict.NEGATIVE
    return _finish(verdict, [(kind, bound)], margin, boundary_tol)


def classify_sign_z(regime: str, params: MarketParams, side: Side,
                    boundary_tol: float = BOUNDARY_TOL) -> RegionLabel:
    """Sign of the equilibrium normalized net utility on this side.

    Negative when beta exceeds the regime's indifference curve gamma (resp.
    gamma_c), Positive below it; requires the regime's existence condition.
    """
    n = float(params.n_platforms)
    beta = params.beta[side.index]
    phi_kk = params.phi_own(side)
    u0 = params.u0[side.index]
    exists = check_cne_existence(params) if regime == "cne" else check_ce_existence(params)
    if not exists[side.index]:
        return RegionLabel(Verdict.INDETERMINATE, reason="existence condition fails")
    kind = ThresholdKind.GAMMA if regime == "cne" else ThresholdKind.GAMMA_C
    gamma = eval_threshold(kind, n, phi_kk, u0)
    margin = abs(beta - gamma)
    verdict = Verdict.NEGATIVE if beta > gamma else Verdict.POSITIVE
    return _finish(verdict, [(kind, gamma)], margin, boundary_tol)


def _pi_z_threshold_low(n: float, phi: float, u0: float, beta: float) -> tuple[float, list]:
    """g_pi_z: the z* cap below which more competition lowers this side's profit."""
    used: list[tuple[ThresholdKind, float]] = []
    if phi < 0:
        f_pi = eval_threshold(ThresholdKind.F_PI, n, phi)
        used.append((ThresholdKind.F_PI, f_pi))
        if beta < f_pi:
            num = (phi**2 * (-n * u0 + 2.0 * phi)
                   + n * phi * (2.0 * n**2 * u0 - n * u0 - 2.0 * phi) * beta
                   + n * (-5.0 * n**3 * u0 + 8.0 * n**2 * u0 - 3.0 * n * u0
                          - 5.0 * n * phi + 2.0 * phi) * beta**2
                   + 4.0 * n**3 * beta**3)
            den = (beta**2 * (n**2 - 2.0 * n**3) * phi
                   + beta**3 * (5.0 * n**4 - 8.0 * n**3 + 3.0 * n**2)
                   + beta * n * phi**2)
            return num / den, used
        return -u0 / beta, used
    if phi > 0:
        h_pi = eval_threshold(ThresholdKind.H_PI, n) * phi
        used.append((ThresholdKind.H_PI, h_pi))
        if beta <= h_pi:
            num = (-n**3 * u0 + beta * n**2 + 2.0 * n**2 * u0 - n * u0
                   - 2.0 * n * phi + phi)
            return num / (beta * (n**3 - 2.0 * n**2 + n)), used
        return -u0 / beta, used
    return -u0 / beta, used


def _pi_z_threshold_high(n: float, phi: float, u0: float, beta: float) -> float:
    """f_pi_z: the z* floor above which more competition raises this side's profit."""
    num = -n**3 * u0 + beta * n**2 + 2.0 * n**2 * u0 - n * u0 - 2.0 * n * phi + phi
    return num / (beta * (n**3 - 2.0 * n**2 + n))


def classify_direction(quantity: str, wrt: str, params: MarketParams, side: Side,
                       z_star: float | None = None,
                       boundary_tol: float = BOUNDARY_TOL) -> RegionLabel:
    """Sign of d(quantity)/d(wrt) on this side, by the stated sufficient regions.

    quantity in {"price", "participation", "consumer_surplus", "profit"},
    wrt in {"u0", "n_platforms"}.  The profit/N and consumer-surplus/N decrease
    regions condition on the solved z*, which must then be supplied.
    """
    n = float(params.n_platforms)
    beta = params.beta[side.index]
    phi = params.phi_own(side)
    u0 = params.u0[side.index]

    if wrt == "u0":
        if quantity == "price":
            return _classify_price_u0(n, beta, phi, boundary_tol)
        if quantity == "profit":
            return _classify_profit_u0(n, beta, phi, boundary_tol)
        if quantity == "consumer_surplus":
            return _classify_cs_u0(n, beta, phi, boundary_tol)
        raise ValueError(f"no direction classifier for {quantity!r} w.r.t. u0")
    if wrt != "n_platforms":
        raise ValueError(f"unknown differentiation variable {wrt!r}")
    if quantity == "price":
        return _classify_price_n(n, beta, phi, boundary_tol)
    if quantity == "participation":
        return _classify_participation_n(n, beta, phi, boundary_tol)
    if quantity == "consumer_surplus":
        return _classify_cs_n(n, beta, phi, u0, z_star, boundary_tol)
    if quantity == "profit":
        return _classify_profit_n(params, side, n, beta, phi, u0, z_star, boundary_tol)
    raise ValueError(f"no direction classifier for {quantity!r} w.r.t. n_platforms")


def _classify_price_u0(n, beta, phi, tol) -> RegionLabel:
    if phi <= 0:
        return RegionLabel(Verdict.DECREASING, ((ThresholdKind.G_P_U, 0.0),))
    g = eval_threshold(ThresholdKind.G_P_U, n) * phi
    used = [(ThresholdKind.G_P_U, g)]
    if beta > g:
        return _finish(Verdict.DECREASING, used, beta - g, tol)
    lo = cne_existence_bound(n) * phi
    used.append((ThresholdKind.F_EXISTENCE, lo))
    if n >= 3:
        hi = eval_threshold(ThresholdKind.F_P_U, n) * phi
        used.append((ThresholdKind.F_P_U, hi))
        if lo < beta < hi:
            return _finish(Verdict.INCREASING, used, min(beta - lo, hi - beta), tol)
    margin = min(abs(beta - v) for _, v in used)
    return _finish(Verdict.INDETERMINATE, used, margin, tol)


def _classify_profit_u0(n, beta, phi, tol) -> RegionLabel:
    if phi <= 0:
        return RegionLabel(Verdict.DECREASING, ((ThresholdKind.G_PI_U, 0.0),))
    g = eval_threshold(ThresholdKind.G_PI_U, n) * phi
    used = [(ThresholdKind.G_PI_U, g)]
    if beta > g:
        return _finish(Verdict.DECREASING, used, beta - g, tol)
    return _finish(Verdict.INDETERMINATE, used, g - beta, tol)


def _classify_cs_u0(n, beta, phi, tol) -> RegionLabel:
    if phi <= 0:
        return RegionLabel(Verdict.INCREASING, ((ThresholdKind.TWO_PHI, 0.0),))
    hi2 = eval_threshold(ThresholdKind.TWO_PHI, n) * phi
    used = [(ThresholdKind.TWO_PHI, hi2)]
    if beta > hi2:
        return _finish(Verdict.INCREASING, used, beta - hi2, tol)
    lo = cne_existence_bound(n) * phi
    hi = eval_threshold(ThresholdKind.F_CS_U, n, phi)
    used += [(ThresholdKind.F_EXISTENCE, lo), (ThresholdKind.F_CS_U, hi)]
    if lo < beta < hi:
        return _finish(Verdict.DECREASING, used, min(beta - lo, hi - beta), tol)
    margin = min(abs(beta - v) for _, v in used)
    return _finish(Verdict.INDETERMINATE, used, margin, tol)


def _classify_price_n(n, beta, phi, tol) -> RegionLabel:
    if phi <= 0:
        g = eval_threshold(ThresholdKind.G_P, n, phi)
        used = [(ThresholdKind.G_P, g)]
        if beta > g:
            return _finish(Verdict.DECREASING, used, beta - g, tol)
        return _finish(Verdict.INDETERMINATE, used, g - beta, tol)
    used = [(ThresholdKind.PHI, phi)]
    if beta > phi:
        return _finish(Verdict.DECREASING, used, beta - phi, tol)
    lo = cne_existence_bound(n) * phi
    used.append((ThresholdKind.F_EXISTENCE, lo))
    if n >= 3:
        hi = eval_threshold(ThresholdKind.F_P, n, phi)
        used.append((ThresholdKind.F_P, hi))
        if lo < beta < hi:
            return _finish(Verdict.INCREASING, used, min(beta - lo, hi - beta), tol)
    margin = min(abs(beta - v) for _, v in used)
    return _finish(Verdict.INDETERMINATE, used, margin, tol)


def _classify_participation_n(n, beta, phi, tol) -> RegionLabel:
    if phi <= 0:
        return RegionLabel(Verdict.INCREASING, ((ThresholdKind.G_X, 0.0),))
    g = eval_threshold(ThresholdKind.G_X, n) * phi
    used = [(ThresholdKind.G_X, g)]
    if beta > g:
        return _finish(Verdict.INCREASING, used, beta - g, tol)
    return _finish(Verdict.INDETERMINATE, used, g - beta, tol)


def _classify_cs_n(n, beta, phi, u0, z_star, tol) -> RegionLabel:
    if phi <= 0:
        return RegionLabel(Verdict.INCREASING, ((ThresholdKind.G_CS, 0.0),))
    g = eval_threshold(ThresholdKind.G_CS, n) * phi
    used = [(ThresholdKind.G_CS, g)]
    if beta > g:
        return _finish(Verdict.INCREASING, used, beta - g, tol)
    lo = cne_existence_bound(n) * phi
    used.append((ThresholdKind.F_EXISTENCE, lo))
    if n >= 7:
        f_cs = eval_threshold(ThresholdKind.F_CS, n, phi)
        gamma = eval_threshold(ThresholdKind.GAMMA, n, phi, u0)
        hi = min(f_cs, gamma)
        used += [(ThresholdKind.F_CS, f_cs), (ThresholdKind.GAMMA, gamma)]
        if lo < beta < hi:
            if z_star is None:
                raise ValueError("z_star required for the consumer-surplus decrease region")
            if z_star < CS_DN_Z_CAP:
                return _finish(Verdict.DECREASING, used,
                               min(beta - lo, hi - beta), tol)
    margin = min(abs(beta - v) for _, v in used)
    return _finish(Verdict.INDETERMINATE, used, margin, tol)


def _classify_profit_n(params, side, n, beta, phi, u0, z_star, tol) -> RegionLabel:
    if not check_cne_existence(params)[side.index]:
        return RegionLabel(Verdict.INDETERMINATE, reason="existence condition fails")
    if z_star is None:
        raise ValueError("z_star required for the profit direction classifier")
    low, used = _pi_z_threshold_low(n, phi, u0, beta)
    if z_star < low:
        return _finish(Verdict.DECREASING, used, abs(z_star - low), tol)
    high = _pi_z_threshold_high(n, phi, u0, beta)
    if z_star > high:
        if phi <= 0:
            return _finish(Verdict.INCREASING, used, abs(z_star - high), tol)
        g_pi = eval_threshold(ThresholdKind.G_PI, n, phi)
        used.append((ThresholdKind.G_PI, g_pi))
        if beta > g_pi:
            return _finish(Verdict.INCREASING, used,
                           min(abs(z_star - high), beta - g_pi), tol)
    margin = min(abs(z_star - low), abs(z_star - high))
    return _finish(Verdict.INDETERMINATE, used, margin, tol)


# --------------------------------------------------------------------------
# grids
# --------------------------------------------------------------------------

GRID_CLASSIFIERS = ("existence_cne", "existence_ce", "sign_z_cne", "sign_z_ce",
                    "price_dn", "participation_dn", "cs_dn")


@dataclass(frozen=True)
class RegionGrid:
    """Row-major classifier grid over the (phi_kk, beta_k) plane.

    Cell (i, j) -> labels[i * len(betas) + j] for phi = phis[i], beta = betas[j].
    """

    classifier: str
    n: float
    u0: float
    phis: np.ndarray
    betas: np.ndarray
    labels: tuple[RegionLabel, ...]
    solved_signs: np.ndarray | None = field(default=None)

    def label_at(self, i: int, j: int) -> RegionLabel:
        return self.labels[i * len(self.betas) + j]


def _cell_label(classifier: str, params: MarketParams, z_star: float | None) -> RegionLabel:
    side = Side.BUYER
    if classifier == "existence_cne":
        return classify_existence("cne", params, side)
    if classifier == "existence_ce":
        return classify_existence("ce", params, side)
    if classifier == "sign_z_cne":
        return classify_sign_z("cne", params, side)
    if classifier == "sign_z_ce":
        return classify_sign_z("ce", params, side)
    if classifier == "price_dn":
        return classify_direction("price", "n_platforms", params, side)
    if classifier == "participation_dn":
        return classify_direction("participation", "n_platforms", params, side)
    if classifier == "cs_dn":
        return classify_direction("consumer_surplus", "n_platforms", params, side,
                                  z_star=z_star)
    raise ValueError(f"unknown grid classifier {classifier!r}")


def region_grid(classifier: str, phi_range: tuple[float, float] = (-2.0, 2.0),
                beta_range: tuple[float, float] = (0.0, 2.0), resolution: int = 200,
                n: int = 4, u0: float = 0.0, solve_signs: bool = False) -> RegionGrid:
    """Classify every cell of a (phi_kk, beta_k) grid; cell centers avoid beta = 0.

    With solve_signs=True a companion grid of numerically solved quantity signs
    is attached for agreement scoring (see :func:`grid_agreement`).
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if not all(np.isfinite(v) for v in (*phi_range, *beta_range)):
        raise ValueError("grid ranges must be finite")
    phis = phi_range[0] + (np.arange(resolution) + 0.5) * (phi_range[1] - phi_range[0]) / resolution
    betas = beta_range[0] + (np.arange(resolution) + 0.5) * (beta_range[1] - beta_range[0]) / resolution

    needs_z = classifier == "cs_dn" and n >= 7
    z_grid = None
    if needs_z or solve_signs:
        pp, bb = np.meshgrid(phis, betas, indexing="ij")
        z_grid = solve_decoupled_batch("cne", bb, pp, float(n), u0)

    labels: list[RegionLabel] = []
    for i, phi in enumerate(phis):
        for j, beta in enumerate(betas):
            params = MarketParams.uniform(n, float(beta), phi_own=float(phi), u0=u0)
            z_cell = None if z_grid is None else float(z_grid[i, j])
            if z_cell is not None and math.isnan(z_cell):
                z_cell = None
            try:
                labels.append(_cell_label(classifier, params, z_cell))
            except (ValueError, ArithmeticError) as exc:
                labels.append(RegionLabel(Verdict.INDETERMINATE, reason=str(exc)))

    solved = _solved_sign_grid(classifier, phis, betas, float(n), u0, z_grid) \
        if solve_signs else None
    return RegionGrid(classifier=classifier, n=float(n), u0=u0, phis=phis,
                      betas=betas, labels=tuple(labels), solved_signs=solved)


def _solved_sign_grid(classifier: str, phis, betas, n: float, u0: float,
                      z_grid: np.ndarray) -> np.ndarray:
    """Numeric ground truth per cell: solved z sign, FD quantity sign, or a
    monotonicity certificate for the existence grids."""
    pp, bb = np.meshgrid(phis, betas, indexing="ij")
    if classifier in ("sign_z_cne", "sign_z_ce"):
        if classifier == "sign_z_ce":
            z_grid = solve_decoupled_batch("ce", bb, pp, n, u0)
        return np.where(np.isnan(z_grid), 0, np.sign(z_grid)).astype(int)
    if classifier in ("existence_cne", "existence_ce"):
        # certificate of a unique root: the FOC slope stays negative on a z grid
        ok = np.ones(pp.shape, dtype=bool)
        for z in np.linspace(-30.0, 30.0, 41):
            if classifier == "existence_cne":
                slope = mk_slope(np.full(pp.shape, z), bb, pp, n)
            else:
                ez = math.exp(z)
                slope = (2.0 * ez * pp - bb * (n * ez + 1.0) ** 3) / (n * ez + 1.0) ** 2
            ok &= np.isfinite(slope) & (slope < 0)
        return np.where(ok, 1, -1)
    # direction grids: centered difference of the solved quantity across N +- h
    h = 1e-4 * n
    z_hi = solve_decoupled_batch("cne", bb, pp, n + h, u0)
    z_lo = solve_decoupled_batch("cne", bb, pp, n - h, u0)
    if classifier == "price_dn":
        q_hi = pp * omega(z_hi, n + h) - bb * z_hi - u0
        q_lo = pp * omega(z_lo, n - h) - bb * z_lo - u0
    elif classifier == "participation_dn":
        q_hi = (n + h) * omega(z_hi, n + h)
        q_lo = (n - h) * omega(z_lo, n - h)
    elif classifier == "cs_dn":
        q_hi = bb * (np.log(n + h + 1.0) + z_hi)
        q_lo = bb * (np.log(n - h + 1.0) + z_lo)
    else:
        raise ValueError(f"no solved-sign oracle for {classifier!r}")
    diff = q_hi - q_lo
    return np.where(np.isnan(diff), 0, np.sign(diff)).astype(int)


def grid_agreement(grid: RegionGrid, margin_min: float = 0.01) -> tuple[int, int, float]:
    """(agreements, cells checked, fraction) between classifier verdicts and the
    solved-sign companion grid, restricted to definite verdicts with margin
    above margin_min.  Existence grids are scored one-sided: only cells the
    classifier certifies are checked (the condition is sufficient, not
    necessary)."""
    if grid.solved_signs is None:
        raise ValueError("grid was built without solve_signs=True")
    nb = len(grid.betas)
    agree = checked = 0
    one_sided = grid.classifier.startswith("existence")
    for i in range(len(grid.phis)):
        for j in range(nb):
            label = grid.labels[i * nb + j]
            if label.sign == 0 or label.margin <= margin_min:
                continue
            if one_sided and label.sign < 0:
                continue
            truth = grid.solved_signs[i, j]
            if truth == 0:
                continue
            checked += 1
            agree += int(truth == label.sign)
    return agree, checked, (agree / checked if checked else float("nan"))


# --------------------------------------------------------------------------
# figure reproduction specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Grid classifier, platform count and outside-utility panels for one figure."""

    figure: str
    classifier: str
    n: int
    panel_u0: tuple[float, ...]
    description: str


FIGURES = {
    "fig1": FigureSpec("fig1", "existence_cne", 4, (0.0,),
                       "region guaranteeing a unique symmetric competitive equilibrium"),
    "fig2": FigureSpec("fig2", "sign_z_cne", 4, (-1.0, 0.5),
                       "sign of the competitive net deterministic utility"),
    "fig3": FigureSpec("fig3", "sign_z_cne", 200, (-1.0, 1.0),
                       "sign of the competitive net utility under near-perfect competition"),
    "fig4": FigureSpec("fig4", "price_dn", 4, (0.0,),
                       "sign of the price response to entry"),
    "fig5": FigureSpec("fig5", "participation_dn", 4, (0.0,),
                       "region where entry raises market participation"),
    "fig6": FigureSpec("fig6", "cs_dn", 4, (0.0,),
                       "sign of the consumer-surplus response to entry"),
}


def figure_paint(figure: str, grid: RegionGrid) -> np.ndarray:
    """Painted region id per cell: +1 blue, -1 red, 0 unshaded.

    Mirrors the standard panels; fig6 additionally paints the demonstration
    band f(N) phi < beta < min(f_cs phi, gamma) red even where the strict
    classifier stays indeterminate (its proposition needs N >= 7 and a z* cap).
    """
    nb = len(grid.betas)
    paint = np.zeros((len(grid.phis), nb), dtype=int)
    for i, phi in enumerate(grid.phis):
        for j, beta in enumerate(grid.betas):
            label = grid.labels[i * nb + j]
            if figure == "fig1":
                paint[i, j] = 1 if label.verdict is Verdict.POSITIVE else -1
            elif figure in ("fig2", "fig3"):
                paint[i, j] = label.sign
            elif figure in ("fig4", "fig6"):
                paint[i, j] = label.sign
            elif figure == "fig5":
                paint[i, j] = 1 if label.sign > 0 else 0
    if figure == "fig6":
        # demonstration band as conventionally drawn: the z*-related
        # conditions (the z* cap and beta < gamma, which merely signs z*)
        # are deliberately left out there
        n = grid.n
        for i, phi in enumerate(grid.phis):
            if phi <= 0:
                continue
            lo = cne_existence_bound(n) * phi
            try:
                hi = eval_threshold(ThresholdKind.F_CS, n, phi)
            except ValueError:
                continue
            for j, beta in enumerate(grid.betas):
                if paint[i, j] == 0 and lo < beta < hi:
                    paint[i, j] = -1
    return paint


def figure_threshold_curve(figure: str, grid: RegionGrid) -> list[tuple[float, float]]:
    """The (phi, beta) polyline of the figure's governing boundary, for overlay."""
    n, u0 = grid.n, grid.u0
    pts: list[tuple[float, float]] = []
    for phi in grid.phis:
        try:
            if figure == "fig1":
                beta = cne_existence_bound(n) * phi if phi > 0 else 0.0
            elif figure in ("fig2", "fig3"):
                beta = eval_threshold(ThresholdKind.GAMMA, n, float(phi), u0)
            elif figure == "fig4":
                beta = (eval_threshold(ThresholdKind.PHI, n) * phi if phi > 0
                        else eval_threshold(ThresholdKind.G_P, n, float(phi)))
            elif figure == "fig5":
                beta = eval_threshold(ThresholdKind.G_X, n) * phi if phi > 0 else 0.0
            elif figure == "fig6":
                beta = eval_threshold(ThresholdKind.G_CS, n) * phi if phi > 0 else 0.0
            else:
                raise ValueError(f"unknown figure {figure!r}")
        except ValueError:
            continue
        pts.append((float(phi), float(beta)))
    return pts
