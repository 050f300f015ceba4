"""Certify solved equilibria: price-space deviation search and second-order checks.

A competitive point is certified by letting one platform deviate in price space
(every candidate runs its own stage-2 fixed point with the other N-1 platforms
held at the symmetric prices) over a grid plus a Newton polish; the best gain
over the symmetric profit should be numerically zero.  The polish and the
price-space second-order check use exact profit gradients and Hessians from the
implicit function theorem on the stage-2 fixed point.  Second-order conditions
also come in closed form at zero cross-side externalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._families import eval_series, s_coefficients
from .demand import FixedPointError, MarketState, fixed_point_batch, share_fixed_point
from .equilibrium import SymmetricEquilibrium, ZPoint
from .model import MarketParams, Side

# a polish step this small relative to the prices is the last one tried:
# Newton's next step would sit below what the stage-2 tolerance resolves
STEP_TOL = 1e-10
POLISH_ITERS = 200      # Newton steps of the polish at most
FP_TOL = 1e-12          # stage-2 fixed-point tolerance of the search
GRID_MAX_ITER = 20_000  # stage-2 sweeps per grid or polish solve at most


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of the best-response search around a symmetric candidate point."""

    base: SymmetricEquilibrium
    base_profit: float
    best_deviation_prices: tuple[float, float]
    best_gain: float
    grid_radius: float
    grid_n: int
    refined: bool

    def certified(self, rel_tol: float = 1e-6) -> bool:
        return self.best_gain <= rel_tol * max(1.0, abs(self.base_profit))


@dataclass(frozen=True, eq=False)
class SOCReport:
    """Closed-form and numeric second-order diagnostics at a solved point."""

    cne_diag: tuple[float, float] | None
    ce_hessian: np.ndarray | None
    numeric_hessian: np.ndarray
    closed_form_negative: bool | None
    numeric_negative_definite: bool


# --------------------------------------------------------------------------
# deviation search
# --------------------------------------------------------------------------

def _full_prices(params: MarketParams, others, deviation) -> np.ndarray:
    n = params.n_platforms
    prices = np.empty((2, n))
    prices[0, :] = others[0]
    prices[1, :] = others[1]
    prices[0, 0] = deviation[0]
    prices[1, 0] = deviation[1]
    return prices


def deviation_profit(params: MarketParams, others_price, deviation,
                     tol: float = 1e-12, x0=None) -> float:
    """Profit of platform 1 when platforms 2..N charge others_price and
    platform 1 charges deviation; shares from the full stage-2 fixed point."""
    prices = _full_prices(params, others_price, deviation)
    state = share_fixed_point(params, prices, tol=tol, x0=x0)
    x1 = state.platform_shares[:, 0]
    return float(x1[0] * deviation[0] + x1[1] * deviation[1])


@dataclass(frozen=True, eq=False)
class ProfitDerivatives:
    """Stage-1 objective at one price pair, with its exact price gradient and
    Hessian, and the stage-2 fixed point they were taken at."""

    prices: np.ndarray
    profit: float
    gradient: np.ndarray
    hessian: np.ndarray
    state: MarketState


def profit_derivatives(params: MarketParams, regime: str, q, others=None,
                       tol: float = 1e-12, max_iter: int = 100_000,
                       x0=None) -> ProfitDerivatives:
    """Solve stage 2 once at price pair q and differentiate the objective.

    regime "cne": platform 1 charges q while platforms 2..N charge `others`;
    the objective is platform 1's profit.  regime "ce": every platform charges
    q (`others` is unused); the objective is total profit.  Either way
    pi = sum_k q_k w.y_k over the inside shares y_k, with w the platforms that
    move (platform 1, or all).  The derivatives come from the fixed point
    y = Sigma(y, p) by the implicit function theorem: with
    J_k = (diag(y_k) - y_k y_k^T)/beta_k and M = I - [phi_kl J_k],
    dy = M^-1 (-J E) and d2y = M^-1 sigma''[du, du], where du = Phi dy - E
    and E places w on each side.
    """
    n = params.n_platforms
    q = np.asarray(q, dtype=float)
    if regime == "cne":
        prices = _full_prices(params, others, q)
        w = np.zeros(n)
        w[0] = 1.0
    elif regime == "ce":
        prices = np.repeat(q[:, None], n, axis=1)
        w = np.ones(n)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    state = share_fixed_point(params, prices, tol=tol, max_iter=max_iter, x0=x0)
    y = state.platform_shares
    beta = params.beta_arr
    phi = params.phi_arr

    # (k, n, m) logit Jacobians, the (2N, 2N) map derivative and M
    jac = (y[:, :, None] * np.eye(n) - y[:, :, None] * y[:, None, :]) / beta[:, None, None]
    a_map = (phi[:, None, :, None] * jac[:, :, None, :]).reshape(2 * n, 2 * n)
    m_mat = np.eye(2 * n) - a_map
    e = np.eye(2)[:, None, :] * w[None, :, None]               # (k, n, a)
    dy = np.linalg.solve(m_mat, -(jac @ e).reshape(2 * n, 2)).reshape(2, n, 2)
    du = np.einsum("kl,lna->kna", phi, dy) - e
    yu = np.einsum("kn,kna->ka", y, du)                        # y_k . du_a
    c = du - yu[:, None, :]                                    # du_a - y.du_a
    cross = np.einsum("kn,kna,knb->kab", y, du, du) - yu[:, :, None] * yu[:, None, :]
    rhs = y[:, :, None, None] * (c[:, :, :, None] * c[:, :, None, :] - cross[:, None]) \
        / (beta ** 2)[:, None, None, None]
    d2y = np.linalg.solve(m_mat, rhs.reshape(2 * n, 4)).reshape(2, n, 2, 2)

    wy = y @ w                                                 # (k,)
    wdy = np.einsum("n,kna->ka", w, dy)                        # (k, a)
    grad = wy + q @ wdy
    hess = wdy.T + wdy + np.einsum("k,n,knab->ab", q, w, d2y)
    return ProfitDerivatives(prices=q, profit=float(q @ wy), gradient=grad,
                             hessian=hess, state=state)


def _symmetric_state(eq: SymmetricEquilibrium) -> np.ndarray:
    """The (2, N+1) stage-2 shares of a solved symmetric point."""
    n = eq.params.n_platforms
    x = np.empty((2, n + 1))
    x[:, 1:] = np.array(eq.shares)[:, None]
    x[:, 0] = 1.0 - np.array(eq.participation)
    return x


def _newton_polish(params: MarketParams, p_star: np.ndarray, start: np.ndarray,
                   x0: np.ndarray, max_step: np.ndarray) -> ProfitDerivatives:
    """Safeguarded Newton ascent on the deviator's profit from `start`, at most
    POLISH_ITERS steps.

    The step is Newton's where the Hessian is negative definite and a gradient
    step scaled by the Hessian's largest |eigenvalue| otherwise, capped at
    max_step per price.  It is halved until profit does not fall and the
    warm-started stage-2 solve converges; the polish ends once a step of at
    most STEP_TOL (relative to the prices) has been tried.  Each solve starts
    from the last accepted fixed point, so the polish follows that branch.
    """
    def solve(q, x):
        return profit_derivatives(params, "cne", q, p_star, tol=FP_TOL,
                                  max_iter=GRID_MAX_ITER, x0=x)

    cur = solve(start, x0)
    for _ in range(POLISH_ITERS):
        q = cur.prices
        eigs = np.linalg.eigvalsh(cur.hessian)
        if eigs[-1] < 0:
            step = -np.linalg.solve(cur.hessian, cur.gradient)
        else:
            step = cur.gradient / max(np.abs(eigs).max(), 1e-300)
        step *= min(1.0, float(np.min(max_step / np.maximum(np.abs(step), 1e-300))))
        while True:
            small = np.max(np.abs(step)) <= STEP_TOL * max(1.0, float(np.max(np.abs(q))))
            try:
                trial = solve(q + step, cur.state)
            except FixedPointError:
                trial = None
            if trial is not None and trial.profit >= cur.profit:
                cur = trial
                break
            if small:
                return cur
            step = 0.5 * step
        if small:
            break
    return cur


def verify_nash(params: MarketParams, eq: SymmetricEquilibrium,
                radius: float = 0.5, grid_n: int = 41) -> DeviationReport:
    """Grid search over deviating prices in [p* - r|p*|, p* + r|p*|]^2, then a
    safeguarded Newton polish from the best cell on exact price derivatives.

    The symmetric point itself sits in the search set, so best_gain >= -1e-12
    by construction; a materially positive gain falsifies the equilibrium and
    is reported, not raised.  Polish solves are capped at GRID_MAX_ITER and a
    trial whose stage-2 solve does not converge is rejected, never raised.
    """
    if eq.regime != "cne":
        raise ValueError("verify_nash certifies competitive points")
    p_star = np.array(eq.prices)
    half = radius * np.abs(p_star)
    grids = [np.linspace(p_star[k] - half[k], p_star[k] + half[k], grid_n)
             for k in (0, 1)]
    pb, ps = np.meshgrid(grids[0], grids[1], indexing="ij")
    m = grid_n * grid_n
    prices = np.empty((m, 2, params.n_platforms))
    prices[:, 0, :] = p_star[0]
    prices[:, 1, :] = p_star[1]
    prices[:, 0, 0] = pb.ravel()
    prices[:, 1, 0] = ps.ravel()

    x_sym = _symmetric_state(eq)
    x0 = np.broadcast_to(x_sym, (m, 2, params.n_platforms + 1)).copy()
    shares, resid = fixed_point_batch(params, prices, tol=FP_TOL,
                                      max_iter=GRID_MAX_ITER, x0=x0)
    profits = shares[:, 0, 1] * prices[:, 0, 0] + shares[:, 1, 1] * prices[:, 1, 0]
    profits = np.where(resid <= FP_TOL, profits, -np.inf)

    base_profit = deviation_profit(params, p_star, p_star, tol=FP_TOL, x0=x_sym)
    best_idx = int(np.argmax(profits))
    best_prices = np.array([prices[best_idx, 0, 0], prices[best_idx, 1, 0]])
    best_profit = float(profits[best_idx])
    x_start = shares[best_idx]
    if not best_profit >= base_profit:
        best_prices, best_profit, x_start = p_star, base_profit, x_sym

    try:
        polished = _newton_polish(params, p_star, best_prices, x_start,
                                  radius * np.maximum(1.0, np.abs(p_star)))
    except FixedPointError:
        polished = None
    # a gain below what the stage-2 tolerance resolves in profit is noise
    refined = polished is not None and polished.profit - best_profit > \
        FP_TOL * max(1.0, float(np.sum(np.abs(polished.prices))))
    if refined:
        best_profit, best_prices = polished.profit, polished.prices

    return DeviationReport(
        base=eq,
        base_profit=base_profit,
        best_deviation_prices=(float(best_prices[0]), float(best_prices[1])),
        best_gain=float(best_profit - base_profit),
        grid_radius=radius,
        grid_n=grid_n,
        refined=refined,
    )


# --------------------------------------------------------------------------
# second-order conditions
# --------------------------------------------------------------------------

def soc_cne_diag(z: float, params: MarketParams, side: Side,
                 n: float | None = None) -> float:
    """Closed-form own-share second derivative of the deviator's profit
    (cross externalities zero); negative throughout the existence region."""
    if not params.cross_externalities_zero:
        raise ValueError("closed-form SOC requires zero cross-side externalities")
    n = float(params.n_platforms if n is None else n)
    beta = params.beta[side.index]
    phi = params.phi_own(side)
    z = float(z)
    num = eval_series(s_coefficients(beta, phi, n), 0, z)
    ez = np.exp(z)
    den = ez * (beta * ((n - 1.0) * ez + 1.0) * (n * ez + 1.0) - ez * phi) ** 3
    if abs(den) < 1e-300:
        raise ArithmeticError("vanishing SOC denominator")
    return float(num / den)


def soc_ce_hessian(z: ZPoint | tuple, params: MarketParams,
                   n: float | None = None) -> tuple[np.ndarray, bool]:
    """Closed-form Hessian of total collusive profit in share space and its
    negative-definiteness verdict via leading principal minors."""
    n = float(params.n_platforms if n is None else n)
    zv = z.as_array() if isinstance(z, ZPoint) else np.asarray(z, dtype=float)
    beta = params.beta_arr
    phi = params.phi_arr
    emz = np.exp(-zv)
    ez = np.exp(zv)
    diag = -n * emz * (beta * (n * ez + 1.0) ** 3 - 2.0 * ez * np.diag(phi))
    off = n * (phi[0, 1] + phi[1, 0])
    H = np.array([[diag[0], off], [off, diag[1]]])
    neg_def = H[0, 0] < 0 and (H[0, 0] * H[1, 1] - off * off) > 0
    return H, bool(neg_def)


def soc_report(params: MarketParams, eq: SymmetricEquilibrium) -> SOCReport:
    """Assemble closed-form (when applicable) and exact price-space SOC
    diagnostics; the latter differentiate the deviator's profit (cne) or
    total profit with every platform moving together (ce) at the solved
    stage-2 fixed point."""
    p_star = np.array(eq.prices)
    numeric = profit_derivatives(params, eq.regime, p_star, p_star,
                                 x0=_symmetric_state(eq)).hessian
    eigs = np.linalg.eigvalsh(0.5 * (numeric + numeric.T))
    numeric_nd = bool(np.all(eigs < 0))
    cne_diag = None
    ce_hess = None
    closed_ok = None
    if eq.regime == "cne":
        if params.cross_externalities_zero:
            cne_diag = (soc_cne_diag(eq.z.z_b, params, Side.BUYER, eq.n),
                        soc_cne_diag(eq.z.z_s, params, Side.SELLER, eq.n))
            closed_ok = cne_diag[0] < 0 and cne_diag[1] < 0
    else:
        ce_hess, closed_ok = soc_ce_hessian(eq.z, params, eq.n)
    return SOCReport(cne_diag=cne_diag, ce_hessian=ce_hess,
                     numeric_hessian=numeric,
                     closed_form_negative=closed_ok,
                     numeric_negative_definite=numeric_nd)
