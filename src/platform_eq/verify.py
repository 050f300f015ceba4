"""Certify solved equilibria: price-space deviation search and second-order checks.

A competitive point is certified by letting one platform deviate in price space
(every candidate runs its own stage-2 fixed point with the other N-1 platforms
held at the symmetric prices) over a grid plus a Newton polish; the best gain
over the symmetric profit should be numerically zero.  The polish and the
price-space second-order check use exact profit gradients and Hessians from the
implicit function theorem on the stage-2 fixed point.  Second-order conditions
also come in closed form at zero cross-side externalities.

The rivals share one price, so stage 2 runs on two platform classes, the
deviator x1 and the rivals x(N-1), and the collusive objective on one class
xN: the search and the derivatives cost the same at any N.  Every stage-2
state here is a (C+1, 2) class state, row 0 the outside option; only
deviation_profit solves the full width.  That reduction cannot see the
rivals splitting among themselves; those modes of the share map's Jacobian
have the closed-form 2x2 block of _rival_split_block.  Where the share box
of the grid's prices proves the share map a contraction (demand.share_box),
the grid solve runs undamped and drops each cell the contraction bound
proves below the best converged one, which leaves every report field.  One
exact solve at p* gives the base profit, the polish's start when no grid
cell beats it by more than stage 2 resolves, and the competitive Hessian
that soc_report, the one second-order entry, reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._families import eval_series, s_coefficients
from .demand import FixedPointError, class_fixed_point, share_box, share_fixed_point
from .equilibrium import SymmetricEquilibrium, ZPoint
from .model import MarketParams, Side

# a polish step this small relative to the prices is the last one tried:
# Newton's next step would sit below what the stage-2 tolerance resolves
STEP_TOL = 1e-10
POLISH_ITERS = 200      # Newton steps of the polish at most
FP_TOL = 1e-12          # stage-2 fixed-point tolerance of the search
GRID_MAX_ITER = 20_000  # stage-2 sweeps per grid, base or polish solve at most


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
    # stage-2 residual at the symmetric prices; above FP_TOL the base solve
    # did not converge, base_profit is the candidate's own, and the point is
    # not certified
    base_residual: float
    # max Re eigenvalue of the share map's Jacobian on the modes where the
    # rivals split among themselves, at the best deviation's fixed point
    # (-inf at N = 2, where there are no such modes)
    rival_split_max_re: float
    # grid cells, of grid_n^2, whose stage-2 solve met FP_TOL or proved them
    # below the best cell (the contraction bound); the rest were left out
    grid_converged: int
    # L_B of the grid's share box (demand.share_box): below 1 every searched
    # price has one stage-2 fixed point, so best_gain stands on no choice of
    # branch; inf where it is not finite
    stage2_lipschitz: float
    # exact price Hessian of the deviator's profit at the base's prices, from
    # the base solve; None where that solve did not converge
    base_hessian: tuple[tuple[float, float], tuple[float, float]] | None

    def certified(self, rel_tol: float = 1e-6) -> bool:
        return self.base_residual <= FP_TOL and \
            self.best_gain <= rel_tol * max(1.0, abs(self.base_profit))


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

def deviation_profit(params: MarketParams, others_price, deviation,
                     tol: float = 1e-12, x0=None) -> float:
    """Profit of platform 1 when platforms 2..N charge others_price and
    platform 1 charges deviation; shares from the full stage-2 fixed point."""
    prices = np.empty((2, params.n_platforms))
    prices[:, 1:] = np.asarray(others_price, dtype=float)[:, None]
    prices[:, 0] = deviation
    state = share_fixed_point(params, prices, tol=tol, x0=x0)
    x1 = state.platform_shares[:, 0]
    return float(x1[0] * deviation[0] + x1[1] * deviation[1])


@dataclass(frozen=True, eq=False)
class ProfitDerivatives:
    """Stage-1 objective at one price pair, with its exact price gradient and
    Hessian, and the stage-2 fixed point they were taken at as a class state."""

    prices: np.ndarray
    profit: float
    gradient: np.ndarray
    hessian: np.ndarray
    state: np.ndarray
    residual: float     # the stage-2 solve's sup-norm residual


def _classes(params: MarketParams, regime: str, q, others):
    """The regime's platform classes: their prices (C, 2), sizes (C,) and
    which of them charge q (C,).  cne: the deviator x1 and its rivals
    x(N-1); ce: all N platforms as one class."""
    n = params.n_platforms
    if regime == "cne":
        return (np.array([q, others], dtype=float), np.array([1.0, n - 1.0]),
                np.array([1.0, 0.0]))
    if regime == "ce":
        return np.array([q], dtype=float), np.array([float(n)]), np.ones(1)
    raise ValueError(f"unknown regime {regime!r}")


def profit_derivatives(params: MarketParams, regime: str, q, others=None,
                       tol: float = 1e-12, max_iter: int = 100_000,
                       x0=None) -> ProfitDerivatives:
    """Solve stage 2 once at price pair q and differentiate the objective.

    regime "cne": platform 1 charges q while platforms 2..N charge `others`;
    the objective is platform 1's profit.  regime "ce": every platform charges
    q (`others` is unused); the objective is total profit.  Stage 2 runs on
    platform classes of equal price: the deviator x1 and the rivals x(N-1)
    (cne), or all N platforms as one class (ce), with class sizes m.  Then
    pi = sum_k q_k w.y_k over the per-platform class shares y_k, where w is m
    on the classes that charge q and 0 elsewhere.  The derivatives come from
    the fixed point y = Sigma(y, p) by the implicit function theorem: with
    J_k = (diag(y_k) - y_k (m o y_k)^T)/beta_k and M = I - [phi_kl J_k]
    (4x4 for cne, 2x2 for ce), dy = M^-1 (-J E) and d2y = M^-1 sigma''[du, du],
    where du = Phi dy - E, E places 1 on the classes that charge q, and the
    inner products in sigma'' are m-weighted.  x0, the warm start, and
    `.state` are (C+1, 2) class states, row 0 the outside option; an x0 of
    any other shape raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    prices, mult, moving = _classes(params, regime, q, others)
    if x0 is None:
        x0 = np.full((len(mult) + 1, 2), 1.0 / (params.n_platforms + 1))
    elif np.shape(x0) != (len(mult) + 1, 2):
        raise ValueError(f"x0 must have shape ({len(mult) + 1}, 2)")
    x, resid = class_fixed_point(params, prices[..., None], mult, x0[..., None],
                                 tol=tol, max_iter=max_iter)
    if resid[0] > tol:
        raise FixedPointError("share fixed point did not converge", float(resid[0]))
    xc = x[..., 0]
    y = xc[1:].T                                               # (k, c)
    my = mult * y
    beta = params.beta_arr
    phi = params.phi_arr
    c_n = len(mult)

    # (k, c, d) class logit Jacobians, the (2C, 2C) map derivative and M
    jac = (y[:, :, None] * np.eye(c_n) - y[:, :, None] * my[:, None, :]) / beta[:, None, None]
    a_map = (phi[:, None, :, None] * jac[:, :, None, :]).reshape(2 * c_n, 2 * c_n)
    m_mat = np.eye(2 * c_n) - a_map
    e = np.eye(2)[:, None, :] * moving[None, :, None]          # (k, c, a)
    dy = np.linalg.solve(m_mat, -(jac @ e).reshape(2 * c_n, 2)).reshape(2, c_n, 2)
    du = np.einsum("kl,lca->kca", phi, dy) - e
    yu = np.einsum("kc,kca->ka", my, du)                       # m-weighted y_k . du_a
    c = du - yu[:, None, :]                                    # du_a - y.du_a
    cross = np.einsum("kc,kca,kcb->kab", my, du, du) - yu[:, :, None] * yu[:, None, :]
    rhs = y[:, :, None, None] * (c[:, :, :, None] * c[:, :, None, :] - cross[:, None]) \
        / (beta ** 2)[:, None, None, None]
    d2y = np.linalg.solve(m_mat, rhs.reshape(2 * c_n, 4)).reshape(2, c_n, 2, 2)

    w = moving * mult
    wy = y @ w                                                 # (k,)
    wdy = np.einsum("c,kca->ka", w, dy)                        # (k, a)
    grad = wy + q @ wdy
    hess = wdy.T + wdy + np.einsum("k,c,kcab->ab", q, w, d2y)
    return ProfitDerivatives(prices=q, profit=float(q @ wy), gradient=grad,
                             hessian=hess, state=xc,
                             residual=float(resid[0]))


def _rival_split_block(params: MarketParams, y_rival) -> np.ndarray:
    """The 2x2 block A_kl = phi_kl y_r,k / beta_k of the share map's Jacobian
    on the modes the class reduction cannot see: rivals splitting their
    shares among themselves (a zero-sum vector over the rivals on each side).
    These modes have multiplicity N-2."""
    return params.phi_arr * (np.asarray(y_rival) / params.beta_arr)[:, None]


def _symmetric_state(eq: SymmetricEquilibrium) -> np.ndarray:
    """The class state of a solved symmetric point in its regime's classes:
    the outside option, then every class at the symmetric shares."""
    classes = 2 if eq.regime == "cne" else 1
    return np.array([1.0 - np.array(eq.participation)] + [eq.shares] * classes)


def _search_solve(params: MarketParams, q, p_star: np.ndarray, x0) -> ProfitDerivatives:
    """The deviation search's one-cell solve: the deviator at q, its rivals at
    p*, warm-started at the class state x0."""
    return profit_derivatives(params, "cne", q, p_star, tol=FP_TOL,
                              max_iter=GRID_MAX_ITER, x0=x0)


def _resolution(q) -> float:
    """The smallest profit gain at prices q that the stage-2 tolerance resolves."""
    return FP_TOL * max(1.0, float(np.sum(np.abs(q))))


def _newton_polish(params: MarketParams, p_star: np.ndarray, cur: ProfitDerivatives,
                   max_step: np.ndarray) -> ProfitDerivatives:
    """Safeguarded Newton ascent on the deviator's profit from the solved
    point cur, at most POLISH_ITERS steps.

    The step is Newton's where the Hessian is negative definite and a gradient
    step scaled by the Hessian's largest |eigenvalue| otherwise, capped at
    max_step per price.  It is halved until profit does not fall and the
    warm-started stage-2 solve converges.  A step of at most STEP_TOL
    (relative to the prices) is never tried: the polish ends there, so a
    start that is already stationary costs no solve.  Each solve starts from
    the last accepted fixed point, so the polish follows that branch.
    """
    for _ in range(POLISH_ITERS):
        q = cur.prices
        eigs = np.linalg.eigvalsh(cur.hessian)
        if eigs[-1] < 0:
            step = -np.linalg.solve(cur.hessian, cur.gradient)
        else:
            step = cur.gradient / max(np.abs(eigs).max(), 1e-300)
        step *= min(1.0, float(np.min(max_step / np.maximum(np.abs(step), 1e-300))))
        while True:
            if np.max(np.abs(step)) <= STEP_TOL * max(1.0, float(np.max(np.abs(q)))):
                return cur
            try:
                trial = _search_solve(params, q + step, p_star, cur.state)
            except FixedPointError:
                trial = None
            if trial is not None and trial.profit >= cur.profit:
                cur = trial
                break
            step = 0.5 * step
    return cur


@np.errstate(over="ignore")
def verify_nash(params: MarketParams, eq: SymmetricEquilibrium,
                radius: float = 0.5, grid_n: int = 41) -> DeviationReport:
    """Grid search over deviating prices in [p* - r|p*|, p* + r|p*|]^2, then a
    safeguarded Newton polish on exact price derivatives.

    Every stage-2 solve runs on two classes, the deviator and its N-1 rivals
    at p*, so its cost does not grow with N.  One exact solve at p* gives the
    base profit.  The polish starts there, with no second solve, unless the
    best grid cell beats it by more than the stage-2 tolerance resolves in
    profit (FP_TOL |q|_1); then it starts at that cell.  The symmetric point
    itself sits in the search set, so best_gain >= -1e-12 by construction,
    and it reads 0 at p* where no cell resolves a gain; a materially positive
    gain falsifies the equilibrium and is reported, not raised.  Every solve
    is capped at GRID_MAX_ITER.  A grid cell or polish trial whose stage-2
    solve does not converge is rejected, never raised; where the solve at p*
    itself does not converge, the report carries its residual and is not
    certified.  radius must be positive and finite and grid_n at least 1,
    else ValueError.  An overflow at a wide radius reads inf, which drops
    no cell and caps no polish step.
    """
    if eq.regime != "cne":
        raise ValueError("verify_nash certifies competitive points")
    if not 0.0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n!r}")
    p_star = np.array(eq.prices)
    half = radius * np.abs(p_star)
    grids = [np.linspace(p_star[k] - half[k], p_star[k] + half[k], grid_n)
             for k in (0, 1)]
    pb, ps = np.meshgrid(grids[0], grids[1], indexing="ij")
    m = grid_n * grid_n
    base_prices, mult, _ = _classes(params, "cne", p_star, p_star)
    # (deviator, rivals) x sides x cells
    prices = np.repeat(base_prices[..., None], m, axis=-1)
    prices[0, 0] = pb.ravel()
    prices[0, 1] = ps.ravel()

    x_sym = _symmetric_state(eq)
    # one share box gives the grid's step, its contraction bound and the report's L_B
    box = share_box(params, prices, mult)
    shares, resid = class_fixed_point(params, prices, mult,
                                      np.broadcast_to(x_sym[..., None], (3, 2, m)),
                                      tol=FP_TOL, max_iter=GRID_MAX_ITER, maximize=0, box=box)
    profits = shares[1, 0] * prices[0, 0] + shares[1, 1] * prices[0, 1]
    # a cell proven below the best reads residual -inf: resolved, never the best
    profits = np.where(np.abs(resid) <= FP_TOL, profits, -np.inf)

    try:
        base = _search_solve(params, p_star, p_star, x_sym)
        base_profit, base_resid = base.profit, base.residual
    except FixedPointError as err:
        # where stage 2 does not converge at p*, the candidate's own shares stand in
        base, base_resid = None, err.residual
        base_profit = float(x_sym[1, 0] * p_star[0] + x_sym[1, 1] * p_star[1])
    best_idx = int(np.argmax(profits))
    best_prices, best_profit = prices[0, :, best_idx], float(profits[best_idx])
    x_best = shares[..., best_idx]
    start = None
    if base is not None and best_profit - base_profit <= _resolution(best_prices):
        # no cell resolves a gain: the polish starts on the base solve
        best_prices, best_profit, x_best, start = p_star, base_profit, base.state, base
    elif best_profit >= base_profit:
        try:
            start = _search_solve(params, best_prices, p_star, x_best)
        except FixedPointError:
            pass
    else:
        # p* unsolved and no cell above the candidate's own profit: no polish
        best_prices, best_profit, x_best = p_star, base_profit, x_sym

    polished = None if start is None else _newton_polish(
        params, p_star, start, radius * np.maximum(1.0, np.abs(p_star)))
    # a gain below what the stage-2 tolerance resolves in profit is noise
    refined = polished is not None and \
        polished.profit - best_profit > _resolution(polished.prices)
    if refined:
        best_profit, best_prices = polished.profit, polished.prices
        x_best = polished.state
    split = -np.inf if params.n_platforms < 3 else float(
        np.max(np.linalg.eigvals(_rival_split_block(params, x_best[-1])).real))

    return DeviationReport(
        base=eq,
        base_profit=base_profit,
        best_deviation_prices=(float(best_prices[0]), float(best_prices[1])),
        best_gain=float(best_profit - base_profit),
        grid_radius=radius,
        grid_n=grid_n,
        refined=refined,
        base_residual=float(base_resid),
        rival_split_max_re=split,
        grid_converged=int(np.count_nonzero(resid <= FP_TOL)),
        stage2_lipschitz=box[0],
        base_hessian=None if base is None else tuple(map(tuple, base.hessian.tolist())),
    )


# --------------------------------------------------------------------------
# second-order conditions
# --------------------------------------------------------------------------

def soc_cne_diag(z: float, params: MarketParams, side: Side) -> float:
    """Closed-form own-share second derivative of the deviator's profit
    (cross externalities zero); negative throughout the existence region.

    A ratio of two degree-7 series in e^z.  Where either overflows (z above
    about 101), e^{7z} is divided out of both and they are evaluated in
    e^{-z}; the ratio tends to -N (beta N^2 - 2 (N-1) phi_kk) / (N-1)^2.
    Where the denominator e^z B^3 underflows (z below about -690), the ratio
    is num e^{-z} / B^3: about -beta e^{-z}, and -inf once e^{-z} overflows.
    Raises ArithmeticError only where the ratio is NaN."""
    if not params.cross_externalities_zero:
        raise ValueError("closed-form SOC requires zero cross-side externalities")
    n = float(params.n_platforms)
    beta = params.beta[side.index]
    phi = params.phi_own(side)
    z = float(z)
    s = s_coefficients(beta, phi, n)
    num = eval_series(s, 0, z)
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(z)
        b = beta * ((n - 1.0) * ez + 1.0) * (n * ez + 1.0) - ez * phi
        den = ez * b ** 3
    if not (np.isfinite(num) and np.isfinite(den)):
        emz = np.exp(-z)
        num = eval_series(s[::-1], 0, -z)
        den = (beta * (n - 1.0 + emz) * (n + emz) - emz * phi) ** 3
    elif abs(den) < 1e-300:
        # e^z B^3 underflows: e^z leaves the denominator, and e^{-z} may overflow
        with np.errstate(over="ignore"):
            num, den = num * np.exp(-z), b ** 3
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = num / den
    if np.isnan(ratio):
        raise ArithmeticError("SOC ratio is NaN")
    return float(ratio)


@np.errstate(over="ignore", invalid="ignore")
def soc_ce_hessian(z: ZPoint | tuple, params: MarketParams) -> tuple[np.ndarray, bool]:
    """Closed-form Hessian of total collusive profit in share space and its
    negative-definiteness verdict via leading principal minors.  Far out in
    z an exponential overflows: a -inf diagonal still reads negative."""
    n = float(params.n_platforms)
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


def soc_report(params: MarketParams, eq: SymmetricEquilibrium, hessian=None) -> SOCReport:
    """Assemble closed-form (when applicable) and exact price-space SOC
    diagnostics; the latter differentiate the deviator's profit (cne) or
    total profit with every platform moving together (ce) at the solved
    stage-2 fixed point.  That exact price Hessian is solved unless given,
    such as a DeviationReport's base_hessian for a competitive point
    verified at its own prices.  Negative definiteness is judged on the
    prices whose row and column are not identically zero: a side with no
    participation leaves the profit flat in its price (an all-zero Hessian
    is not negative definite)."""
    if hessian is None:
        p_star = np.array(eq.prices)
        hessian = profit_derivatives(params, eq.regime, p_star, p_star,
                                     x0=_symmetric_state(eq)).hessian
    numeric = np.array(hessian, dtype=float)
    live = (numeric != 0).any(axis=0) | (numeric != 0).any(axis=1)
    sub = numeric[np.ix_(live, live)]
    numeric_nd = bool(live.any() and np.all(np.linalg.eigvalsh(0.5 * (sub + sub.T)) < 0))
    cne_diag = None
    ce_hess = None
    closed_ok = None
    if eq.regime == "cne":
        if params.cross_externalities_zero:
            cne_diag = (soc_cne_diag(eq.z.z_b, params, Side.BUYER),
                        soc_cne_diag(eq.z.z_s, params, Side.SELLER))
            closed_ok = cne_diag[0] < 0 and cne_diag[1] < 0
    else:
        ce_hess, closed_ok = soc_ce_hessian(eq.z, params)
    return SOCReport(cne_diag=cne_diag, ce_hessian=ce_hess,
                     numeric_hessian=numeric,
                     closed_form_negative=closed_ok,
                     numeric_negative_definite=numeric_nd)
