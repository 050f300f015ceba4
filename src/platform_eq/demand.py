"""Stage-2 user behavior: logit shares, the share fixed point, and a sampling oracle.

Shares live on a per-side probability simplex over N+1 options (index 0 is the
outside option, indices 1..N the platforms).  The fixed-point map feeds each
side's externality-adjusted utilities back through the logit formula; the
iteration x <- (1-d) x + d Sigma(x) solves it for arbitrary, possibly
asymmetric, price profiles.  By default d comes from the share box of the
solve's prices (share_box): undamped (d = 1) where Sigma is a contraction on
the box the iterates reach, d = 0.5 otherwise.

One kernel (_sigma) and one loop (class_fixed_point) run every solve.  They
work on platform classes: the m_c platforms of class c charge one price and
hold one share, so the logit denominator is e^{u0/beta} + sum_c m_c
e^{u_c/beta}.  The state is laid out batch-last, (C+1 options, 2 sides,
cells), so each reduction runs over whole rows of cells.  share_fixed_point,
fixed_point_batch and fixed_point_multistart take one platform per class and
keep their (..., 2, N+1) shapes, transposing only at their boundary; the
deviation search solves two classes (deviator, rivals) whatever N is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import omega
from .model import MarketParams, Side

SIMPLEX_TOL = 1e-10
FIXED_POINT_TOL = 1e-12   # sup-norm tolerance on Sigma(x) - x: the solvers' default
BOX_STEPS = 2   # interval steps from the simplex to the invariant share box
DEDUPE_TOL = 1e-9   # multistart limits this close in every share are one point
MC_CHUNK = 250_000  # simulated users per Monte Carlo draw, bounding its memory


class FixedPointError(RuntimeError):
    """Raised when the share iteration fails to reach tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = float(residual)


@dataclass(frozen=True, eq=False)
class MarketState:
    """Per-side share vectors (x_k^0, x_k^1, ..., x_k^N); row 0 buyers, row 1 sellers."""

    shares: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.shares, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != 2 or arr.shape[1] < 2:
            raise ValueError("shares must have shape (2, N+1)")
        if np.any(arr < -SIMPLEX_TOL) or np.any(np.abs(arr.sum(axis=1) - 1.0) > SIMPLEX_TOL):
            raise ValueError("each side's shares must lie on the probability simplex")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "shares", arr)

    @property
    def outside(self) -> np.ndarray:
        return self.shares[:, 0]

    @property
    def platform_shares(self) -> np.ndarray:
        """Inside shares only, shape (2, N)."""
        return self.shares[:, 1:]


@dataclass(frozen=True)
class ShareSensitivities:
    """Own-utility (s) and cross-platform (r) share derivatives at a symmetric profile."""

    s: float
    r: float


@dataclass(frozen=True, eq=False)
class MonteCarloShares:
    """Empirical choice frequencies with binomial standard errors."""

    shares: MarketState
    stderr: np.ndarray
    samples: int
    seed: int


# --------------------------------------------------------------------------
# closed-form logit
# --------------------------------------------------------------------------

def logit_shares(det_utilities, beta: float) -> np.ndarray:
    """Softmax choice probabilities exp(u_i/beta) / sum_j exp(u_j/beta).

    Computed with max-subtraction so u/beta far outside the exp range cannot
    overflow.  Entries sum to 1 to within 1e-12.
    """
    u = np.asarray(det_utilities, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("invalid utility")
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError("beta must be positive")
    scaled = u / beta
    scaled = scaled - scaled.max()
    e = np.exp(scaled)
    return e / e.sum()


def _sigma(x: np.ndarray, phi: np.ndarray, beta: np.ndarray, u0_beta: np.ndarray,
           prices: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One application of the share map on a class state laid out batch-last.

    x has shape (C+1, 2, cells): row 0 is the outside option and row c the
    share each platform of class c holds; prices are (C, 2, cells).  mult is
    (C+1, 1, 1), the outside option's 1 then the class sizes, which weight the
    logit denominator e^{u0/beta} + sum_c m_c e^{u_c/beta}.  The market's
    constants come as the loop builds them once: phi (2, 2), and beta and
    u0/beta as (2, 1) columns.
    """
    u = np.empty(x.shape)
    u[0] = u0_beta
    np.subtract(np.matmul(phi, x[1:]), prices, out=u[1:])
    u[1:] /= beta
    u -= u.max(axis=0)
    np.exp(u, out=u)
    u /= (mult * u).sum(axis=0)
    return u


def _coerce_prices(params: MarketParams, prices) -> np.ndarray:
    """prices as a float array of shape (..., 2, N), row 0 the buyers; the
    outside option always costs 0."""
    arr = np.asarray(prices, dtype=float)
    if arr.shape[-2:] != (2, params.n_platforms):
        raise ValueError(f"prices must have shape (..., 2, {params.n_platforms})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("prices must be finite")
    return arr


def share_fixed_point(params: MarketParams, prices, damping: float | None = None,
                      tol: float = FIXED_POINT_TOL, max_iter: int = 100_000,
                      x0: MarketState | np.ndarray | None = None) -> MarketState:
    """Solve x = Sigma(x) for the per-side share vectors at the given prices.

    Args:
        params: market parameters.
        prices: array of shape (2, N), row 0 the buyers.
        damping: step size d in x <- (1-d) x + d Sigma(x), in (0, 1]; None
            takes d = 1 where the share box at these prices proves a
            contraction (share_box's L_B < 1) and 0.5 otherwise.
        tol: sup-norm tolerance on Sigma(x) - x.
        max_iter: iteration cap.
        x0: optional warm start.

    Raises:
        FixedPointError: no convergence within max_iter; the exception carries
            the last residual so callers can retry with an explicit, smaller
            damping.
    """
    if x0 is not None:
        x0 = x0.shares if isinstance(x0, MarketState) else np.asarray(x0, dtype=float)
    x, resid = fixed_point_batch(params, prices, damping, tol, max_iter, x0=x0)
    if resid > tol:
        raise FixedPointError("share fixed point did not converge", float(resid))
    return MarketState(x)


def fixed_point_batch(params: MarketParams, prices_batch: np.ndarray,
                      damping: float | None = None, tol: float = FIXED_POINT_TOL,
                      max_iter: int = 100_000, x0: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fixed point over a leading batch of price profiles:
    class_fixed_point with every platform its own class.

    Returns (shares, residuals) with shares of shape (..., 2, N+1); cells that
    failed to converge keep their last iterate and a residual above tol.  A
    single profile is the batch of shape ().
    """
    p = _coerce_prices(params, prices_batch)
    n = params.n_platforms
    if x0 is None:
        x0 = np.full((2, n + 1), 1.0 / (n + 1))
    batch = np.broadcast_shapes(p.shape[:-2], np.shape(x0)[:-2])
    # to the kernel's (options, sides, cells) and back
    x0 = np.broadcast_to(x0, batch + (2, n + 1)).reshape(-1, 2, n + 1).T
    p = np.broadcast_to(p, batch + (2, n)).reshape(-1, 2, n).T
    x, resid = class_fixed_point(params, p, np.ones(n), x0, damping, tol, max_iter)
    return x.T.reshape(batch + (2, n + 1)), resid.reshape(batch)


def class_fixed_point(params: MarketParams, prices: np.ndarray, mult: np.ndarray,
                      x0: np.ndarray, damping: float | None = None,
                      tol: float = FIXED_POINT_TOL, max_iter: int = 100_000,
                      maximize: int | None = None, box: tuple | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The stage-2 fixed point on platform classes, batch-last.

    The N platforms fall into C classes of mult[c] platforms each, and the
    platforms of a class charge one price and hold one share.  prices have
    shape (C, 2, cells) and x0 (C+1, 2, cells), row 0 the outside option;
    x0 is copied, never written.  Each sweep applies x <- (1-d) x + d Sigma(x)
    to the cells that have not yet met tol; a cell leaves the batch with the
    iterate at which its sup-norm residual first fell to tol.  damping=None
    takes d = 1 where the share box of the call's prices proves a contraction
    (share_box's L_B < 1), and d = 0.5 otherwise; an explicit damping in
    (0, 1] is used as given.  The box is formed only when the first sweep
    leaves a cell unmet; a caller that already holds share_box(params,
    prices, mult) passes it as box.  Returns (shares, residuals) of shapes
    (C+1, 2, cells) and (cells,); an unconverged cell keeps its last iterate
    and a residual above tol, and max_iter = 0 returns x0 with residual inf.
    No cells return x0 and an empty residual.

    maximize names a class c whose profit pi = sum_k prices[c, k] x[c+1, k]
    the caller maximizes over the cells.  At d = 1 and L = L_B < 1, Sigma is
    an L-contraction in the sup norm on the box, which holds every iterate
    from the start if x0 lies in it and after BOX_STEPS sweeps otherwise:
    from then on a cell at residual r whose sweep gives s meets tol below
    pi(s) + |prices[c]|_1 (L r + tol + 2 delta) / (1 - L), delta a sweep's
    rounding, and leaves with residual -inf once that falls below the best
    met cell's.
    """
    if damping is not None and not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = np.array(x0, dtype=float, order="C")
    p = np.ascontiguousarray(prices, dtype=float)
    m = np.concatenate(([1.0], mult))[:, None, None]
    phi, beta = params.phi_arr, params.beta_arr[:, None]
    u0_beta = params.u0_arr[:, None] / beta
    resid = np.full(x.shape[-1], np.inf)
    # the swept cells: their batch index, iterate, prices and last residual,
    # and which of them have already met tol and been written out
    idx, xa, pa, ra = np.arange(x.shape[-1]), x, p, resid
    met = np.zeros(idx.size, dtype=bool)
    # the share box picks d and gives the bound its L; bound_from is the
    # first sweep whose iterate the box is known to hold (None: no bound)
    need_box = damping is None or (damping == 1.0 and maximize is not None)
    bound_from = None
    for sweep in range(max_iter if idx.size else 0):  # no cells: no sweep picks a damping
        s = _sigma(xa, phi, beta, u0_beta, pa, m)
        ra = np.max(np.abs(s - xa), axis=(0, 1))
        new = (ra <= tol) & ~met
        if need_box and not new.all():
            need_box = False
            lip, lo, hi = share_box(params, p, mult) if box is None else box
            if damping is None:
                damping = 1.0 if lip < 1.0 else 0.5
            if maximize is not None and damping == 1.0 and lip < 1.0:
                inside = np.all((lo[..., None] <= x[1:]) & (x[1:] <= hi[..., None]))
                bound_from = 0 if inside else BOX_STEPS
                c, best = maximize, -np.inf
                # 2 delta: a few ulps of the largest utility |u|/beta a sweep forms
                u_max = (np.abs(params.u0_arr).max() + np.abs(phi).sum(axis=1).max()
                         + np.abs(p).max(initial=0.0)) / params.beta_arr.min()
                slack = tol + 32.0 * np.finfo(float).eps * (1.0 + u_max)
        if bound_from is not None:
            if new.any():
                best = max(best, (xa[c + 1] * pa[c])[:, new].sum(axis=0).max())
            if sweep >= bound_from:
                reach = ((s[c + 1] * pa[c]).sum(axis=0)
                         + np.abs(pa[c]).sum(axis=0) * (lip * ra + slack) / (1.0 - lip))
                beaten = (reach < best) & ~met & ~new
                ra[beaten] = -np.inf
                new |= beaten
        if new.any():
            x[..., idx[new]] = xa[..., new]
            resid[idx[new]] = ra[new]
            met |= new
            if met.all():
                break
            # met cells are dropped only in bulk: compacting costs a copy of
            # the whole live state
            if 4 * met.sum() >= met.size:
                live = ~met
                idx, ra, met = idx[live], ra[live], met[live]
                xa, pa, s = xa[..., live], pa[..., live], s[..., live]
        xa = s if damping == 1.0 else (1.0 - damping) * xa + damping * s
    else:
        live = ~met
        x[..., idx[live]] = xa[..., live]
        resid[idx[live]] = ra[live]
    return x, resid


@dataclass(frozen=True, eq=False)
class MultiStartResult:
    """Distinct fixed points found from random interior starts."""

    points: tuple[MarketState, ...]
    max_distance: float

    @property
    def multiple(self) -> bool:
        return len(self.points) > 1


def fixed_point_multistart(params: MarketParams, prices, starts: int = 10,
                           seed: int = 0, max_iter: int = 100_000) -> MultiStartResult:
    """Run the fixed point from `starts` random interior starts and report all
    distinct limits.  Where the share box at these prices proves a contraction
    (share_box's L_B < 1, as a positive contraction margin always does) the
    result must be a single point; otherwise multiplicity is reported rather
    than hidden.  Each start takes class_fixed_point's default damping, d = 0.5
    where L_B >= 1, and must meet FIXED_POINT_TOL.  starts must be at least 1,
    else ValueError.
    """
    if starts < 1:
        raise ValueError(f"starts must be at least 1, got {starts!r}")
    rng = np.random.default_rng(seed)
    p = _coerce_prices(params, prices)
    n = params.n_platforms
    x0 = rng.dirichlet(np.ones(n + 1), size=(starts, 2))
    batch_p = np.broadcast_to(p, (starts, 2, n)).copy()
    x, resid = fixed_point_batch(params, batch_p, max_iter=max_iter, x0=x0)
    if np.any(resid > FIXED_POINT_TOL):
        raise FixedPointError("a multistart replicate did not converge", float(resid.max()))
    max_dist = 0.0
    points: list[np.ndarray] = []
    for i in range(starts):
        for j in range(i + 1, starts):
            max_dist = max(max_dist, float(np.max(np.abs(x[i] - x[j]))))
        if not any(np.max(np.abs(x[i] - q)) <= DEDUPE_TOL for q in points):
            points.append(x[i])
    return MultiStartResult(points=tuple(MarketState(q) for q in points),
                            max_distance=max_dist)


# --------------------------------------------------------------------------
# contraction diagnostics and logit derivatives
# --------------------------------------------------------------------------

def contraction_margin(params: MarketParams) -> float:
    """1 - M_T * M_phi; positive values certify a unique stage-2 fixed point.

    M_phi is the max absolute row sum of the externality matrix (the Lipschitz
    constant of the linear externality map) and M_T is the logit bound
    1/(2 min beta) on the summed share derivatives, reached only at a 50%
    share.  This is the price-free certificate; the solvers take their step
    from share_box, whose L_B at any prices is at most 1 - margin.
    """
    phi = params.phi_arr
    m_phi = float(np.max(np.sum(np.abs(phi), axis=1)))
    m_t = 1.0 / (2.0 * min(params.beta))
    return 1.0 - m_t * m_phi


def share_box(params: MarketParams, prices: np.ndarray, mult: np.ndarray
              ) -> tuple[float, np.ndarray, np.ndarray]:
    """The box of class shares the fixed-point iterates reach at the given
    prices, and the share map's sup-norm Lipschitz constant L_B on it.

    prices (C, 2, cells) and mult (C,) are class_fixed_point's.  Every
    per-platform share of class c starts in [0, 1/m_c].  An interval step
    bounds each utility phi x - p over the box and over the class's and
    side's min..max price, then each share by the logit with its own utility
    at one end and every other class's at the other.  The steps only shrink,
    so after BOX_STEPS of them the box B holds every later iterate of d = 1,
    every fixed point at any of these prices, and its own image.  One more
    step encloses Sigma(B), and the map's row sums give
    L_B = max_{c,k} (sum_l |phi_kl| / beta_k) max_{Sigma(B)} s (2 - 2 m_c s - s_0).
    s (2 - 2 m_c s - s_0) <= 1/2, so L_B <= 1 - contraction_margin(params).
    L_B < 1 proves a single fixed point at every one of the prices; an L_B
    that is not finite is returned as inf, not proven.  Returns (L_B, lo, hi)
    with lo and hi the (C, 2) bounds of B.
    """
    phi, beta = params.phi_arr, params.beta_arr
    phi_pos, phi_neg = np.maximum(phi, 0.0).T, np.minimum(phi, 0.0).T
    m = np.asarray(mult, dtype=float)[:, None]
    log_m = np.log(m)
    u0_beta = params.u0_arr / beta
    # (low, high) end of each utility's price term: the highest price, the lowest
    p_ends = np.stack((prices.max(axis=-1), prices.min(axis=-1)))
    eye = np.eye(len(m), dtype=bool)[..., None]

    def step(box):
        # box and the utilities u = phi x - p are (low/high end, class, side)
        v = (box @ phi_pos + box[::-1] @ phi_neg - p_ends) / beta
        # share c is smallest with its own utility low and every other high,
        # and largest the other way round: 1 / (e^{u0 - own_c} + m_c +
        # sum_{d != c} m_d e^{other_d - own_c}), in logs, so an exponent past
        # the float range only rounds a share to 0
        own, other = v[:, :, None], v[::-1, None]
        t = np.concatenate((u0_beta - own, np.where(eye, log_m, log_m + other - own)), axis=2)
        return np.exp(-np.logaddexp.reduce(t, axis=2)), v[1]

    with np.errstate(all="ignore"):
        box = np.stack((np.zeros(m.shape), 1.0 / m)) * np.ones((1, 1, 2))
        for _ in range(BOX_STEPS):
            box, _v = step(box)
        (s_lo, s_hi), v_hi = step(box)
        # the outside share is smallest with every utility at its top
        s0 = np.exp(-np.logaddexp.reduce(
            np.concatenate((np.zeros((1, 2)), log_m + v_hi - u0_beta)), axis=0))
        s = np.clip((2.0 - s0) / (4.0 * m), s_lo, s_hi)
        lip = float(np.max(np.abs(phi).sum(axis=1) / beta * s * (2.0 - 2.0 * m * s - s0)))
    return (lip if np.isfinite(lip) else np.inf), box[0], box[1]


def sensitivities(z: float, params: MarketParams, side: Side) -> ShareSensitivities:
    """Own- and cross-platform share derivatives at a symmetric profile.

    In the per-platform share omega = 1/(e^{-z} + N): s = omega (1 - omega) / beta
    and r = -omega^2 / beta, finite for every z.
    """
    beta = params.beta[side.index]
    w = omega(float(z), params.n_platforms)
    return ShareSensitivities(s=float(w * (1.0 - w) / beta), r=float(-w * w / beta))


# --------------------------------------------------------------------------
# Monte Carlo sampling oracle
# --------------------------------------------------------------------------

def monte_carlo_shares(params: MarketParams, prices, fixed_state: MarketState,
                       samples: int, seed: int) -> MonteCarloShares:
    """Estimate choice frequencies by simulating idiosyncratic taste draws.

    The externality term is frozen at `fixed_state` (no re-equilibration inside
    the sampler), which isolates the discrete-choice layer: each simulated user
    draws one taste per option and picks the utility argmax.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    p = _coerce_prices(params, prices)
    n = params.n_platforms
    phi = params.phi_arr
    ext = phi @ fixed_state.platform_shares  # (2, N)
    rng = np.random.default_rng(seed)
    freqs = np.empty((2, n + 1))
    for k in (0, 1):
        u_det = np.concatenate([[params.u0[k]], ext[k] - p[k]])
        counts = np.zeros(n + 1, dtype=np.int64)
        left = samples
        while left > 0:
            m = min(left, MC_CHUNK)
            # tastes with the side's location mu_k and scale beta_k
            eps = rng.gumbel(loc=params.mu[k], scale=params.beta[k], size=(m, n + 1))
            choice = np.argmax(eps + u_det, axis=1)
            counts += np.bincount(choice, minlength=n + 1)
            left -= m
        freqs[k] = counts / samples
    stderr = np.sqrt(freqs * (1.0 - freqs) / samples)
    return MonteCarloShares(shares=MarketState(freqs), stderr=stderr,
                            samples=samples, seed=seed)
