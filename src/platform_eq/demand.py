"""Stage-2 user behavior: logit shares, the share fixed point, and a sampling oracle.

Shares live on a per-side probability simplex over N+1 options (index 0 is the
outside option, indices 1..N the platforms).  The fixed-point map feeds each
side's externality-adjusted utilities back through the logit formula; the
iteration x <- (1-d) x + d Sigma(x) solves it for arbitrary, possibly
asymmetric, price profiles.  By default d comes from the contraction margin:
undamped (d = 1) where a positive margin certifies Sigma a contraction, d = 0.5
otherwise.

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

from .model import MarketParams, Side

SIMPLEX_TOL = 1e-10


class FixedPointError(RuntimeError):
    """Raised when the share iteration fails to reach tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = float(residual)


@dataclass(frozen=True)
class PriceProfile:
    """Per-platform, per-side prices; the outside option always costs 0."""

    buyer: tuple[float, ...]
    seller: tuple[float, ...]

    def __post_init__(self):
        b = tuple(float(p) for p in np.atleast_1d(self.buyer))
        s = tuple(float(p) for p in np.atleast_1d(self.seller))
        if len(b) != len(s):
            raise ValueError("buyer and seller price vectors must have equal length")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(s))):
            raise ValueError("prices must be finite")
        object.__setattr__(self, "buyer", b)
        object.__setattr__(self, "seller", s)

    @classmethod
    def symmetric(cls, n_platforms: int, p_b: float, p_s: float) -> "PriceProfile":
        return cls(buyer=(p_b,) * n_platforms, seller=(p_s,) * n_platforms)

    @property
    def n_platforms(self) -> int:
        return len(self.buyer)

    def as_array(self) -> np.ndarray:
        return np.array([self.buyer, self.seller], dtype=float)


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
    def n_platforms(self) -> int:
        return self.shares.shape[1] - 1

    @property
    def outside(self) -> np.ndarray:
        return self.shares[:, 0]

    @property
    def platform_shares(self) -> np.ndarray:
        """Inside shares only, shape (2, N)."""
        return self.shares[:, 1:]

    def side(self, side: Side) -> np.ndarray:
        return self.shares[side.index]


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


class GumbelDraw:
    """Seedable source of idiosyncratic utilities; identical seeds reproduce draws."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def draw(self, params: MarketParams, side: Side, size) -> np.ndarray:
        """Draws with the side's location mu_k and scale beta_k."""
        return self._rng.gumbel(loc=params.mu[side.index],
                                scale=params.beta[side.index], size=size)


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


def _sigma(x: np.ndarray, params: MarketParams, prices: np.ndarray,
           mult: np.ndarray) -> np.ndarray:
    """One application of the share map on a class state laid out batch-last.

    x has shape (C+1, 2, cells): row 0 is the outside option and row c the
    share each platform of class c holds; prices are (C, 2, cells).  mult is
    (C+1, 1, 1), the outside option's 1 then the class sizes, which weight the
    logit denominator e^{u0/beta} + sum_c m_c e^{u_c/beta}.
    """
    u = np.empty(x.shape)
    u[0] = params.u0_arr[:, None]
    np.subtract(np.matmul(params.phi_arr, x[1:]), prices, out=u[1:])
    u /= params.beta_arr[:, None]
    u -= u.max(axis=0)
    np.exp(u, out=u)
    u /= (mult * u).sum(axis=0)
    return u


def _coerce_prices(params: MarketParams, prices) -> np.ndarray:
    if isinstance(prices, PriceProfile):
        arr = prices.as_array()
    else:
        arr = np.asarray(prices, dtype=float)
    if arr.shape[-2:] != (2, params.n_platforms):
        raise ValueError(f"prices must have shape (..., 2, {params.n_platforms})")
    if not np.all(np.isfinite(arr)):
        raise ValueError("prices must be finite")
    return arr


def share_fixed_point(params: MarketParams, prices, damping: float | None = None,
                      tol: float = 1e-12, max_iter: int = 100_000,
                      x0: MarketState | np.ndarray | None = None) -> MarketState:
    """Solve x = Sigma(x) for the per-side share vectors at the given prices.

    Args:
        params: market parameters.
        prices: PriceProfile or array of shape (2, N).
        damping: step size d in x <- (1-d) x + d Sigma(x), in (0, 1]; None
            takes d = 1 where contraction_margin(params) > 0 and 0.5 otherwise.
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
                      damping: float | None = None, tol: float = 1e-12,
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
                      x0: np.ndarray, damping: float | None = None, tol: float = 1e-12,
                      max_iter: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """The stage-2 fixed point on platform classes, batch-last.

    The N platforms fall into C classes of mult[c] platforms each, and the
    platforms of a class charge one price and hold one share.  prices have
    shape (C, 2, cells) and x0 (C+1, 2, cells), row 0 the outside option;
    x0 is copied, never written.  Each sweep applies x <- (1-d) x + d Sigma(x)
    to the cells that have not yet met tol; a cell leaves the batch with the
    iterate at which its sup-norm residual first fell to tol.  damping=None
    takes d = 1 where contraction_margin(params) > 0 certifies a contraction,
    and d = 0.5 otherwise; an explicit damping in (0, 1] is used as given.
    Returns (shares, residuals) of shapes (C+1, 2, cells) and (cells,); an
    unconverged cell keeps its last iterate and a residual above tol, and
    max_iter = 0 returns x0 with residual inf.
    """
    if damping is None:
        damping = 1.0 if contraction_margin(params) > 0 else 0.5
    elif not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x = np.array(x0, dtype=float, order="C")
    p = np.ascontiguousarray(prices, dtype=float)
    m = np.concatenate(([1.0], mult))[:, None, None]
    resid = np.full(x.shape[-1], np.inf)
    # the live cells: their batch index, iterate, prices and last residual
    idx, xa, pa, ra = np.arange(x.shape[-1]), x, p, resid
    for _ in range(max_iter):
        s = _sigma(xa, params, pa, m)
        ra = np.max(np.abs(s - xa), axis=(0, 1))
        done = ra <= tol
        if done.any():
            x[..., idx[done]] = xa[..., done]
            resid[idx[done]] = ra[done]
            live = ~done
            idx, ra = idx[live], ra[live]
            xa, pa, s = xa[..., live], pa[..., live], s[..., live]
            if idx.size == 0:
                break
        xa = (1.0 - damping) * xa + damping * s
    else:
        x[..., idx] = xa
        resid[idx] = ra
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
                           seed: int = 0, damping: float | None = None, tol: float = 1e-12,
                           max_iter: int = 100_000, dedupe_tol: float = 1e-9
                           ) -> MultiStartResult:
    """Run the fixed point from `starts` random interior starts and report all
    distinct limits.  With a positive contraction margin the result must be a
    single point; otherwise multiplicity is reported rather than hidden.
    damping is class_fixed_point's: by default d = 0.5 at a margin <= 0.
    """
    rng = np.random.default_rng(seed)
    p = _coerce_prices(params, prices)
    n = params.n_platforms
    x0 = rng.dirichlet(np.ones(n + 1), size=(starts, 2))
    batch_p = np.broadcast_to(p, (starts, 2, n)).copy()
    x, resid = fixed_point_batch(params, batch_p, damping, tol, max_iter, x0=x0)
    if np.any(resid > tol):
        raise FixedPointError("a multistart replicate did not converge", float(resid.max()))
    max_dist = 0.0
    points: list[np.ndarray] = []
    for i in range(starts):
        for j in range(i + 1, starts):
            max_dist = max(max_dist, float(np.max(np.abs(x[i] - x[j]))))
        if not any(np.max(np.abs(x[i] - q)) <= dedupe_tol for q in points):
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
    1/(2 min beta) on the summed share derivatives.
    """
    phi = params.phi_arr
    m_phi = float(np.max(np.sum(np.abs(phi), axis=1)))
    m_t = 1.0 / (2.0 * min(params.beta))
    return 1.0 - m_t * m_phi


def sensitivities(z: float, params: MarketParams, side: Side) -> ShareSensitivities:
    """Own- and cross-platform share derivatives at a symmetric profile.

    In the per-platform share omega = 1/(e^{-z} + N): s = omega (1 - omega) / beta
    and r = -omega^2 / beta, finite for every z.
    """
    beta = params.beta[side.index]
    if not beta > 0:
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):
        omega = 1.0 / (np.exp(-float(z)) + params.n_platforms)
    return ShareSensitivities(s=float(omega * (1.0 - omega) / beta),
                              r=float(-omega * omega / beta))


# --------------------------------------------------------------------------
# Monte Carlo sampling oracle
# --------------------------------------------------------------------------

def monte_carlo_shares(params: MarketParams, prices, fixed_state: MarketState,
                       samples: int, seed: int, chunk: int = 250_000
                       ) -> MonteCarloShares:
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
    source = GumbelDraw(seed)
    freqs = np.empty((2, n + 1))
    for side in Side:
        k = side.index
        u_det = np.concatenate([[params.u0[k]], ext[k] - p[k]])
        counts = np.zeros(n + 1, dtype=np.int64)
        left = samples
        while left > 0:
            m = min(left, chunk)
            eps = source.draw(params, side, size=(m, n + 1))
            choice = np.argmax(eps + u_det, axis=1)
            counts += np.bincount(choice, minlength=n + 1)
            left -= m
        freqs[k] = counts / samples
    stderr = np.sqrt(freqs * (1.0 - freqs) / samples)
    return MonteCarloShares(shares=MarketState(freqs), stderr=stderr,
                            samples=samples, seed=seed)
