"""Stage-1 equilibria in the normalized net-utility variable z.

Both regimes reduce to a two-equation system beta z = Phi Omega(z) - p(z) - u0
with the competitive price p = H(z) Omega(z) or the collusive p = H^C(z) Omega(z).
One function evaluates both prices in share space: in the per-platform share
omega = 1/(e^{-z}+N) and the outside share o = 1/(1+N e^z), each in (0, 1), so
nothing of size e^z is formed and then cancelled.  Every FOC residual, the
decoupled scalar forms and the reported prices go through it; the literal
matrices `h_matrix`/`hc_matrix` stay as the reference the tests compare against.

One root-finder serves every decoupled solve: `solve_decoupled_batch`, a
safeguarded Newton-bisection over arrays of markets on a bracket worked out
from the inputs.  A scalar solve is one batch of its two sides; with nonzero
cross-side externalities a damped Newton on the two-equation system starts
from the decoupled root.  All formulas accept a real-valued platform count so
that derivatives with respect to N can be validated by central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._families import a_coefficients, eval_series
from .model import EULER_GAMMA, MarketParams, Side, check_cne_existence, check_ce_existence

# How far the search window reaches past the tail-asymptote roots of a
# competitive FOC whose price may have a pole (only outside the existence
# region); elsewhere the bracket is bounded from the inputs, see `_bracket`.
Z_BRACKET = 60.0

# mk_slope caps z here: its coefficient family holds e^{6z} terms that would
# overflow further out, and past this z the slope equals its limit -beta to
# double precision.  The bracket reaches beyond it only when |u0|/beta is large.
SLOPE_Z_CAP = 80.0

# Relative central-difference step of the coupled Newton's Jacobian: the step
# on z_j is this times max(1, |z_j|), so z_j +- step stays distinct from z_j
# in double precision however far out z_j lies.
NEWTON_FD_STEP = 1e-7


class FOCSingularityError(ArithmeticError):
    """The pricing-matrix denominator (J_phi or a K factor) vanished."""


class SolverError(RuntimeError):
    """Equilibrium solve failed; carries a short trace of the attempt."""

    def __init__(self, message: str, trace: list[str] | None = None):
        super().__init__(message)
        self.trace = tuple(trace or ())


@dataclass(frozen=True)
class ZPoint:
    """Per-side normalized net deterministic utility."""

    z_b: float
    z_s: float

    def as_array(self) -> np.ndarray:
        return np.array([self.z_b, self.z_s])

    def side(self, side: Side) -> float:
        return self.z_b if side is Side.BUYER else self.z_s

    def __iter__(self):
        return iter((self.z_b, self.z_s))


@dataclass(frozen=True)
class SymmetricEquilibrium:
    """Solved symmetric equilibrium for one regime ("cne" or "ce").

    Profit fields are per platform; `aggregate_profit` scales by N, which is
    the collusive total the cartel actually maximizes.  `foc_residual` and
    `price_check` are absolute, in utility units: the largest gap between the
    price formula and the price the participation identity implies,
    Phi Omega - u0 - beta z.  Both are evaluated in share space, without
    cancellation, so the two fields coincide.
    """

    regime: str
    z: ZPoint
    prices: tuple[float, float]
    shares: tuple[float, float]
    participation: tuple[float, float]
    profit_per_side: tuple[float, float]
    total_profit: float
    consumer_surplus: tuple[float, float]
    foc_residual: float
    price_check: float
    n: float
    params: MarketParams
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def aggregate_profit(self) -> float:
        return self.n * self.total_profit


@dataclass(frozen=True)
class RegimeComparison:
    """Competitive vs collusive equilibria with the price-gap decomposition.

    decomposition_externality[k] + decomposition_utility[k] equals
    (p_ce - p_cne)[k]: the first term is the lost network benefit
    (Phi (x_ce - x_cne))_k, the second the withheld utility beta_k (z_cne - z_ce).
    """

    cne: SymmetricEquilibrium
    ce: SymmetricEquilibrium
    dz: tuple[float, float]
    d_participation: tuple[float, float]
    d_price: tuple[float, float]
    decomposition_externality: tuple[float, float]
    decomposition_utility: tuple[float, float]

    @property
    def decomposition_residual(self) -> float:
        gap = np.array(self.ce.prices) - np.array(self.cne.prices)
        recon = np.array(self.decomposition_externality) + np.array(self.decomposition_utility)
        return float(np.max(np.abs(gap - recon)))


# --------------------------------------------------------------------------
# shares and the share-space price
# --------------------------------------------------------------------------

def omega(z, n):
    """Symmetric per-platform share 1/(e^{-z} + N); 0 once e^{-z} overflows."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (np.exp(-z) + n)
    return out if out.ndim else float(out)


def _outside(z, n):
    """Outside share 1/(1 + N e^z), formed directly rather than as 1 - N omega."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + n * np.exp(z))


def _price(regime: str, z, beta, phi, n):
    """Symmetric prices (H(z) Omega(z))_k ("cne") or (H^C(z) Omega(z))_k ("ce").

    z and beta hold (buyer, seller) on axis 0 and phi is the 2x2 matrix on
    axes 0-1, each with any trailing grid axes.  With l the other side,
    B = o + omega, K = phi_kk o omega - beta (1 - omega), c = phi_bs phi_sb:

        (H Omega)_k   = beta_k [K_l (B_k omega_k phi_kk - beta_k) - c omega_k o_l omega_l B_k
                        - (N-1) phi_lk beta_l omega_k omega_l^2] / (K_b K_s - c o_b omega_b o_s omega_s)
                        - phi_kk omega_k - phi_lk omega_l
        (H^C Omega)_k = beta_k / o_k - phi_kk omega_k - phi_lk omega_l

    A pole of the competitive price reads as a non-finite value.
    """
    return _share_price(regime, omega(z, n), _outside(z, n), beta, phi, n)


def _share_price(regime: str, om, o, beta, phi, n):
    """`_price` from the shares omega and o themselves.  Only + - * / act on
    them, so complex shares and a complex N carry a complex step through."""
    own = np.stack([phi[0][0], phi[1][1]])
    lk = np.stack([phi[1][0], phi[0][1]])
    base = own * om + lk * om[::-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if regime == "ce":
            return beta / o - base
        B = o + om
        K = own * o * om - beta * (1.0 - om)
        c = phi[0][1] * phi[1][0]
        q = o * om
        num = (K[::-1] * (B * om * own - beta) - c * om * q[::-1] * B
               - (n - 1.0) * lk * beta[::-1] * om * om[::-1] ** 2)
        return beta * num / (K[0] * K[1] - c * q[0] * q[1]) - base


def _as_z_array(z) -> np.ndarray:
    if isinstance(z, ZPoint):
        return z.as_array()
    arr = np.asarray(z, dtype=float)
    if arr.shape != (2,):
        raise ValueError("z must provide (z_b, z_s)")
    return arr


# --------------------------------------------------------------------------
# literal pricing matrices (reference) and FOC residuals
# --------------------------------------------------------------------------

def h_matrix(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """Competitive pricing matrix H(z).

    Entries combine L_k = (N-1) beta_k (1+N e^{z_k}) / J_phi,
    d_k = beta_k (1+N e^{z_k}), h_k = beta_k (1+e^{z_k})(e^{-z_k}+N),
    K_k = phi_kk - beta_k (1+N e^{z_k})(e^{-z_k}+N-1) and
    J_phi = K_b K_s - phi_sb phi_bs.
    """
    zv = _as_z_array(z)
    n = float(params.n_platforms if n is None else n)
    beta = params.beta_arr
    phi = params.phi_arr
    with np.errstate(over="ignore", invalid="ignore"):
        ez = np.exp(zv)
        emz = np.exp(-zv)
        one_nez = 1.0 + n * ez
        d = beta * one_nez
        h = beta * (1.0 + ez) * (emz + n)
        K = np.diag(phi) - beta * one_nez * (emz + n - 1.0)
        j_phi = K[0] * K[1] - phi[1, 0] * phi[0, 1]
        scale = abs(K[0] * K[1]) + abs(phi[1, 0] * phi[0, 1]) + 1.0
        if abs(j_phi) < 1e-14 * scale:
            raise FOCSingularityError("FOC singularity (J_phi or K_k vanishes)")
        L = (n - 1.0) * beta * one_nez / j_phi
        return np.array([
            [L[0] * d[0] * K[1] + h[0] - phi[0, 0], -phi[1, 0] * (d[1] * L[0] + 1.0)],
            [-phi[0, 1] * (d[0] * L[1] + 1.0), L[1] * d[1] * K[0] + h[1] - phi[1, 1]],
        ])


def hc_matrix(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """Collusive pricing matrix H^C(z): diagonal beta_k (1+N e^{z_k})^2 / e^{z_k} - phi_kk,
    off-diagonal -phi_sb / -phi_bs."""
    zv = _as_z_array(z)
    n = float(params.n_platforms if n is None else n)
    beta = params.beta_arr
    phi = params.phi_arr
    # (1+N e^z)^2 / e^z expanded so neither exponential is squared
    with np.errstate(over="ignore"):
        diag = beta * (np.exp(-zv) + 2.0 * n + n * n * np.exp(zv)) - np.diag(phi)
    return np.array([[diag[0], -phi[1, 0]], [-phi[0, 1], diag[1]]])


def _residual(regime: str, z, params: MarketParams, n: float | None) -> np.ndarray:
    zv = _as_z_array(z)
    n = float(params.n_platforms if n is None else n)
    return (params.phi_arr @ omega(zv, n) - _price(regime, zv, params.beta_arr, params.phi_arr, n)
            - params.u0_arr - params.beta_arr * zv)


def cne_foc_residual(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """(Phi - H(z)) Omega(z) - u0 - beta z in share space; zero exactly at the competitive z*."""
    return _residual("cne", z, params, n)


def ce_foc_residual(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """(Phi - H^C(z)) Omega(z) - u0 - beta z in share space; zero exactly at the collusive z."""
    return _residual("ce", z, params, n)


# --------------------------------------------------------------------------
# decoupled (zero cross-externality) scalar forms
# --------------------------------------------------------------------------

def _decoupled_value(regime: str, z, beta, phi_kk, n, u0):
    """Row k of the FOC residual with zero cross externalities.  That row does
    not depend on side l, so side l mirrors side k."""
    scalar = all(np.ndim(a) == 0 for a in (z, beta, phi_kk, u0))
    z, b, f, u = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (z, beta, phi_kk, u0)))
    zero = np.zeros_like(f)
    p = _price(regime, np.stack([z, z]), np.stack([b, b]), np.array([[f, zero], [zero, f]]), n)[0]
    out = f * omega(z, n) - p - u - b * z
    return float(out) if scalar else out


def mk_value(z, beta, phi_kk, n, u0):
    """Decoupled competitive FOC residual M_k(z); strictly decreasing in the existence region."""
    return _decoupled_value("cne", z, beta, phi_kk, n, u0)


def mk_slope(z, beta, phi_kk, n):
    """dM_k/dz via the slope coefficient family; strictly negative in the existence region."""
    z = np.minimum(np.asarray(z, dtype=float), SLOPE_Z_CAP)
    coeffs = a_coefficients(beta, phi_kk, n)
    num = eval_series(coeffs, 0, z)
    ez = np.exp(z)
    den = (1.0 + n * ez) ** 2 * (beta * (1.0 + (n - 1.0) * ez) * (1.0 + n * ez) - ez * phi_kk) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = -num / den
    return out if out.ndim else float(out)


def mkc_value(z, beta, phi_kk, n, u0):
    """Decoupled collusive FOC residual 2 phi omega(z) - beta (1+N e^z) - u0 - beta z."""
    return _decoupled_value("ce", z, beta, phi_kk, n, u0)


def mkc_slope(z, beta, phi_kk, n):
    """dM_k^C/dz = 2 phi omega o - beta / o, from omega' = omega o."""
    z = np.asarray(z, dtype=float)
    o = _outside(z, n)
    with np.errstate(divide="ignore"):
        out = 2.0 * phi_kk * omega(z, n) * o - beta / o
    return out if np.ndim(out) else float(out)


# --------------------------------------------------------------------------
# the decoupled root-finder
# --------------------------------------------------------------------------

def _bracket(regime: str, beta, phi_kk, n, u0):
    """Ends (lo, hi) with value(lo) > 0 > value(hi), worked out from the inputs.

    Each decoupled FOC reads g(z) - u0 - beta z, so the root lies where
    beta z = g - u0 for some value g takes.  The competitive g is bounded by
    2|phi|/N + beta (beta + |phi|/N) / D, where D = beta (N-1)/N - max(phi, 0)/(4N)
    keeps the price denominator -K away from zero; D > 0 throughout the
    existence region.  Where D <= 0 the price may have a pole and no bound
    holds; the window then reaches Z_BRACKET beyond where beta z meets the
    tail limits of g - u0: -beta - u0 as z -> -inf and
    g_inf - u0 = 3 phi/N - (beta N^2 - phi)/(N (N-1)) - u0 as z -> inf.
    The collusive g is at most a - beta N e^z with a = 2 max(phi, 0)/N - beta,
    so the root lies below both a/beta and, for z >= 0, ln(a/(beta N)); g is
    at least -2|phi|/N - 2 beta for z <= -ln N.
    """
    if regime == "ce":
        lo = np.minimum((-2.0 * np.abs(phi_kk) / n - 2.0 * beta - u0) / beta, -np.log(n)) - 1.0
        a = 2.0 * np.maximum(phi_kk, 0.0) / n - beta - u0
        with np.errstate(divide="ignore", invalid="ignore"):
            return lo, np.fmin(a / beta, np.maximum(np.log(a / (beta * n)), 0.0)) + 1.0
    d = beta * (n - 1.0) / n - np.maximum(phi_kk, 0.0) / (4.0 * n)
    g_inf = 3.0 * phi_kk / n - (beta * n * n - phi_kk) / (n * (n - 1.0))
    with np.errstate(divide="ignore"):
        g = np.where(d > 0, 2.0 * np.abs(phi_kk) / n + beta * (beta + np.abs(phi_kk) / n) / d,
                     np.maximum(beta, np.abs(g_inf)) + beta * Z_BRACKET)
    return (-g - u0) / beta - 1.0, (g - u0) / beta + 1.0


def _rtsafe(regime: str, pos, neg, beta, phi_kk, n, u0):
    """Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4) on 1-D
    arrays of brackets whose ends `pos`/`neg` have positive/negative FOC values.

    A cell takes the Newton step with the analytic slope when it lands inside
    the bracket and is at most half the step before last, and bisects
    otherwise.  A non-finite value (a pole) counts as negative.  Cells freeze
    once the step falls to rounding size.  Returns (z, FOC value at z).
    """
    value, slope = (mk_value, mk_slope) if regime == "cne" else (mkc_value, mkc_slope)
    pos, neg = np.array(pos, dtype=float), np.array(neg, dtype=float)
    beta, phi_kk, u0 = (np.broadcast_to(np.asarray(a, dtype=float), pos.shape)
                        for a in (beta, phi_kk, u0))
    z, fz = 0.5 * (pos + neg), np.full(pos.shape, np.nan)
    step = np.abs(pos - neg)
    step_old = step.copy()
    act = np.arange(z.size)
    for _ in range(200):  # enough for bisection alone on a bracket up to ~1e40 wide
        if not act.size:
            break
        x, b, f, u = z[act], beta[act], phi_kk[act], u0[act]
        fx, dfx = value(x, b, f, n, u), slope(x, b, f, n)
        up = fx > 0
        p, q = np.where(up, x, pos[act]), np.where(up, neg[act], x)
        pos[act], neg[act], fz[act] = p, q, fx
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = fx / dfx
            use = ((x - newton - p) * (x - newton - q) < 0) & (2.0 * np.abs(newton) <= step_old[act])
        delta = np.where(use, newton, x - 0.5 * (p + q))
        step_old[act] = step[act]
        step[act] = np.abs(delta)
        done = (np.abs(delta) <= 4e-16 * np.maximum(1.0, np.abs(x))) | (fx == 0)
        z[act] = np.where(done, x, x - delta)
        act = act[~done]
    return z, fz


def solve_decoupled_batch(regime: str, beta, phi_kk, n, u0):
    """Roots of the decoupled FOCs of one regime ("cne" or "ce") over arrays
    of markets, by one safeguarded Newton-bisection.

    Returns z with NaN where the bracket never sign-changes or the solve lands
    on a pole instead of a root (possible outside the existence region).
    """
    value = mk_value if regime == "cne" else mkc_value
    shape = np.broadcast_shapes(np.shape(beta), np.shape(phi_kk), np.shape(u0))
    beta, phi_kk, u0 = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel()
                        for a in (beta, phi_kk, u0))
    lo, hi = _bracket(regime, beta, phi_kk, n, u0)
    ok = (value(lo, beta, phi_kk, n, u0) > 0) & (value(hi, beta, phi_kk, n, u0) < 0)
    z, fz = _rtsafe(regime, lo[ok], hi[ok], beta[ok], phi_kk[ok], n, u0[ok])
    out = np.full(beta.shape, np.nan)
    out[ok] = np.where(np.abs(fz) <= 1e-6, z, np.nan)  # a pole's value is not small
    return out.reshape(shape)


def _scan_roots(regime: str, beta: float, phi_kk: float, n: float, u0: float) -> np.ndarray:
    """Every root of one side's decoupled FOC at a sign change of a 601-point
    scan of its bracket, solved as one batch; ascending."""
    value = mk_value if regime == "cne" else mkc_value
    zs = np.linspace(*_bracket(regime, beta, phi_kk, n, u0), 601)
    v = value(zs, beta, phi_kk, n, u0)
    a, b = v[:-1], v[1:]
    i = np.flatnonzero(np.isfinite(a) & np.isfinite(b) & ((a > 0) != (b > 0)))
    up = a[i] > 0
    z, fz = _rtsafe(regime, np.where(up, zs[i], zs[i + 1]), np.where(up, zs[i + 1], zs[i]),
                    beta, phi_kk, n, u0)
    z = z[np.abs(fz) < 1e-8]
    return z[np.r_[True, np.diff(z) >= 1e-8]] if z.size else z


# --------------------------------------------------------------------------
# coupled 2D Newton
# --------------------------------------------------------------------------

def _newton2d(residual, z0: np.ndarray, tol: float, max_iter: int = 80) -> np.ndarray:
    z = z0.copy()
    F = residual(z)
    trace: list[str] = []
    for it in range(max_iter):
        err = float(np.max(np.abs(F)))
        if err <= tol:
            return z
        J = np.empty((2, 2))
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = NEWTON_FD_STEP * max(1.0, abs(z[j]))
            J[:, j] = (residual(z + dz) - residual(z - dz)) / (2.0 * dz[j])
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular Jacobian in coupled Newton", trace) from exc
        lam = 1.0
        for _ in range(100):
            z_new = z - lam * step
            F_new = residual(z_new)
            if np.all(np.isfinite(F_new)) and np.max(np.abs(F_new)) < err:
                break
            lam *= 0.5
        else:
            trace.append(f"iter {it}: stalled at residual {err:.3e}")
            raise SolverError("coupled Newton diverged (line search exhausted)", trace)
        trace.append(f"iter {it}: residual {err:.3e} -> {np.max(np.abs(F_new)):.3e}")
        z, F = z_new, F_new
    if float(np.max(np.abs(F))) <= tol:
        return z
    raise SolverError("coupled Newton did not reach tolerance", trace)


# --------------------------------------------------------------------------
# public solvers
# --------------------------------------------------------------------------

def consumer_surplus(params: MarketParams, prices, shares, n: float | None = None) -> np.ndarray:
    """Per-side consumer surplus mu + beta (ln(N+1) + gamma_EM) - p + (Phi x)_k.

    The first term is the expected maximum of the N+1 idiosyncratic taste draws.
    Nothing is cast to float, so a complex step passes through.
    """
    n = params.n_platforms if n is None else n
    p = np.asarray(prices)
    x = np.asarray(shares)
    emax = params.mu_arr + params.beta_arr * (np.log(n + 1.0) + EULER_GAMMA)
    return emax - p + params.phi_arr @ x


def _assemble(regime: str, zv: np.ndarray, params: MarketParams, n: float,
              warnings: list[str]) -> SymmetricEquilibrium:
    om = omega(zv, n)
    prices = _price(regime, zv, params.beta_arr, params.phi_arr, n)
    implied = params.phi_arr @ om - params.beta_arr * zv - params.u0_arr
    gap = float(np.max(np.abs(implied - prices)))
    cs = consumer_surplus(params, prices, om, n)
    per_side = prices * om
    return SymmetricEquilibrium(
        regime=regime,
        z=ZPoint(float(zv[0]), float(zv[1])),
        prices=(float(prices[0]), float(prices[1])),
        shares=(float(om[0]), float(om[1])),
        participation=(float(n * om[0]), float(n * om[1])),
        profit_per_side=(float(per_side[0]), float(per_side[1])),
        total_profit=float(per_side.sum()),
        consumer_surplus=(float(cs[0]), float(cs[1])),
        foc_residual=gap,
        price_check=gap,
        n=n,
        params=params,
        warnings=tuple(warnings),
    )


def _solve(regime: str, params: MarketParams, tol: float, n: float | None) -> SymmetricEquilibrium:
    n = float(params.n_platforms if n is None else n)
    exists = (check_cne_existence if regime == "cne" else check_ce_existence)(params, n)
    warnings = [f"{regime} existence condition fails on side {side.label}"
                for side, ok in zip(Side, exists) if not ok]
    beta, phi_kk, u0 = params.beta_arr, np.diag(params.phi_arr), params.u0_arr
    z = solve_decoupled_batch(regime, beta, phi_kk, n, u0)
    for k in (0, 1):
        if exists[k]:
            continue
        # the FOC may turn non-monotone: keep the max-profit root of the scan
        roots = _scan_roots(regime, beta[k], phi_kk[k], n, u0[k])
        if roots.size > 1:
            warnings.append(f"multiple FOC roots ({roots.size}); selected max-profit root")
        if roots.size:
            om = omega(roots, n)
            z[k] = roots[np.argmax((phi_kk[k] * om - beta[k] * roots - u0[k]) * om)]
    if np.isnan(z).any():
        raise SolverError(f"no root in range for the decoupled {regime} FOC")

    if not params.cross_externalities_zero:
        residual_fn = cne_foc_residual if regime == "cne" else ce_foc_residual
        z = _newton2d(lambda zz: residual_fn(zz, params, n), z, tol=min(tol, 1e-12))
    return _assemble(regime, z, params, n, warnings)


def solve_cne(params: MarketParams, tol: float = 1e-10, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the symmetric competitive equilibrium.

    Both sides' decoupled FOCs are solved as one batch of
    :func:`solve_decoupled_batch`; that is the answer with zero cross-side
    externalities, and otherwise the start of a damped Newton on the full
    two-equation system.  Where a side fails the existence check its FOC may
    have several roots: a scan of its bracket finds them all and the
    max-profit root is kept.  A failed existence check downgrades to a
    warning on the result (region-boundary sweeps need values slightly outside
    the certified region).  `foc_residual` and `price_check` keep their
    absolute meaning and are evaluated in share space, without cancellation.
    """
    return _solve("cne", params, tol, n)


def solve_ce(params: MarketParams, tol: float = 1e-10, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the collusive equilibrium; same contract as :func:`solve_cne`."""
    return _solve("ce", params, tol, n)


def compare_regimes(params: MarketParams, tol: float = 1e-10) -> RegimeComparison:
    """Solve both regimes and decompose the collusion-minus-competition price gap."""
    cne = solve_cne(params, tol)
    ce = solve_ce(params, tol)
    z_star = cne.z.as_array()
    z_c = ce.z.as_array()
    x_star = np.array(cne.shares)
    x_c = np.array(ce.shares)
    ext_term = params.phi_arr @ (x_c - x_star)
    util_term = params.beta_arr * (z_star - z_c)
    return RegimeComparison(
        cne=cne,
        ce=ce,
        dz=tuple(z_star - z_c),
        d_participation=tuple(np.array(cne.participation) - np.array(ce.participation)),
        d_price=tuple(np.array(cne.prices) - np.array(ce.prices)),
        decomposition_externality=(float(ext_term[0]), float(ext_term[1])),
        decomposition_utility=(float(util_term[0]), float(util_term[1])),
    )
