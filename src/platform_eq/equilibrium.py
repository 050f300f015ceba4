"""Stage-1 equilibria in the normalized net-utility variable z.

Both regimes reduce to a two-equation system beta z = Phi Omega(z) - p(z) - u0
with the competitive price p = H(z) Omega(z) or the collusive p = H^C(z) Omega(z).
One function evaluates both prices in share space: in the per-platform share
omega = 1/(e^{-z}+N) and the outside share o = 1/(1+N e^z), each in (0, 1), so
nothing of size e^z is formed and then cancelled.  Every FOC residual, the
decoupled scalar forms and the reported prices go through it; a decoupled
side is one row that mirrors itself.  The literal matrices H and H^C live in
the tests, as the reference it is checked against.

One root path serves every decoupled solve: `_roots` cuts each side's
bracket, worked out from the inputs, into pieces and runs one safeguarded
Newton-bisection over every piece of every side that changes sign.  A cell
ends once its Newton step falls below rounding size, so a root met to the
last bit is not bisected away from.  One solver, `solve_markets`, runs it
once per platform count over regimes x markets x sides, one piece a side;
`solve_cne` and `solve_ce` are its one-market case.  A mask marks a batch's
collusive columns, and every kernel takes each column's regime from it.  The
sides failing the existence mask take one more batch, at 600 pieces.  With
nonzero cross-side externalities a damped Newton on the two-equation system
starts from the decoupled root, over all such columns of the batch at once:
one complex-step call gives every exact Jacobian and one stacked solve every
step.  The equilibria are then assembled over columns.  Only the public
entry points enter an errstate.
All formulas accept a real-valued platform count so that derivatives with
respect to N can be validated by central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._families import a_coefficients, eval_series
from .model import (EULER_GAMMA, MarketParams, Side, ce_existence_bound, cne_existence_bound,
                    existence_fails)

# How far the search window reaches past the tail-asymptote roots of a
# competitive FOC whose price may have a pole (only outside the existence
# region); elsewhere the bracket is bounded from the inputs, see `_bracket`.
Z_BRACKET = 60.0

# mk_slope caps z here: its coefficient family holds e^{6z} terms that would
# overflow further out, and past this z the slope equals its limit -beta to
# double precision.  The bracket reaches beyond it only when |u0|/beta is large.
SLOPE_Z_CAP = 80.0

# A stalled coupled Newton names its Jacobian near-singular at or below this
# relative determinant det J / (|J00 J11| + |J01 J10|), a condition number of
# about 1e6 or more: the Newton step is then ill-determined, and the line
# search can run out on a residual far above rounding size.
NEAR_SINGULAR = 1e-6

# Imaginary step of `_complex_partials`: a complex step subtracts nothing, so
# any step far below rounding size gives the derivative to full precision
# (Squire & Trapp 1998), however far out z lies.
COMPLEX_STEP = 1e-20

# the floating-point state of every stage-1 kernel; as a decorator it nests safely
_quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore")


class SolverError(RuntimeError):
    """Equilibrium solve failed; the message says where and why."""


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


def _shares(z, n):
    """omega(z) and the outside share 1/(1 + N e^z), formed directly rather
    than as 1 - N omega."""
    return 1.0 / (np.exp(-z) + n), 1.0 / (1.0 + n * np.exp(z))


def _pick(ce, collusive, competitive):
    """collusive() where the mask ce holds, competitive() elsewhere, each only if needed."""
    if ce.all():
        return collusive()
    if not ce.any():
        return competitive()
    return np.where(ce, collusive(), competitive())


def _share_price(ce, om, o, beta, own, lk, n):
    """Symmetric prices (H(z) Omega(z))_k ("cne") or, where the mask ce
    holds, (H^C(z) Omega(z))_k ("ce") from the shares omega and o at z, with
    beta, own = phi_kk and lk = phi_lk holding (buyer, seller) on axis 0
    ahead of any trailing axes, which ce spans.  With l the
    other side, B = o + omega, K = phi_kk o omega - beta (1 - omega),
    c = phi_bs phi_sb:

        (H Omega)_k   = beta_k [K_l (B_k omega_k phi_kk - beta_k) - c omega_k o_l omega_l B_k
                        - (N-1) phi_lk beta_l omega_k omega_l^2] / (K_b K_s - c o_b omega_b o_s omega_s)
                        - phi_kk omega_k - phi_lk omega_l
        (H^C Omega)_k = beta_k / o_k - phi_kk omega_k - phi_lk omega_l

    A pole of the competitive price reads as a non-finite value.  Only
    + - * / act on the shares, so complex shares and a complex N carry a
    complex step through.  A side axis of length 1 is a decoupled side that
    mirrors itself: l is k there.
    """
    base = own * om + lk * om[::-1]

    def competitive():
        B = o + om
        K = own * o * om - beta * (1.0 - om)
        c = lk[0] * lk[-1]
        q = o * om
        num = (K[::-1] * (B * om * own - beta) - c * om * q[::-1] * B
               - (n - 1.0) * lk * beta[::-1] * om * om[::-1] ** 2)
        return beta * num / (K[0] * K[-1] - c * q[0] * q[-1]) - base
    return _pick(ce, lambda: beta / o - base, competitive)


def _as_z_array(z) -> np.ndarray:
    if isinstance(z, ZPoint):
        return z.as_array()
    arr = np.asarray(z, dtype=float)
    if arr.shape != (2,):
        raise ValueError("z must provide (z_b, z_s)")
    return arr


# --------------------------------------------------------------------------
# FOC residuals over columns of markets
# --------------------------------------------------------------------------

class _Columns(NamedTuple):
    """A batch of markets' constants, one column each: beta, u0, mu, phi_kk
    and phi_lk with the side axis first, the stacked Phi matrices, and the
    mask of the collusive columns."""

    beta: np.ndarray
    u0: np.ndarray
    mu: np.ndarray
    own: np.ndarray
    lk: np.ndarray
    phis: np.ndarray
    ce: np.ndarray

    @classmethod
    def of(cls, markets, ce) -> "_Columns":
        # per market: beta, u0, mu, then Phi's rows (phi_bb, phi_bs, phi_sb, phi_ss)
        a = np.array([(*p.beta, *p.u0, *p.mu, *p.phi[0], *p.phi[1])
                      for p in markets]).reshape(-1, 10)
        return cls(a[:, 0:2].T, a[:, 2:4].T, a[:, 4:6].T, a[:, 6::3].T, a[:, 8:6:-1].T,
                   a[:, 6:].reshape(-1, 2, 2), np.broadcast_to(np.asarray(ce, bool), len(a)))

    def take(self, cols) -> "_Columns":
        """The columns cols."""
        return _Columns(*(a[:, cols] for a in self[:5]), self.phis[cols], self.ce[cols])


def _foc(c: _Columns, z: np.ndarray, n: float) -> np.ndarray:
    """The FOC residual Phi omega - p - u0 - beta z at every column of z (2, cells)."""
    om, o = _shares(z, n)
    return (_phi_times(c.phis, om) - _share_price(c.ce, om, o, c.beta, c.own, c.lk, n)
            - c.u0 - c.beta * z)


@_quiet
def cne_foc_residual(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """(Phi - H(z)) Omega(z) - u0 - beta z in share space; zero exactly at the competitive z*."""
    n = float(params.n_platforms if n is None else n)
    return _foc(_Columns.of([params], False), _as_z_array(z)[:, None], n)[:, 0]


@_quiet
def ce_foc_residual(z, params: MarketParams, n: float | None = None) -> np.ndarray:
    """(Phi - H^C(z)) Omega(z) - u0 - beta z in share space; zero exactly at the collusive z."""
    n = float(params.n_platforms if n is None else n)
    return _foc(_Columns.of([params], True), _as_z_array(z)[:, None], n)[:, 0]


def _phi_times(phi, x):
    """Phi x over the side axis of x, as one matrix-vector product per
    trailing index, so each column carries the bits of that product alone
    (a matrix-matrix product may round the sums differently).  phi is one
    2x2 matrix or a stack of them, one per column of x's second axis."""
    return np.matmul(phi, x.T[..., None])[..., 0].T


def _complex_partials(c: _Columns, z: np.ndarray, n: float, dz: np.ndarray,
                      dn: np.ndarray, foc_only: bool = False) -> np.ndarray:
    """Directional partials of the FOC residual F, the price p, the profit
    p omega, the consumer surplus, the participation N omega and z itself,
    each (buyer, seller), stacked in that order on axis 0, at every column
    of z (2, cells).  Direction j moves (z_b, z_s, N) along (dz[:, j], dn[j])
    and is the last axis of the result, of shape (12, cells, directions);
    foc_only keeps F's two rows and forms nothing else.

    One complex step through the share-space price: the shares omega and o
    move along their exact tangents omega_z = omega o, o_z = -N omega o,
    omega_N = -omega^2 and o_N = -omega o, so no e^z is formed in complex
    arithmetic.
    """
    om, o = (a[..., None] for a in _shares(z, n))
    h, dz = COMPLEX_STEP, dz[:, None]
    zc, nc = z[..., None] + 1j * h * dz, n + 1j * h * dn
    omc = om + 1j * h * om * (o * dz - om * dn)
    oc = o - 1j * h * om * o * (n * dz + dn)
    beta = c.beta[..., None]
    p = _share_price(c.ce[:, None], omc, oc, beta, c.own[..., None], c.lk[..., None], nc)
    F = _phi_times(c.phis, omc) - p - c.u0[..., None] - beta * zc
    if foc_only:
        return F.imag / h
    cs = _surplus(c.mu[..., None], beta, c.phis, p, omc, nc)
    return np.concatenate([F, p, p * omc, cs, nc * omc, zc]).imag / h


# --------------------------------------------------------------------------
# decoupled (zero cross-externality) scalar forms
# --------------------------------------------------------------------------

def _decoupled_value(ce, z, beta, phi_kk, n, u0):
    """Row k of the FOC residual with zero cross externalities, of the
    collusive regime where the mask ce holds.  That row does not depend on
    side l, so side l mirrors side k."""
    scalar = all(np.ndim(a) == 0 for a in (z, beta, phi_kk, u0))
    z, b, f, u = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (z, beta, phi_kk, u0)))
    # one side row, which is its own mirror, with zero cross coefficients
    om, o = _shares(z[None], n)
    p = _share_price(np.asarray(ce), om, o, b[None], f[None], np.zeros((1,) * om.ndim), n)[0]
    out = f * om[0] - p - u - b * z
    return float(out) if scalar else out


@_quiet
def mk_value(z, beta, phi_kk, n, u0):
    """Decoupled competitive FOC residual M_k(z); strictly decreasing in the existence region."""
    return _decoupled_value(False, z, beta, phi_kk, n, u0)


@_quiet
def mk_slope(z, beta, phi_kk, n, a=None):
    """dM_k/dz via the slope coefficient family a = a_coefficients(beta, phi_kk, n),
    built here unless given; strictly negative in the existence region."""
    a = a_coefficients(beta, phi_kk, n) if a is None else a
    z = np.minimum(np.asarray(z, dtype=float), SLOPE_Z_CAP)
    out = -eval_series(a, 0, z) / _slope_denominator(np.exp(z), beta, phi_kk, n)
    return out if out.ndim else float(out)


def _slope_denominator(ez, beta, phi_kk, n):
    """The denominator of `mk_slope` at e^z.  On a float e^z both squares
    are scalar powers, which differ from an array's squares in the last bit
    for some inputs; the columnar closed forms call it per cell for that."""
    return (1.0 + n * ez) ** 2 * (beta * (1.0 + (n - 1.0) * ez) * (1.0 + n * ez) - ez * phi_kk) ** 2


@_quiet
def mkc_value(z, beta, phi_kk, n, u0):
    """Decoupled collusive FOC residual 2 phi omega(z) - beta (1+N e^z) - u0 - beta z."""
    return _decoupled_value(True, z, beta, phi_kk, n, u0)


@_quiet
def mkc_slope(z, beta, phi_kk, n):
    """dM_k^C/dz = 2 phi omega o - beta / o, from omega' = omega o."""
    om, o = _shares(np.asarray(z, dtype=float), n)
    out = 2.0 * phi_kk * om * o - beta / o
    return out if np.ndim(out) else float(out)


# --------------------------------------------------------------------------
# the decoupled root-finder
# --------------------------------------------------------------------------

def _bracket(ce, beta, phi_kk, n, u0):
    """Ends (lo, hi), stacked on axis 0, with value(lo) > 0 > value(hi),
    worked out from the inputs; collusive where the mask ce holds.

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
    def collusive():
        lo = np.minimum((-2.0 * np.abs(phi_kk) / n - 2.0 * beta - u0) / beta, -np.log(n)) - 1.0
        a = 2.0 * np.maximum(phi_kk, 0.0) / n - beta - u0
        return np.stack([lo, np.fmin(a / beta, np.maximum(np.log(a / (beta * n)), 0.0)) + 1.0])

    def competitive():
        d = beta * (n - 1.0) / n - np.maximum(phi_kk, 0.0) / (4.0 * n)
        g_inf = 3.0 * phi_kk / n - (beta * n * n - phi_kk) / (n * (n - 1.0))
        g = np.where(d > 0, 2.0 * np.abs(phi_kk) / n + beta * (beta + np.abs(phi_kk) / n) / d,
                     np.maximum(beta, np.abs(g_inf)) + beta * Z_BRACKET)
        return np.stack([(-g - u0) / beta - 1.0, (g - u0) / beta + 1.0])
    return _pick(ce, collusive, competitive)


def _rtsafe(ce, pos, neg, beta, phi_kk, n, u0):
    """Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4) on cells
    of equal 1-D arrays: brackets whose ends `pos`/`neg` (narrowed in place)
    have positive/negative FOC values, of the collusive FOC where ce holds.

    A cell takes the Newton step with the analytic slope when it lands inside
    the bracket and is at most half the step before last, and bisects
    otherwise.  A non-finite value (a pole) counts as negative.  A cell ends
    once its Newton step falls to rounding size, |f/f'| <= 4e-16 max(1, |z|),
    whether or not that step lands inside the bracket: on the root a sub-ulp
    step rounds back to z itself, and bisecting from there would only walk
    back to the same z.  It also ends when its bisection step is that small
    or its value is exactly zero.  Near a pole the Newton step points at the
    pole, so a pole cell still ends beside it, with a large value the caller
    rejects.  Returns (z, FOC value at z).
    """
    a = None if ce.all() else a_coefficients(beta, phi_kk, n)  # cne slope family, once
    z, fz = 0.5 * (pos + neg), np.full(pos.shape, np.nan)
    step = np.abs(pos - neg)
    step_old = step.copy()
    act = np.arange(z.size)
    for _ in range(200):  # enough for bisection alone on a bracket up to ~1e40 wide
        if not act.size:
            break
        x, b, f, u, c = z[act], beta[act], phi_kk[act], u0[act], ce[act]
        fx = _decoupled_value(c, x, b, f, n, u)
        dfx = _pick(c, lambda: mkc_slope(x, b, f, n), lambda: mk_slope(x, b, f, n, a))
        up = fx > 0
        p, q = np.where(up, x, pos[act]), np.where(up, neg[act], x)
        pos[act], neg[act], fz[act] = p, q, fx
        newton = fx / dfx
        use = ((x - newton - p) * (x - newton - q) < 0) & (2.0 * np.abs(newton) <= step_old[act])
        delta = np.where(use, newton, x - 0.5 * (p + q))
        step_old[act] = step[act]
        step[act] = np.abs(delta)
        floor = 4e-16 * np.maximum(1.0, np.abs(x))
        done = (np.abs(newton) <= floor) | (np.abs(delta) <= floor) | (fx == 0)
        z[act] = np.where(done, x, x - delta)
        act = act[~done]
        if a is not None:
            a = a[~done]  # keep the rows of the live cells, in the order of act
    return z, fz


def _roots(ce, beta, phi_kk, n, u0, pieces):
    """Every root of the decoupled FOCs of 1-D arrays of sides, collusive
    where ce holds, as (side, z), ascending within a side.  One `_rtsafe`
    solves every one of each bracket's `pieces` equal pieces whose end values
    are not NaN and differ in sign.  A root is kept where |FOC| <= 1e-6 (a
    pole's value is not small); a side's roots closer than 1e-8 count once."""
    zs = np.linspace(*_bracket(ce, beta, phi_kk, n, u0), pieces + 1)  # (pieces + 1, sides)
    v = _decoupled_value(ce, zs, beta, phi_kk, n, u0)
    a, b = v[:-1], v[1:]
    side, i = np.nonzero((~np.isnan(a) & ~np.isnan(b) & ((a > 0) != (b > 0))).T)
    up = a[i, side] > 0
    left, right = zs[i, side], zs[i + 1, side]
    z, fz = _rtsafe(ce[side], np.where(up, left, right), np.where(up, right, left),
                    beta[side], phi_kk[side], n, u0[side])
    keep = np.abs(fz) <= 1e-6
    side, z = side[keep], z[keep]
    first = np.ones(z.size, bool)
    first[1:] = (side[1:] != side[:-1]) | (z[1:] - z[:-1] >= 1e-8)
    return side[first], z[first]


@_quiet
def solve_decoupled_batch(regime, beta, phi_kk, n, u0):
    """Roots of the decoupled FOCs over arrays of markets: `_roots` with the
    whole bracket as one piece.  regime is "cne", "ce", or a boolean mask,
    broadcast with the inputs, that holds on the collusive cells.

    Returns z with NaN where the bracket never sign-changes or the solve lands
    on a pole instead of a root (possible outside the existence region).
    """
    ce = np.asarray(regime == "ce" if isinstance(regime, str) else regime, dtype=bool)
    shape = np.broadcast_shapes(ce.shape, np.shape(beta), np.shape(phi_kk), np.shape(u0))
    ce, beta, phi_kk, u0 = (np.broadcast_to(np.asarray(a, dtype=t), shape).ravel()
                            for a, t in ((ce, bool), (beta, float), (phi_kk, float), (u0, float)))
    side, z = _roots(ce, beta, phi_kk, n, u0, 1)
    out = np.full(beta.shape, np.nan)
    out[side] = z
    return out.reshape(shape)


# --------------------------------------------------------------------------
# coupled 2D Newton over columns
# --------------------------------------------------------------------------

def _solve_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps J^-1 F of every column by one stacked solve, and a
    mask of the columns whose J is singular (NaN steps): slogdet's sign is 0
    where a solve would raise, while a det underflows to 0 on a tiny J."""
    singular = np.linalg.slogdet(J)[0] == 0  # a non-finite J has no sign
    step = np.linalg.solve(np.where(singular[:, None, None], np.eye(2), J),
                           F.T[..., None])[..., 0].T
    step[:, singular] = np.nan
    return step, singular


def _newton(c: _Columns, n: float, z: np.ndarray, tol: float,
            max_iter: int = 80) -> tuple[np.ndarray, dict[int, SolverError]]:
    """Damped Newton on the two-equation FOC of each column's regime at every
    column of z (2, cells), with the exact Jacobians F_z of `_complex_partials`.
    Each column has its own residual and up to 100 step halvings; one
    complex-step call and one stacked solve serve all live columns per
    iteration.  Returns z and, per column that failed, its SolverError."""
    z = np.array(z, dtype=float)
    F = _foc(c, z, n)
    err = np.max(np.abs(F), axis=0)
    live = np.arange(z.shape[1])
    failed = {}
    for _ in range(max_iter):
        live = live[~(err[live] <= tol)]  # a NaN residual has not converged
        if not live.size:
            break
        cl, zl, e = c.take(live), z[:, live], err[live]
        J = _complex_partials(cl, zl, n, np.eye(2), np.zeros(2), foc_only=True).transpose(1, 0, 2)
        step, drop = _solve_steps(J, F[:, live])
        for j in np.flatnonzero(drop):
            failed[live[j]] = SolverError("singular Jacobian in coupled Newton")
        lam = np.ones(live.size)
        todo = np.flatnonzero(~drop)
        for _ in range(100):
            if not todo.size:
                break
            zt = zl[:, todo] - lam[todo] * step[:, todo]
            Ft = _foc(cl.take(todo), zt, n)
            et = np.max(np.abs(Ft), axis=0)
            ok = np.isfinite(Ft).all(axis=0) & (et < e[todo])
            cols = live[todo[ok]]
            z[:, cols], F[:, cols], err[cols] = zt[:, ok], Ft[:, ok], et[ok]
            todo = todo[~ok]
            lam[todo] *= 0.5
        for j in todo:
            a, b = J[j, 0, 0] * J[j, 1, 1], J[j, 0, 1] * J[j, 1, 0]
            rel_det = (a - b) / (abs(a) + abs(b))
            why = ("near-singular Jacobian" if abs(rel_det) <= NEAR_SINGULAR
                   else "line search exhausted")
            failed[live[j]] = SolverError(f"coupled Newton stalled ({why}): relative determinant "
                                          f"{rel_det:.2e} at residual {e[j]:.2e}")
        drop[todo] = True
        live = live[~drop]
    for col in live[~(err[live] <= tol)]:
        failed[col] = SolverError("coupled Newton did not reach tolerance")
    return z, failed


# --------------------------------------------------------------------------
# public solvers
# --------------------------------------------------------------------------

def _surplus(mu, beta, phi, p, x, n):
    """mu + beta (ln(N+1) + gamma_EM) - p + (Phi x)_k, everything on the side
    axis of x; phi is one matrix or a stack, as in `_phi_times`."""
    return mu + beta * (np.log(n + 1.0) + EULER_GAMMA) - p + _phi_times(phi, x)


def consumer_surplus(params: MarketParams, prices, shares, n: float | None = None) -> np.ndarray:
    """Per-side consumer surplus mu + beta (ln(N+1) + gamma_EM) - p + (Phi x)_k.

    The first term is the expected maximum of the N+1 idiosyncratic taste draws.
    Nothing is cast to float, so a complex step passes through.
    """
    n = params.n_platforms if n is None else n
    x = np.asarray(shares)
    col = (slice(None),) + (None,) * (x.ndim - 1)  # sides ahead of any trailing axes
    return _surplus(params.mu_arr[col], params.beta_arr[col], params.phi_arr,
                    np.asarray(prices), x, n)


def _assemble(markets: list, c: _Columns, z: np.ndarray, n: float,
              warnings: list) -> list[SymmetricEquilibrium]:
    """The equilibria at the columns of z (2, cells), evaluated over columns."""
    om, o = _shares(z, n)
    prices = _share_price(c.ce, om, o, c.beta, c.own, c.lk, n)
    implied = _phi_times(c.phis, om) - c.beta * z - c.u0
    gap = np.max(np.abs(implied - prices), axis=0)
    cs = _surplus(c.mu, c.beta, c.phis, prices, om, n)
    per_side = prices * om
    cols = zip(*(a.tolist() for a in (*z, *prices, *om, *(n * om), *per_side,
                                      per_side[0] + per_side[1], *cs, gap)))
    return [SymmetricEquilibrium(
        regime="ce" if ce else "cne", z=ZPoint(zb, zs), prices=(pb, ps), shares=(xb, xs),
        participation=(nxb, nxs), profit_per_side=(pib, pis), total_profit=pi,
        consumer_surplus=(csb, css), foc_residual=g, price_check=g, n=n, params=params,
        warnings=tuple(w))
        for params, w, ce, (zb, zs, pb, ps, xb, xs, nxb, nxs, pib, pis, pi, csb, css, g)
        in zip(markets, warnings, c.ce.tolist(), cols)]


@_quiet
def solve_markets(regimes, markets, tol: float = 1e-10, n: float | None = None) -> list:
    """Solve each of the regimes ("cne", "ce") on many markets at once.

    The markets are grouped by platform count, so N stays one float per
    group, and each group runs in columns, one per (regime, market), the
    collusive ones marked by a mask: its decoupled FOCs as one batch of
    :func:`solve_decoupled_batch` over columns x sides, then one existence
    mask over columns x sides, then one damped Newton on the two-equation
    system over every column with nonzero cross-side externalities, started
    from its batched root, and one assembly of the equilibria.  The sides
    the mask marks take one more `_roots` batch, at 600 pieces a side, for
    every root, and each keeps its max-profit one.  Returns one list per
    regime holding, per market, its SymmetricEquilibrium or its SolverError.
    `n` evaluates every market at one real-valued platform count.
    """
    m = len(markets)
    groups: dict[float, list[int]] = {}
    for i, p in enumerate(markets):
        groups.setdefault(float(p.n_platforms if n is None else n), []).append(i)
    out = [None] * (len(regimes) * m)  # regime r, market i at r m + i
    for nk, rows in groups.items():
        rows = [r * m + i for r in range(len(regimes)) for i in rows]
        group = [markets[i % m] for i in rows]
        c = _Columns.of(group, [regimes[i // m] == "ce" for i in rows])
        z = np.ascontiguousarray(solve_decoupled_batch(c.ce[:, None], c.beta.T, c.own.T, nk,
                                                       c.u0.T).T)
        regime = np.where(c.ce, "ce", "cne").tolist()
        bound = np.where(c.ce, ce_existence_bound(nk), cne_existence_bound(nk))
        fails = np.argwhere(existence_fails(c.beta, c.own, bound).T)  # (column, side)
        warnings = [[] for _ in rows]
        for j, k in fails.tolist():
            warnings[j].append(f"{regime[j]} existence condition fails on side {Side(k).label}")
        if fails.size:
            # there the FOC may turn non-monotone: find every root, keep the max-profit one
            j, k = fails.T
            beta, phi_kk, u0 = c.beta[k, j], c.own[k, j], c.u0[k, j]
            side, found = _roots(c.ce[j], beta, phi_kk, nk, u0, 600)
            ends = np.searchsorted(side, np.arange(len(fails) + 1))
            for f, (j, k) in enumerate(fails.tolist()):
                roots = found[ends[f]:ends[f + 1]]
                if roots.size > 1:
                    warnings[j].append(f"multiple FOC roots ({roots.size}); "
                                       "selected max-profit root")
                if roots.size:
                    om = omega(roots, nk)
                    z[k, j] = roots[np.argmax((phi_kk[f] * om - beta[f] * roots - u0[f]) * om)]
        bad = np.isnan(z).any(axis=0)
        for j in np.flatnonzero(bad):
            out[rows[j]] = SolverError(f"no root in range for the decoupled {regime[j]} FOC")
        coupled = np.flatnonzero(~bad & c.lk.any(axis=0))
        if coupled.size:
            z[:, coupled], failed = _newton(c.take(coupled), nk, z[:, coupled],
                                            tol=min(tol, 1e-12))
            for col, exc in failed.items():
                out[rows[coupled[col]]] = exc
                bad[coupled[col]] = True
        ok = np.flatnonzero(~bad)
        eqs = _assemble([group[j] for j in ok], c.take(ok), z[:, ok], nk,
                        [warnings[j] for j in ok])
        for j, eq in zip(ok, eqs):
            out[rows[j]] = eq
    return [out[r * m:(r + 1) * m] for r in range(len(regimes))]


def _one(result):
    """A one-market solve's equilibrium, or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result


def solve_cne(params: MarketParams, tol: float = 1e-10, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the symmetric competitive equilibrium.

    Both sides' decoupled FOCs are solved as one batch of
    :func:`solve_decoupled_batch`; that is the answer with zero cross-side
    externalities, and otherwise the start of a damped Newton on the full
    two-equation system.  Where a side fails the existence check its FOC may
    have several roots: its bracket, cut into 600 pieces, gives them all and
    the max-profit root is kept.  A failed existence check downgrades to a
    warning on the result (region-boundary sweeps need values slightly outside
    the certified region).  `foc_residual` and `price_check` keep their
    absolute meaning and are evaluated in share space, without cancellation.
    """
    return _one(solve_markets(("cne",), [params], tol, n)[0][0])


def solve_ce(params: MarketParams, tol: float = 1e-10, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the collusive equilibrium; same contract as :func:`solve_cne`."""
    return _one(solve_markets(("ce",), [params], tol, n)[0][0])


def compare_regimes(params: MarketParams, tol: float = 1e-10) -> RegimeComparison:
    """Solve both regimes in one stage-1 batch and decompose the
    collusion-minus-competition price gap; a cne failure is raised first."""
    cne, ce = (_one(results[0]) for results in solve_markets(("cne", "ce"), [params], tol))
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
