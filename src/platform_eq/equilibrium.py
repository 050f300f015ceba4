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
Newton-bisection over every piece of every side that changes sign, each
iteration one value-and-slope pass over the compacted live cells.  A cell
ends once its Newton step falls below rounding size, so a root met to the
last bit is not bisected away from.  `solve_markets` runs it once per
platform count over regimes x markets x sides, one piece a side (`solve_cne`
and `solve_ce` are its one-market case), a mask marking the collusive
columns; the sides failing the existence mask take one more batch, at 600
pieces.  With nonzero cross-side externalities a damped Newton on the
two-equation system starts from the decoupled root, over the compacted live
columns: one complex-step call gives every exact Jacobian and one stacked
solve every step.  The equilibria are then assembled over columns.  Only
the public entry points enter an errstate.
Only the solvers accept a real-valued platform count, so that d/dN can be
validated by central differences; every other formula reads N from params.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._families import a_coefficients, horner
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

# a coupled Newton column converges at |FOC| <= NEWTON_TOL or fails after NEWTON_MAX_ITER steps
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 80

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
    k = np.count_nonzero(ce)  # one cheap count instead of all() and any()
    if k in (0, ce.size):
        return collusive() if k == ce.size else competitive()
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
def cne_foc_residual(z, params: MarketParams) -> np.ndarray:
    """(Phi - H(z)) Omega(z) - u0 - beta z in share space; zero exactly at the competitive z*."""
    return _foc(_Columns.of([params], False), _as_z_array(z)[:, None],
                float(params.n_platforms))[:, 0]


@_quiet
def ce_foc_residual(z, params: MarketParams) -> np.ndarray:
    """(Phi - H^C(z)) Omega(z) - u0 - beta z in share space; zero exactly at the collusive z."""
    return _foc(_Columns.of([params], True), _as_z_array(z)[:, None],
                float(params.n_platforms))[:, 0]


def _phi_times(phi, x):
    """Phi x over the side axis of x, as one matrix-vector product per
    trailing index, so each column carries the bits of that product alone
    (a matrix-matrix product may round the sums differently).  phi is one
    2x2 matrix or a stack of them, one per column of x's second axis."""
    return np.matmul(phi, x.T[..., None])[..., 0].T


def _complex_partials(c: _Columns, z: np.ndarray, n: float, dz: np.ndarray,
                      dn: np.ndarray | None = None, foc_only: bool = False) -> np.ndarray:
    """Directional partials of the FOC residual F, the price p, the profit
    p omega, the consumer surplus, the participation N omega and z itself,
    each (buyer, seller), stacked in that order on axis 0, at every column
    of z (2, cells).  Direction j moves (z_b, z_s, N) along (dz[:, j], dn[j])
    and is the last axis of the result, of shape (12, cells, directions);
    no N step without dn.  foc_only keeps F's two rows and forms nothing else.

    One complex step through the share-space price: the shares omega and o
    move along their exact tangents omega_z = omega o, o_z = -N omega o,
    omega_N = -omega^2 and o_N = -omega o, so no e^z is formed in complex
    arithmetic.
    """
    om, o = (a[..., None] for a in _shares(z, n))
    h, dz = COMPLEX_STEP, dz[:, None]
    nc, tz, tn = n, o * dz, n * dz  # without dn: no N + 0j, no exact-zero dn terms
    if dn is not None:
        nc, tz, tn = n + 1j * h * dn, tz - om * dn, tn + dn
    zc, omc, oc = z[..., None] + 1j * h * dz, om + 1j * h * om * tz, o - 1j * h * om * o * tn
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
    """Row k of the FOC residual with zero cross terms, collusive where ce holds."""
    scalar = all(np.ndim(a) == 0 for a in (z, beta, phi_kk, u0))
    z, b, f, u = (np.asarray(a, dtype=float) for a in (z, beta, phi_kk, u0))
    out = _row_value(np.asarray(ce), z, *_shares(z[None], n), b, f, n, u)
    return float(out) if scalar else out


def _row_value(ce, z, om, o, beta, phi_kk, n, u0):
    """`_decoupled_value` from the shares om, o at z, given as one side row that mirrors itself."""
    p = _share_price(ce, om, o, beta[None], phi_kk[None], np.zeros((1,) * om.ndim), n)
    return phi_kk * om[0] - p[0] - u0 - beta * z


def _slope(ce, z, om, o, beta, phi_kk, n, a):
    """dM_k/dz: collusive from the shares om, o where ce holds, else from the slope
    family a, one plain coefficient list, by `horner` at e^z with z capped to
    SLOPE_Z_CAP (e^z finite, so Horner starts at the top)."""
    def competitive():
        x = np.exp(np.minimum(z, SLOPE_Z_CAP))
        return -horner(a, x) / _slope_denominator(x, beta, phi_kk, n)
    return _pick(ce, lambda: 2.0 * phi_kk * om * o - beta / o, competitive)


@_quiet
def mk_value(z, beta, phi_kk, n, u0):
    """Decoupled competitive FOC residual M_k(z); strictly decreasing in the existence region."""
    return _decoupled_value(False, z, beta, phi_kk, n, u0)


@_quiet
def mk_slope(z, beta, phi_kk, n, a=None):
    """dM_k/dz via the slope family a = a_coefficients(beta, phi_kk, n), one plain
    coefficient list evaluated by one Horner loop, built here unless given;
    strictly negative in the existence region."""
    out = _slope(np.False_, np.asarray(z, dtype=float), None, None, beta, phi_kk, n,
                 a_coefficients(beta, phi_kk, n) if a is None else a)
    return out if out.ndim else float(out)


def _slope_denominator(ez, beta, phi_kk, n):
    """The denominator of `mk_slope` at e^z.  On a float e^z both squares
    are scalar powers, which differ from an array's squares in the last bit
    for some inputs; the columnar closed forms call it per cell for that."""
    t = 1.0 + n * ez
    return t ** 2 * (beta * (1.0 + (n - 1.0) * ez) * t - ez * phi_kk) ** 2


@_quiet
def mkc_value(z, beta, phi_kk, n, u0):
    """Decoupled collusive FOC residual 2 phi omega(z) - beta (1+N e^z) - u0 - beta z."""
    return _decoupled_value(True, z, beta, phi_kk, n, u0)


@_quiet
def mkc_slope(z, beta, phi_kk, n):
    """dM_k^C/dz = 2 phi omega o - beta / o, from omega' = omega o."""
    z = np.asarray(z, dtype=float)
    out = _slope(np.True_, z, *_shares(z, n), beta, phi_kk, n, None)
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
    of equal 1-D arrays: brackets whose ends `pos`/`neg` have positive/negative
    FOC values, of the collusive FOC where ce holds.  Each iteration forms
    the shares once, and from them value and slope, over the live cells only:
    the per-cell arrays are compacted as cells end, each written out once.

    A cell takes the Newton step with the analytic slope when it lands inside
    the bracket and is at most half the step before last, and bisects
    otherwise.  A non-finite value (a pole) counts as negative.  A cell ends
    once its Newton step falls to rounding size, |f/f'| <= 4e-16 max(1, |z|),
    even outside the bracket: on the root a sub-ulp step rounds back to z,
    and bisecting would only walk back to it.  It also ends when its
    bisection step is that small or its value is exactly zero.  A pole cell
    ends beside the pole its Newton step points at, with a large value the
    caller rejects.  Returns (z, FOC value at z)."""
    a = None if ce.all() else a_coefficients(beta, phi_kk, n)  # cne slope family, once
    z, fz = np.full(pos.shape, np.nan), np.full(pos.shape, np.nan)
    x, cells = 0.5 * (pos + neg), np.arange(pos.size)
    step = step_old = np.abs(pos - neg)
    for _ in range(200):  # enough for bisection alone on a bracket up to ~1e40 wide
        if not cells.size:
            break
        om, o = _shares(x[None], n)
        fx = _row_value(ce, x, om, o, beta, phi_kk, n, u0)
        newton = fx / _slope(ce, x, om[0], o[0], beta, phi_kk, n, a)
        up = fx > 0
        pos, neg = np.where(up, x, pos), np.where(up, neg, x)
        xn, size = x - newton, np.abs(newton)
        use = ((xn - pos) * (xn - neg) < 0) & (2.0 * size <= step_old)
        delta = np.where(use, newton, x - 0.5 * (pos + neg))
        step_old, step = step, np.abs(delta)
        floor = 4e-16 * np.maximum(1.0, np.abs(x))
        done = (size <= floor) | (step <= floor) | (fx == 0)
        if np.count_nonzero(done):
            z[cells[done]], fz[cells[done]] = x[done], fx[done]
            live = ~done
            cells, x, delta, fx, pos, neg, step, step_old, ce, beta, phi_kk, u0 = (
                v[live] for v in (cells, x, delta, fx, pos, neg, step, step_old, ce, beta,
                                  phi_kk, u0))
            a = None if a is None else [c[live] for c in a]
        x = x - delta
    else:
        z[cells], fz[cells] = x, fx
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
    out = np.full(shape, np.nan)
    out.flat[side] = z
    return out


# --------------------------------------------------------------------------
# coupled 2D Newton over columns
# --------------------------------------------------------------------------

def _solve_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Newton steps J^-1 F of every column by one stacked solve, and a
    mask of the columns whose J is singular (NaN steps).  Only when that
    solve raises are they found, where slogdet's sign is 0 (a det underflows
    to 0 on a tiny J), and the others solved again."""
    try:
        return np.linalg.solve(J, F.T[..., None])[..., 0].T, np.zeros(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        singular = np.linalg.slogdet(J)[0] == 0  # a non-finite J has no sign
    step = np.linalg.solve(np.where(singular[:, None, None], np.eye(2), J),
                           F.T[..., None])[..., 0].T
    step[:, singular] = np.nan
    return step, singular


def _newton(c: _Columns, n: float, z: np.ndarray) -> tuple[np.ndarray, dict[int, SolverError]]:
    """Damped Newton on the two-equation FOC of each column's regime at every
    column of z (2, cells), with the exact Jacobians F_z of `_complex_partials`;
    each column has its own residual and up to 100 step halvings.  One
    complex-step call, one stacked solve and each halving serve all live
    columns, compacted as some leave.  Returns z and the failed columns' errors."""
    z = np.array(z, dtype=float)
    zl, live, failed = z.copy(), np.arange(z.shape[1]), {}
    F = _foc(c, zl, n)
    err = np.max(np.abs(F), axis=0)
    stay = ~(err <= NEWTON_TOL)  # a NaN residual has not converged
    for _ in range(NEWTON_MAX_ITER):
        if not stay.all():
            z[:, live] = zl
            if not stay.any():
                return z, failed
            c, zl, F, err, live = c.take(stay), zl[:, stay], F[:, stay], err[stay], live[stay]
        J = _complex_partials(c, zl, n, np.eye(2), foc_only=True).transpose(1, 0, 2)
        step, singular = _solve_steps(J, F)
        for j in np.flatnonzero(singular):
            failed[live[j]] = SolverError("singular Jacobian in coupled Newton")
        lam, todo = np.ones(live.size), ~singular
        for _ in range(100):
            if not todo.any():
                break
            zt = zl - lam * step
            Ft = _foc(c, zt, n)
            et = np.max(np.abs(Ft), axis=0)
            ok = todo & np.isfinite(Ft).all(axis=0) & (et < err)
            zl[:, ok], F[:, ok], err[ok] = zt[:, ok], Ft[:, ok], et[ok]
            todo &= ~ok
            lam[todo] *= 0.5
        for j in np.flatnonzero(todo):
            a, b = J[j, 0, 0] * J[j, 1, 1], J[j, 0, 1] * J[j, 1, 0]
            rel_det = (a - b) / (abs(a) + abs(b))
            why = ("near-singular Jacobian" if abs(rel_det) <= NEAR_SINGULAR
                   else "line search exhausted")
            failed[live[j]] = SolverError(f"coupled Newton stalled ({why}): relative determinant "
                                          f"{rel_det:.2e} at residual {err[j]:.2e}")
        stay = ~(singular | todo | (err <= NEWTON_TOL))
    z[:, live] = zl
    for j in np.flatnonzero(stay):
        failed[live[j]] = SolverError("coupled Newton did not reach tolerance")
    return z, failed


# --------------------------------------------------------------------------
# public solvers
# --------------------------------------------------------------------------

def _surplus(mu, beta, phi, p, x, n):
    """mu + beta (ln(N+1) + gamma_EM) - p + (Phi x)_k, everything on the side
    axis of x; phi is one matrix or a stack, as in `_phi_times`."""
    return mu + beta * (np.log(n + 1.0) + EULER_GAMMA) - p + _phi_times(phi, x)


def consumer_surplus(params: MarketParams, prices, shares) -> np.ndarray:
    """Per-side consumer surplus mu + beta (ln(N+1) + gamma_EM) - p + (Phi x)_k.

    The first term is the expected maximum of the N+1 idiosyncratic taste draws.
    Nothing is cast to float, so a complex step passes through.
    """
    x = np.asarray(shares)
    col = (slice(None),) + (None,) * (x.ndim - 1)  # sides ahead of any trailing axes
    return _surplus(params.mu_arr[col], params.beta_arr[col], params.phi_arr,
                    np.asarray(prices), x, params.n_platforms)


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
def solve_markets(regimes, markets, *, n: float | None = None) -> list:
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
    `n` evaluates every market at one real-valued platform count, finite
    and above 1, else ValueError.
    """
    if n is not None and not 1.0 < n < np.inf:
        raise ValueError(f"n must be a finite platform count above 1, got {n!r}")
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
        regime = ["ce" if ce else "cne" for ce in c.ce.tolist()]
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
            z[:, coupled], failed = _newton(c.take(coupled) if coupled.size < len(rows) else c,
                                            nk, z[:, coupled])
            for col, exc in failed.items():
                out[rows[coupled[col]]] = exc
                bad[coupled[col]] = True
        ok = np.flatnonzero(~bad)
        eqs = _assemble([group[j] for j in ok], c.take(ok) if ok.size < len(rows) else c,
                        z[:, ok], nk, [warnings[j] for j in ok])
        for j, eq in zip(ok, eqs):
            out[rows[j]] = eq
    return [out[r * m:(r + 1) * m] for r in range(len(regimes))]


def _one(result):
    """A one-market solve's equilibrium, or its error raised."""
    if isinstance(result, Exception):
        raise result
    return result


def solve_cne(params: MarketParams, *, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the symmetric competitive equilibrium: :func:`solve_markets` on
    one market, its SolverError raised.  A failed existence check downgrades
    to a warning on the result (region-boundary sweeps need values slightly
    outside the certified region)."""
    return _one(solve_markets(("cne",), [params], n=n)[0][0])


def solve_ce(params: MarketParams, *, n: float | None = None) -> SymmetricEquilibrium:
    """Solve the collusive equilibrium; same contract as :func:`solve_cne`."""
    return _one(solve_markets(("ce",), [params], n=n)[0][0])


def compare_regimes(params: MarketParams) -> RegimeComparison:
    """Solve both regimes in one stage-1 batch and decompose the
    collusion-minus-competition price gap; a cne failure is raised first."""
    cne, ce = (_one(results[0]) for results in solve_markets(("cne", "ce"), [params]))
    dz = cne.z.as_array() - ce.z.as_array()
    ext_term = params.phi_arr @ (np.array(ce.shares) - np.array(cne.shares))
    return RegimeComparison(
        cne=cne, ce=ce, dz=tuple(dz),
        d_participation=tuple(np.array(cne.participation) - np.array(ce.participation)),
        d_price=tuple(np.array(cne.prices) - np.array(ce.prices)),
        decomposition_externality=tuple(map(float, ext_term)),
        decomposition_utility=tuple(map(float, params.beta_arr * dz)))
