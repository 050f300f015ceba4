"""Exogenous market parameters, equilibrium-existence checks, and shared numeric primitives.

Everything downstream (demand fixed points, equilibrium solvers, comparative
statics, region classifiers) consumes the immutable :class:`MarketParams`
container defined here.  The cubic root solver lives here too because the
threshold machinery in :mod:`platform_eq.regions` is built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._families import derivative_coefficients, horner

EULER_GAMMA = 0.5772156649015329
POLISH_STEPS = 8   # Newton steps at most per cubic root


class Side(Enum):
    """Market side selector: buyers or sellers."""

    BUYER = 0
    SELLER = 1

    @property
    def index(self) -> int:
        return self.value

    @property
    def other(self) -> "Side":
        return Side.SELLER if self is Side.BUYER else Side.BUYER

    @property
    def label(self) -> str:
        return "b" if self is Side.BUYER else "s"


def _pair(value, name: str) -> tuple[float, float]:
    value = (value, value) if np.isscalar(value) else tuple(value)
    if len(value) != 2:
        raise ValueError(f"{name} must be a scalar or a (buyer, seller) pair")
    pair = (float(value[0]), float(value[1]))
    if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
        raise ValueError(f"{name} must be finite")
    return pair


@dataclass(frozen=True)
class MarketParams:
    """All exogenous quantities of the market.

    Attributes:
        n_platforms: number of competing platforms, integer >= 2.
        beta: per-side taste-heterogeneity scale (beta_b, beta_s), both > 0.
        phi: 2x2 externality matrix ((phi_bb, phi_bs), (phi_sb, phi_ss)) in
            utility units per unit of joining mass.
        u0: per-side deterministic outside utility (u0_b, u0_s).
        mu: per-side idiosyncratic-taste location; enters consumer surplus only.
    """

    n_platforms: int
    beta: tuple[float, float]
    phi: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))
    u0: tuple[float, float] = (0.0, 0.0)
    mu: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        n = self.n_platforms
        if not float(n).is_integer() or int(n) < 2:
            raise ValueError("n_platforms must be an integer >= 2")
        object.__setattr__(self, "n_platforms", int(n))
        object.__setattr__(self, "beta", _pair(self.beta, "beta"))
        object.__setattr__(self, "u0", _pair(self.u0, "u0"))
        object.__setattr__(self, "mu", _pair(self.mu, "mu"))
        phi = np.asarray(self.phi, dtype=float)
        if phi.shape != (2, 2):
            raise ValueError("phi must be a 2x2 matrix")
        (a, b), (c, d) = phi.tolist()
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", ((a, b), (c, d)))
        if not (self.beta[0] > 0 and self.beta[1] > 0):
            raise ValueError("beta must be positive on both sides")

    @classmethod
    def uniform(cls, n_platforms: int, beta, phi_own: float = 0.0,
                phi_cross: float = 0.0, u0=0.0, mu=0.0) -> "MarketParams":
        """Build side-symmetric parameters from scalars."""
        return cls(
            n_platforms=n_platforms,
            beta=beta,
            phi=((phi_own, phi_cross), (phi_cross, phi_own)),
            u0=u0,
            mu=mu,
        )

    # convenience array views -------------------------------------------------

    @property
    def beta_arr(self) -> np.ndarray:
        return np.array(self.beta)

    @property
    def u0_arr(self) -> np.ndarray:
        return np.array(self.u0)

    @property
    def mu_arr(self) -> np.ndarray:
        return np.array(self.mu)

    @property
    def phi_arr(self) -> np.ndarray:
        return np.array(self.phi)

    @property
    def cross_externalities_zero(self) -> bool:
        return self.phi[0][1] == 0.0 and self.phi[1][0] == 0.0

    def phi_own(self, side: Side) -> float:
        return self.phi[side.index][side.index]

    # params.replace(**changes): a copy with those fields changed, checked anew
    replace = replace

    def decoupled(self) -> "MarketParams":
        """Copy with the cross-side externalities zeroed out."""
        return self.replace(phi=((self.phi[0][0], 0.0), (0.0, self.phi[1][1])))


# --------------------------------------------------------------------------
# existence conditions
# --------------------------------------------------------------------------

def cne_existence_bound(n: float) -> float:
    """Multiplier f(N) = 2(N-1)/N^2 bounding beta from below when phi_kk > 0."""
    return 2.0 * (n - 1.0) / (n * n)


def ce_existence_bound(n: float) -> float:
    """Collusive analogue 8/(27 N) of :func:`cne_existence_bound`."""
    return 8.0 / (27.0 * n)


def existence_fails(beta, phi_kk, bound):
    """Where the existence condition fails, elementwise: phi_kk > 0 and
    beta <= bound * phi_kk, with bound f(N) or its collusive analogue."""
    return (phi_kk > 0) & (beta <= bound * phi_kk)


def _existence(params: MarketParams, bound: float) -> tuple[bool, bool]:
    return tuple((~existence_fails(params.beta_arr, np.diag(params.phi_arr), bound)).tolist())


def check_cne_existence(params: MarketParams) -> tuple[bool, bool]:
    """Per-side check of the condition guaranteeing a unique symmetric competitive equilibrium.

    True for side k iff phi_kk <= 0, or phi_kk > 0 and beta_k > 2(N-1)/N^2 * phi_kk.
    """
    return _existence(params, cne_existence_bound(float(params.n_platforms)))


def check_ce_existence(params: MarketParams) -> tuple[bool, bool]:
    """Per-side check of the uniqueness condition for the collusive equilibrium.

    True for side k iff phi_kk <= 0, or phi_kk > 0 and beta_k > 8 phi_kk / (27 N).
    """
    return _existence(params, ce_existence_bound(float(params.n_platforms)))


# --------------------------------------------------------------------------
# cubic root solver
# --------------------------------------------------------------------------

def _polish(coeffs, root: float) -> float:
    """A few Newton steps; near-multiple roots this is still a contraction."""
    slope = derivative_coefficients(coeffs)
    x = root
    for _ in range(POLISH_STEPS):
        f = horner(coeffs, x)
        fp = horner(slope, x)
        if fp == 0.0:
            break
        step = f / fp
        if not math.isfinite(step):
            break
        x_new = x - step
        if abs(horner(coeffs, x_new)) >= abs(f):
            break
        x = x_new
    return x


def solve_cubic_real(coeffs) -> list[float]:
    """All distinct real roots, ascending, of the cubic c0 + c1 x + c2 x^2 +
    c3 x^3 given as its coefficient list [c0, c1, c2, c3].

    The three-real-root case uses the trigonometric branch of the
    depressed-cubic solution; the single-root case uses the radical form.
    Near-vanishing discriminants fall back to a Newton polish from the
    closed-form seeds, which restores the digits the radicals lose there.

    Raises:
        ValueError: if c3 = 0 ("degenerate polynomial"); no threshold has.
    """
    c0, c1, c2, c3 = coeffs
    if c3 == 0.0:
        raise ValueError(f"degenerate polynomial: {coeffs} has no cubic term")
    b2, b1, b0 = c2 / c3, c1 / c3, c0 / c3
    shift = -b2 / 3.0
    t = b1 - b2 * b2 / 3.0
    s = 2.0 * b2 ** 3 / 27.0 - b2 * b1 / 3.0 + b0
    disc = (s / 2.0) ** 2 + (t / 3.0) ** 3
    # scale-invariant degeneracy test: both summands shrink like (coeff scale)^6
    disc_scale = (s / 2.0) ** 2 + abs(t / 3.0) ** 3

    candidates: list[float] = []
    if abs(disc) <= 1e-12 * disc_scale:
        # on (or numerically on) the repeated-root surface
        if t == 0.0:
            candidates.append(float(np.cbrt(-s)) + shift)  # triple root when s = 0
        else:
            candidates.append(3.0 * s / t + shift)       # simple root
            candidates.append(-1.5 * s / t + shift)      # double root
    elif disc < 0.0:
        # three distinct real roots (trigonometric branch)
        m = 2.0 * math.sqrt(-t / 3.0)
        arg = min(1.0, max(-1.0, 3.0 * s / (t * m)))
        theta = math.acos(arg)
        for j in range(3):
            candidates.append(m * math.cos((theta + 2.0 * math.pi * j) / 3.0) + shift)
    else:
        # one real root (radical branch)
        sq = math.sqrt(disc)
        candidates.append(float(np.cbrt(-s / 2.0 + sq) + np.cbrt(-s / 2.0 - sq)) + shift)

    polished = [_polish(coeffs, float(r)) for r in candidates]
    return _dedupe_sorted(polished)


def _dedupe_sorted(roots: list[float]) -> list[float]:
    roots = sorted(float(r) for r in roots)
    out: list[float] = []
    for r in roots:
        if out and abs(r - out[-1]) <= 1e-9 * max(1.0, abs(r)):
            continue
        out.append(r)
    return out
