"""Threshold functions and sign/direction classifiers over (phi_kk, beta_k) space.

Each proposition is written once, as an ordered list of rules (:class:`_Rule`):
a condition, the verdict it implies, the thresholds it compares against and
the margin to them, all numpy expressions in (N, beta_k, phi_kk, u0, z*).
One evaluator runs a whole list over columns of cells at one platform count,
and at each cell the first rule that holds decides.  Its three views: the
one-cell classifiers label one market, :func:`classify_columns` gives the
verdicts of whole columns for the sweep, and :func:`region_grids` covers a
(phi_kk, beta_k) mesh.  The rules apply each proposition's hypotheses
literally: a definite verdict only inside the stated sufficient region,
Indeterminate in the gaps the analysis leaves open.  Cubic-root thresholds
are built from the actual (N, phi_kk) pair and resolved through the shared
cubic solver with a table-driven branch choice (largest vs unique real
root); where that root is undefined, a rule without a verdict holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from . import _families as fam
from .equilibrium import mk_slope, mkc_slope, omega, solve_decoupled_batch
from .model import (Cubic, MarketParams, Side, ce_existence_bound,
                    cne_existence_bound, existence_fails, solve_cubic_real)

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

    @property
    def sign(self) -> int:
        if self in (Verdict.POSITIVE, Verdict.INCREASING):
            return 1
        if self in (Verdict.NEGATIVE, Verdict.DECREASING):
            return -1
        return 0


# a RegionGrid's verdict codes index this tuple
VERDICTS = tuple(Verdict)


@dataclass(frozen=True)
class RegionLabel:
    """Classifier output: verdict plus the governing threshold values."""

    verdict: Verdict
    thresholds_used: tuple[tuple[ThresholdKind, float], ...] = ()
    margin: float = float("inf")
    reason: str = ""

    @property
    def sign(self) -> int:
        return self.verdict.sign


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
    return Cubic(n**6 + 11.0 * n**5 + 22.0 * n**4 + 36.0 * n**3 + 34.0 * n**2 + 18.0 * n + 3.0,
                 -(2.0 * n**5 + 24.0 * n**4 + 51.0 * n**3 + 45.0 * n**2 + 18.0 * n + 2.0) * phi,
                 4.0 * (2.0 * n**3 + 7.0 * n**2 + 6.0 * n + 1.0) * phi**2,
                 -4.0 * (n + 2.0) * phi**3)


# kind -> (cubic builder, designated root)
_CUBIC_KINDS = {
    ThresholdKind.G_P: (_gp_cubic, "largest"),
    ThresholdKind.F_P: (_fp_cubic, "unique"),
    ThresholdKind.F_CS_U: (_fcsu_cubic, "unique"),
    ThresholdKind.F_PI: (_fpi_cubic, "largest"),
    ThresholdKind.G_PI: (_gpi_cubic, "unique"),
    ThresholdKind.F_CS: (_fcs_cubic, "largest"),
}


def _cubic_root(kind: ThresholdKind, n: float, phi_kk: float) -> float:
    """The designated real root of kind's cubic in beta, built with phi_kk."""
    if kind is ThresholdKind.F_P and n < 4:
        if n < 3:
            raise ValueError("f_p is defined for N >= 3")
        return 2.0 * phi_kk / 3.0
    builder, which = _CUBIC_KINDS[kind]
    if phi_kk == 0.0:
        return 0.0
    cubic = builder(n, phi_kk)
    roots = solve_cubic_real(cubic)
    if which == "unique":
        if len(roots) == 1:
            return roots[0]
        if len(roots) == 2:
            # numerically on the degenerate surface: the designated root is the
            # simple one, where the derivative does not vanish
            return max(roots, key=lambda r: abs(cubic.derivative(r)))
        raise ValueError(f"threshold undefined here: {kind.value} expects a unique real root")
    return roots[-1]


def _gamma(n, phi_kk, u0):
    a = 2.0 * phi_kk - n * u0
    rad = a * a + 4.0 * phi_kk * (u0 - 2.0 * phi_kk / (n + 1.0))
    return (a + np.sqrt(np.maximum(rad, 0.0))) / (2.0 * (n + 1.0))


def _u_tilde(n, phi_kk):
    if phi_kk <= 0:
        return 2.0 * phi_kk / (n + 1.0)
    return -2.0 * (n**4 - 2.0 * n**3 - 2.0 * n**2 + 2.0 * n + 2.0) * phi_kk \
        / (n**3 * (2.0 * n**3 + n**2 - 3.0 * n - 2.0))


def _u_tilde_c(n, phi_kk):
    if phi_kk <= 0:
        return 2.0 * phi_kk / (n + 1.0)
    return -2.0 * (n * (4.0 * n - 19.0) + 4.0) * phi_kk / (27.0 * n * (n + 1.0))


# kind -> (evaluator, needs phi_kk, needs u0); the evaluator takes N, then
# phi_kk and u0 where it needs them
_THRESHOLDS = {
    ThresholdKind.F_EXISTENCE: (cne_existence_bound, False, False),
    ThresholdKind.CE_EXISTENCE: (ce_existence_bound, False, False),
    ThresholdKind.GAMMA: (_gamma, True, True),
    ThresholdKind.GAMMA_C: (
        lambda n, phi, u0: (2.0 * phi - u0 * (n + 1.0)) / (n + 1.0) ** 2, True, True),
    ThresholdKind.U_TILDE: (_u_tilde, True, False),
    ThresholdKind.U_TILDE_C: (_u_tilde_c, True, False),
    ThresholdKind.G_P_U: (
        lambda n: (n + math.sqrt((n - 1.0) * (n + 3.0)) + 1.0) / (2.0 * n), False, False),
    ThresholdKind.F_P_U: (lambda n: 0.5 * (math.sqrt((n - 2.0) / n) + 1.0), False, False),
    ThresholdKind.G_PI_U: (lambda n: math.sqrt((n - 1.0) / n**3) + 1.0 / n, False, False),
    ThresholdKind.G_X: (
        lambda n: (2.0 * n**2 - 2.0 * n + 1.0) / (n * (n**2 - n + 1.0)), False, False),
    ThresholdKind.G_CS: (
        lambda n: (2.0 * n**3 - n + 1.0) / (n**2 * (n**2 - n + 2.0)), False, False),
    ThresholdKind.H_PI: (lambda n: (2.0 * n - 1.0) / n**2, False, False),
    ThresholdKind.TWO_PHI: (lambda n: 2.0, False, False),
    ThresholdKind.PHI: (lambda n: 1.0, False, False),
    **{kind: (partial(_cubic_root, kind), True, False) for kind in _CUBIC_KINDS},
}


def eval_threshold(kind: ThresholdKind, n: float, phi_kk: float | None = None,
                   u0: float | None = None) -> float:
    """Evaluate one threshold.

    N-only kinds return the multiplier of phi_kk (or the plain bound); cubic
    kinds return the designated real root of their polynomial in beta built
    with the actual phi_kk, i.e. a value directly comparable to beta_k.
    GAMMA and GAMMA_C also take arrays of phi_kk and u0.
    """
    n = float(n)
    if n < 2:
        raise ValueError("thresholds are defined for N >= 2")
    evaluator, needs_phi, needs_u0 = _THRESHOLDS[kind]
    if phi_kk is None and needs_phi:
        raise ValueError(f"{kind.value} requires phi_kk")
    if u0 is None and needs_u0:
        raise ValueError(f"{kind.value} requires u0")
    return evaluator(n, *(phi_kk,) * needs_phi, *(u0,) * needs_u0)


# --------------------------------------------------------------------------
# the propositions, one rule list each
# --------------------------------------------------------------------------

class _Rule(NamedTuple):
    """One line of a proposition: where `when` holds, the verdict is `verdict`.

    `used` holds the (threshold, value) pairs the line compares against; NaN
    marks a threshold the proposition does not evaluate at that point.  The
    margin is the least |point - value| over the (point, value) pairs in
    `margin`, infinite when it is empty; None pairs beta with each value in
    `used`.  A None verdict marks a point the proposition cannot classify,
    for want of an input or a defined threshold; `reason` then holds the
    error message.  Every list ends with a rule that always holds.
    """

    when: object
    verdict: Verdict | None
    used: tuple = ()
    margin: tuple | None = None
    reason: str = ""


def _cubic_roots(kind: ThresholdKind, n: float, phi: np.ndarray, where) -> np.ndarray:
    """eval_threshold of a cubic kind where `where` holds, each distinct phi_kk
    solved once; NaN elsewhere and where the root is undefined (or overflows)."""
    values = phi[where]
    distinct = sorted(set(values.tolist()))
    roots = []
    for p in distinct:
        try:
            roots.append(eval_threshold(kind, n, p))
        except (ValueError, ArithmeticError):
            roots.append(math.nan)
    out = np.full(phi.shape, math.nan)
    out[where] = np.asarray(roots)[np.searchsorted(distinct, values)]
    return out


def _cubic_threshold(kind: ThresholdKind, n: float, phi: np.ndarray, where):
    """The rule that raises where `where` holds and kind's root is undefined;
    returns the roots (see :func:`_cubic_roots`)."""
    roots = _cubic_roots(kind, n, phi, where)
    yield _Rule(where & np.isnan(roots), None,
                reason=f"threshold undefined here: {kind.value} has no designated real root")
    return roots


def _band(lo, beta, hi, verdict: Verdict, used: tuple) -> _Rule:
    """verdict on lo < beta < hi, with the distance to the nearer end."""
    return _Rule((lo < beta) & (beta < hi), verdict, used, ((beta, lo), (beta, hi)))


def _existence_fails(bound: float, beta, phi) -> _Rule:
    return _Rule(existence_fails(beta, phi, bound), Verdict.INDETERMINATE,
                 reason="existence condition fails")


def _phi_multiple(kind: ThresholdKind, verdict: Verdict, n, beta, phi):
    """The opening lines of a region bounded by a multiple c(N) phi_kk:
    `verdict` wherever phi_kk <= 0 or beta > c(N) phi_kk.  Returns c(N) phi_kk."""
    yield _Rule(phi <= 0, verdict, ((kind, 0.0),), ())  # no boundary nearby
    bound = eval_threshold(kind, n) * phi
    yield _Rule(beta > bound, verdict, ((kind, bound),))
    return bound


def _existence(regime, n, beta, phi, u0, z):
    kind = ThresholdKind.F_EXISTENCE if regime == "cne" else ThresholdKind.CE_EXISTENCE
    bound = yield from _phi_multiple(kind, Verdict.POSITIVE, n, beta, phi)
    yield _Rule(True, Verdict.NEGATIVE, ((kind, bound),))


def _sign_z(regime, n, beta, phi, u0, z):
    """Negative above the indifference curve gamma (gamma_c), Positive below."""
    bound, kind = ((cne_existence_bound(n), ThresholdKind.GAMMA) if regime == "cne"
                   else (ce_existence_bound(n), ThresholdKind.GAMMA_C))
    yield _existence_fails(bound, beta, phi)
    gamma = eval_threshold(kind, n, phi, u0)
    yield _Rule(beta > gamma, Verdict.NEGATIVE, ((kind, gamma),))
    yield _Rule(True, Verdict.POSITIVE, ((kind, gamma),))


def _price_u0(n, beta, phi, u0, z):
    g = yield from _phi_multiple(ThresholdKind.G_P_U, Verdict.DECREASING, n, beta, phi)
    lo = cne_existence_bound(n) * phi
    used = ((ThresholdKind.G_P_U, g), (ThresholdKind.F_EXISTENCE, lo))
    if n >= 3:
        hi = eval_threshold(ThresholdKind.F_P_U, n) * phi
        used += ((ThresholdKind.F_P_U, hi),)
        yield _band(lo, beta, hi, Verdict.INCREASING, used)
    yield _Rule(True, Verdict.INDETERMINATE, used)


def _profit_u0(n, beta, phi, u0, z):
    g = yield from _phi_multiple(ThresholdKind.G_PI_U, Verdict.DECREASING, n, beta, phi)
    yield _Rule(True, Verdict.INDETERMINATE, ((ThresholdKind.G_PI_U, g),))


def _cs_u0(n, beta, phi, u0, z):
    hi2 = yield from _phi_multiple(ThresholdKind.TWO_PHI, Verdict.INCREASING, n, beta, phi)
    lo = cne_existence_bound(n) * phi
    hi = yield from _cubic_threshold(ThresholdKind.F_CS_U, n, phi, phi > 0)
    used = ((ThresholdKind.TWO_PHI, hi2), (ThresholdKind.F_EXISTENCE, lo),
            (ThresholdKind.F_CS_U, hi))
    yield _band(lo, beta, hi, Verdict.DECREASING, used)
    yield _Rule(True, Verdict.INDETERMINATE, used)


def _price_n(n, beta, phi, u0, z):
    nonpositive = phi <= 0
    g = yield from _cubic_threshold(ThresholdKind.G_P, n, phi, nonpositive)
    yield _Rule(nonpositive & (beta > g), Verdict.DECREASING, ((ThresholdKind.G_P, g),))
    yield _Rule(nonpositive, Verdict.INDETERMINATE, ((ThresholdKind.G_P, g),))
    yield _Rule(beta > phi, Verdict.DECREASING, ((ThresholdKind.PHI, phi),))
    lo = cne_existence_bound(n) * phi
    used = ((ThresholdKind.PHI, phi), (ThresholdKind.F_EXISTENCE, lo))
    if n >= 3:
        hi = yield from _cubic_threshold(ThresholdKind.F_P, n, phi, phi > 0)
        used += ((ThresholdKind.F_P, hi),)
        yield _band(lo, beta, hi, Verdict.INCREASING, used)
    yield _Rule(True, Verdict.INDETERMINATE, used)


def _participation_n(n, beta, phi, u0, z):
    g = yield from _phi_multiple(ThresholdKind.G_X, Verdict.INCREASING, n, beta, phi)
    yield _Rule(True, Verdict.INDETERMINATE, ((ThresholdKind.G_X, g),))


def _cs_n(n, beta, phi, u0, z):
    g = yield from _phi_multiple(ThresholdKind.G_CS, Verdict.INCREASING, n, beta, phi)
    lo = cne_existence_bound(n) * phi
    used = ((ThresholdKind.G_CS, g), (ThresholdKind.F_EXISTENCE, lo))
    if n >= 7:
        f_cs = yield from _cubic_threshold(ThresholdKind.F_CS, n, phi, phi > 0)
        gamma = eval_threshold(ThresholdKind.GAMMA, n, phi, u0)
        used += ((ThresholdKind.F_CS, f_cs), (ThresholdKind.GAMMA, gamma))
        band = (lo < beta) & (beta < f_cs) & (beta < gamma)
        yield _Rule(band & np.isnan(z), None,
                    reason="z_star required for the consumer-surplus decrease region")
        yield _Rule(band & (z < CS_DN_Z_CAP), Verdict.DECREASING, used,
                    ((beta, lo), (beta, f_cs), (beta, gamma)))
    yield _Rule(True, Verdict.INDETERMINATE, used)


def _pi_z_threshold_high(n: float, phi: float, u0: float, beta: float) -> float:
    """f_pi_z: the z* floor above which more competition raises this side's profit."""
    num = -n**3 * u0 + beta * n**2 + 2.0 * n**2 * u0 - n * u0 - 2.0 * n * phi + phi
    return num / (beta * (n**3 - 2.0 * n**2 + n))


def _profit_n(n, beta, phi, u0, z):
    yield _existence_fails(cne_existence_bound(n), beta, phi)
    yield _Rule(np.isnan(z), None, reason="z_star required for the profit direction classifier")
    negative, positive = phi < 0, phi > 0
    f_pi = yield from _cubic_threshold(ThresholdKind.F_PI, n, phi, negative)
    h_pi = np.where(positive, eval_threshold(ThresholdKind.H_PI, n) * phi, math.nan)
    high = _pi_z_threshold_high(n, phi, u0, beta)
    # the denominator is positive wherever the existence condition holds
    low_negative = (
        (phi**2 * (-n * u0 + 2.0 * phi)
         + n * phi * (2.0 * n**2 * u0 - n * u0 - 2.0 * phi) * beta
         + n * (-5.0 * n**3 * u0 + 8.0 * n**2 * u0 - 3.0 * n * u0
                - 5.0 * n * phi + 2.0 * phi) * beta**2
         + 4.0 * n**3 * beta**3)
        / (beta**2 * (n**2 - 2.0 * n**3) * phi
           + beta**3 * (5.0 * n**4 - 8.0 * n**3 + 3.0 * n**2)
           + beta * n * phi**2))
    # g_pi_z: the z* cap below which more competition lowers this side's profit
    low = np.where(negative & (beta < f_pi), low_negative,
                   np.where(positive & (beta <= h_pi), high, -u0 / beta))
    used = ((ThresholdKind.F_PI, f_pi), (ThresholdKind.H_PI, h_pi))
    yield _Rule(z < low, Verdict.DECREASING, used, ((z, low),))
    yield _Rule((phi <= 0) & (z > high), Verdict.INCREASING, used, ((z, high),))
    g_pi = yield from _cubic_threshold(ThresholdKind.G_PI, n, phi, positive & (z > high))
    used += ((ThresholdKind.G_PI, g_pi),)
    yield _Rule((z > high) & (beta > g_pi), Verdict.INCREASING, used, ((z, high), (beta, g_pi)))
    yield _Rule(True, Verdict.INDETERMINATE, used, ((z, low), (z, high)))


_DIRECTION_RULES = {
    ("price", "u0"): _price_u0,
    ("profit", "u0"): _profit_u0,
    ("consumer_surplus", "u0"): _cs_u0,
    ("price", "n_platforms"): _price_n,
    ("participation", "n_platforms"): _participation_n,
    ("consumer_surplus", "n_platforms"): _cs_n,
    ("profit", "n_platforms"): _profit_n,
}
_GRID_RULES = {
    "existence_cne": partial(_existence, "cne"),
    "existence_ce": partial(_existence, "ce"),
    "sign_z_cne": partial(_sign_z, "cne"),
    "sign_z_ce": partial(_sign_z, "ce"),
    "price_dn": _price_n,
    "participation_dn": _participation_n,
    "cs_dn": _cs_n,
}
GRID_CLASSIFIERS = tuple(_GRID_RULES)
# a classifier's rule list by its key: a grid name, or (quantity, wrt) of a direction
_RULES = {**_GRID_RULES, **_DIRECTION_RULES}

_INDETERMINATE = VERDICTS.index(Verdict.INDETERMINATE)
_BOUNDARY = VERDICTS.index(Verdict.BOUNDARY)
_SIGNS = np.array([v.sign for v in VERDICTS], dtype=np.int8)


# --------------------------------------------------------------------------
# the evaluator and its column and one-cell views
# --------------------------------------------------------------------------

def _decide(classifier, n: float, beta, phi, u0, z):
    """The classifier's rules over columns of cells at platform count n, and
    each cell's first rule that holds (its index), verdict code and margin.
    A rule without a verdict reads Indeterminate with an infinite margin."""
    # every rule is evaluated at every cell, also where it cannot hold
    with np.errstate(all="ignore"):
        rules = list(_RULES[classifier](float(n), beta, phi, u0, z))
        taken = np.full(beta.shape, len(rules) - 1, dtype=np.int8)
        for i in range(len(rules) - 2, -1, -1):
            np.copyto(taken, i, where=rules[i].when)
        counts = np.bincount(taken.ravel(), minlength=len(rules))
        margin = np.full(beta.shape, math.inf)
        for i, rule in enumerate(rules):
            if rule.verdict is not None and counts[i]:
                pairs = ((beta, v) for _, v in rule.used) if rule.margin is None else rule.margin
                np.copyto(margin, reduce(np.minimum, (abs(x - v) for x, v in pairs), math.inf),
                          where=taken == i)
    code = np.array([_INDETERMINATE if rule.verdict is None else VERDICTS.index(rule.verdict)
                     for rule in rules], dtype=np.int8)[taken]
    code[margin < BOUNDARY_TOL] = _BOUNDARY
    return rules, taken, code, margin


def classify_columns(classifier, n: float, beta: np.ndarray, phi: np.ndarray,
                     u0: np.ndarray, z: np.ndarray) -> list[Verdict | None]:
    """Each cell's verdict, None where the one-cell classifier raises, over
    columns of market sides with N = n.  classifier: a grid classifier's
    name, or a direction's (quantity, wrt)."""
    rules, taken, code, _ = _decide(classifier, n, beta, phi, u0, z)
    return [None if rules[t].verdict is None else VERDICTS[c]
            for t, c in zip(taken.tolist(), code.tolist())]


def _classify(classifier, params: MarketParams, side: Side,
              z_star: float | None = None) -> RegionLabel:
    """The label of one market's side: the evaluator on columns of one cell."""
    k = side.index
    cell = (params.beta[k], params.phi[k][k], params.u0[k], math.nan if z_star is None else z_star)
    rules, taken, code, margin = _decide(classifier, params.n_platforms,
                                         *(np.array([v], dtype=float) for v in cell))
    rule = rules[taken[0]]
    if rule.verdict is None:
        raise ValueError(rule.reason)
    used = ((kind, float(np.ravel(v)[0])) for kind, v in rule.used)
    return RegionLabel(VERDICTS[code[0]], tuple(u for u in used if not math.isnan(u[1])),
                       float(margin[0]), rule.reason)


def classify_existence(regime: str, params: MarketParams, side: Side) -> RegionLabel:
    """Positive iff the regime's uniqueness condition holds on this side."""
    return _classify(f"existence_{regime}", params, side)


def classify_sign_z(regime: str, params: MarketParams, side: Side) -> RegionLabel:
    """Sign of the equilibrium normalized net utility on this side.

    Negative when beta exceeds the regime's indifference curve gamma (resp.
    gamma_c), Positive below it; requires the regime's existence condition.
    """
    return _classify(f"sign_z_{regime}", params, side)


def classify_direction(quantity: str, wrt: str, params: MarketParams, side: Side,
                       z_star: float | None = None) -> RegionLabel:
    """Sign of d(quantity)/d(wrt) on this side, by the stated sufficient regions.

    quantity in {"price", "participation", "consumer_surplus", "profit"},
    wrt in {"u0", "n_platforms"}.  The profit/N and consumer-surplus/N decrease
    regions condition on the solved z*, which must then be supplied.
    """
    if (quantity, wrt) not in _DIRECTION_RULES:
        if wrt not in ("u0", "n_platforms"):
            raise ValueError(f"unknown differentiation variable {wrt!r}")
        raise ValueError(f"no direction classifier for {quantity!r} w.r.t. {wrt}")
    return _classify((quantity, wrt), params, side, z_star)


# --------------------------------------------------------------------------
# grids: every rule of a proposition over the whole mesh
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RegionGrid:
    """A classifier evaluated over the (phi_kk, beta_k) plane.

    Cell (i, j) is phi = phis[i], beta = betas[j].  verdicts[i, j] indexes
    VERDICTS, margins[i, j] is that verdict's margin and signs[i, j] its sign
    (+1, -1, or 0 for Indeterminate and Boundary): the evaluator's codes and
    margins, the same the one-cell classifier reports at that market.  A cell
    where the one-cell classifier raises (an undefined threshold, a missing
    z*) is Indeterminate with an infinite margin.
    """

    classifier: str
    n: float
    u0: float
    phis: np.ndarray
    betas: np.ndarray
    verdicts: np.ndarray
    margins: np.ndarray
    signs: np.ndarray
    solved_signs: np.ndarray | None = None


def region_grid(classifier: str, phi_range: tuple[float, float] = (-2.0, 2.0),
                beta_range: tuple[float, float] = (0.0, 2.0), resolution: int = 200,
                n: int = 4, u0: float = 0.0, solve_signs: bool = False) -> RegionGrid:
    """Classify every cell of a (phi_kk, beta_k) grid; cell centers avoid beta = 0.

    The classifier's rule list is evaluated once over the whole mesh.  With
    solve_signs=True a companion grid of numerically solved quantity signs
    is attached for agreement scoring (see :func:`grid_agreement`).  This is
    the one-classifier case of :func:`region_grids`.
    """
    return region_grids((classifier,), phi_range, beta_range, resolution, n, u0, solve_signs)[0]


def region_grids(classifiers, phi_range: tuple[float, float] = (-2.0, 2.0),
                 beta_range: tuple[float, float] = (0.0, 2.0), resolution: int = 200,
                 n: int = 4, u0: float = 0.0, solve_signs: bool = False) -> list[RegionGrid]:
    """:func:`region_grid` of each classifier over one mesh, in order.

    A stage-1 z-grid is solved only where a grid reads it, and each distinct
    (regime, platform count) grid once per call, so the direction grids'
    solved signs share their N +- h solves.  Nothing outlives the call.
    """
    for classifier in classifiers:
        if classifier not in _GRID_RULES:
            raise ValueError(f"unknown grid classifier {classifier!r}")
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if not all(np.isfinite(v) for v in (*phi_range, *beta_range, u0)):
        raise ValueError("grid ranges and u0 must be finite")
    if not (float(n).is_integer() and n >= 2):
        raise ValueError("n must be an integer >= 2")
    phis = phi_range[0] + (np.arange(resolution) + 0.5) * (phi_range[1] - phi_range[0]) / resolution
    betas = beta_range[0] + (np.arange(resolution) + 0.5) * (beta_range[1] - beta_range[0]) / resolution

    pp, bb = np.meshgrid(phis, betas, indexing="ij")
    solved: dict[tuple[str, float], np.ndarray] = {}

    def z_at(regime: str, n_at: float) -> np.ndarray:
        if (regime, n_at) not in solved:
            solved[regime, n_at] = solve_decoupled_batch(regime, bb, pp, n_at, u0)
        return solved[regime, n_at]

    grids = []
    for classifier in classifiers:
        # the N >= 7 consumer-surplus band is the only rule that reads z*
        z = z_at("cne", float(n)) if classifier == "cs_dn" and n >= 7 else math.nan
        _, _, verdicts, margins = _decide(classifier, n, bb, pp, float(u0), z)
        # beta <= 0 is no market: no proposition applies there
        verdicts[bb <= 0] = _INDETERMINATE
        margins[bb <= 0] = math.inf
        truth = _solved_sign_grid(classifier, pp, bb, float(n), u0, z_at) if solve_signs else None
        grids.append(RegionGrid(classifier=classifier, n=float(n), u0=u0, phis=phis, betas=betas,
                                verdicts=verdicts, margins=margins, signs=_SIGNS[verdicts],
                                solved_signs=truth))
    return grids


def _solved_sign_grid(classifier: str, pp: np.ndarray, bb: np.ndarray, n: float, u0: float,
                      z_at) -> np.ndarray:
    """Numeric ground truth per cell: solved z sign, FD quantity sign, or a
    monotonicity certificate for the existence grids.  z_at(regime, N) gives
    the solved z-grid of a regime at platform count N."""
    if classifier in ("sign_z_cne", "sign_z_ce"):
        z_grid = z_at("cne" if classifier == "sign_z_cne" else "ce", n)
        return np.where(np.isnan(z_grid), 0, np.sign(z_grid)).astype(int)
    if classifier in ("existence_cne", "existence_ce"):
        # certificate of a unique root: the FOC slope stays negative on a z grid
        # (the competitive slope family is built once for the whole grid)
        slope_at = (partial(mk_slope, a=fam.a_coefficients(bb, pp, n), beta=bb, phi_kk=pp, n=n)
                    if classifier == "existence_cne" else partial(mkc_slope, beta=bb, phi_kk=pp, n=n))
        ok = np.ones(pp.shape, dtype=bool)
        for z in np.linspace(-30.0, 30.0, 41):
            slope = slope_at(np.full(pp.shape, z))
            ok &= np.isfinite(slope) & (slope < 0)
        return np.where(ok, 1, -1)
    # direction grids: centered difference of the solved quantity across N +- h
    h = 1e-4 * n
    z_hi, z_lo = z_at("cne", n + h), z_at("cne", n - h)
    if classifier == "price_dn":
        q_hi = pp * omega(z_hi, n + h) - bb * z_hi - u0
        q_lo = pp * omega(z_lo, n - h) - bb * z_lo - u0
    elif classifier == "participation_dn":
        q_hi = (n + h) * omega(z_hi, n + h)
        q_lo = (n - h) * omega(z_lo, n - h)
    else:
        q_hi = bb * (np.log(n + h + 1.0) + z_hi)
        q_lo = bb * (np.log(n - h + 1.0) + z_lo)
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
    truth = grid.solved_signs
    checked = (grid.signs != 0) & (grid.margins > margin_min) & (truth != 0)
    if grid.classifier.startswith("existence"):
        checked &= grid.signs > 0
    count = int(checked.sum())
    agree = int((truth[checked] == grid.signs[checked]).sum())
    return agree, count, (agree / count if count else float("nan"))


# --------------------------------------------------------------------------
# figure reproduction specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """Grid classifier, platform count, outside-utility panels and legend for one
    figure; each legend entry is (paint id, text), see :func:`figure_paint`."""

    figure: str
    classifier: str
    n: int
    panel_u0: tuple[float, ...]
    description: str
    legend: tuple[tuple[int, str], ...]


FIGURES = {
    "fig1": FigureSpec("fig1", "existence_cne", 4, (0.0,),
                       "region guaranteeing a unique symmetric competitive equilibrium",
                       ((1, "unique symmetric equilibrium certified"),
                        (-1, "no uniqueness certificate"))),
    "fig2": FigureSpec("fig2", "sign_z_cne", 4, (-1.0, 0.5),
                       "sign of the competitive net deterministic utility",
                       ((1, "net utility above outside option (z*>0)"),
                        (-1, "net utility below outside option (z*<0)"))),
    "fig3": FigureSpec("fig3", "sign_z_cne", 200, (-1.0, 1.0),
                       "sign of the competitive net utility under near-perfect competition",
                       ((1, "z*>0 in the many-platform limit"),
                        (-1, "z*<0 in the many-platform limit"))),
    "fig4": FigureSpec("fig4", "price_dn", 4, (0.0,),
                       "sign of the price response to entry",
                       ((1, "entry raises prices"), (-1, "entry lowers prices"),
                        (0, "unclassified"))),
    "fig5": FigureSpec("fig5", "participation_dn", 4, (0.0,),
                       "region where entry raises market participation",
                       ((1, "entry raises participation"), (0, "unclassified"))),
    "fig6": FigureSpec("fig6", "cs_dn", 4, (0.0,),
                       "sign of the consumer-surplus response to entry",
                       ((1, "entry raises consumer surplus"),
                        (-1, "decrease band (needs z* cap)"), (0, "unclassified"))),
}


def figure_paint(figure: str, grid: RegionGrid) -> np.ndarray:
    """Painted region id per cell: +1 blue, -1 red, 0 unshaded.

    Mirrors the standard panels; fig6 additionally paints the demonstration
    band f(N) phi < beta < min(f_cs phi, gamma) red even where the strict
    classifier stays indeterminate (its proposition needs N >= 7 and a z* cap).
    """
    paint = grid.signs.astype(int)
    if figure == "fig1":
        return np.where(grid.verdicts == VERDICTS.index(Verdict.POSITIVE), 1, -1)
    if figure == "fig6":
        # demonstration band as conventionally drawn: the z*-related
        # conditions (the z* cap and beta < gamma, which merely signs z*)
        # are deliberately left out there
        phi = grid.phis[:, None]
        hi = _cubic_roots(ThresholdKind.F_CS, grid.n, phi, phi > 0)
        paint[(paint == 0) & (phi > 0) & (cne_existence_bound(grid.n) * phi < grid.betas)
              & (grid.betas < hi)] = -1
    elif figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}")
    return paint


def figure_threshold_curve(figure: str, grid: RegionGrid) -> list[tuple[float, float]]:
    """The (phi, beta) polyline of the figure's governing boundary, for overlay.

    Phis where the boundary is undefined are skipped; an unknown figure raises.
    """
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}")
    n, phi = grid.n, grid.phis
    if figure in ("fig2", "fig3"):
        beta = eval_threshold(ThresholdKind.GAMMA, n, phi, grid.u0)
    else:
        # a multiple of phi for phi > 0; below, the g_p cubic (fig4) or beta = 0
        kind = {"fig1": ThresholdKind.F_EXISTENCE, "fig4": ThresholdKind.PHI,
                "fig5": ThresholdKind.G_X, "fig6": ThresholdKind.G_CS}[figure]
        below = _cubic_roots(ThresholdKind.G_P, n, phi, phi <= 0) if figure == "fig4" else 0.0
        beta = np.where(phi > 0, eval_threshold(kind, n) * phi, below)
    defined = ~np.isnan(beta)
    return list(zip(phi[defined].tolist(), beta[defined].tolist()))
