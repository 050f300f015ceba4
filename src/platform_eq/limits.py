"""Perfect-competition and extreme-outside-option asymptotics as first-class checks.

These bridge the equilibrium solver and the closed-form limits: solve along a
parameter sequence, compare against the analytic target, and report whether
the achieved error clears the kind's tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import solve_cne
from .model import MarketParams, Side
from .statics import asymptotic_limits

LARGE_N_TOL = 1e-2
U0_LIMIT_TOL = 1e-3
U0_LIMIT = 40.0   # |u0| at which outside_option_limit_check solves


@dataclass(frozen=True)
class LimitCheck:
    """One asymptotic check: observed values along a sequence vs the target."""

    kind: str  # "large_n" | "large_u0" | "small_u0"
    points: tuple[float, ...]
    observed: tuple[dict, ...]
    targets: dict
    achieved_error: float
    tolerance: float

    @property
    def converged(self) -> bool:
        return self.achieved_error < self.tolerance


def perfect_competition_check(params_base: MarketParams,
                              n_sequence=(10, 100, 1000, 10_000)) -> LimitCheck:
    """Solve the competitive equilibrium along growing N.

    Tracks |p* - beta| and |N x* - 1| per side, plus whether the limiting z*
    sign follows the rule: positive iff u0 < 0 and beta < -u0.  An empty
    n_sequence is a ValueError.
    """
    if not len(n_sequence):
        raise ValueError("n_sequence must name at least one platform count")
    observed = []
    for n in n_sequence:
        eq = solve_cne(params_base, n=float(n))
        row = {"n": float(n)}
        for side in Side:
            k = side.index
            beta = params_base.beta[k]
            u0 = params_base.u0[k]
            expected_sign = 1 if (u0 < 0 and beta < -u0) else -1
            row[f"price_err_{side.label}"] = abs(eq.prices[k] - beta)
            row[f"coverage_err_{side.label}"] = abs(eq.participation[k] - 1.0)
            row[f"z_{side.label}"] = eq.z.side(side)
            row[f"z_sign_ok_{side.label}"] = np.sign(eq.z.side(side)) == expected_sign
        observed.append(row)
    last = observed[-1]
    err = max(last[f"price_err_{s.label}"] for s in Side)
    err = max(err, max(last[f"coverage_err_{s.label}"] for s in Side))
    targets = {"price": dict(zip("bs", params_base.beta)), "participation": 1.0}
    return LimitCheck(kind="large_n", points=tuple(float(n) for n in n_sequence),
                      observed=tuple(observed), targets=targets,
                      achieved_error=float(err), tolerance=LARGE_N_TOL)


def outside_option_limit_check(params_base: MarketParams) -> tuple[LimitCheck, LimitCheck]:
    """Solve at u0 = -U0_LIMIT and +U0_LIMIT and compare with the analytic limits.

    Returns a (small_u0, large_u0) pair: the low end targets the no-outside-
    option price/profit, the high end the efficient price and zero profit.
    Requires zero cross-side externalities (the limits are per side).
    """
    if not params_base.cross_externalities_zero:
        raise ValueError("outside-option limits require zero cross-side externalities")
    checks = []
    for u0, kind in ((-U0_LIMIT, "small_u0"), (U0_LIMIT, "large_u0")):
        eq = solve_cne(params_base.replace(u0=(u0, u0)))
        row = {"u0": u0}
        errs = []
        targets = {}
        for side in Side:
            k = side.index
            lim = asymptotic_limits(params_base, side)
            p_target = lim.p_u if u0 < 0 else lim.p_e
            pi_target = lim.pi_u if u0 < 0 else lim.pi_e
            targets[f"price_{side.label}"] = p_target
            targets[f"profit_{side.label}"] = pi_target
            row[f"price_{side.label}"] = eq.prices[k]
            row[f"profit_{side.label}"] = eq.profit_per_side[k]
            errs.append(abs(eq.prices[k] - p_target))
            errs.append(abs(eq.profit_per_side[k] - pi_target))
        checks.append(LimitCheck(kind=kind, points=(u0,),
                                 observed=(row,), targets=targets,
                                 achieved_error=float(max(errs)), tolerance=U0_LIMIT_TOL))
    return checks[0], checks[1]
