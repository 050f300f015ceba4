# %% [markdown]
# # Is the solved point really an equilibrium?
#
# The solver finds the FOC root in z-space; verification works in price space
# instead: let one platform deviate over a grid around the symmetric prices
# (every candidate runs its own stage-2 fixed point), polish the best cell
# with Newton steps on exact price derivatives, and confirm no profitable
# deviation exists.  Second-order conditions come in closed form where
# available and as exact price-space Hessians always.

# %%
import dataclasses

import numpy as np

from platform_eq import (MarketParams, Side, deviation_profit, soc_report,
                         solve_ce, solve_cne, verify_nash)

params = MarketParams.uniform(2, 1.0)
eq = solve_cne(params)

report = verify_nash(params, eq, radius=0.5, grid_n=41)
print(f"symmetric profit  : {report.base_profit:.9f}")
print(f"best deviation    : {report.best_deviation_prices}")
print(f"best gain         : {report.best_gain:.3e}  -> certified: {report.certified()}")

# %% [markdown]
# Feed it a wrong point and the search finds money on the table.

# %%
fake = dataclasses.replace(eq, prices=(eq.prices[0] + 0.1, eq.prices[1] + 0.1))
bad = verify_nash(params, fake, radius=0.5, grid_n=21)
print(f"perturbed 'equilibrium': best gain {bad.best_gain:.5f} "
      f"-> certified: {bad.certified()}")

# %% [markdown]
# The deviation-profit surface is smooth and peaks at the symmetric point.

# %%
offsets = np.linspace(-0.4, 0.4, 9)
row = [deviation_profit(params, eq.prices, (eq.prices[0] + d, eq.prices[1]))
       for d in offsets]
for d, v in zip(offsets, row):
    bar = "#" * int(160 * (v - min(row)) / (max(row) - min(row) + 1e-12))
    print(f"dp_b = {d:+.2f}  profit = {v:.6f} {bar}")

# %% [markdown]
# Second-order checks for both regimes: the closed-form own-share curvature is
# negative throughout the existence region, and the collusive Hessian is
# negative definite.

# %%
soc = soc_report(params, eq)
print("competitive curvature (closed form):", soc.cne_diag)
print("price-space Hessian (exact):\n", soc.numeric_hessian)

soc_ce = soc_report(params, solve_ce(params))
print("collusive Hessian (closed form):\n", soc_ce.ce_hessian)
print("negative definite:", soc_ce.closed_form_negative)
