# %% [markdown]
# # Stage 2: who joins which platform?
#
# Users on each market side see N platforms plus an outside option, draw one
# idiosyncratic taste per option, and pick the utility argmax.  With Gumbel
# tastes the resulting shares are logit, but the externality term couples the
# two sides: each side's utilities depend on the other side's joining mass,
# so the shares solve a fixed point.  This script walks through the closed
# form, the fixed point, its uniqueness certificate, and the Monte Carlo
# cross-check.

# %%
import numpy as np

from platform_eq import (MarketParams, PriceProfile, contraction_margin,
                         fixed_point_multistart, logit_shares,
                         monte_carlo_shares, share_fixed_point)

# %% [markdown]
# Without externalities, shares are plain softmax over (outside, platforms).

# %%
print(logit_shares([0.0, -1.0, -0.5], beta=1.0))

# %% [markdown]
# Now a two-sided market: two platforms, buyers like a crowded seller side
# (phi_bs = 0.1) and crowd each other (phi_bb = 0.3).  The iteration
# x <- (1-d) x + d Sigma(x) converges to the share fixed point.  Its step d
# comes from the contraction margin below: d = 1 (undamped) when the margin is
# positive, d = 0.5 when it is not.

# %%
params = MarketParams(
    n_platforms=2,
    beta=(1.0, 1.0),
    phi=((0.3, 0.1), (0.1, 0.3)),
)
prices = PriceProfile.symmetric(2, 1.0, 1.0)
state = share_fixed_point(params, prices)
print("outside mass:", state.outside)
print("platform shares:\n", state.platform_shares)

# %% [markdown]
# A positive contraction margin certifies uniqueness; ten random interior
# starts then land on the same point.

# %%
print("contraction margin:", contraction_margin(params))
result = fixed_point_multistart(params, prices, starts=10, seed=0)
print("distinct fixed points:", len(result.points),
      " max pairwise distance:", result.max_distance)

# %% [markdown]
# The sampling oracle replays the discrete-choice layer: a million simulated
# users draw tastes and pick argmax utility, with the externality term frozen
# at the fixed point.  Frequencies match the analytic shares within noise.

# %%
mc = monte_carlo_shares(params, prices, state, samples=1_000_000, seed=42)
sigma = np.abs(mc.shares.shares - state.shares) / mc.stderr
print("empirical shares:\n", mc.shares.shares)
print("deviation in standard errors:\n", np.round(sigma, 2))
