# %% [markdown]
# # Comparative statics: outside options and entry
#
# At zero cross-side externalities every equilibrium sensitivity has a closed
# form: a ratio of polynomial series in e^{z*}, which `closed_form` evaluates.
# The finite-difference oracle `fd_derivative` re-solves the equilibrium at
# perturbed parameters and must agree to ~1e-6 relative,
# |analytic - fd| / max(1e-12, |analytic|) -- that agreement is the main
# correctness guarantee for the coefficient families.

# %%
import numpy as np

from platform_eq import MarketParams, Side, closed_form, fd_derivative

params = MarketParams.uniform(3, beta=0.9, phi_own=0.5, u0=-0.3)

print(f"{'quantity':>18} {'w.r.t.':>12} {'analytic':>14} {'finite diff':>14} {'rel err':>9}")
for quantity, wrt in (("price", "u0"), ("profit", "u0"), ("consumer_surplus", "u0"),
                      ("z", "u0"), ("price", "n_platforms"),
                      ("participation", "n_platforms"),
                      ("consumer_surplus", "n_platforms"), ("profit", "n_platforms")):
    analytic = closed_form(quantity, wrt, params, Side.BUYER)
    fd = fd_derivative(quantity, wrt, params, Side.BUYER)
    agreement = abs(analytic - fd) / max(1e-12, abs(analytic))
    print(f"{quantity:>18} {wrt:>12} {analytic:>14.8f} {fd:>14.8f} {agreement:>9.1e}")

# %% [markdown]
# The sign of the price response to a better outside option is not fixed: it
# flips with the ratio of taste heterogeneity to the within-side externality.
# High heterogeneity -> prices fall when the outside option improves; low
# heterogeneity (with positive within-side effects) -> prices rise.

# %%
from platform_eq import dprice_du0

for beta in (0.50, 0.60, 0.70, 0.80, 1.00, 1.40):
    p = MarketParams.uniform(3, beta, phi_own=1.0)
    d = dprice_du0(p, Side.BUYER)
    print(f"beta = {beta:.2f}: dp*/du0 = {d:+.5f}")

# %% [markdown]
# More competition always raises participation; prices and consumer surplus
# can move either way, profits fall when the offered net utility is low.

# %%
from platform_eq import (asymptotic_limits, dparticipation_dn, dprice_dn,
                         dprofit_dn, dcs_dn)

for phi_own, beta in ((-1.0, 1.0), (1.0, 0.5), (1.0, 1.5)):
    p = MarketParams.uniform(4, beta, phi_own=phi_own)
    print(f"phi={phi_own:+.1f} beta={beta:.1f}:  dp/dN={dprice_dn(p, Side.BUYER):+.5f}  "
          f"dNx/dN={dparticipation_dn(p, Side.BUYER):+.5f}  "
          f"dCS/dN={dcs_dn(p, Side.BUYER):+.5f}  dpi/dN={dprofit_dn(p, Side.BUYER):+.5f}")

# %% [markdown]
# The outside-option limits bracket the price path.

# %%
lim = asymptotic_limits(MarketParams.uniform(2, 1.0), Side.BUYER)
print(f"p (u0 -> -inf) = {lim.p_u},  p (u0 -> +inf) = {lim.p_e},  "
      f"profit limits = ({lim.pi_u}, {lim.pi_e})")
