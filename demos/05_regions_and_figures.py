# %% [markdown]
# # Region classifiers and the region panels
#
# Every sign/direction result partitions the (phi_kk, beta_k) plane by
# threshold curves -- some closed-form, some roots of cubics resolved by the
# Cardano solver.  This script evaluates the thresholds, classifies a few
# points, reproduces a panel as a grid, and writes the SVG next to this file.

# %%
import pathlib

import numpy as np

from platform_eq import (MarketParams, Side, ThresholdKind, classify_direction,
                         classify_sign_z, eval_threshold, grid_agreement,
                         region_grid)

print("existence multiplier f(4)      :", eval_threshold(ThresholdKind.F_EXISTENCE, 4))
print("z*-sign curve gamma(4, 0, -1)  :", eval_threshold(ThresholdKind.GAMMA, 4, 0.0, -1.0))
print("collusive analogue             :", eval_threshold(ThresholdKind.GAMMA_C, 4, 0.0, -1.0))
print("price/entry cubic f_p(4, phi=1):", eval_threshold(ThresholdKind.F_P, 4, 1.0))
print("participation multiplier g_x(2):", eval_threshold(ThresholdKind.G_X, 2))

# %% [markdown]
# Classifiers return a verdict plus the governing threshold values and the
# margin to the nearest boundary; gaps the analysis leaves open come back as
# "indeterminate" rather than a guess.

# %%
for beta in (1.0, 0.5):
    params = MarketParams.uniform(4, beta, u0=-1.0)
    label = classify_sign_z("cne", params, Side.BUYER)
    print(f"beta={beta}: z* is {label.verdict.value} (margin {label.margin:.3f})")

label = classify_direction("price", "n_platforms",
                           MarketParams.uniform(4, 0.5, phi_own=1.0), Side.BUYER)
print("price response to entry at (phi=1, beta=0.5):", label.verdict.value)

# %% [markdown]
# A full region grid with the numerically solved signs attached: classifier
# verdicts agree with the solved quantities on essentially every interior cell.

# %%
grid = region_grid("sign_z_cne", resolution=120, n=4, u0=-1.0, solve_signs=True)
agree, checked, frac = grid_agreement(grid)
print(f"agreement: {agree}/{checked} = {frac:.4f}")

# %% [markdown]
# Render it as a standard region panel (blue: z* > 0, red: z* < 0,
# black curve: the indifference boundary).

# %%
from platform_eq.regions import figure_paint, figure_threshold_curve
from platform_eq.svg import region_svg

paint = figure_paint("fig2", grid)
curve = figure_threshold_curve("fig2", grid)
svg = region_svg(grid.phis, grid.betas, paint, curve,
                 "sign of z* (N=4, u0=-1)",
                 [("#5b8dd9", "z* > 0"), ("#e05252", "z* < 0")])
out = pathlib.Path(__file__).with_name("sign_z_panel.svg")
out.write_text(svg)
print("wrote", out)
