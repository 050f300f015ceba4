"""Numerical engine for two-sided platform markets with an outside option.

Solves the user-side logit share fixed point, symmetric competitive and
collusive equilibria in the normalized net-utility variable, closed-form and
implicit-function comparative statics with a finite-difference oracle, threshold/region
classifiers over (phi_kk, beta_k) space, and deviation-search certification
of solved equilibria.
"""

__version__ = "0.1.0"

from .demand import (FixedPointError, MarketState, MonteCarloShares, contraction_margin,
                     fixed_point_multistart, logit_shares, monte_carlo_shares,
                     share_fixed_point)
from .equilibrium import (RegimeComparison, SolverError, SymmetricEquilibrium,
                          ZPoint, ce_foc_residual, cne_foc_residual,
                          compare_regimes, consumer_surplus, omega, solve_ce,
                          solve_cne, solve_markets)
from .limits import LimitCheck, outside_option_limit_check, perfect_competition_check
from .model import (MarketParams, Side, ce_existence_bound, cne_existence_bound,
                    solve_cubic_real)
from .regions import (FIGURES, RegionGrid, RegionLabel, ThresholdKind, Verdict,
                      classify_direction, classify_existence, classify_sign_z,
                      eval_threshold, grid_agreement, region_grid,
                      region_grids)
from .statics import (AnalyticDomainError, AsymptoticLimits, asymptotic_limits,
                      closed_form, closed_form_columns, dcs_dn, dcs_du0,
                      dparticipation_dn, dprice_dn, dprice_du0, dprofit_dn,
                      dprofit_du0, dz_du0, fd_derivative, ift_columns)
from .verify import (DeviationReport, SOCReport, deviation_profit, soc_ce_hessian,
                     soc_cne_diag, soc_report, verify_nash)

__all__ = [name for name in dir() if not name.startswith("_")]
