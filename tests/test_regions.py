from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import platform_eq.regions as regions
from platform_eq.cli import main
from platform_eq.model import Cubic, MarketParams, Side, check_cne_existence, cne_existence_bound
from platform_eq.regions import (FIGURES, GRID_CLASSIFIERS, VERDICTS, RegionLabel, ThresholdKind,
                                 Verdict, classify_columns, classify_direction,
                                 classify_existence, classify_sign_z,
                                 eval_threshold, figure_paint, figure_threshold_curve,
                                 grid_agreement, region_grid, region_grids)
from platform_eq.equilibrium import solve_cne, solve_decoupled_batch
from platform_eq.statics import fd_derivative

from test_model import bisect_isolate


class TestThresholdArithmetic:
    def test_exact_values(self):
        assert eval_threshold(ThresholdKind.F_EXISTENCE, 4) == pytest.approx(0.375, abs=1e-12)
        assert eval_threshold(ThresholdKind.G_X, 2) == pytest.approx(5 / 6, abs=1e-12)
        assert eval_threshold(ThresholdKind.G_CS, 2) == pytest.approx(15 / 16, abs=1e-12)
        assert eval_threshold(ThresholdKind.H_PI, 2) == pytest.approx(0.75, abs=1e-12)
        assert eval_threshold(ThresholdKind.G_P_U, 2) == pytest.approx((3 + np.sqrt(5)) / 4, abs=1e-12)
        assert eval_threshold(ThresholdKind.F_P_U, 2) == pytest.approx(0.5, abs=1e-12)
        assert eval_threshold(ThresholdKind.G_PI_U, 2) == pytest.approx(np.sqrt(1 / 8) + 0.5, abs=1e-12)
        assert eval_threshold(ThresholdKind.GAMMA, 4, 0.0, -1.0) == pytest.approx(0.8, abs=1e-12)
        assert eval_threshold(ThresholdKind.GAMMA_C, 4, 0.0, -1.0) == pytest.approx(0.2, abs=1e-12)
        assert eval_threshold(ThresholdKind.CE_EXISTENCE, 2) == pytest.approx(8 / 54, abs=1e-12)
        assert eval_threshold(ThresholdKind.TWO_PHI, 5) == 2.0
        assert eval_threshold(ThresholdKind.PHI, 5) == 1.0

    def test_f_p_special_case_n3(self):
        assert eval_threshold(ThresholdKind.F_P, 3, 0.9) == pytest.approx(0.6, abs=1e-12)
        with pytest.raises(ValueError):
            eval_threshold(ThresholdKind.F_P, 2, 1.0)

    def test_cubic_thresholds_match_isolator(self):
        from platform_eq.regions import _CUBIC_KINDS
        cases = [(ThresholdKind.G_P, 4, -1.0), (ThresholdKind.G_P, 2, -0.6),
                 (ThresholdKind.F_P, 4, 1.0), (ThresholdKind.F_P, 6, 0.5),
                 (ThresholdKind.F_CS_U, 3, 1.0), (ThresholdKind.F_PI, 2, -1.0),
                 (ThresholdKind.G_PI, 3, 1.0), (ThresholdKind.F_CS, 7, 1.0)]
        for kind, n, phi in cases:
            value = eval_threshold(kind, n, phi)
            builder, which = _CUBIC_KINDS[kind]
            cubic = builder(float(n), phi)
            assert abs(cubic(value)) <= 1e-9 * cubic.scale
            iso = bisect_isolate(lambda x: cubic(x), lo=-20, hi=20, n=80001)
            assert iso, (kind, n, phi)
            expected = max(iso) if which == "largest" else iso[0]
            assert value == pytest.approx(expected, abs=1e-7)
            if which == "unique":
                assert len(iso) == 1

    def test_threshold_limits(self):
        # g_p -> 0 and f_p -> 1 (phi multiples), f -> 0, g_cs -> 0 as N grows
        assert abs(eval_threshold(ThresholdKind.G_P, 1e3, -1.0)) < 1e-2
        assert abs(eval_threshold(ThresholdKind.G_P, 1e6, -1.0)) < 1e-4
        assert eval_threshold(ThresholdKind.F_P, 1e3, 1.0) == pytest.approx(1.0, abs=1e-2)
        assert eval_threshold(ThresholdKind.F_P, 1e6, 1.0) == pytest.approx(1.0, abs=1e-3)
        assert eval_threshold(ThresholdKind.F_EXISTENCE, 1e6) < 1e-5
        assert eval_threshold(ThresholdKind.G_CS, 1e6) < 1e-5

    def test_gamma_vs_gamma_c(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            phi = rng.uniform(-2, 2)
            u0 = rng.uniform(-3, 3)
            g = eval_threshold(ThresholdKind.GAMMA, n, phi, u0)
            gc = eval_threshold(ThresholdKind.GAMMA_C, n, phi, u0)
            if g >= 0:
                assert g >= gc - 1e-12

    def test_gamma_monotone_in_u0(self):
        for n, phi in ((2, 0.5), (4, -1.0), (6, 2.0)):
            u0s = np.linspace(-4, 4, 41)
            vals = [eval_threshold(ThresholdKind.GAMMA, n, phi, u) for u in u0s]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_critical_outside_utility_consistency(self):
        # at u0 = u_tilde the gamma curve meets the existence bound (phi > 0),
        # and the collusive analogue meets 8 phi/(27N)
        for n, phi in ((2, 1.0), (4, 0.7), (7, 2.0)):
            u_t = eval_threshold(ThresholdKind.U_TILDE, n, phi)
            g = eval_threshold(ThresholdKind.GAMMA, n, phi, u_t)
            assert g == pytest.approx(cne_existence_bound(n) * phi, rel=1e-9)
            u_tc = eval_threshold(ThresholdKind.U_TILDE_C, n, phi)
            gc = eval_threshold(ThresholdKind.GAMMA_C, n, phi, u_tc)
            assert gc == pytest.approx(8 * phi / (27 * n), rel=1e-12)

    def test_argument_checks(self):
        with pytest.raises(ValueError, match="phi_kk"):
            eval_threshold(ThresholdKind.GAMMA, 4)
        with pytest.raises(ValueError, match="u0"):
            eval_threshold(ThresholdKind.GAMMA, 4, 1.0)
        with pytest.raises(ValueError):
            eval_threshold(ThresholdKind.F_EXISTENCE, 1.5)


class TestSignClassifiers:
    def test_cne_examples(self):
        label = classify_sign_z("cne", MarketParams.uniform(4, 1.0, u0=-1.0), Side.BUYER)
        assert label.verdict is Verdict.NEGATIVE
        assert label.margin == pytest.approx(0.2)
        label = classify_sign_z("cne", MarketParams.uniform(4, 0.5, u0=-1.0), Side.BUYER)
        assert label.verdict is Verdict.POSITIVE

    def test_verdicts_match_solved_sign(self):
        for beta, u0 in ((1.0, -1.0), (0.5, -1.0), (0.3, 0.2), (2.0, 0.5)):
            params = MarketParams.uniform(4, beta, u0=u0)
            label = classify_sign_z("cne", params, Side.BUYER)
            z = solve_cne(params).z.z_b
            assert label.verdict is (Verdict.NEGATIVE if z < 0 else Verdict.POSITIVE)

    def test_ce_demonstrates_gamma_ordering(self):
        # beta between gamma_c and gamma: positive under competition,
        # negative under collusion
        params = MarketParams.uniform(4, 0.5, u0=-1.0)
        assert classify_sign_z("cne", params, Side.BUYER).verdict is Verdict.POSITIVE
        assert classify_sign_z("ce", params, Side.BUYER).verdict is Verdict.NEGATIVE

    def test_positive_branch_unreachable_above_u_tilde(self):
        n, phi = 4, 1.0
        u_t = eval_threshold(ThresholdKind.U_TILDE, n, phi)
        rng = np.random.default_rng(43)
        for _ in range(50):
            beta = cne_existence_bound(n) * phi + rng.uniform(1e-6, 3.0)
            params = MarketParams.uniform(n, beta, phi_own=phi, u0=u_t + 0.01)
            label = classify_sign_z("cne", params, Side.BUYER)
            assert label.verdict in (Verdict.NEGATIVE, Verdict.BOUNDARY)

    def test_existence_gate(self):
        params = MarketParams.uniform(4, 0.2, phi_own=1.0)
        label = classify_sign_z("cne", params, Side.BUYER)
        assert label.verdict is Verdict.INDETERMINATE
        assert "existence" in label.reason

    def test_boundary_verdict(self):
        gamma = eval_threshold(ThresholdKind.GAMMA, 4, 0.0, -1.0)
        params = MarketParams.uniform(4, gamma + 1e-12, u0=-1.0)
        assert classify_sign_z("cne", params, Side.BUYER).verdict is Verdict.BOUNDARY


class TestDirectionClassifiers:
    def test_price_dn_examples(self):
        label = classify_direction("price", "n_platforms",
                                   MarketParams.uniform(4, 1.0, phi_own=-1.0), Side.BUYER)
        assert label.verdict is Verdict.DECREASING
        label = classify_direction("price", "n_platforms",
                                   MarketParams.uniform(4, 0.5, phi_own=1.0), Side.BUYER)
        assert label.verdict is Verdict.INCREASING
        assert fd_derivative("price", "n_platforms",
                             MarketParams.uniform(4, 0.5, phi_own=1.0), Side.BUYER) > 0
        # N = 2 lacks the increase region
        label = classify_direction("price", "n_platforms",
                                   MarketParams.uniform(2, 0.52, phi_own=1.0), Side.BUYER)
        assert label.verdict is Verdict.INDETERMINATE

    def test_profit_dn_reports_thresholds_evaluated(self):
        # the z* cap uses f_pi for phi < 0 and h_pi for phi > 0; g_pi is
        # evaluated only once z* clears the floor with phi > 0
        cases = ((-0.5, 0.0, [ThresholdKind.F_PI]), (0.0, 0.0, []),
                 (0.5, 0.0, [ThresholdKind.H_PI]),
                 (0.5, 50.0, [ThresholdKind.H_PI, ThresholdKind.G_PI]))
        for phi, z, kinds in cases:
            params = MarketParams.uniform(4, 1.0, phi_own=phi)
            label = classify_direction("profit", "n_platforms", params, Side.BUYER, z_star=z)
            assert [kind for kind, _ in label.thresholds_used] == kinds, (phi, z)

    def test_profit_dn_base_case(self):
        params = MarketParams.uniform(2, 1.0)
        z = solve_cne(params).z.z_b
        label = classify_direction("profit", "n_platforms", params, Side.BUYER, z_star=z)
        assert label.verdict is Verdict.DECREASING
        with pytest.raises(ValueError, match="z_star"):
            classify_direction("profit", "n_platforms", params, Side.BUYER)

    def test_cs_du0_regions(self):
        label = classify_direction("consumer_surplus", "u0",
                                   MarketParams.uniform(3, 2.5, phi_own=1.0), Side.BUYER)
        assert label.verdict is Verdict.INCREASING
        fcsu = eval_threshold(ThresholdKind.F_CS_U, 3, 1.0)
        beta = 0.5 * (cne_existence_bound(3) + fcsu)
        label = classify_direction("consumer_surplus", "u0",
                                   MarketParams.uniform(3, beta, phi_own=1.0), Side.BUYER)
        assert label.verdict is Verdict.DECREASING
        assert fd_derivative("consumer_surplus", "u0",
                             MarketParams.uniform(3, beta, phi_own=1.0), Side.BUYER) < 0

    def test_indeterminate_gap(self):
        # between f_pu(N) phi and g_pu(N) phi the price/u0 sign is unclassified
        g = eval_threshold(ThresholdKind.G_P_U, 3)
        f = eval_threshold(ThresholdKind.F_P_U, 3)
        beta = 0.5 * (f + g)
        label = classify_direction("price", "u0",
                                   MarketParams.uniform(3, beta, phi_own=1.0), Side.BUYER)
        assert label.verdict is Verdict.INDETERMINATE

    def test_classifier_soundness_sweep(self):
        rng = np.random.default_rng(44)
        checked = 0
        quantities = (("price", "u0"), ("profit", "u0"), ("consumer_surplus", "u0"),
                      ("price", "n_platforms"), ("participation", "n_platforms"),
                      ("consumer_surplus", "n_platforms"), ("profit", "n_platforms"))
        while checked < 60:
            n = int(rng.integers(2, 7))
            beta = float(rng.uniform(0.1, 3.0))
            phi = float(rng.uniform(-2.0, 2.0))
            u0 = float(rng.uniform(-1.5, 1.5))
            params = MarketParams.uniform(n, beta, phi_own=phi, u0=u0)
            quantity, wrt = quantities[checked % len(quantities)]
            try:
                z = solve_cne(params).z.z_b
                label = classify_direction(quantity, wrt, params, Side.BUYER, z_star=z)
            except (ValueError, ArithmeticError):
                continue
            if label.sign == 0 or label.margin <= 0.01:
                continue
            fd = fd_derivative(quantity, wrt, params, Side.BUYER)
            if abs(fd) <= 1e-8:
                continue
            assert np.sign(fd) == label.sign, (params, quantity, wrt, label)
            checked += 1


def _cells(grid):
    """(phi, beta) meshes matching the grid's arrays."""
    return np.meshgrid(grid.phis, grid.betas, indexing="ij")


def _is(grid, verdict):
    return grid.verdicts == VERDICTS.index(verdict)


class TestRegionGrids:
    def test_fig1_boundary_trace(self):
        grid = region_grid("existence_cne", resolution=80, n=4)
        phi, beta = _cells(grid)
        f4 = 0.375
        positive, negative = _is(grid, Verdict.POSITIVE), _is(grid, Verdict.NEGATIVE)
        assert positive[phi <= 0].all()
        assert positive[(phi > 0) & (beta > f4 * phi + 0.02)].all()
        assert negative[(phi > 0) & (beta < f4 * phi - 0.02)].all()

    def test_fig2_partition_at_gamma(self):
        grid = region_grid("sign_z_cne", resolution=60, n=4, u0=-1.0)
        _, beta = _cells(grid)
        gamma = np.array([eval_threshold(ThresholdKind.GAMMA, 4, float(phi), -1.0)
                          for phi in grid.phis])[:, None]
        assert np.all((beta < gamma + 1e-9)[_is(grid, Verdict.POSITIVE)])
        assert np.all((beta > gamma - 1e-9)[_is(grid, Verdict.NEGATIVE)])

    def test_grid_agreement_high(self):
        for classifier, u0 in (("sign_z_cne", -1.0), ("price_dn", 0.0),
                               ("participation_dn", 0.0), ("cs_dn", 0.0),
                               ("existence_ce", 0.0)):
            grid = region_grid(classifier, resolution=50, n=4, u0=u0, solve_signs=True)
            agree, checked, frac = grid_agreement(grid)
            assert checked > 100
            assert frac >= 0.99, (classifier, agree, checked)

    def test_figure_paint_and_curve(self):
        grid = region_grid("cs_dn", resolution=40, n=4, u0=0.0)
        paint = figure_paint("fig6", grid)
        assert paint.shape == (40, 40)
        assert set(np.unique(paint)) <= {-1, 0, 1}
        assert np.any(paint == -1)  # demonstration band present
        curve = figure_threshold_curve("fig6", grid)
        assert len(curve) > 10

    def test_unknown_figure_raises(self):
        grid = region_grid("cs_dn", resolution=8, n=4, u0=0.0)
        for paint_or_curve in (figure_paint, figure_threshold_curve):
            with pytest.raises(ValueError, match="unknown figure"):
                paint_or_curve("fig9", grid)

    def test_errors_become_indeterminate(self):
        # the scalar classifier reports "existence condition fails" exactly there
        grid = region_grid("sign_z_cne", resolution=12, n=4, u0=0.0)
        fails = np.array([[not check_cne_existence(
            MarketParams.uniform(4, float(beta), phi_own=float(phi)))[0]
            for beta in grid.betas] for phi in grid.phis])
        assert fails.any()
        assert np.array_equal(_is(grid, Verdict.INDETERMINATE), fails)
        assert np.all(np.isinf(grid.margins[fails]))

    def test_missing_z_star_cells_are_indeterminate(self, monkeypatch):
        # with no solved z*, the N >= 7 consumer-surplus band cannot be
        # classified: the scalar classifier raises, the grid marks the cell
        import platform_eq.regions as regions
        monkeypatch.setattr(regions, "solve_decoupled_batch",
                            lambda regime, beta, phi, n, u0: np.full(beta.shape, np.nan))
        grid = region_grid("cs_dn", resolution=30, n=8, u0=-1.0)
        raised = 0
        for i, phi in enumerate(grid.phis):
            for j, beta in enumerate(grid.betas):
                params = MarketParams.uniform(8, float(beta), phi_own=float(phi), u0=-1.0)
                try:
                    label = classify_direction("consumer_surplus", "n_platforms",
                                               params, Side.BUYER)
                except ValueError:
                    raised += 1
                    assert VERDICTS[grid.verdicts[i, j]] is Verdict.INDETERMINATE
                    assert grid.margins[i, j] == np.inf
                    continue
                assert VERDICTS[grid.verdicts[i, j]] is label.verdict
        assert raised > 0

    @pytest.mark.parametrize("n, u0, solve_signs", [(4, 0.0, True), (8, -1.0, True),
                                                     (8, -1.0, False)])
    def test_region_grids_match_one_classifier_grids(self, n, u0, solve_signs):
        # every classifier over one mesh, sharing z-grids, equals each alone
        # (at N = 8 the cs_dn rules read z* from the shared grid)
        kwargs = dict(phi_range=(-1.5, 2.5), beta_range=(0.1, 1.7), resolution=30,
                      n=n, u0=u0, solve_signs=solve_signs)
        classifiers = GRID_CLASSIFIERS[::-1]
        grids = region_grids(classifiers, **kwargs)
        assert [g.classifier for g in grids] == list(classifiers)
        for grid in grids:
            alone = region_grid(grid.classifier, **kwargs)
            assert (grid.n, grid.u0) == (alone.n, alone.u0)
            for field in ("phis", "betas", "verdicts", "margins", "signs", "solved_signs"):
                assert np.array_equal(getattr(grid, field), getattr(alone, field)), field

    def test_figure_specs_cover_panels(self):
        assert set(FIGURES) == {"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"}
        assert FIGURES["fig2"].panel_u0 == (-1.0, 0.5)
        assert FIGURES["fig3"].n == 200
        assert FIGURES["fig6"].panel_u0 == (0.0,)

    def test_existence_classifier(self):
        assert classify_existence("cne", MarketParams.uniform(4, 0.4, phi_own=1.0),
                                  Side.BUYER).verdict is Verdict.POSITIVE
        assert classify_existence("ce", MarketParams.uniform(2, 0.1, phi_own=1.0),
                                  Side.BUYER).verdict is Verdict.NEGATIVE


def _direction(quantity, wrt):
    return lambda p, z: classify_direction(quantity, wrt, p, Side.BUYER, z_star=z)


# every rule list's one-cell classifier, by the evaluator's key for it
_SCALAR = {
    "existence_cne": lambda p, z: classify_existence("cne", p, Side.BUYER),
    "existence_ce": lambda p, z: classify_existence("ce", p, Side.BUYER),
    "sign_z_cne": lambda p, z: classify_sign_z("cne", p, Side.BUYER),
    "sign_z_ce": lambda p, z: classify_sign_z("ce", p, Side.BUYER),
    "price_dn": _direction("price", "n_platforms"),
    "participation_dn": _direction("participation", "n_platforms"),
    "cs_dn": _direction("consumer_surplus", "n_platforms"),
    **{key: _direction(*key) for key in (
        ("price", "u0"), ("profit", "u0"), ("consumer_surplus", "u0"),
        ("price", "n_platforms"), ("participation", "n_platforms"),
        ("consumer_surplus", "n_platforms"), ("profit", "n_platforms"))},
}


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(classifier=st.sampled_from(list(_SCALAR)),
       n=st.one_of(st.integers(2, 12), st.just(200)),
       u0=st.floats(-2.0, 2.0),
       resolution=st.integers(4, 40),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_classifiers_match_grid(classifier, n, u0, resolution, seed):
    """Each one-cell label equals the column evaluator's at that cell, on
    random (beta, phi, u0, z) columns with NaN z cells: verdict, margin and
    thresholds, or the ValueError raised.  Where the classifier has a grid,
    the label also equals the grid's cell, and a cell where the one-cell call
    raises is Indeterminate with margin inf there."""
    assert set(_SCALAR) == set(regions._RULES)
    rng = np.random.default_rng(seed)
    size = 16
    beta = rng.uniform(0.01, 2.5, size)
    phi = np.where(rng.random(size) < 0.1, 0.0, rng.uniform(-2.0, 2.0, size))
    u0s = rng.uniform(-2.0, 2.0, size)
    z = np.where(rng.random(size) < 0.25, np.nan, rng.uniform(-3.0, 3.0, size))
    rules, taken, _, margins = regions._decide(classifier, n, beta, phi, u0s, z)
    verdicts = classify_columns(classifier, n, beta, phi, u0s, z)
    for c in range(size):
        params = MarketParams.uniform(n, float(beta[c]), phi_own=float(phi[c]), u0=float(u0s[c]))
        rule = rules[taken[c]]
        try:
            label = _SCALAR[classifier](params, None if np.isnan(z[c]) else float(z[c]))
        except ValueError as exc:
            assert verdicts[c] is None and rule.reason == str(exc)
            continue
        used = ((kind, float(np.broadcast_to(v, beta.shape)[c])) for kind, v in rule.used)
        assert verdicts[c] is label.verdict
        assert label == RegionLabel(label.verdict, tuple(u for u in used if not np.isnan(u[1])),
                                    float(margins[c]), rule.reason)

    if classifier not in GRID_CLASSIFIERS:
        return
    grid = region_grid(classifier, resolution=resolution, n=n, u0=u0)
    phi, beta = _cells(grid)
    z = solve_decoupled_batch("cne", beta, phi, float(n), u0)
    for i, j in rng.integers(0, resolution, size=(12, 2)):
        params = MarketParams.uniform(n, float(beta[i, j]), phi_own=float(phi[i, j]), u0=u0)
        z_cell = None if np.isnan(z[i, j]) else float(z[i, j])
        try:
            label = _SCALAR[classifier](params, z_cell)
        except ValueError:
            assert VERDICTS[grid.verdicts[i, j]] is Verdict.INDETERMINATE
            assert grid.margins[i, j] == np.inf
            continue
        assert VERDICTS[grid.verdicts[i, j]] is label.verdict
        assert grid.margins[i, j] == label.margin
        assert grid.signs[i, j] == label.sign


def test_undefined_cubic_threshold_raises_and_reads_error(monkeypatch, tmp_path, capsys):
    """Where a cubic threshold has no root the one-cell call raises naming it,
    the grid cell is Indeterminate with margin inf and the sweep writes error."""
    # solve_cubic_real refuses a constant polynomial as degenerate: f_p is
    # undefined at every phi
    monkeypatch.setitem(regions._CUBIC_KINDS, ThresholdKind.F_P,
                        (lambda n, phi: Cubic(0.0, 0.0, 0.0, 1.0), "unique"))
    # phi > 0 and f(4) phi < beta < phi: the price/N list reaches its f_p band
    with pytest.raises(ValueError, match="f_p"):
        classify_direction("price", "n_platforms", MarketParams.uniform(4, 0.6, phi_own=1.0),
                           Side.BUYER)
    grid = region_grid("price_dn", phi_range=(0.9, 1.1), beta_range=(0.5, 0.7),
                       resolution=1, n=4)
    assert VERDICTS[grid.verdicts[0, 0]] is Verdict.INDETERMINATE
    assert grid.margins[0, 0] == np.inf
    ini = tmp_path / "sweep.ini"
    ini.write_text("[market]\nn_platforms = 4\nbeta_b = 0.6\nbeta_s = 0.6\nphi_bb = 1.0\n"
                   "phi_ss = 1.0\n\n[sweep]\naxis = u0\nstart = 0\nstop = 0\nstep = 1\n")
    assert main(["sweep", "--config", str(ini)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    cne = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cne["regime"] == "cne" and not cne["error"]
    assert (cne["vprice_dn_b"], cne["vprice_dn_s"]) == ("error", "error")
    assert cne["vpart_dn_b"] != "error"


def test_overflowing_cubic_threshold_decides_only_where_needed():
    """A cubic threshold that overflows in double precision reads as undefined:
    a rule before it still decides, and a cell that needs it raises naming it."""
    price_dn = partial(classify_direction, "price", "n_platforms", side=Side.BUYER)
    # beta > phi decides before the f_p band
    label = price_dn(params=MarketParams.uniform(4, 1e199, phi_own=1e160))
    assert label.verdict is Verdict.DECREASING
    with pytest.raises(ValueError, match="g_p"):
        price_dn(params=MarketParams.uniform(4, 1e199, phi_own=-1e160))
