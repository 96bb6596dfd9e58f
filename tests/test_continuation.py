import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nekrasov as nk
from nekrasov import continuation, io
from nekrasov.continuation import _tail_violation
from nekrasov.solver import get_operator
from conftest import field_of


def _tail_violation_loop(v):
    """Reference for cone condition (iii) by brute force: for each node
    theta_k >= pi/2, the excess of Phi(theta_k) over the minimum of the
    nodes theta_j in [pi - theta_k, theta_k], that is n - k <= j <= k."""
    n = v.size + 1
    tail_violation = 0.0
    for k in range(1, n):
        if 2 * k >= n:
            window = v[n - k - 1:k]  # index j - 1 holds theta_j
            tail_violation = max(tail_violation, v[k - 1] - window.min())
    return tail_violation


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve started before the input was checked")


def _recording_corrector(solves):
    """continuation._corrector, appending (mu, the guess's grid, whether the
    solve came back resolved) to solves for each call."""
    corrector = continuation._corrector

    def recorded(mu, guess, spec, tol):
        result = corrector(mu, guess, spec, tol)
        solves.append((mu, guess.n, result.resolved))
        return result

    return recorded


class TestTraceBranch:
    def test_validation(self):
        with pytest.raises(ValueError):
            nk.trace_branch(2.5, 5.0)
        with pytest.raises(ValueError):
            nk.trace_branch(3.5, 3.1)

    @pytest.mark.parametrize("call", [
        lambda: nk.trace_branch(3.01, math.inf),
        lambda: nk.trace_branch(3.01, math.nan),
        lambda: nk.trace_branch(math.nan, 4.0),
        lambda: nk.trace_branch(-math.inf, 4.0),
    ], ids=["branch-end-inf", "branch-end-nan", "branch-start-nan", "branch-start-minus-inf"])
    def test_non_finite_mu_fails_before_solving(self, monkeypatch, call):
        monkeypatch.setattr(continuation, "_converge_resolved", _no_solve)
        monkeypatch.setattr(continuation, "_seeded_guess", _no_solve)
        with pytest.raises(ValueError, match="finite"):
            call()

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
    def test_bad_tol_fails_before_solving(self, monkeypatch, tol):
        # an infinite tol is met by any guess: every point would come back
        # "converged" after 0 iterations
        monkeypatch.setattr(continuation, "_converge_resolved", _no_solve)
        monkeypatch.setattr(continuation, "_seeded_guess", _no_solve)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            nk.trace_branch(3.01, 3.2, tol=tol)

    @pytest.mark.parametrize("n_start", [2, continuation.N_MAX * 2, 512.0, "512"],
                             ids=["n-start-below-4", "n-max-below-n-start", "n-start-float",
                                  "n-start-str"])
    def test_bad_step_policy_fails_before_solving(self, monkeypatch, n_start):
        # the first grid is the one setting of the step rule: an integer
        # from 4 up to the grid cap N_MAX
        monkeypatch.setattr(continuation, "_converge_resolved", _no_solve)
        monkeypatch.setattr(continuation, "_seeded_guess", _no_solve)
        with pytest.raises(ValueError, match="n_start"):
            nk.trace_branch(3.01, 4.0, n_start=n_start)

    @pytest.mark.parametrize("mu_start, mu_end, points", [(8.75, 10.75, 13), (10.0, 12.0, 2)])
    def test_starts_past_the_seed_reach(self, mu_start, mu_end, points):
        # straight from the series seed, Newton diverges at 8.75 and the seed
        # breaks down at 10; the first point starts from solve_seeded's guess
        branch = nk.trace_branch(mu_start, mu_end)
        assert not branch.truncated, branch.failure
        assert len(branch) == points and branch.mus[-1] == mu_end
        first, seeded = branch.points[0], nk.solve_seeded(mu_start)
        assert first.mu == mu_start and first.n == seeded.field.n
        assert np.abs(first.field.values - seeded.field.values).max() <= 1e-10

    def test_default_step_rule(self):
        # additive steps from 0.01, growing by 1.5 up to 1; geometric with
        # ratio 1.25 from mu = 10; the last step clipped at mu_end.  No step
        # on this range is rejected, so the rule alone fixes every mu
        expected = [3.01]
        step = 0.01
        while expected[-1] < 20.0:
            mu = expected[-1]
            expected.append(min(mu * 1.25 if mu >= 10.0 else mu + step, 20.0))
            step = min(step * 1.5, 1.0)
        branch = nk.trace_branch(3.01, 20.0)
        assert not branch.truncated
        assert branch.mus.tolist() == expected

    def test_unresolved_at_n_max_truncates(self, monkeypatch):
        monkeypatch.setattr(continuation, "N_MAX", 128)
        monkeypatch.setattr(continuation, "GEOMETRIC_RATIO", 1.6)
        branch = nk.trace_branch(3.01, 200.0, n_start=64)
        assert branch.truncated
        assert "unresolved at mu=" in branch.failure and "n=128" in branch.failure
        assert branch.mus[-1] < 200.0
        for p in branch:
            assert p.field.spectral_tail(band=p.n // 2) <= 1e-9

    def test_point_cap_truncates(self, monkeypatch):
        monkeypatch.setattr(continuation, "MAX_POINTS", 5)
        branch = nk.trace_branch(3.01, 50.0)
        assert len(branch) == 5
        assert branch.truncated
        assert "5-point cap" in branch.failure
        assert branch.mus[-1] < 50.0

    def test_initial_growth_matches_series(self):
        branch = nk.trace_branch(3.01, 3.5)
        norms = branch.sup_norms
        assert norms[0] == pytest.approx(0.0011, abs=2e-4)
        assert np.all(np.diff(norms) > 0)
        # sup_norm/(mu - 3) approaches the leading coefficient 1/9
        ratios = norms / (branch.mus - 3.0)
        assert ratios[0] == pytest.approx(1.0 / 9.0, rel=0.02)

    def test_residuals_within_tolerance(self, small_branch):
        for p in small_branch:
            assert p.residual <= small_branch.tol

    def test_doubled_grid_residual(self, small_branch):
        for p in small_branch.points[:: max(1, len(small_branch) // 5)]:
            doubled = p.field.resample(2 * p.field.n)
            op = get_operator(doubled.n, small_branch.spec)
            assert op.residual(doubled.values, p.mu) < 100 * small_branch.tol

    def test_positivity_and_upper_angle_bound(self, small_branch):
        for p in small_branch:
            assert p.field.values.min() > 0.0
            assert p.field.values.max() < np.pi / 3.0

    def test_wave_heights_positive_increasing(self, small_branch):
        h = np.array([p.wave_height for p in small_branch])
        assert np.all(h > 0)
        assert np.all(np.diff(h) > 0)

    def test_finite_depth_branch(self):
        spec = nk.KernelSpec(depth_ratio=0.5)
        mu1 = nk.characteristic_values(spec, 1)[0]
        branch = nk.trace_branch(mu1 + 0.01, mu1 + 1.0, spec=spec)
        assert len(branch) > 3
        for p in branch:
            assert p.residual <= branch.tol
            assert p.mu > mu1
            assert p.field.values.min() > 0.0

    def test_sup_norm_exceeds_pi_six_at_large_mu(self, monkeypatch):
        # sup|Phi| crosses pi/6 near mu ~ 3.5e3 (resolved crest layer needed)
        monkeypatch.setattr(continuation, "GEOMETRIC_RATIO", 1.6)
        branch = nk.trace_branch(3.05, 6000.0)
        assert branch.sup_norms.max() > np.pi / 6.0


class TestPredictor:
    @staticmethod
    def _point(mu, n, table):
        """A point whose first table.shape[1] sine coefficients are the
        polynomials in log mu with the coefficients in table's columns."""
        coeffs = np.polynomial.polynomial.polyval(math.log(mu), table)
        field = nk.AngleField.from_coefficients(coeffs, n)
        return nk.BranchPoint(mu=mu, field=field, sup_norm=0.0, wave_height=0.0,
                              residual=0.0, n=n)

    @pytest.mark.parametrize("mus", [(3.01, 3.02, 3.035, 3.0575), (10.0, 12.5, 15.625, 19.53125)],
                             ids=["additive", "geometric"])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_exact_for_polynomials_in_log_mu(self, mus, count):
        # degree count - 1 in log mu on mixed grids: the guess lands on the
        # finest grid and matches the family at the next mu
        rng = np.random.default_rng(count)
        table = rng.standard_normal((count, 31)) / np.arange(1, 32)
        ns = (64, 256, 64, 128)[:count]
        points = [self._point(mu, n, table) for mu, n in zip(mus[:count], ns)]
        mu_next = 2.0 * mus[count - 1] - mus[count - 2]
        guess = continuation._predict(points, mu_next)
        assert guess.n == max(ns)
        expected = np.polynomial.polynomial.polyval(math.log(mu_next), table)
        assert np.abs(guess.coefficients[:31] - expected).max() <= 1e-13
        assert not guess.coefficients[31:].any()

    def test_single_point_is_its_own_prediction(self):
        point = self._point(3.01, 64, np.ones((1, 5)))
        assert continuation._predict([point], 3.02) is point.field

    def test_corrector_iterations(self, monkeypatch):
        # from the third point on each guess is within reach of two Newton
        # iterations.  A refined point (on a finer grid than the point
        # before it) is either solved once, from its prediction moved up
        # the grid ladder until resolved, or re-solved once on the next
        # grid after a coarse solve came back unresolved; that re-solve
        # takes one
        solves = []
        monkeypatch.setattr(continuation, "_corrector", _recording_corrector(solves))
        branch = nk.trace_branch(3.01, 300.0)
        assert len(branch) == 33 and not branch.truncated
        assert all(p.iterations <= 2 for p in branch.points[2:])
        refined = [(p, q) for p, q in zip(branch.points, branch.points[1:]) if q.n > p.n]
        assert len(refined) == 6
        kinds = set()
        for p, q in refined:
            at_mu = [s for s in solves if s[0] == q.mu]
            if len(at_mu) == 1:
                assert at_mu == [(q.mu, q.n, True)]
            else:
                assert at_mu == [(q.mu, p.n, False), (q.mu, q.n, True)]
                assert q.iterations == 1
            kinds.add(len(at_mu))
        assert kinds == {1, 2}

    def test_points_write_iterations_and_tail_not_guess_residual(self, small_branch):
        for p in small_branch:
            assert p.iterations >= 0
            assert p.tail == p.field.spectral_tail(band=p.n // 2) <= continuation.TAIL_THRESHOLD
            assert p.guess_residual > p.residual
        # both formats write the same point fields: iterations and tail
        # among them, the guess residual in memory only
        payload = io.branch_payload(small_branch, "test")
        columns = io.branch_columns(small_branch)
        for record in payload["points"]:
            assert set(record) == set(columns) | {"coefficients"}
        assert "guess_residual" not in columns
        assert columns["iterations"].tolist() == [p.iterations for p in small_branch]
        assert columns["tail"].tolist() == [p.tail for p in small_branch]
        assert [r["tail"] for r in payload["points"]] == [p.tail for p in small_branch]


@pytest.fixture(scope="module")
def traced_1e3():
    """trace_branch(3.01, 1e3) and its corrector solves, each recorded as
    (mu, the guess's grid, whether the solve came back resolved)."""
    solves = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuation, "_corrector", _recording_corrector(solves))
        branch = nk.trace_branch(3.01, 1e3)
    return branch, solves


@pytest.fixture(scope="module")
def branch_1e3(traced_1e3):
    return traced_1e3[0]


class TestBranchPointDiagnostics:
    """_branch_point takes H/lambda from height_over_wavelength, not from a full
    reconstruct_profile, with the same checks."""

    def test_height_and_sup_norm_match_the_full_routes(self, branch_1e3):
        for p in branch_1e3:
            height = nk.reconstruct_profile(p.field, p.mu).height / (2.0 * np.pi)
            assert p.wave_height == pytest.approx(height, rel=2e-15, abs=0.0)
            assert p.sup_norm == p.field.sup_norm()

    def test_not_a_graph_still_warns(self):
        # R cos Phi <= 0 near theta = pi/2
        field = field_of(128, lambda t: 1.7 * np.sin(t))
        with pytest.warns(nk.GeometryWarning):
            continuation._branch_point(3.01, field, 0.0)

    def test_lost_positivity_still_breaks_down(self):
        field = field_of(64, lambda t: -2.0 * np.sin(t))
        with pytest.raises(nk.BreakdownError):
            continuation._branch_point(50.0, field, 0.0)


def _geometric_steps(points):
    """The indices of the points reached by a geometric step."""
    return [i for i in range(1, len(points))
            if points[i - 1].mu >= continuation.GEOMETRIC_START]


class TestSelfSimilarPredictor:
    """A geometric step's guess adds the last geometric step's predictor
    miss, stretched to the new crest scale."""

    @staticmethod
    def _wave(theta):
        return np.sin(3.0 * theta) + 0.2 * np.sin(7.0 * theta)

    def test_stretch_is_the_identity_at_ratio_one(self):
        values = np.random.default_rng(5).standard_normal(1023)
        out = continuation._stretch(values, 1.0, 1024)
        assert out.tobytes() == values.tobytes()

    @pytest.mark.parametrize("ratio", [1.25, 1.17])
    def test_stretch_across_grids_and_past_pi(self, ratio):
        # from grid 1024 to grid 2048; ratio * theta passes pi, where the
        # stencil reads the odd extension
        values = self._wave(nk.get_grid(1024).theta)
        theta = nk.get_grid(2048).theta
        assert (ratio * theta).max() > np.pi
        out = continuation._stretch(values, ratio, 2048)
        assert np.abs(out - self._wave(ratio * theta)).max() <= 2e-9

    def test_corrected_guesses_beat_the_plain_ones(self, branch_1e3):
        points = branch_1e3.points
        gains = {}
        for i in _geometric_steps(points):
            p = points[i]
            plain = continuation._predict(points[i - continuation.PREDICTOR_POINTS:i], p.mu)
            op = get_operator(plain.n, nk.DEEP)
            gains[p.mu] = op.residual(plain.values, p.mu) / p.guess_residual
        # the first geometric step has no miss to add; every later full
        # step gains at least 2x, and at least 20x from mu = 100 on; the
        # last step, clipped at mu_end, has other node ratios than the
        # step it corrects from
        first, *full, clipped = gains.items()
        assert first[1] == pytest.approx(1.0, rel=1e-12)
        assert len(full) >= 15 and min(g for _, g in full) >= 2.0
        assert min(g for mu, g in full if mu >= 100.0) >= 20.0
        assert points[-1].mu == 1e3 < 1.25 * points[-2].mu and clipped[1] > 1.0


class TestPredictedGrid:
    """A geometric step's grid moves up the grid ladder while its plain
    prediction's spectral tail exceeds TAIL_THRESHOLD, before the corrector
    runs."""

    def test_a_point_predicted_unresolved_is_solved_once(self, traced_1e3):
        branch, solves = traced_1e3
        point = next(p for p in branch if p.mu > 918.0)
        assert point.mu == pytest.approx(918.096, abs=1e-3)
        assert [s for s in solves if s[0] == point.mu] == [(point.mu, 12288, True)]
        assert point.n == 12288

    def test_no_unresolved_solve_from_an_unresolved_prediction(self, traced_1e3):
        branch, solves = traced_1e3
        points = branch.points
        refined = 0
        for i in _geometric_steps(points):
            p = points[i]
            plain = continuation._predict(points[i - continuation.PREDICTOR_POINTS:i], p.mu)
            refined += plain.spectral_tail(band=plain.n // 2) > continuation.TAIL_THRESHOLD
            for mu, n, resolved in solves:
                if mu == p.mu and plain.resample(n).spectral_tail(
                        band=n // 2) > continuation.TAIL_THRESHOLD:
                    assert resolved, f"mu={mu:g}: unresolved solve on n={n}"
        assert refined >= 1


def _ladder_sizes():
    """Every grid size 2^k or 3 * 2^k from 4 up to N_MAX, ascending."""
    sizes = {m << k for m in (1, 3) for k in range(18)}
    return sorted(n for n in sizes if 4 <= n <= continuation.N_MAX)


class TestGridLadder:
    """A refinement moves to the next grid of the form 2^k or 3 * 2^k."""

    @pytest.mark.parametrize("start", [4, 500, 512, 513, 98304])
    def test_each_step_is_the_next_size_up_to_n_max(self, start):
        sizes = _ladder_sizes()
        n = start
        while n < continuation.N_MAX:
            following = continuation._next_grid(n)
            assert following == min(m for m in sizes if m > n)
            assert following / n <= 1.5
            n = following
        assert n == continuation.N_MAX

    def test_branch_points_sit_on_the_ladder(self, branch_1e3):
        sizes = set(_ladder_sizes())
        assert all(p.n in sizes for p in branch_1e3)
        assert any(p.n % 3 == 0 for p in branch_1e3)


class TestConeMembership:
    def test_ratio_constant_field(self):
        # Phi = sin(theta/2): nonnegativity and the constant ratio hold;
        # the tail ordering fails for a field increasing toward theta = pi
        field = field_of(256, lambda t: np.sin(0.5 * t))
        report = nk.cone_membership(field)
        assert report.nonneg_ok
        assert report.ratio_monotone_ok
        assert not report.tail_ordering_ok

    def test_sin_2theta_fails_nonnegativity(self):
        field = field_of(256, lambda t: np.sin(2 * t))
        report = nk.cone_membership(field)
        assert not report.nonneg_ok
        assert report.max_violation == pytest.approx(1.0, abs=1e-3)

    def test_branch_solution_in_cone(self, small_branch):
        for p in small_branch:
            assert p.cone.all_ok
            assert p.cone.max_violation <= 1e-9

    @pytest.mark.parametrize("n", [8, 64, 512, 4096, 5, 7, 63, 513, 4097])
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_tail_violation_matches_loop(self, n, seed, ties):
        rng = np.random.default_rng(seed)
        v = rng.integers(-3, 4, n - 1).astype(float) if ties else rng.standard_normal(n - 1)
        assert _tail_violation(v) == _tail_violation_loop(v)

    @pytest.mark.parametrize("n", [257, 511, 512, 513])
    def test_solutions_on_odd_grids_in_cone(self, n):
        # on an odd grid no node sits at pi/2: theta_j's mirror is
        # theta_{n-j}, so a window [pi - t, t] holds no node below pi - t
        report = nk.cone_membership(nk.solve_seeded(3.5, n=n).field)
        assert report.all_ok, report
        assert report.max_violation <= 1e-9

    def test_zero_field_in_cone(self):
        report = nk.cone_membership(nk.AngleField.zero(128))
        assert report.all_ok
        assert report.max_violation == 0.0


class TestScaledContinua:
    def test_identity(self, small_branch):
        p = small_branch.points[3]
        assert nk.scale_branch_point(p, 1) is p

    def test_two_fold_scaling(self, small_branch):
        p = next(q for q in small_branch if q.mu > 3.5)
        scaled = nk.scale_branch_point(p, 2)
        assert scaled.mu == pytest.approx(2 * p.mu)
        assert scaled.residual <= 10 * max(p.residual, 1e-12)
        coeffs = scaled.field.coefficients
        assert np.all(coeffs[0::2] == 0.0), "odd modes must be empty"
        assert coeffs[1] == pytest.approx(p.field.coefficients[0], rel=1e-13)

    def test_three_fold_scaling(self, small_branch):
        p = small_branch.points[2]
        scaled = nk.scale_branch_point(p, 3)
        assert scaled.mu == pytest.approx(3 * p.mu)
        assert scaled.residual <= 10 * max(p.residual, 1e-12)
        coeffs = scaled.field.coefficients
        keep = np.abs(coeffs) > 1e-14
        assert np.all((np.nonzero(keep)[0] + 1) % 3 == 0), "period must be 2 pi/3"

    @settings(max_examples=30, deadline=None)
    @given(index=st.integers(0, 15), n_fold=st.integers(1, 4))
    def test_scaled_mu_and_residual(self, small_branch, index, n_fold):
        p = small_branch.points[index % len(small_branch.points)]
        scaled = nk.scale_branch_point(p, n_fold)
        tol = 10 * max(p.residual, 1e-12)
        assert scaled.mu == n_fold * p.mu
        # the reported residual is the scaled field's own, and within tol
        op = get_operator(scaled.n, nk.DEEP)
        assert scaled.residual == op.residual(scaled.field.values, scaled.mu)
        assert scaled.residual <= tol

    @pytest.mark.parametrize("n_fold", [2.0, 2.5, 0, -1, True])
    def test_n_fold_must_be_a_positive_integer(self, small_branch, n_fold):
        with pytest.raises(ValueError, match="n_fold"):
            nk.scale_branch_point(small_branch.points[0], n_fold)

    def test_numpy_integer_n_fold(self, small_branch):
        p = small_branch.points[5]
        scaled = nk.scale_branch_point(p, np.int64(3))
        assert scaled.n == 3 * p.n and scaled.mu == 3 * p.mu

    def test_long_branch_scales_without_solving(self, long_branch, monkeypatch):
        # the scaled field is the exact image of its source on grid 3n, so
        # no point is re-solved, and its residual is the source's up to
        # rounding
        monkeypatch.setattr(continuation, "solve", _no_solve)
        for p in long_branch:
            scaled = nk.scale_branch_point(p, 3)
            assert scaled.n == 3 * p.n
            assert scaled.residual <= p.residual + 5e-13
            assert scaled.iterations is None and scaled.guess_residual is None

    def test_scaled_grid_is_capped_before_it_is_built(self, small_branch, monkeypatch):
        # 16 N_MAX = 2^21 points is the largest scaled grid: one fold past it
        # fails before a field or an operator is made, one at it goes on
        def no_grid(*args, **kwargs):
            raise AssertionError("a scaled grid was built")

        monkeypatch.setattr(continuation.AngleField, "from_coefficients", no_grid)
        monkeypatch.setattr(continuation, "get_operator", no_grid)
        p = small_branch.points[0]
        n_fold = 16 * continuation.N_MAX // p.n
        assert n_fold * p.n == 1 << 21
        with pytest.raises(nk.ReconstructionOverflowError, match="16 N_MAX"):
            nk.scale_branch_point(p, n_fold + 1)
        with pytest.raises(AssertionError, match="scaled grid was built"):
            nk.scale_branch_point(p, n_fold)

    @pytest.mark.parametrize("n_fold", [2, 3, 5])
    def test_carried_values_match_the_scaled_wave(self, small_branch, n_fold):
        # the carried sup-norm, tail and H/lambda are the scaled field's own:
        # its sup-norm and tail recomputed, and the height of its surface
        # over one minimal period (crest at 0, trough at pi/n_fold)
        p = small_branch.points[10]
        scaled = nk.scale_branch_point(p, n_fold)
        assert (scaled.sup_norm, scaled.tail, scaled.wave_height) == (
            p.sup_norm, p.tail, p.wave_height)
        assert scaled.field.sup_norm() == pytest.approx(p.sup_norm, abs=1e-15)
        assert scaled.field.spectral_tail(band=scaled.n // 2) == p.tail
        surface = nk.reconstruct_profile(scaled.field, scaled.mu)
        trough = scaled.n // n_fold
        assert surface.theta[trough] == pytest.approx(np.pi / n_fold, rel=1e-15)
        height = surface.eta[0] - surface.eta[trough]
        wavelength = 2.0 * (surface.x[0] - surface.x[trough])
        assert height / wavelength == pytest.approx(p.wave_height, rel=1e-13)

    def test_scaling_requires_deep_water(self, small_branch):
        with pytest.raises(ValueError):
            nk.scale_branch_point(small_branch.points[0], 2,
                                  spec=nk.KernelSpec(depth_ratio=0.5))

    def test_minimal_period(self, small_branch):
        p = small_branch.points[4]
        scaled = nk.scale_branch_point(p, 2)
        theta = np.linspace(0.2, 1.8, 7)
        assert np.allclose(scaled.field(theta + np.pi), scaled.field(theta),
                           atol=1e-12)


class TestBranchExtrema:
    def test_empty_branch(self):
        with pytest.raises(ValueError):
            nk.branch_extrema(nk.Branch(points=[], spec=nk.DEEP, tol=1e-12))

    def test_trivial_branch(self):
        zero = nk.AngleField.zero(64)
        pts = [nk.BranchPoint(mu=3.0 + i, field=zero, sup_norm=0.0,
                              wave_height=0.0, residual=0.0, n=64)
               for i in range(3)]
        ex = nk.branch_extrema(nk.Branch(points=pts, spec=nk.DEEP, tol=1e-12))
        assert ex.peak_sup_norm == 0.0

    def test_peak_location(self, small_branch):
        ex = nk.branch_extrema(small_branch)
        assert ex.peak_sup_norm == small_branch.sup_norms.max()
        assert ex.mu_at_peak == small_branch.points[-1].mu
        assert ex.monotone_increasing
