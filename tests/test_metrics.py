import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoscheme.grid import Mesh1D, Mesh3D, MeshFunction, norm_c
from monoscheme.metrics import (
    check_damping_bound,
    count_extrema_3d,
    damping_bound_interval,
    extremum_cells,
    max_step_change,
    oscillates_point_to_point,
    report_1d,
    report_3d,
    sharpness_metrics,
)

RNG = np.random.default_rng(20240814)


def brute_extrema(g, region):
    (i0, i1), (j0, j1), (k0, k1) = region
    N = g.shape[0]
    cells = []
    for i in range(max(i0, 1), min(i1, N - 2) + 1):
        for j in range(max(j0, 1), min(j1, N - 2) + 1):
            for k in range(max(k0, 1), min(k1, N - 2) + 1):
                nb = [g[i + 1, j, k], g[i - 1, j, k], g[i, j + 1, k],
                      g[i, j - 1, k], g[i, j, k + 1], g[i, j, k - 1]]
                c = g[i, j, k]
                if all(c > x for x in nb) or all(c < x for x in nb):
                    cells.append((i, j, k))
    return cells


def brute_sharpness(g, cells):
    a = b = 0.0
    for (i, j, k) in cells:
        jumps = [abs(g[i, j, k] - g[i + d, j + e, k + f])
                 for d, e, f in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                 (0, -1, 0), (0, 0, 1), (0, 0, -1))]
        a = max(a, max(jumps))
        b = max(b, min(jumps))
    return a, b


class TestOscillationDetector:
    def test_canonical_alternation(self):
        assert oscillates_point_to_point([0, 1, 0, 1, 0], 0, 4)

    def test_monotone_sequence(self):
        assert not oscillates_point_to_point([0, 1, 2, 3], 0, 3)

    def test_equality_breaks_strictness(self):
        assert not oscillates_point_to_point([0, 1, 1, 0], 0, 3)

    def test_interval_too_short(self):
        with pytest.raises(ValueError, match="interval 1..2 has fewer than 3 points"):
            oscillates_point_to_point([0, 1, 0], 1, 2)

    def test_subinterval(self):
        seq = [0, 1, 2, 3, 2, 3, 2]
        assert not oscillates_point_to_point(seq, 0, 6)
        assert oscillates_point_to_point(seq, 3, 6)

    @pytest.mark.filterwarnings("error")
    def test_huge_steps_do_not_overflow(self):
        # The product of the steps 2e200 and -2e200 overflows.
        assert oscillates_point_to_point([0, 1e200, -1e200, 1e200])
        assert report_1d([0.0, 1e200, -1e200, 1e200, 0.0]).oscillates

    def test_tiny_steps_alternate(self):
        # The product of the steps 2e-200 and -2e-200 underflows to zero.
        assert oscillates_point_to_point([0, 1e-200, -1e-200, 1e-200])

    @pytest.mark.filterwarnings("error")
    def test_nan_and_infinite_steps(self):
        assert not oscillates_point_to_point([0, np.nan, 0, 1])
        assert oscillates_point_to_point([0, np.inf, 0, np.inf])
        assert not oscillates_point_to_point([np.inf, np.inf, 0, 1])

    @pytest.mark.parametrize("k, l, error, message", [
        (3, 2, ValueError, "need k <= l"),
        (0, 5, IndexError, "outside sequence of 5 points"),
        (-1, 3, IndexError, "outside sequence of 5 points"),
    ])
    def test_bad_interval_raises(self, k, l, error, message):
        with pytest.raises(error, match=message):
            oscillates_point_to_point([0.0, 1.0, 0.0, 1.0, 0.0], k, l)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_step_sign_formula(self, data):
        # The rule "every inner node is a strict extremum" against the formula
        # it replaced: consecutive step signs, from comparisons, alternate.
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan,
                                   1e308, -1e308, 5e-324])
        seq = np.array(data.draw(st.lists(special | st.floats(), min_size=3, max_size=9)))
        k = data.draw(st.integers(0, len(seq) - 3))
        l = data.draw(st.integers(k + 2, len(seq) - 1))
        seg = seq[k : l + 1]
        sign = (seg[1:] > seg[:-1]).astype(int) - (seg[1:] < seg[:-1])
        assert oscillates_point_to_point(seq, k, l) == bool(np.all(sign[:-1] * sign[1:] < 0))


class TestMaxStepChange:
    def test_examples(self):
        assert max_step_change([0, 1, 0]) == 1.0
        assert max_step_change([5, 5, 5, 5]) == 0.0
        assert max_step_change([0.5, 2.0, -1.0]) == 3.0

    def test_requires_interval(self):
        with pytest.raises(ValueError):
            max_step_change([1.0])
        with pytest.raises(ValueError):
            max_step_change([])

    def test_lipschitz_bound_random_pairs(self):
        for _ in range(200):
            n = int(RNG.integers(3, 40))
            u = RNG.standard_normal(n)
            v = u + RNG.standard_normal(n) * RNG.uniform(0.001, 2.0)
            gap = abs(max_step_change(u) - max_step_change(v))
            assert gap <= 2.0 * norm_c(u - v) + 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 40), size=st.sampled_from((1e-9, 1e-3, 1.0, 1e3)))
    def test_lipschitz_bound_property(self, data, n, size):
        values = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.asarray)
        u = data.draw(values)
        v = u + size * data.draw(values)
        gap = abs(max_step_change(u) - max_step_change(v))
        # Slack for the rounding of each step difference and of u - v.
        slack = 4 * np.finfo(float).eps * (norm_c(u) + norm_c(v))
        assert gap <= 2.0 * norm_c(u - v) + slack

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(2, 7))
    def test_lipschitz_bound_property_3d(self, data, n):
        # Values from a small pool give ties and both zeros on every axis;
        # the draws around them give distinct jumps.
        value = st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5)) | st.floats(-1e3, 1e3)
        grids = st.lists(value, min_size=n**3, max_size=n**3).map(
            lambda xs: np.reshape(xs, (n, n, n)))
        u, v = data.draw(grids), data.draw(grids)
        gap = abs(max_step_change(u) - max_step_change(v))
        slack = 4 * np.finfo(float).eps * (norm_c(u) + norm_c(v))
        assert gap <= 2.0 * norm_c(u - v) + slack

    def test_smoothing_reduces_alternation(self):
        # Constant-amplitude alternation around a level: smoothing flattens
        # the interior, strictly shrinking the maximal step.
        for n in (5, 9, 16):
            i = np.arange(n + 2)
            seq = 1.0 + 0.5 * (-1.0) ** i
            smoothed = seq.copy()
            smoothed[1:-1] = (seq[2:] + 2 * seq[1:-1] + seq[:-2]) / 4.0
            assert oscillates_point_to_point(seq, 0, n + 1)
            assert max_step_change(smoothed) < max_step_change(seq)


class TestExtrema3D:
    def test_single_spike(self):
        mesh = Mesh3D(1.0, 5)
        g = np.zeros((5, 5, 5))
        g[2, 2, 2] = 1.0
        assert count_extrema_3d(MeshFunction(mesh, g)) == 1

    def test_linear_field_has_none(self):
        mesh = Mesh3D(1.0, 6)
        g = np.fromfunction(lambda i, j, k: i * 1.0, (6, 6, 6))
        assert count_extrema_3d(MeshFunction(mesh, g)) == 0

    def test_ties_are_not_extrema(self):
        mesh = Mesh3D(1.0, 5)
        g = np.zeros((5, 5, 5))
        g[2, 2, 2] = 1.0
        g[3, 2, 2] = 1.0  # plateau pair: neither cell strictly exceeds all six
        assert count_extrema_3d(MeshFunction(mesh, g)) == 0

    def test_empty_region_counts_zero(self):
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, RNG.standard_normal(125))
        assert count_extrema_3d(u, ((2, 1), (0, 4), (0, 4))) == 0

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(3, 6))
        mesh = Mesh3D(1.0, n)
        u = MeshFunction(mesh, rng.standard_normal(n**3))
        region = ((0, n - 1),) * 3
        cells = brute_extrema(u.as_grid(), region)
        assert count_extrema_3d(u, region) == len(cells)
        assert extremum_cells(u, region) == sorted(
            cells, key=lambda c: c[0] + n * c[1] + n * n * c[2]
        )


    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(2, 6))
    def test_count_cells_and_report_agree(self, data, N):
        # Small integer values make ties; regions may be empty or reach past
        # the mesh on either side.
        values = data.draw(st.lists(st.integers(-2, 2), min_size=N**3, max_size=N**3))
        u = MeshFunction(Mesh3D(1.0, N), np.asarray(values, dtype=float))
        bounds = st.tuples(st.integers(-2, N + 1), st.integers(0, N + 1))
        region = data.draw(st.none() | st.tuples(bounds, bounds, bounds))
        count = count_extrema_3d(u, region)
        assert count == len(extremum_cells(u, region)) == report_3d(u, region).extremum_count


class TestSharpness:
    def test_spike_examples(self):
        mesh = Mesh3D(1.0, 5)
        g = np.zeros((5, 5, 5))
        g[2, 2, 2] = 1.0
        u = MeshFunction(mesh, g)
        assert sharpness_metrics(u, [(2, 2, 2)]) == (1.0, 1.0)
        g2 = g.copy()
        g2[3, 2, 2] = 0.8  # neighbor jumps (1, 1, 1, 1, 1, 0.2)
        u2 = MeshFunction(mesh, g2)
        a, b = sharpness_metrics(u2, [(2, 2, 2)])
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(0.2)

    def test_empty_set_raises(self):
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, np.zeros(125))
        with pytest.raises(ValueError, match="sharpness metrics are undefined for an empty set"):
            sharpness_metrics(u, [])

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(2000 + trial)
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, rng.standard_normal(125))
        cells = extremum_cells(u)
        if not cells:
            pytest.skip("no extrema drawn")
        assert sharpness_metrics(u, cells) == brute_sharpness(u.as_grid(), cells)

    def test_cell_lacking_neighbors_raises(self):
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, RNG.standard_normal(125))
        with pytest.raises(ValueError, match=r"cell \(4, 2, 2\) lacks"):
            sharpness_metrics(u, [(2, 2, 2), (4, 2, 2), (0, 1, 1)])

    @pytest.mark.parametrize("trial", range(5))
    def test_arbitrary_cells_match_brute_force(self, trial):
        rng = np.random.default_rng(3000 + trial)
        n = 8
        u = MeshFunction(Mesh3D(1.0, n), rng.standard_normal(n**3))
        cells = [tuple(c) for c in rng.integers(1, n - 1, size=(30, 3)).tolist()]
        assert sharpness_metrics(u, cells) == brute_sharpness(u.as_grid(), cells)

    def test_region_form(self):
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, RNG.standard_normal(125))
        region = ((1, 3), (1, 3), (1, 3))
        a, b = sharpness_metrics(u, region)
        cells = [(i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]
        assert (a, b) == brute_sharpness(u.as_grid(), cells)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(2, 6))
    def test_region_equals_its_cell_list(self, data, N):
        # Ties, signed zeros, infinities and NaN; a region's bounds may reach
        # past the mesh on either side, and an unsorted pair may be inverted.
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
        values = data.draw(st.lists(special, min_size=N**3, max_size=N**3))
        u = MeshFunction(Mesh3D(1.0, N), np.asarray(values))
        pair = st.tuples(st.integers(-2, N + 1), st.integers(-2, N + 1))
        bounds = pair.map(sorted).map(tuple) | pair
        region = data.draw(st.tuples(bounds, bounds, bounds))
        axes = [range(max(lo, 1), min(hi, N - 2) + 1) for lo, hi in region]
        cells = list(itertools.product(*axes))
        if not cells:
            for form in (region, cells):
                with pytest.raises(ValueError) as info:
                    sharpness_metrics(u, form)
                assert str(info.value) == "sharpness metrics are undefined for an empty set"
            return
        by_region = np.array(sharpness_metrics(u, region))
        assert by_region.tobytes() == np.array(sharpness_metrics(u, cells)).tobytes()

    def test_pairs_are_not_cells(self):
        u = MeshFunction(Mesh3D(1.0, 5), RNG.standard_normal(125))
        with pytest.raises(ValueError, match=r"cells must be \(i, j, k\) triples"):
            sharpness_metrics(u, [(2, 2), (3, 3)])


@pytest.mark.parametrize("measure", [
    count_extrema_3d, extremum_cells, report_3d, lambda u: sharpness_metrics(u, [(1, 1, 1)]),
], ids=["count_extrema_3d", "extremum_cells", "report_3d", "sharpness_metrics"])
def test_3d_measures_reject_a_1d_function(measure):
    u = MeshFunction(Mesh1D(0.0, 1.0, 5), np.arange(5.0))
    with pytest.raises(TypeError, match="defined for 3D mesh functions"):
        measure(u)


class TestDampingInterval:
    def test_spec_point(self):
        lo, hi = damping_bound_interval(delta=1.0, k=0.5, epsilon=0.01)
        assert lo == pytest.approx(0.48 / 1.01)
        assert hi == pytest.approx(0.52 / 0.99)

    def test_collapse_as_epsilon_vanishes(self):
        lo, hi = damping_bound_interval(delta=1.0, k=0.5, epsilon=1e-12)
        assert lo == pytest.approx(0.5, abs=1e-10)
        assert hi == pytest.approx(0.5, abs=1e-10)

    def test_premise_violation_named(self):
        with pytest.raises(ValueError, match=r"premise K\*\|\|M\|\|\*eps < k\*delta fails: 0.4 >= 0.1"):
            damping_bound_interval(delta=1.0, k=0.1, epsilon=0.2)

    def test_monotone_widening_in_epsilon(self):
        eps_values = np.linspace(1e-6, 0.05, 20)
        lows, highs = [], []
        for eps in eps_values:
            lo, hi = damping_bound_interval(delta=1.0, k=0.5, epsilon=eps)
            lows.append(lo)
            highs.append(hi)
        assert all(a >= b for a, b in zip(lows, lows[1:]))
        assert all(a <= b for a, b in zip(highs, highs[1:]))

    @pytest.mark.parametrize("inputs, message", [
        ((0.0, 0.5, 0.1), "delta must be positive, got 0.0"),
        ((-1.0, 0.5, 0.1), "delta must be positive, got -1.0"),
        ((np.nan, 0.5, 0.1), "delta must be positive, got nan"),
        ((1.0, 0.0, 0.1), "k must lie in (0, 1), got 0.0"),
        ((1.0, 1.0, 0.1), "k must lie in (0, 1), got 1.0"),
        ((1.0, np.nan, 0.1), "k must lie in (0, 1), got nan"),
        ((1.0, 0.5, 0.0), "epsilon must be positive, got 0.0"),
        ((1.0, 0.5, -0.1), "epsilon must be positive, got -0.1"),
        ((1.0, 0.5, np.nan), "epsilon must be positive, got nan"),
    ])
    def test_inputs_out_of_range_raise(self, inputs, message):
        with pytest.raises(ValueError) as info:
            damping_bound_interval(*inputs)
        assert str(info.value) == message
        assert "premise" not in str(info.value)

    def test_interval_is_positive_and_ordered(self):
        lo, hi = damping_bound_interval(delta=2.0, k=0.7, epsilon=0.1)
        assert 0 < lo < hi


def _smooth_full(seq: np.ndarray) -> np.ndarray:
    out = seq.copy()
    out[1:-1] = (seq[2:] + 2.0 * seq[1:-1] + seq[:-2]) / 4.0
    return out


class TestCheckDampingBound:
    def test_identical_inputs_epsilon_zero_edge(self):
        u = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        chk = check_damping_bound(u, u.copy(), _smooth_full)
        assert chk.epsilon == 0.0
        assert chk.premises_hold and chk.inside
        assert chk.k1 == chk.k

    def test_uniform_shift_is_invariant(self):
        u = np.array([(-1.0) ** i for i in range(12)])
        v = u + 1e-3
        chk = check_damping_bound(u, v, _smooth_full)
        assert chk.premises_hold
        assert chk.inside
        assert chk.k1 == pytest.approx(chk.k)

    def test_flat_input_degenerate(self):
        u = np.zeros(8)
        with pytest.raises(ValueError, match=r"base solution is flat: f\(u\) = 0"):
            check_damping_bound(u, u, _smooth_full)

    def test_failed_premise_reported_not_raised(self):
        u = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        v = u + np.linspace(0, 3.0, 5)  # gross perturbation
        chk = check_damping_bound(u, v, _smooth_full)
        assert not chk.premises_hold
        assert chk.failed_premise

    @pytest.mark.parametrize("v_shift, kwargs, message", [
        (np.linspace(0, 3.0, 5), {}, "premise K*||M||*eps < k*delta fails: 6 >= 0.25"),
        (np.full(5, 0.5), {"lipschitz": 0.1},
         "premise eps < delta fails: 0.5 >= 0.5"),
        (np.full(5, 0.1), {"smooth": lambda seq: seq}, "k must lie in (0, 1), got 1.0"),
    ], ids=["spread", "eps_delta", "k_one"])
    def test_failed_premise_texts(self, v_shift, kwargs, message):
        # Each text names the first hypothesis that fails, as
        # damping_bound_interval raises it.
        u = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        smooth = kwargs.pop("smooth", _smooth_full)
        chk = check_damping_bound(u, u + v_shift, smooth, **kwargs)
        assert not chk.premises_hold and not chk.inside
        assert chk.failed_premise == message

    def test_three_dimensional_field(self):
        # f is the largest axis step: report_3d's f_value over the whole grid.
        g = RNG.standard_normal((5, 5, 5))
        chk = check_damping_bound(g, g + 1e-3, lambda a: a / 2.0)
        assert chk.delta == report_3d(MeshFunction(Mesh3D(1.0, 5), g), ((0, 4),) * 3).f_value
        assert chk.k == 0.5 and chk.premises_hold and chk.inside

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(5,\) vs \(4,\)"):
            check_damping_bound(np.zeros(5), np.zeros(4), _smooth_full)

    def test_roundtrip_dict(self):
        u = np.array([(-1.0) ** i for i in range(12)])
        chk = check_damping_bound(u, u + 1e-3, _smooth_full)
        from monoscheme.metrics import DampingCheck

        assert DampingCheck(**asdict(chk)) == chk


class TestReports:
    def test_report_1d_alternating(self):
        rep = report_1d([0.0, 1.0, 0.0, 1.0, 0.0])
        assert rep.oscillates
        assert rep.f_value == 1.0
        assert rep.extremum_count == 3

    @pytest.mark.parametrize("n, want", [(0, None), (1, None), (2, None), (3, True)])
    def test_report_1d_oscillation_needs_three_interior_nodes(self, n, want):
        # The ends never take part: nodes 0..n+1 alternate for every n.
        assert report_1d([(-1.0) ** i for i in range(n + 2)]).oscillates is want

    def test_report_3d_roundtrip(self):
        mesh = Mesh3D(1.0, 5)
        u = MeshFunction(mesh, RNG.standard_normal(125))
        rep = report_3d(u)
        from monoscheme.metrics import MonotonicityReport

        assert MonotonicityReport(**asdict(rep)) == rep
        assert rep.sharpness_b <= rep.sharpness_a
        assert rep.extremum_count >= 0

    @pytest.mark.parametrize("region, want", [
        # An upper bound below -1 once sliced from the end of the axis and
        # read rows i = 0..2.
        (((0, -3), (0, 4), (0, 4)), 0.0),
        (((3, 1), (0, 4), (0, 4)), 0.0),
        (((0, 2), (0, 4), (0, 4)), 122.0**2 - 97.0**2),
        (((-9, 9), (0, 4), (0, 4)), 124.0**2 - 99.0**2),
    ])
    def test_report_3d_f_value_stays_in_the_mesh(self, region, want):
        u = MeshFunction(Mesh3D(1.0, 5), np.arange(125.0) ** 2)
        assert report_3d(u, region).f_value == want

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), N=st.integers(2, 5))
    def test_report_3d_f_value_matches_brute_force(self, data, N):
        # Bounds reach past the mesh on either side, and ranges may be inverted.
        g = np.asarray(data.draw(st.lists(st.integers(-9, 9), min_size=N**3, max_size=N**3)),
                       dtype=float).reshape((N, N, N), order="F")
        bound = st.integers(-3, N + 2)
        region = data.draw(st.tuples(*[st.tuples(bound, bound)] * 3))
        inside = [range(max(lo, 0), min(hi, N - 1) + 1) for lo, hi in region]
        steps = [abs(g[i + d, j + e, k + f] - g[i, j, k])
                 for i in inside[0] for j in inside[1] for k in inside[2]
                 for d, e, f in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                 if i + d in inside[0] and j + e in inside[1] and k + f in inside[2]]
        u = MeshFunction(Mesh3D(1.0, N), g)
        assert report_3d(u, region).f_value == max(steps, default=0.0)


INF, NAN = float("inf"), float("nan")


def _field_with_infinite_pair(sign, nan_cell=None):
    """4^3 field of its flat index, with the x-neighbors (1, 1, 1) and (2, 1, 1),
    flat cells 21 and 22, set to the same infinity (and nan_cell to NaN)."""
    values = np.arange(64.0)
    values[[21, 22]] = sign * INF
    if nan_cell is not None:
        values[nan_cell] = NAN
    return MeshFunction(Mesh3D(1.0, 4), values)


class TestEqualInfinities:
    """A step between equal values, the same infinity included, is 0, and
    forming it warns of nothing; NaN data still gives NaN."""

    def test_max_step_change(self):
        assert max_step_change([1, INF, INF, 2]) == INF
        assert max_step_change([INF, INF]) == 0.0
        assert max_step_change([-INF, -INF, 5.0]) == INF

    def test_report_1d(self):
        assert report_1d([0, INF, INF, 1, 0]).f_value == INF

    @pytest.mark.parametrize("sign", [1, -1])
    def test_report_3d(self, sign):
        assert report_3d(_field_with_infinite_pair(sign)).f_value == INF

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sharpness(self, sign):
        assert sharpness_metrics(_field_with_infinite_pair(sign), [(1, 1, 1)]) == (INF, 0.0)

    def test_nan_data_gives_nan(self):
        assert np.isnan(max_step_change([1, NAN, 2]))
        assert np.isnan(max_step_change([INF, INF, NAN]))
        assert np.isnan(report_1d([0, INF, INF, NAN, 0]).f_value)
        assert np.isnan(report_3d(_field_with_infinite_pair(1, nan_cell=42)).f_value)

    def test_step_past_the_largest_float_is_inf(self):
        assert max_step_change([1e308, -1e308]) == INF
        assert report_1d([0, 1e308, -1e308, 0]).f_value == INF
