"""Pooling, balanced cross-entropy, gradients, heatmap composition."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cxrlabel.errors import (
    CxrLabelError,
    DegenerateBatch,
    DimMismatch,
    EmptyRegion,
    NonPositiveR,
)
from cxrlabel.pooling import (
    LOSSES,
    avg_pool,
    beta_weights,
    cel,
    compose_heatmaps,
    el,
    hl,
    lse_pool,
    max_pool,
    wcel,
    wcel_gradient,
)


def naive_lse(values, r):
    """Direct, unshifted reference: (1/r) log((1/S) sum exp(r x))."""
    xs = list(np.asarray(values, dtype=float).ravel())
    return (1.0 / r) * math.log(sum(math.exp(r * x) for x in xs) / len(xs))


def naive_wcel(y, f, eps=1e-7):
    y = list(y)
    f = [min(max(v, eps), 1 - eps) for v in f]
    p = sum(1 for v in y if v == 1)
    n = len(y) - p
    bp, bn = (p + n) / p, (p + n) / n
    return sum(
        -bp * math.log(fv) if yv == 1 else -bn * math.log(1 - fv)
        for yv, fv in zip(y, f)
    )


finite_floats = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestLsePool:
    def test_reference_value_r1(self):
        assert lse_pool([1.0, 2.0, 3.0, 4.0], 1.0) == pytest.approx(
            3.053895337441305, abs=1e-12
        )

    def test_reference_value_r100(self):
        assert lse_pool([1.0, 2.0, 3.0, 4.0], 100.0) == pytest.approx(
            3.986137056388801, abs=1e-12
        )

    def test_reference_value_r_tiny(self):
        # True value (50-digit arithmetic) is 2.500000625; float64 loses
        # ~eps/r here, so the comparison allows that amplification.
        assert lse_pool([1.0, 2.0, 3.0, 4.0], 1e-6) == pytest.approx(
            2.500000625, abs=1e-9
        )

    def test_matches_naive_formula_on_grid(self):
        rng = np.random.default_rng(7)
        for r in (0.1, 0.5, 1.0, 5.0, 10.0):
            for _ in range(20):
                region = rng.uniform(-8, 8, size=rng.integers(1, 17))
                assert lse_pool(region, r) == pytest.approx(
                    naive_lse(region, r), rel=1e-9, abs=1e-9
                )

    def test_large_magnitudes_do_not_overflow(self):
        # The naive form overflows on exp(10 * 500); the shifted form must not.
        value = lse_pool([500.0, 499.0], 10.0)
        assert math.isfinite(value)
        assert 499.0 <= value <= 500.0

    def test_negative_regions(self):
        region = [-5.0, -4.0, -3.0]
        assert lse_pool(region, 2.0) == pytest.approx(
            naive_lse(region, 2.0), rel=1e-9
        )

    def test_r_must_be_positive(self):
        with pytest.raises(NonPositiveR):
            lse_pool([1.0], 0.0)
        with pytest.raises(NonPositiveR):
            lse_pool([1.0], -1.0)

    def test_empty_region_rejected(self):
        with pytest.raises(EmptyRegion):
            lse_pool([], 1.0)
        with pytest.raises(EmptyRegion):
            avg_pool([])
        with pytest.raises(EmptyRegion):
            max_pool([])

    def test_non_finite_rejected(self):
        with pytest.raises(CxrLabelError):
            lse_pool([1.0, float("nan")], 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("pool", [lambda v: lse_pool(v, 1.0), avg_pool, max_pool])
    def test_every_non_finite_cell_rejected(self, pool, bad):
        with pytest.raises(CxrLabelError, match="non-finite"):
            pool(np.array([[1.0, 2.0], [bad, -3.0]]))

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                 max_size=12),
        st.sampled_from([1e-300, 1e-6, 0.5, 1, 4.0, 1e3, 1e300]),
    )
    def test_equals_the_two_pass_form_bit_for_bit(self, region, r):
        # The isfinite-then-abs form lse_pool had before it found the
        # finiteness and the shift with one min/max pair.
        values = np.array(region)
        with np.errstate(all="ignore"):
            shift = np.max(np.abs(values))
            total = np.sum(np.exp(r * (values - shift)))
            expected = float(shift + np.log(total / values.size) / r)
            got = lse_pool(values, r)
        assert np.array_equal(values, np.array(region))  # the input is untouched
        assert math.copysign(1, got) == math.copysign(1, expected)
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert max_pool(values) == max(region)

    def test_signed_zero_regions_shift_by_positive_zero(self):
        for region in ([-0.0], [0.0, -0.0], [-0.0, -0.0, 0.0]):
            assert math.copysign(1, lse_pool(region, 2.0)) == 1.0

    def test_matrix_region_flattens(self):
        grid = [[1.0, 2.0], [3.0, 4.0]]
        assert lse_pool(grid, 1.0) == lse_pool([1.0, 2.0, 3.0, 4.0], 1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.sampled_from([0.5, 1.0, 4.0]))
    def test_bounded_by_mean_and_max(self, region, r):
        pooled = lse_pool(region, r)
        assert avg_pool(region) - 1e-9 <= pooled <= max_pool(region) + 1e-9

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.sampled_from([0.5, 1.0, 4.0]))
    def test_permutation_invariant(self, region, r):
        assert lse_pool(region, r) == pytest.approx(
            lse_pool(list(reversed(region)), r), rel=1e-12, abs=1e-12
        )

    @given(st.lists(finite_floats, min_size=1, max_size=12))
    def test_monotone_in_r(self, region):
        values = [lse_pool(region, r) for r in (0.25, 1.0, 4.0, 16.0)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-9

    @given(
        st.lists(finite_floats, min_size=1, max_size=12),
        st.sampled_from([0.5, 2.0]),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_shift_equivariant(self, region, r, c):
        shifted = [x + c for x in region]
        assert lse_pool(shifted, r) == pytest.approx(
            lse_pool(region, r) + c, rel=1e-9, abs=1e-9
        )

    def test_max_deficit_bound(self):
        # |lse - max| <= log(S)/r for any region of S cells.
        rng = np.random.default_rng(11)
        for _ in range(50):
            region = rng.uniform(-5, 5, size=rng.integers(1, 26))
            for r in (0.5, 2.0, 10.0, 100.0):
                deficit = abs(lse_pool(region, r) - max_pool(region))
                assert deficit <= math.log(region.size) / r + 1e-12


class TestBetaWeights:
    def test_counts(self):
        bp, bn = beta_weights([1, 0, 0, 0])
        assert (bp, bn) == (4.0, 4.0 / 3.0)

    def test_balanced_batch_gives_two(self):
        assert beta_weights([1, 1, 0, 0]) == (2.0, 2.0)

    def test_one_sided_batch_rejected(self):
        with pytest.raises(DegenerateBatch):
            beta_weights([1, 1])
        with pytest.raises(DegenerateBatch):
            beta_weights([0, 0])


class TestLosses:
    def test_wcel_reference_value(self):
        assert wcel([1, 0], [0.5, 0.5]) == pytest.approx(
            2.772588722239781, abs=1e-12
        )

    def test_wcel_is_double_cel_on_balanced_batch(self):
        y = [1, 0, 1, 0]
        f = [0.9, 0.2, 0.6, 0.4]
        assert wcel(y, f) == pytest.approx(2.0 * cel(y, f), rel=1e-12)

    def test_wcel_matches_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            size = int(rng.integers(2, 20))
            y = rng.integers(0, 2, size=size)
            if y.all() or not y.any():
                y[0] = 1 - y[0]
            f = rng.uniform(0.01, 0.99, size=size)
            assert wcel(y, f) == pytest.approx(naive_wcel(y, f), rel=1e-10)

    def test_el_and_hl_hand_values(self):
        assert el([1, 0], [0.75, 0.25]) == pytest.approx(0.125, abs=1e-12)
        assert hl([1, 0], [0.75, 0.25]) == pytest.approx(1.0, abs=1e-12)
        # The clamp keeps scores 1e-7 off the boundary, leaving a 2e-7
        # margin per sample even for perfect predictions.
        assert hl([1, 0], [1.0, 0.0]) == pytest.approx(4e-7, abs=1e-12)

    def test_extreme_scores_stay_finite(self):
        assert math.isfinite(cel([1, 0], [0.0, 1.0]))
        assert math.isfinite(wcel([1, 0], [0.0, 1.0]))

    def test_perfect_scores_near_zero_loss(self):
        assert cel([1, 0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-5)

    def test_losses_registry(self):
        assert set(LOSSES) == {"cel", "wcel", "el", "hl"}
        assert LOSSES["wcel"] is wcel

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            cel([1, 0], [0.5])

    def test_empty_batch_rejected(self):
        with pytest.raises(DegenerateBatch):
            cel([], [])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(CxrLabelError):
            cel([0.5, 1], [0.5, 0.5])


def central_difference(loss, y, f, h=1e-6):
    f = np.asarray(f, dtype=float)
    grad = np.zeros_like(f)
    for i in range(f.size):
        up, down = f.copy(), f.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss(y, up) - loss(y, down)) / (2 * h)
    return grad


class TestGradients:
    def test_wcel_gradient_formula(self):
        y = np.array([1, 0])
        f = np.array([0.5, 0.5])
        grad = wcel_gradient(y, f)
        # beta_P = beta_N = 2: d/df of -2 log f is -4 at f=.5; of -2 log(1-f) is +4.
        assert grad == pytest.approx([-4.0, 4.0], rel=1e-12)

    def test_wcel_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            size = int(rng.integers(2, 16))
            y = rng.integers(0, 2, size=size)
            if y.all() or not y.any():
                y[0] = 1 - y[0]
            f = rng.uniform(0.05, 0.95, size=size)
            numeric = central_difference(wcel, y, f)
            analytic = wcel_gradient(y, f)
            assert analytic == pytest.approx(numeric, rel=1e-5, abs=1e-5)

    def test_gradient_signs(self):
        y = [1, 0, 1, 0]
        f = [0.3, 0.7, 0.9, 0.1]
        grad = wcel_gradient(y, f)
        assert (grad[np.asarray(y) == 1] < 0).all()
        assert (grad[np.asarray(y) == 0] > 0).all()


class TestComposeHeatmaps:
    def test_reference_value(self):
        act = np.arange(1.0, 9.0).reshape(2, 2, 2)
        w = np.array([[0.5], [-1.0]])
        out = compose_heatmaps(act, w)
        assert out.shape == (2, 2, 1)
        assert out == pytest.approx(
            np.array([[[-1.5], [-2.5]], [[-3.5], [-4.5]]])
        )

    def test_output_shape(self):
        act = np.zeros((8, 8, 16))
        w = np.ones((16, 14))
        assert compose_heatmaps(act, w).shape == (8, 8, 14)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(9)
        act = rng.normal(size=(4, 4, 6))
        w1 = rng.normal(size=(6, 3))
        w2 = rng.normal(size=(6, 3))
        combined = compose_heatmaps(act, w1 + w2)
        separate = compose_heatmaps(act, w1) + compose_heatmaps(act, w2)
        assert combined == pytest.approx(separate, rel=1e-10, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(10)
        act = rng.normal(size=(3, 3, 4))
        w = rng.normal(size=(4, 2))
        out = compose_heatmaps(act, w)
        for i in range(3):
            for j in range(3):
                for c in range(2):
                    expected = sum(act[i, j, d] * w[d, c] for d in range(4))
                    assert out[i, j, c] == pytest.approx(expected, rel=1e-12)

    def test_dimension_checks(self):
        with pytest.raises(DimMismatch):
            compose_heatmaps(np.zeros((4, 4)), np.zeros((4, 2)))
        with pytest.raises(DimMismatch):
            compose_heatmaps(np.zeros((4, 4, 3)), np.zeros(3))
        with pytest.raises(DimMismatch):
            compose_heatmaps(np.zeros((4, 4, 3)), np.zeros((5, 2)))

    def test_non_finite_rejected(self):
        act = np.full((2, 2, 1), np.nan)
        with pytest.raises(CxrLabelError):
            compose_heatmaps(act, np.ones((1, 1)))
