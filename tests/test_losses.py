"""Loss formulas and analytic-gradient verification tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pose6d import (
    DimensionMismatchError,
    LossWeights,
    NotOneHotError,
    Quaternion,
    Translation,
    cls_cross_entropy,
    cls_cross_entropy_grad,
    finite_diff_check,
    quat_mse,
    quat_mse_grad,
    total_loss,
    trans_mse,
    trans_mse_grad,
)

GRAD_TOL = 1e-5

quat_floats = st.floats(-2.0, 2.0)


class TestCrossEntropy:
    def test_uniform_binary_prediction(self):
        assert cls_cross_entropy(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2.0))

    def test_low_probability_on_the_true_class(self):
        value = cls_cross_entropy(np.array([0.0, 1.0]), np.array([0.9, 0.1]))
        assert value == pytest.approx(-math.log(0.1))

    def test_perfect_prediction_is_zero(self):
        assert cls_cross_entropy(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_zero_probability_is_clamped(self):
        value = cls_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(-math.log(1e-12))

    def test_gradient_is_minus_target_over_prediction(self):
        grad = cls_cross_entropy_grad(np.array([0.0, 1.0]), np.array([0.9, 0.1]))
        assert grad == pytest.approx(np.array([0.0, -10.0]))

    @pytest.mark.parametrize("y, y_hat, exc_type", [
        ([0.5, 0.5], [0.5, 0.5], NotOneHotError),
        ([1.0, 1.0], [0.5, 0.5], NotOneHotError),
        ([0.0, 0.0], [0.5, 0.5], NotOneHotError),
        ([1.0, 0.0], [0.5, 0.5, 0.0], DimensionMismatchError),
        ([1.0, 0.0], [0.7, 0.1], ValueError),    # probabilities sum to 0.8
        ([1.0, 0.0], [1.2, -0.2], ValueError),   # out of [0, 1]
    ])
    def test_invalid_inputs(self, y, y_hat, exc_type):
        with pytest.raises(exc_type):
            cls_cross_entropy(np.array(y, dtype=float), np.array(y_hat, dtype=float))

    def test_probability_sum_tolerance_is_loose_enough_for_float_noise(self):
        y_hat = np.array([0.3, 0.3, 0.4]) + 1e-8
        assert cls_cross_entropy(np.array([0.0, 1.0, 0.0]), y_hat) > 0.0


class TestQuatMse:
    Q = Quaternion(1.0, 0.0, 0.0, 0.0)

    def test_component_squared_error(self):
        assert quat_mse(self.Q, Quaternion(0.0, 1.0, 0.0, 0.0)) == 2.0

    def test_antipodal_prediction_without_alignment(self):
        assert quat_mse(self.Q, Quaternion(-1.0, 0.0, 0.0, 0.0)) == 4.0

    def test_antipodal_prediction_with_alignment(self):
        assert quat_mse(self.Q, Quaternion(-1.0, 0.0, 0.0, 0.0), hemisphere_align=True) == 0.0

    def test_zero_at_the_minimum(self):
        assert quat_mse(self.Q, self.Q) == 0.0
        assert quat_mse_grad(self.Q, self.Q) == pytest.approx(np.zeros(4))

    @given(*([quat_floats] * 8))
    def test_alignment_always_picks_the_smaller_branch(self, w, x, y, z, hw, hx, hy, hz):
        q = Quaternion(w, x, y, z)
        q_hat = Quaternion(hw, hx, hy, hz)
        flipped = Quaternion(-hw, -hx, -hy, -hz)
        aligned = quat_mse(q, q_hat, hemisphere_align=True)
        assert aligned == pytest.approx(min(quat_mse(q, q_hat), quat_mse(q, flipped)))


class TestTransMse:
    def test_known_value(self):
        assert trans_mse(Translation(0.0, 0.0, 0.0), Translation(1.0, 2.0, 3.0)) == 14.0

    def test_zero_at_the_minimum(self):
        t = Translation(4.0, -1.0, 9.0)
        assert trans_mse(t, t) == 0.0
        assert trans_mse_grad(t, t) == pytest.approx(np.zeros(3))

    def test_gradient_direction(self):
        grad = trans_mse_grad(Translation(0.0, 0.0, 0.0), Translation(1.0, -2.0, 0.5))
        assert grad == pytest.approx(np.array([2.0, -4.0, 1.0]))


class TestTotalLoss:
    def test_weighted_sum(self):
        weights = LossWeights(lambda1=0.5, lambda2=2.0)
        assert total_loss(1.0, 2.0, 3.0, weights) == 8.0

    def test_default_weights_are_unit(self):
        assert total_loss(1.0, 2.0, 3.0) == 6.0

    def test_negative_weights_are_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda1=-0.1)

    @pytest.mark.parametrize("kwargs, message", [
        # a TypeError from comparing 'a' with 0.0
        ({"lambda1": "a"}, "lambda1 must be a number, got 'a'"),
        # it built and weighed the quaternion term by 1
        ({"lambda1": True, "lambda2": 1.0}, "lambda1 must be a number, got True"),
        ({"lambda2": None}, "lambda2 must be a number, got None"),
    ], ids=["str", "bool", "None"])
    def test_a_weight_that_is_no_number_is_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            LossWeights(**kwargs)
        assert str(err.value) == message

    def test_numpy_weights_still_weigh(self):
        weights = LossWeights(lambda1=np.float32(0.5), lambda2=np.float64(2.0))
        assert total_loss(1.0, 2.0, 3.0, weights) == 8.0

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_components_are_rejected(self, bad):
        with pytest.raises(ValueError):
            total_loss(bad, 0.0, 0.0)

    @pytest.mark.parametrize("args, message", [
        ((True, 0.0, 0.0), "cls loss must be a number, got True"),  # it added as 1
        (("a", 0.0, 0.0), "cls loss must be a number, got 'a'"),  # math.isfinite raised TypeError
        ((0.0, 0.0, None), "trans loss must be a number, got None"),
    ], ids=["bool", "str", "None"])
    def test_a_loss_that_is_no_number_is_rejected(self, args, message):
        with pytest.raises(ValueError) as err:
            total_loss(*args)
        assert str(err.value) == message


class TestFiniteDiffCheck:
    def test_translation_gradient_on_random_points(self):
        rng = np.random.default_rng(2024)
        target = Translation(0.5, -1.0, 3.0)
        worst = 0.0
        for _ in range(100):
            point = rng.uniform(-5.0, 5.0, size=3)
            error = finite_diff_check(
                lambda v: trans_mse(target, Translation(*v)),
                lambda v: trans_mse_grad(target, Translation(*v)),
                point,
            )
            worst = max(worst, error)
        assert worst < GRAD_TOL

    @pytest.mark.parametrize("align", [False, True])
    def test_quaternion_gradient_on_random_points(self, align):
        rng = np.random.default_rng(7)
        target = Quaternion(0.5, 0.5, 0.5, 0.5)
        worst = 0.0
        checked = 0
        while checked < 100:
            point = rng.uniform(-1.0, 1.0, size=4)
            q_hat = Quaternion(*point)
            if align and abs(target.dot(q_hat)) < 0.1:
                continue  # keep clear of the alignment switch, where the loss kinks
            error = finite_diff_check(
                lambda v: quat_mse(target, Quaternion(*v), hemisphere_align=align),
                lambda v: quat_mse_grad(target, Quaternion(*v), hemisphere_align=align),
                point,
            )
            worst = max(worst, error)
            checked += 1
        assert worst < GRAD_TOL

    def test_cross_entropy_gradient_on_random_points(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            probs = rng.dirichlet(np.ones(5)) * 0.9 + 0.02  # floor away from the clamp
            probs /= probs.sum()
            y = np.zeros(5)
            y[rng.integers(0, 5)] = 1.0
            # epsilon must stay below the probability-sum tolerance
            error = finite_diff_check(
                lambda v: cls_cross_entropy(y, v),
                lambda v: cls_cross_entropy_grad(y, v),
                probs,
                epsilon=1e-7,
            )
            worst = max(worst, error)
        assert worst < GRAD_TOL

    def test_detects_a_wrong_gradient(self):
        target = Translation(0.0, 0.0, 0.0)
        error = finite_diff_check(
            lambda v: trans_mse(target, Translation(*v)),
            lambda v: 3.0 * trans_mse_grad(target, Translation(*v)),
            np.array([1.0, 2.0, 3.0]),
        )
        assert error > 0.1

    def test_returns_a_plain_float(self):
        target = Translation(0.0, 0.0, 0.0)
        error = finite_diff_check(
            lambda v: trans_mse(target, Translation(*v)),
            lambda v: trans_mse_grad(target, Translation(*v)),
            np.array([1.0, 1.0, 1.0]),
        )
        assert type(error) is float

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda v: 0.0, lambda v: np.zeros(1), np.zeros(1), epsilon=0.0)

    @pytest.mark.parametrize("epsilon, message", [
        ("a", "epsilon must be a number, got 'a'"),  # '>' raised TypeError
        (True, "epsilon must be a number, got True"),  # it stepped by 1
    ], ids=["str", "bool"])
    def test_an_epsilon_that_is_no_number_is_rejected(self, epsilon, message):
        with pytest.raises(ValueError) as err:
            finite_diff_check(lambda v: 0.0, lambda v: np.zeros(1), np.zeros(1), epsilon=epsilon)
        assert str(err.value) == message
