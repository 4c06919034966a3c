import math

import numpy as np
import pytest

from vlprep.errors import NumericalError
from vlprep.optim import (
    adamw_step,
    clip_by_global_norm,
    global_norm,
    init_state,
)


def arrays(**kwargs):
    return {k: np.asarray(v, dtype=np.float64) for k, v in kwargs.items()}


class TestClipping:
    def test_norm_over_multiple_arrays(self):
        grads = arrays(a=[3.0], b=[4.0])
        assert global_norm(grads) == pytest.approx(5.0)

    def test_clip_rescales_to_max_norm(self):
        grads = arrays(a=[2.0])
        clipped = clip_by_global_norm(grads, 1.0)
        np.testing.assert_allclose(clipped["a"], [1.0])

    def test_small_gradients_untouched(self):
        grads = arrays(a=[0.3, 0.4])
        clipped = clip_by_global_norm(grads, 1.0)
        np.testing.assert_array_equal(clipped["a"], grads["a"])

    def test_clip_preserves_direction(self):
        grads = arrays(a=[6.0, 8.0])
        clipped = clip_by_global_norm(grads, 1.0)
        np.testing.assert_allclose(clipped["a"], [0.6, 0.8])


    @pytest.mark.filterwarnings("error")  # no overflow warning either
    @pytest.mark.parametrize("big", [1e200, 1e155])
    def test_gradients_whose_squares_overflow_clip_to_unit_norm(self, big):
        # Their squares overflow float64: the norm read inf and the clip was all zeros.
        grads = arrays(a=[big, 0.0, -big / 2], b=[big / 4])
        clipped = clip_by_global_norm(grads, 1.0)
        flat = np.concatenate([clipped["a"], clipped["b"]])
        assert math.sqrt(float(np.sum(flat * flat))) == pytest.approx(1.0, abs=1e-12)
        direction = np.array([1.0, 0.0, -0.5, 0.25])
        np.testing.assert_allclose(flat, direction / np.linalg.norm(direction), rtol=1e-12)
        assert global_norm(grads) == pytest.approx(big * np.linalg.norm(direction), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entries", [[1.5e308, 1.5e308], [1.7e308, -1e308, 5e307]])
    def test_gradients_whose_norm_is_past_float_range_clip_to_unit_norm(self, entries):
        # Every entry is finite but the norm is not: the scale read 1/inf and the clip was zeros.
        grads = arrays(a=entries[:1], b=entries[1:])
        assert global_norm(grads) == math.inf
        clipped = clip_by_global_norm(grads, 1.0)
        flat = np.concatenate([clipped["a"], clipped["b"]])
        assert math.sqrt(float(np.sum(flat * flat))) == pytest.approx(1.0, abs=1e-12)
        direction = np.array(entries) / max(abs(e) for e in entries)
        np.testing.assert_allclose(flat, direction / np.linalg.norm(direction), rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_gradient_is_refused_and_named(self, bad):
        with pytest.raises(NumericalError, match="^non-finite gradient for a$"):
            clip_by_global_norm(arrays(b=[1.0], a=[1e200, bad]), 1.0)


class TestAdamWStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        params = arrays(a=[1.0, -2.0])
        state = init_state(params)
        new, _ = adamw_step(params, arrays(a=[0.0, 0.0]), state, 1e-3, weight_decay=0.0)
        np.testing.assert_array_equal(new["a"], params["a"])

    def test_clip_applied_before_moments(self):
        params = arrays(a=[0.0])
        state = init_state(params)
        _, new_state = adamw_step(params, arrays(a=[2.0]), state, 0.0, weight_decay=0.0)
        # First moment sees the clipped gradient 1.0, not the raw 2.0.
        np.testing.assert_allclose(new_state.m["a"], [(1 - 0.9) * 1.0])
        np.testing.assert_allclose(new_state.v["a"], [(1 - 0.98) * 1.0])

    def test_first_step_closed_form(self):
        g = 0.5
        lr = 1e-2
        params = arrays(a=[1.0])
        state = init_state(params)
        new, _ = adamw_step(params, arrays(a=[g]), state, lr, weight_decay=0.0)
        expected = 1.0 - lr * g / (abs(g) + 1e-6)
        assert new["a"][0] == pytest.approx(expected, rel=1e-12)

    def test_decoupled_decay_ignores_moments(self):
        params = arrays(a=[2.0])
        state = init_state(params)
        new, new_state = adamw_step(params, arrays(a=[0.0]), state, 0.5, weight_decay=0.1)
        assert new["a"][0] == pytest.approx(2.0 * (1 - 0.5 * 0.1))
        np.testing.assert_array_equal(new_state.m["a"], [0.0])

    def test_inputs_not_mutated(self):
        params = arrays(a=[1.0])
        grads = arrays(a=[0.7])
        state = init_state(params)
        adamw_step(params, grads, state, 1e-3)
        assert params["a"][0] == 1.0
        assert grads["a"][0] == 0.7
        assert state.step == 0
        assert state.m["a"][0] == 0.0

    def test_nonfinite_gradient_rejected(self):
        params = arrays(a=[1.0])
        state = init_state(params)
        with pytest.raises(NumericalError):
            adamw_step(params, arrays(a=[float("nan")]), state, 1e-3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_gradient_is_named(self, bad):
        params = arrays(a=[1.0], b=[1.0, 2.0])
        with pytest.raises(NumericalError, match="^non-finite gradient for b$"):
            adamw_step(params, arrays(a=[1e200], b=[0.0, bad]), init_state(params), 1e-3)

    def test_huge_finite_gradient_makes_a_unit_norm_first_moment(self):
        params = arrays(a=[0.0, 0.0])
        _, state = adamw_step(params, arrays(a=[3e200, 4e200]), init_state(params), 1e-3)
        np.testing.assert_allclose(state.m["a"], [(1 - 0.9) * 0.6, (1 - 0.9) * 0.8], rtol=1e-12)

    def test_key_mismatch_rejected(self):
        params = arrays(a=[1.0])
        state = init_state(params)
        with pytest.raises(ValueError):
            adamw_step(params, arrays(b=[1.0]), state, 1e-3)

    def test_matches_reference_implementation_over_ten_steps(self):
        # Independent scalar-loop oracle for the full update rule, with the
        # paper's betas, eps and clip norm written out.
        beta1, beta2, eps, clip_norm = 0.9, 0.98, 1e-6, 1.0
        rng = np.random.default_rng(42)
        weight_decay = 0.03
        lr = 7e-3
        params = arrays(w=rng.standard_normal(6))
        state = init_state(params)
        ref_p = params["w"].copy()
        ref_m = np.zeros_like(ref_p)
        ref_v = np.zeros_like(ref_p)
        for t in range(1, 11):
            g = rng.standard_normal(6)
            params, state = adamw_step(params, {"w": g.copy()}, state, lr, weight_decay)
            norm = math.sqrt(float(np.sum(g * g)))
            if norm > clip_norm:
                g = g * (clip_norm / norm)
            ref_m = beta1 * ref_m + (1 - beta1) * g
            ref_v = beta2 * ref_v + (1 - beta2) * g * g
            m_hat = ref_m / (1 - beta1**t)
            v_hat = ref_v / (1 - beta2**t)
            ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps) - lr * weight_decay * ref_p
            np.testing.assert_allclose(params["w"], ref_p, rtol=1e-12)
        assert state.step == 10
