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
