import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import vlprep.resampler as resampler
from vlprep.errors import InvalidWidth, NumericalError, ShapeError
from vlprep.resampler import (
    PARAM_NAMES,
    STACK_BUDGET_BYTES,
    ResamplerConfig,
    ResamplerParams,
    attention_weights,
    backward,
    forward_with_cache,
    grad_check,
    init_params,
    loss_and_grads,
    posenc_2d,
    resample,
)


def small_cfg(**overrides):
    base = dict(d_model=16, grid_h=3, grid_w=3, n_queries=4, n_heads=1, seed=0)
    base.update(overrides)
    return ResamplerConfig(**base)


def seeded_case(cfg):
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    x = rng.standard_normal((cfg.n_keys, cfg.d_model))
    return params, x


class TestConfigValidation:
    def test_width_head_divisibility(self):
        with pytest.raises(ValueError):
            ResamplerConfig(d_model=18, grid_h=2, grid_w=2, n_queries=4)
        with pytest.raises(ValueError):
            ResamplerConfig(d_model=16, grid_h=2, grid_w=2, n_queries=4, n_heads=3)

    def test_queries_must_be_square(self):
        with pytest.raises(ValueError):
            ResamplerConfig(d_model=16, grid_h=2, grid_w=2, n_queries=5)

    def test_grid_positive(self):
        with pytest.raises(ValueError):
            ResamplerConfig(d_model=16, grid_h=0, grid_w=2, n_queries=4)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            small_cfg(seed=-1)

    def test_derived_dims(self):
        cfg = small_cfg(n_heads=2)
        assert cfg.d_head == 8
        assert cfg.query_side == 2
        assert cfg.n_keys == 9


class TestPosenc:
    def test_origin_pattern(self):
        row = posenc_2d(1, 1, 8)[0]
        np.testing.assert_allclose(row, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_shape(self):
        assert posenc_2d(3, 5, 12).shape == (15, 12)

    def test_same_column_differs_only_in_row_half(self):
        d = 16
        enc = posenc_2d(3, 4, d)
        a = enc[0 * 4 + 2]  # (0, 2)
        b = enc[2 * 4 + 2]  # (2, 2)
        assert not np.allclose(a[: d // 2], b[: d // 2])
        np.testing.assert_array_equal(a[d // 2 :], b[d // 2 :])

    def test_same_row_differs_only_in_col_half(self):
        d = 16
        enc = posenc_2d(3, 4, d)
        a = enc[4 + 1]  # (1, 1)
        b = enc[4 + 3]  # (1, 3)
        np.testing.assert_array_equal(a[: d // 2], b[: d // 2])
        assert not np.allclose(a[d // 2 :], b[d // 2 :])

    def test_injective_on_large_grid(self):
        enc = posenc_2d(64, 64, 16)
        assert np.unique(enc, axis=0).shape[0] == 64 * 64

    def test_width_not_divisible_by_four(self):
        with pytest.raises(InvalidWidth):
            posenc_2d(2, 2, 6)

    def test_bad_grid(self):
        with pytest.raises(ShapeError):
            posenc_2d(0, 2, 8)

    def test_cached_result_is_stable_and_read_only(self):
        first = posenc_2d(3, 4, 16).copy()
        enc = posenc_2d(3, 4, 16)
        np.testing.assert_array_equal(enc, first)
        with pytest.raises(ValueError):
            enc[0, 0] = 5.0
        np.testing.assert_array_equal(posenc_2d(3, 4, 16), first)


class TestForward:
    @pytest.mark.parametrize("grid", [16, 32])
    def test_output_rows_fixed_at_256(self, grid):
        cfg = ResamplerConfig(
            d_model=8, grid_h=grid, grid_w=grid, n_queries=256, seed=1
        )
        params, x = seeded_case(cfg)
        assert resample(x, params, cfg).shape == (256, 8)

    def test_zero_projections_give_uniform_attention(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        params.w_q[:] = 0.0
        params.w_k[:] = 0.0
        attn = attention_weights(x, params, cfg)
        np.testing.assert_allclose(attn, 1.0 / cfg.n_keys, atol=1e-15)
        y = resample(x, params, cfg)
        expected_row = (x @ params.w_v).mean(axis=0) @ params.w_o
        for row in y:
            np.testing.assert_allclose(row, expected_row, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        cfg = small_cfg(n_heads=2)
        params, x = seeded_case(cfg)
        attn = attention_weights(x, params, cfg)
        assert attn.shape == (2, cfg.n_queries, cfg.n_keys)
        np.testing.assert_allclose(attn.sum(axis=2), 1.0, atol=1e-9)

    def test_key_permutation_invariance(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        base = resample(x, params, cfg)
        k_pos = posenc_2d(cfg.grid_h, cfg.grid_w, cfg.d_model)
        perm = np.random.default_rng(5).permutation(cfg.n_keys)
        permuted = resample(x[perm], params, cfg, key_posenc=k_pos[perm])
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-12)

    def test_key_permutation_permutes_attention_columns(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        k_pos = posenc_2d(cfg.grid_h, cfg.grid_w, cfg.d_model)
        base = attention_weights(x, params, cfg)
        perm = np.random.default_rng(6).permutation(cfg.n_keys)
        permuted = attention_weights(x[perm], params, cfg, key_posenc=k_pos[perm])
        np.testing.assert_allclose(permuted, base[:, :, perm], atol=1e-12)

    def test_shape_error(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        with pytest.raises(ShapeError):
            resample(x[:5], params, cfg)
        with pytest.raises(ShapeError):
            resample(x, params, cfg, key_posenc=np.zeros((2, 2)))

    def test_nan_input(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        x[0, 0] = np.nan
        with pytest.raises(NumericalError):
            resample(x, params, cfg)

    def test_init_reproducible(self):
        cfg = small_cfg()
        a = init_params(cfg)
        b = init_params(cfg)
        for name in ("queries", "w_q", "w_k", "w_v", "w_o"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_init_scale(self):
        cfg = ResamplerConfig(d_model=64, grid_h=2, grid_w=2, n_queries=64, seed=3)
        params = init_params(cfg)
        assert abs(float(params.w_q.std()) - 0.02) < 0.005


class TestGradients:
    def test_grad_check_small_config(self):
        assert grad_check(small_cfg()) < 1e-4

    def test_grad_check_two_heads(self):
        assert grad_check(small_cfg(n_heads=2, seed=11)) < 1e-4

    def test_grad_check_passes_a_correct_backward_at_width_128(self):
        # The numeric w_q gradients here carry rounding errors near 3.6e-12;
        # against a fixed 1e-8 floor they read 3.6e-4.
        cfg = ResamplerConfig(d_model=128, grid_h=2, grid_w=2, n_queries=4, seed=0)
        assert grad_check(cfg) < 1e-4

    def test_rounding_floor_leaves_criterion_5_configs_unchanged(self, monkeypatch):
        cfgs = [small_cfg(seed=s) for s in range(5)]
        scaled = [grad_check(cfg) for cfg in cfgs]
        monkeypatch.setattr(resampler, "GRAD_CHECK_FLOOR_UNITS", 0.0)
        assert scaled == [grad_check(cfg) for cfg in cfgs]

    def test_grad_check_raises_on_non_finite_difference(self, monkeypatch):
        # A finite step so large that the perturbed losses overflow.
        monkeypatch.setattr(resampler, "GRAD_CHECK_STEP", 1e300)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            grad_check(small_cfg())

    def test_zero_input_zeroes_value_gradient(self):
        cfg = small_cfg()
        params, _ = seeded_case(cfg)
        x = np.zeros((cfg.n_keys, cfg.d_model))
        _, grads = loss_and_grads(x, params, cfg)
        np.testing.assert_array_equal(grads["w_v"], 0.0)

    def test_backward_rejects_nonfinite_cotangent(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        _, cache = forward_with_cache(x, params, cfg)
        bad = np.full((cfg.n_queries, cfg.d_model), np.inf)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError):
                backward(cache, bad)

    def test_backward_names_the_first_non_finite_gradient(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        _, cache = forward_with_cache(x, params, cfg)
        bad = np.full((cfg.n_queries, cfg.d_model), np.inf)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"^non-finite gradient for queries$"):
                backward(cache, bad)

    def test_backward_rejects_wrong_cotangent_shape(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        _, cache = forward_with_cache(x, params, cfg)
        with pytest.raises(ShapeError):  # transposed: same size, wrong shape
            backward(cache, np.ones((cfg.d_model, cfg.n_queries)))
        with pytest.raises(ShapeError):
            backward(cache, np.ones((2, cfg.n_queries, cfg.d_model)))

    def test_grads_cover_all_params(self):
        cfg = small_cfg()
        params, x = seeded_case(cfg)
        _, grads = loss_and_grads(x, params, cfg)
        assert set(grads) == set(params.as_dict())
        for name, g in grads.items():
            assert g.shape == getattr(params, name).shape


def per_head_loop_forward(x, params, cfg):
    """Per-head loop form of the forward pass, the reference for the batched kernel."""
    q_pos = posenc_2d(cfg.query_side, cfg.query_side, cfg.d_model)
    k_pos = posenc_2d(cfg.grid_h, cfg.grid_w, cfg.d_model)
    q = (params.queries + q_pos) @ params.w_q
    k = (x + k_pos) @ params.w_k
    v = x @ params.w_v
    dh = cfg.d_head
    attn = np.empty((cfg.n_heads, cfg.n_queries, cfg.n_keys))
    concat = np.empty((cfg.n_queries, cfg.d_model))
    for h in range(cfg.n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn[h] = e / e.sum(axis=1, keepdims=True)
        concat[:, sl] = attn[h] @ v[:, sl]
    return concat @ params.w_o, attn


def four_temporary_backward(cache, d_y):
    """The backward with the softmax row term taken as sum(d_attn * attn), which
    builds four (batch, heads, queries, keys) arrays: the reference for ``backward``."""
    params, cfg = cache["params"], cache["cfg"]
    d, n_heads, scale = cfg.d_model, cfg.n_heads, cache["scale"]
    q, k, v, concat = cache["q"], cache["k"], cache["v"], cache["concat"]
    attn = cache["attn"].reshape(len(concat), n_heads, cfg.n_queries, cfg.n_keys)
    d_y = np.reshape(d_y, concat.shape)
    split = resampler._split_heads
    merge = resampler._merge_heads
    d_out = split(d_y @ params.w_o.T, n_heads)
    d_a = d_out @ v.swapaxes(-1, -2)
    d_v = merge(attn.swapaxes(-1, -2) @ d_out)
    d_logits = attn * (d_a - np.sum(d_a * attn, axis=-1, keepdims=True))
    d_q = scale * merge((d_logits @ k).sum(axis=0))
    d_k = scale * merge(d_logits.swapaxes(-1, -2) @ q)
    return {
        "queries": d_q @ params.w_q.T,
        "w_q": cache["q_in"].T @ d_q,
        "w_k": cache["k_in"].reshape(-1, d).T @ d_k.reshape(-1, d),
        "w_v": cache["x"].reshape(-1, d).T @ d_v.reshape(-1, d),
        "w_o": concat.reshape(-1, d).T @ d_y.reshape(-1, d),
    }


def worst_relative_difference(grads, reference):
    """Max over tensors of max |g - ref| / max |ref|. A reference tensor that is
    exactly zero (the softmax gradients over a single key) is scaled by the
    largest reference entry instead."""
    largest = max(float(np.max(np.abs(ref))) for ref in reference.values())
    return max(float(np.max(np.abs(grads[name] - ref))) / (float(np.max(np.abs(ref))) or largest)
               for name, ref in reference.items())


def per_entry_grad_check(cfg, step=1e-5):
    """Entry-by-entry central differences, the reference for the stacked grad_check."""
    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, rng)
    x = rng.standard_normal((cfg.n_keys, cfg.d_model))
    _, analytic = loss_and_grads(x, params, cfg)

    def loss():
        y = resample(x, params, cfg)
        return float(np.sum(y * y))

    worst = 0.0
    for name, array in params.as_dict().items():
        for idx in np.ndindex(array.shape):
            saved = array[idx]
            array[idx] = saved + step
            up = loss()
            array[idx] = saved - step
            down = loss()
            array[idx] = saved
            numeric = (up - down) / (2.0 * step)
            a = analytic[name][idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


class TestBatchedKernel:
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_loop(self, n_heads):
        cfg = small_cfg(n_heads=n_heads, seed=3)
        params, x = seeded_case(cfg)
        y, cache = forward_with_cache(x, params, cfg)
        ref_y, ref_attn = per_head_loop_forward(x, params, cfg)
        np.testing.assert_allclose(y, ref_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(cache["attn"], ref_attn, rtol=0, atol=1e-12)

    def batch_case(self, n_heads, batch=5):
        cfg = small_cfg(n_heads=n_heads, seed=7)
        params, _ = seeded_case(cfg)
        rng = np.random.default_rng(21)
        xs = rng.standard_normal((batch, cfg.n_keys, cfg.d_model))
        d_ys = rng.standard_normal((batch, cfg.n_queries, cfg.d_model))
        return cfg, params, xs, d_ys

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_forward_matches_stacked_samples(self, n_heads):
        cfg, params, xs, _ = self.batch_case(n_heads)
        y, cache = forward_with_cache(xs, params, cfg)
        assert y.shape == (len(xs), cfg.n_queries, cfg.d_model)
        assert cache["attn"].shape == (len(xs), n_heads, cfg.n_queries, cfg.n_keys)
        singles = [forward_with_cache(x, params, cfg) for x in xs]
        np.testing.assert_allclose(y, np.stack([s[0] for s in singles]), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            cache["attn"], np.stack([s[1]["attn"] for s in singles]), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_backward_sums_sample_gradients(self, n_heads):
        cfg, params, xs, d_ys = self.batch_case(n_heads)
        _, cache = forward_with_cache(xs, params, cfg)
        grads = backward(cache, d_ys)
        summed = {name: 0.0 for name in grads}
        for x, d_y in zip(xs, d_ys):
            for name, g in backward(forward_with_cache(x, params, cfg)[1], d_y).items():
                summed[name] = summed[name] + g
        for name, g in grads.items():
            assert g.shape == getattr(params, name).shape
            np.testing.assert_allclose(g, summed[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_single_sample_shapes_unchanged(self, n_heads):
        cfg = small_cfg(n_heads=n_heads)
        params, x = seeded_case(cfg)
        y, cache = forward_with_cache(x, params, cfg)
        assert y.shape == (cfg.n_queries, cfg.d_model)
        assert cache["attn"].shape == (n_heads, cfg.n_queries, cfg.n_keys)
        assert attention_weights(x, params, cfg).shape == (n_heads, cfg.n_queries, cfg.n_keys)

    def test_batched_nan_rejected(self):
        cfg, params, xs, _ = self.batch_case(1)
        xs[3, 2, 1] = np.nan
        with pytest.raises(NumericalError):
            forward_with_cache(xs, params, cfg)

    def test_batched_bad_trailing_shape_rejected(self):
        cfg, params, xs, _ = self.batch_case(1)
        with pytest.raises(ShapeError):
            forward_with_cache(xs[:, :5], params, cfg)
        with pytest.raises(ShapeError):
            forward_with_cache(xs[..., :8], params, cfg)
        with pytest.raises(ShapeError):
            forward_with_cache(xs[None], params, cfg)


LARGE = ResamplerConfig(d_model=8, grid_h=32, grid_w=32, n_queries=256, n_heads=2, seed=1)


class TestSoftmaxBackwardFromOutput:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        d_model=st.sampled_from([8, 16]),
        n_heads=st.integers(1, 2),
        grid_h=st.integers(1, 4),
        grid_w=st.integers(1, 4),
        n_queries=st.sampled_from([1, 4, 9]),
        batch=st.sampled_from([None, 1, 3]),
        tile_bytes=st.sampled_from([1, 200, resampler.TILE_BYTES]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_four_temporary_backward(self, d_model, n_heads, grid_h, grid_w,
                                             n_queries, batch, tile_bytes, seed):
        # Tiles of 1 and of 200 bytes split the queries into one-row tiles and
        # into tiles of several rows with a shorter last one.
        cfg = ResamplerConfig(d_model=d_model, grid_h=grid_h, grid_w=grid_w,
                              n_queries=n_queries, n_heads=n_heads, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        x = rng.standard_normal((() if batch is None else (batch,)) + (cfg.n_keys, d_model))
        y, cache = forward_with_cache(x, params, cfg)
        d_y = rng.standard_normal(y.shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resampler, "TILE_BYTES", tile_bytes)
            grads = backward(cache, d_y)
        worst = worst_relative_difference(grads, four_temporary_backward(cache, d_y))
        assert worst <= 1e-12, worst

    def test_large_shape_matches_four_temporary_backward(self):
        params, x = seeded_case(LARGE)
        y, cache = forward_with_cache(x, params, LARGE)
        worst = worst_relative_difference(backward(cache, 2.0 * y),
                                          four_temporary_backward(cache, 2.0 * y))
        print(f"largest relative gradient difference at the large shape: {worst:.1e}")
        assert worst <= 1e-12, worst

    def test_backward_twice_on_one_cache(self, monkeypatch):
        monkeypatch.setattr(resampler, "TILE_BYTES", 200)  # several tiles
        cfg, params, xs, d_ys = TestBatchedKernel().batch_case(n_heads=2, batch=3)
        _, cache = forward_with_cache(xs, params, cfg)

        def cached_bytes():
            arrays = {key: value for key, value in cache.items() if isinstance(value, np.ndarray)}
            arrays.update({f"params.{key}": value for key, value in params.as_dict().items()})
            return {key: value.tobytes() for key, value in arrays.items()}

        before = cached_bytes()
        first, second = backward(cache, d_ys), backward(cache, d_ys)
        for name in PARAM_NAMES:
            assert first[name].tobytes() == second[name].tobytes(), name
        assert cached_bytes() == before

    def test_backward_temporaries_stay_within_two_tiles(self):
        params, x = seeded_case(LARGE)
        y, cache = forward_with_cache(x, params, LARGE)
        d_y = 2.0 * y
        tracemalloc.start()
        try:
            backward(cache, d_y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        attn_bytes = 8 * LARGE.n_heads * LARGE.n_queries * LARGE.n_keys
        assert resampler.TILE_BYTES <= attn_bytes / 4
        # Two tiles (the next is built before the last is freed) and the
        # (keys, d) arrays: about 0.54 of one attention matrix.
        assert peak < 0.75 * attn_bytes, peak / attn_bytes


class TestTiledForward:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        d_model=st.sampled_from([8, 16]),
        n_heads=st.integers(1, 2),
        grid_h=st.integers(1, 4),
        grid_w=st.integers(1, 4),
        n_queries=st.sampled_from([1, 4, 9]),
        inputs=st.sampled_from(("sample", "batch") + PARAM_NAMES),
        tile_bytes=st.sampled_from([1, 200, resampler.TILE_BYTES]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_per_head_loop(self, d_model, n_heads, grid_h, grid_w, n_queries,
                                   inputs, tile_bytes, seed):
        # Tiles of 1 and of 200 bytes split the queries into one-row tiles and
        # into tiles of several rows with a shorter last one; the default is one
        # tile. "batch" runs 3 samples, a parameter's name 3 stacked copies of it.
        cfg = ResamplerConfig(d_model=d_model, grid_h=grid_h, grid_w=grid_w,
                              n_queries=n_queries, n_heads=n_heads, seed=seed)
        rng = np.random.default_rng(seed)
        params = init_params(cfg, rng)
        xs = rng.standard_normal((3, cfg.n_keys, d_model))
        if inputs in PARAM_NAMES:
            base = getattr(params, inputs)
            copies = base + rng.normal(0.0, 0.05, (3, *base.shape))
            x = xs[0]
            run_params = ResamplerParams(**{**params.as_dict(), inputs: copies})
            cases = [(x, ResamplerParams(**{**params.as_dict(), inputs: c})) for c in copies]
        else:
            x = xs[0] if inputs == "sample" else xs
            run_params = params
            cases = [(sample, params) for sample in xs[:1 if inputs == "sample" else 3]]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resampler, "TILE_BYTES", tile_bytes)
            y, cache = forward_with_cache(x, run_params, cfg)
        refs = [per_head_loop_forward(sample, case_params, cfg) for sample, case_params in cases]
        ref_y, ref_attn = np.stack([r[0] for r in refs]), np.stack([r[1] for r in refs])
        attn = cache["attn"]
        if inputs == "sample":
            ref_y, ref_attn = ref_y[0], ref_attn[0]
        elif inputs in ("w_v", "w_o"):  # the attention is not stacked
            assert attn.shape[0] == 1
            attn = np.broadcast_to(attn, ref_attn.shape)
        np.testing.assert_allclose(y, ref_y, rtol=0, atol=1e-12)
        assert attn.shape == ref_attn.shape
        np.testing.assert_allclose(attn, ref_attn, rtol=0, atol=1e-12)

    def test_grad_check_through_tiled_passes_matches_per_entry_loop(self, monkeypatch):
        # 200-byte tiles. A query row here is 2 heads x 9 keys = 144 B, so the
        # unstacked forward and backward run 4 one-row tiles, and so do the
        # stacked forwards, whose rows hold every copy. Both audits then
        # difference the same arithmetic. (Where the two tile heights differ,
        # numpy runs a one-row tile's matmuls as matrix-vector products, the
        # losses differ in the last bit, and central differences amplify that
        # to the size of the rounding-level errors being compared.)
        monkeypatch.setattr(resampler, "TILE_BYTES", 200)
        cfg = small_cfg(n_heads=2, seed=11)
        assert grad_check(cfg) == pytest.approx(per_entry_grad_check(cfg), rel=1e-9)

    def test_forward_temporaries_stay_within_two_tiles(self):
        params, x = seeded_case(LARGE)
        tracemalloc.start()
        try:
            forward_with_cache(x, params, LARGE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        attn_bytes = 8 * LARGE.n_heads * LARGE.n_queries * LARGE.n_keys
        assert resampler.TILE_BYTES <= attn_bytes / 4
        # The cached attention matrix, and no other array of its size.
        assert peak < attn_bytes + 2 * resampler.TILE_BYTES, peak / attn_bytes


class TestStackedParameters:
    def stacked_case(self, n_heads, name, size=3):
        cfg = small_cfg(n_heads=n_heads, seed=5)
        params, x = seeded_case(cfg)
        base = getattr(params, name)
        noise = np.random.default_rng(8).normal(0.0, 0.05, (size, *base.shape))
        stacked = ResamplerParams(**{**params.as_dict(), name: base + noise})
        copies = [ResamplerParams(**{**params.as_dict(), name: base + e}) for e in noise]
        return cfg, x, stacked, copies

    @pytest.mark.parametrize("name", PARAM_NAMES)
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_forward_matches_loop_over_copies(self, n_heads, name):
        cfg, x, stacked, copies = self.stacked_case(n_heads, name)
        y, cache = forward_with_cache(x, stacked, cfg)
        assert y.shape == (len(copies), cfg.n_queries, cfg.d_model)
        attn = np.broadcast_to(cache["attn"], (len(copies), n_heads, cfg.n_queries, cfg.n_keys))
        for s, params in enumerate(copies):
            ref_y, ref_cache = forward_with_cache(x, params, cfg)
            np.testing.assert_allclose(y[s], ref_y, rtol=0, atol=1e-12)
            np.testing.assert_allclose(attn[s], ref_cache["attn"], rtol=0, atol=1e-12)

    def test_every_tensor_stacked_at_once(self):
        cfg = small_cfg(n_heads=2, seed=4)
        params, x = seeded_case(cfg)
        rng = np.random.default_rng(9)
        copies = [ResamplerParams(**{k: v + rng.normal(0.0, 0.05, v.shape)
                                     for k, v in params.as_dict().items()}) for _ in range(4)]
        stacked = ResamplerParams(**{k: np.stack([getattr(c, k) for c in copies])
                                     for k in PARAM_NAMES})
        y, _ = forward_with_cache(x, stacked, cfg)
        for s, c in enumerate(copies):
            np.testing.assert_allclose(y[s], resample(x, c, cfg), rtol=0, atol=1e-12)

    def test_backward_rejects_stacked_cache(self):
        cfg, x, stacked, _ = self.stacked_case(1, "w_k")
        y, cache = forward_with_cache(x, stacked, cfg)
        with pytest.raises(ShapeError):
            backward(cache, 2.0 * y)

    def test_bad_stacks_rejected(self):
        cfg, x, stacked, _ = self.stacked_case(1, "w_q")
        other = ResamplerParams(**{**stacked.as_dict(), "w_v": np.stack([stacked.w_v[0]] * 2)})
        with pytest.raises(ShapeError):  # two stack sizes
            forward_with_cache(x, other, cfg)
        with pytest.raises(ShapeError):  # a stack and a batch
            forward_with_cache(np.stack([x, x, x]), stacked, cfg)
        with pytest.raises(ShapeError):  # wrong trailing shape
            forward_with_cache(x, ResamplerParams(**{**stacked.as_dict(),
                                                     "w_o": stacked.w_o[..., :8]}), cfg)
        with pytest.raises(ShapeError):  # two stack axes
            forward_with_cache(x, ResamplerParams(**{**stacked.as_dict(),
                                                     "w_q": stacked.w_q[None]}), cfg)

    @settings(max_examples=20, deadline=None, database=None)
    @given(
        d_model=st.sampled_from([8, 16]),
        n_heads=st.integers(1, 2),
        grid_h=st.integers(1, 3),
        grid_w=st.integers(1, 3),
        n_queries=st.sampled_from([1, 4]),
        seed=st.integers(0, 2**16),
    )
    def test_grad_check_matches_per_entry_loop(self, d_model, n_heads, grid_h, grid_w,
                                               n_queries, seed):
        cfg = ResamplerConfig(d_model=d_model, grid_h=grid_h, grid_w=grid_w,
                              n_queries=n_queries, n_heads=n_heads, seed=seed)
        assert grad_check(cfg) == pytest.approx(per_entry_grad_check(cfg), rel=1e-9)

    def test_one_entry_per_call_when_the_budget_is_tiny(self, monkeypatch):
        cfg = small_cfg(n_heads=2, seed=11)
        expected = grad_check(cfg)
        monkeypatch.setattr(resampler, "STACK_BUDGET_BYTES", 1)
        assert resampler._entries_per_call(cfg) == 1
        assert grad_check(cfg) == pytest.approx(expected, rel=1e-9)

    def test_each_tensor_is_one_stacked_forward_at_the_cli_defaults(self):
        # The budget's floor: grad-check's default shape (d 16, 3x3, 4 queries)
        # perturbs a whole weight matrix, its largest tensor, in one forward.
        cfg = small_cfg()
        assert resampler._entries_per_call(cfg) >= cfg.d_model ** 2

    def test_grad_check_memory_stays_within_budget(self):
        cfg = ResamplerConfig(d_model=16, grid_h=8, grid_w=8, n_queries=64, seed=2)
        tracemalloc.start()
        try:
            assert grad_check(cfg) < 1e-4
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < STACK_BUDGET_BYTES + 4 * 2**20, peak
