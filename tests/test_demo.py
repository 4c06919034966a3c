import pytest

import vlprep.demo as demo
from vlprep.demo import DemoConfig, overfit_demo
from vlprep.errors import NumericalError


def test_short_run_reduces_loss_by_100x():
    cfg = DemoConfig(total_steps=300, warmup_steps=50)
    curve = overfit_demo(cfg)
    assert len(curve) == cfg.total_steps + 1
    assert curve[-1] / curve[0] <= 0.01


def test_zero_learning_rate_freezes_loss(monkeypatch):
    monkeypatch.setattr(demo, "lr_at", lambda schedule, step: 0.0)
    curve = overfit_demo(DemoConfig(total_steps=40, warmup_steps=5))
    assert len(set(curve)) == 1


def test_same_seed_bitwise_identical():
    cfg = DemoConfig(total_steps=60, warmup_steps=10)
    assert overfit_demo(cfg) == overfit_demo(cfg)


def test_different_seeds_differ():
    a = overfit_demo(DemoConfig(total_steps=20, warmup_steps=5, seed=0))
    b = overfit_demo(DemoConfig(total_steps=20, warmup_steps=5, seed=1))
    assert a != b


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        DemoConfig(seed=-1)


def test_divergence_reported(monkeypatch):
    monkeypatch.setattr(demo, "PEAK_LR", 1e80)
    monkeypatch.setattr(demo, "MIN_LR", 1.0)
    with pytest.raises(NumericalError):
        overfit_demo(DemoConfig(total_steps=10, warmup_steps=1))
