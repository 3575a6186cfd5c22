"""Adapter policies: trainable-set algebra, no-op initialization, merge equivalence, counts."""

import re

import numpy as np
import pytest

from spanattn.adaptation import (
    AdapterPolicy,
    LoRAAdapter,
    adapter_parameter_count,
    apply_policy,
    conv_parameter_fraction,
    expected_adapter_count,
    expected_trainable_count,
    load_adapter_checkpoint,
    merge_adapters,
    save_adapter_checkpoint,
)
from spanattn.errors import ConfigError, InputError, UsageError
from spanattn.model import AdamW, AttentionSetting, HybridModel, ModelConfig, model_forward, train_step


def make_model(**kw):
    base = dict(layers=4, d=16, d_model=16, heads=2, blend_ratio=1, vocab=32, seed=0, dtype="float64")
    base.update(kw)
    return HybridModel(ModelConfig(**base))


def full_setting():
    return AttentionSetting(kind="full")


def test_adapter_count_matches_hand_arithmetic():
    # 2 attention layers, d = d_model = 16, rank 4:
    # 2 layers x 4 matrices x (4*16 + 16*4) = 1024
    model = make_model()
    policy = AdapterPolicy(policy="hylora", rank=4, alpha=8.0)
    apply_policy(model, policy)
    assert adapter_parameter_count(model) == 1024
    assert expected_adapter_count(model.config, policy) == 1024


def test_lora_plus_minus_lora_is_embeddings_and_norms():
    m1, m2 = make_model(), make_model()
    t_lora = set(apply_policy(m1, AdapterPolicy(policy="lora", rank=4))["trainable"])
    t_plus = set(apply_policy(m2, AdapterPolicy(policy="lora_plus", rank=4))["trainable"])
    diff = t_plus - t_lora
    assert t_lora < t_plus
    assert diff == {"embedding", "final_norm", "blocks.0.norm", "blocks.1.norm", "blocks.2.norm", "blocks.3.norm"}


def test_hylora_adds_exactly_the_conv_parameters():
    m1, m2 = make_model(), make_model()
    t_plus = set(apply_policy(m1, AdapterPolicy(policy="lora_plus", rank=4))["trainable"])
    t_hy = set(apply_policy(m2, AdapterPolicy(policy="hylora", rank=4))["trainable"])
    diff = t_hy - t_plus
    assert t_plus < t_hy
    assert diff == {
        "blocks.0.conv_kernel",
        "blocks.0.conv_bias",
        "blocks.2.conv_kernel",
        "blocks.2.conv_bias",
    }


def test_hylora_without_conv_bias_flag():
    model = make_model()
    names = apply_policy(model, AdapterPolicy(policy="hylora", rank=4, train_conv_bias=False))["trainable"]
    assert "blocks.0.conv_kernel" in names and "blocks.0.conv_bias" not in names


def test_fresh_policy_changes_no_output():
    model = make_model()
    tokens = np.arange(12) % 32
    before = model_forward(model, tokens, full_setting()).data.copy()
    apply_policy(model, AdapterPolicy(policy="hylora", rank=8))
    after = model_forward(model, tokens, full_setting()).data
    np.testing.assert_array_equal(before, after)


def test_unknown_target_rejected():
    model = make_model()
    with pytest.raises(ConfigError):
        apply_policy(model, AdapterPolicy(policy="lora", rank=4, targets=("w_q", "w_z")))


def test_double_apply_rejected():
    model = make_model()
    apply_policy(model, AdapterPolicy(policy="lora", rank=4))
    with pytest.raises(UsageError):
        apply_policy(model, AdapterPolicy(policy="lora", rank=4))


def test_identity_a_reduces_delta_to_scaled_b():
    model = make_model(d=6, d_model=4, heads=1)
    _, block = model.attention_layers()[0]
    ad = LoRAAdapter.fresh(d_in=6, d_out=4, rank=6, alpha=12.0, target="w_q", seed=0, dtype=np.float64)
    ad.a.data = np.eye(6)
    rng = np.random.default_rng(0)
    ad.b.data = rng.standard_normal((4, 6))
    block.adapters["w_q"] = ad
    delta = block.effective_params().w_q.data - block.params.w_q.data
    np.testing.assert_allclose(delta, (12.0 / 6.0) * ad.b.data.T, atol=1e-12)


def test_merge_with_zero_b_keeps_base_weights():
    model = make_model()
    apply_policy(model, AdapterPolicy(policy="lora", rank=4))
    base = {k: p.data.copy() for k, p in model.named_parameters().items() if k.endswith(("w_q", "w_k", "w_v", "w_o"))}
    merge_adapters(model)
    for k, want in base.items():
        np.testing.assert_array_equal(model.named_parameters()[k].data, want)


def test_merge_matches_adapted_forward_after_training():
    model = make_model(dtype="float32")
    apply_policy(model, AdapterPolicy(policy="hylora", rank=4, alpha=8.0))
    opt = AdamW(model.trainable_parameters(), lr=5e-3)
    rng = np.random.default_rng(1)
    for step in range(20):
        batch = [rng.integers(0, 32, size=14) for _ in range(2)]
        train_step(model, batch, opt, full_setting(), step=step)

    inputs = [rng.integers(0, 32, size=12) for _ in range(20)]
    adapted = [model_forward(model, t, full_setting()).data.copy() for t in inputs]
    merge_adapters(model)
    for t, want in zip(inputs, adapted):
        np.testing.assert_array_equal(model_forward(model, t, full_setting()).data, want)


def test_double_merge_rejected():
    model = make_model()
    apply_policy(model, AdapterPolicy(policy="lora", rank=4))
    merge_adapters(model)
    with pytest.raises(UsageError):
        merge_adapters(model)


@pytest.mark.parametrize("rank", [8, 16, 32, 64])
def test_trainable_counts_closed_form_over_rank_sweep(rank):
    for policy_name in ("lora", "lora_plus", "hylora"):
        model = make_model()
        policy = AdapterPolicy(policy=policy_name, rank=rank, alpha=2.0 * rank)
        apply_policy(model, policy)
        got = sum(p.size for p in model.trainable_parameters().values())
        assert got == expected_trainable_count(model.config, policy)


def test_conv_fraction_consistent_with_manifest():
    model = make_model()
    frac = conv_parameter_fraction(model)
    manifest = model.named_parameters()
    conv = sum(p.size for k, p in manifest.items() if "conv" in k)
    total = sum(p.size for p in manifest.values())
    assert frac == conv / total
    assert 0.0 < frac < 1.0


def test_frozen_base_bitwise_stable_under_adapter_training():
    model = make_model(dtype="float32")
    report = apply_policy(model, AdapterPolicy(policy="lora", rank=4))
    frozen_before = {k: model.named_parameters()[k].data.copy() for k in report["frozen"]}
    opt = AdamW(model.trainable_parameters(), lr=1e-2)
    rng = np.random.default_rng(2)
    for step in range(5):
        batch = [rng.integers(0, 32, size=12) for _ in range(2)]
        train_step(model, batch, opt, full_setting(), step=step)
    for k, want in frozen_before.items():
        np.testing.assert_array_equal(model.named_parameters()[k].data, want)


def test_adapter_checkpoint_round_trip(tmp_path):
    model = make_model(dtype="float32")
    apply_policy(model, AdapterPolicy(policy="lora", rank=4, alpha=8.0), seed=9)
    rng = np.random.default_rng(3)
    for _, block in model.attention_layers():
        for ad in block.adapters.values():
            ad.b.data = rng.standard_normal(ad.b.shape).astype(np.float32)
    path = tmp_path / "adapters.ckpt"
    save_adapter_checkpoint(path, model)

    fresh = make_model(dtype="float32")
    load_adapter_checkpoint(path, fresh)
    for (_, b1), (_, b2) in zip(model.attention_layers(), fresh.attention_layers()):
        for target in b1.adapters:
            np.testing.assert_array_equal(b1.adapters[target].a.data, b2.adapters[target].a.data)
            np.testing.assert_array_equal(b1.adapters[target].b.data, b2.adapters[target].b.data)

    tokens = np.arange(12) % 32
    np.testing.assert_allclose(
        model_forward(model, tokens, full_setting()).data,
        model_forward(fresh, tokens, full_setting()).data,
        atol=1e-6,
    )


def test_adapter_checkpoint_rejects_a_truncated_file(tmp_path):
    model = make_model()
    apply_policy(model, AdapterPolicy(policy="lora", rank=4))
    path = tmp_path / "adapters.ckpt"
    save_adapter_checkpoint(path, model)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputError, match=re.escape(str(path)) + r": params\[\d+\]\.offset"):
        load_adapter_checkpoint(path, make_model())


def test_adapter_checkpoint_requires_adapters(tmp_path):
    model = make_model()
    with pytest.raises(UsageError):
        save_adapter_checkpoint(tmp_path / "none.ckpt", model)


def test_full_checkpoint_round_trip_with_adapters(tmp_path):
    from spanattn.model import load_checkpoint, save_checkpoint

    model = make_model(dtype="float32")
    apply_policy(model, AdapterPolicy(policy="lora", rank=4, alpha=8.0))
    rng = np.random.default_rng(4)
    for _, block in model.attention_layers():
        for ad in block.adapters.values():
            ad.b.data = rng.standard_normal(ad.b.shape).astype(np.float32)
    path = tmp_path / "with_adapters.ckpt"
    save_checkpoint(path, model)
    loaded, _ = load_checkpoint(path)
    tokens = np.arange(10) % 32
    np.testing.assert_array_equal(
        model_forward(model, tokens, full_setting()).data,
        model_forward(loaded, tokens, full_setting()).data,
    )
