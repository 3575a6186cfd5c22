"""Hybrid model: SSM block semantics, causality, training loop, checkpoints."""

import json
import math
import re

import numpy as np
import pytest
from helpers import central_diff, max_rel_err

from spanattn.errors import ConfigError, InputError, UsageError
from spanattn.model import (
    AdamW,
    AttentionSetting,
    HybridModel,
    ModelConfig,
    SSMLayer,
    expected_parameter_count,
    greedy_generate,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    train_step,
)
from spanattn.ops import SCAN_BLOCK, cross_entropy_logits
from spanattn.se_attn import SEAttnConfig
from spanattn.tensor import Tensor, backward


def tiny_config(**kw):
    base = dict(layers=2, d=16, d_model=16, heads=2, blend_ratio=1, vocab=32, seed=0, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def _shift(entries, i, by):
    """The checkpoint manifest with entry i's buffer moved ``by`` bytes (every later one too)."""
    return [{**e, "offset": e["offset"] + (by if j >= i else 0)} for j, e in enumerate(entries)]


def full_setting():
    return AttentionSetting(kind="full")


def se_setting(chunk=8, block=4, k=1, variant="standard", seed=0):
    return AttentionSetting(
        kind="se",
        se_cfg=SEAttnConfig(chunk_sizes=(chunk,), memory_block_size=block, top_k=k, variant=variant, seed=seed),
    )


class TestSSMLayer:
    def test_matches_naive_reimplementation(self):
        cfg = tiny_config()
        layer = SSMLayer(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, cfg.d))
        got = layer.forward(Tensor(x.copy())).data

        # independent numpy re-derivation of the block
        e = cfg.state_dim
        r = np.sqrt((x**2).mean(axis=1, keepdims=True) + 1e-6)
        h = x / r * layer.norm.data
        both = h @ layer.in_proj.data
        u, gate = both[:, :e], both[:, e:]
        w = layer.conv_kernel.data.shape[0]
        padded = np.vstack([np.zeros((w - 1, e)), u])
        conv = np.zeros_like(u)
        for t in range(10):
            for tau in range(w):
                conv[t] += layer.conv_kernel.data[tau] * padded[w - 1 + t - tau]
        conv += layer.conv_bias.data
        a = 1.0 / (1.0 + np.exp(-layer.decay_logit.data))
        state = np.zeros_like(conv)
        s = np.zeros(e)
        for t in range(10):
            s = a * s + layer.input_gain.data * conv[t]
            state[t] = s
        out = x + (state / (1.0 + np.exp(-gate))) @ layer.out_proj.data
        np.testing.assert_allclose(got, out, atol=1e-6)

    def test_token_causality(self):
        cfg = tiny_config()
        layer = SSMLayer(cfg, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.standard_normal((12, cfg.d))
        base = layer.forward(Tensor(x.copy())).data
        for t in (4, 9):
            bumped = x.copy()
            bumped[t] += rng.standard_normal(cfg.d)
            np.testing.assert_array_equal(layer.forward(Tensor(bumped)).data[:t], base[:t])

    def test_decay_constrained_to_unit_interval(self):
        cfg = tiny_config()
        layer = SSMLayer(cfg, np.random.default_rng(7))
        a = 1.0 / (1.0 + np.exp(-layer.decay_logit.data))
        assert np.all(a > 0.0) and np.all(a < 1.0)

    def test_impulse_response_fades_geometrically(self):
        cfg = tiny_config(d=8)
        layer = SSMLayer(cfg, np.random.default_rng(8))
        # pin the decay into a narrow band so the asymptotic rate is visible
        a_target = np.random.default_rng(9).uniform(0.85, 0.95, size=cfg.state_dim)
        layer.decay_logit.data = np.log(a_target / (1.0 - a_target))
        amax = a_target.max()

        rng = np.random.default_rng(10)
        length, s = 160, 8
        x = rng.standard_normal((length, cfg.d))
        bumped = x.copy()
        bumped[s] += rng.standard_normal(cfg.d)
        delta = layer.forward(Tensor(bumped)).data - layer.forward(Tensor(x.copy())).data
        norms = np.linalg.norm(delta, axis=1)
        ts = np.arange(s + 16, length)
        slope = np.polyfit(ts, np.log(norms[ts] + 1e-300), 1)[0]
        assert slope <= math.log(amax) + 0.01


class TestModelForward:
    def test_single_token_depends_only_on_it(self):
        model = HybridModel(tiny_config())
        a = model_forward(model, [3], full_setting()).data
        b = model_forward(model, [3], full_setting()).data
        c = model_forward(model, [4], full_setting()).data
        assert (a == b).all()
        assert not np.allclose(a, c)

    @pytest.mark.parametrize("setting_name", ["full", "sw", "nomem"])
    def test_shared_prefix_logits_identical(self, setting_name):
        model = HybridModel(tiny_config(layers=4))
        settings = {
            "full": full_setting(),
            "sw": AttentionSetting(kind="sw", window=6),
            "nomem": se_setting(chunk=8, block=4, k=0, variant="nomem"),
        }
        setting = settings[setting_name]
        rng = np.random.default_rng(11)
        t = 10
        prefix = rng.integers(0, 32, size=t)
        seq_a = np.concatenate([prefix, rng.integers(0, 32, size=6)])
        seq_b = np.concatenate([prefix, rng.integers(0, 32, size=6)])
        la = model_forward(model, seq_a, setting, step=0).data
        lb = model_forward(model, seq_b, setting, step=0).data
        np.testing.assert_array_equal(la[: t - 1], lb[: t - 1])

    def test_out_of_vocab_rejected(self):
        model = HybridModel(tiny_config())
        with pytest.raises(InputError):
            model_forward(model, [31, 32], full_setting())

    def test_cross_entropy_gradients_match_finite_differences(self):
        model = HybridModel(tiny_config())
        rng = np.random.default_rng(12)
        tokens = rng.integers(0, 32, size=17)
        setting = se_setting(chunk=8, block=4, k=1, seed=1)

        def loss_value():
            logits = model_forward(model, tokens[:-1], setting, step=0)
            return cross_entropy_logits(logits, tokens[1:]).item()

        for p in model.named_parameters().values():
            p.zero_grad()
        loss = cross_entropy_logits(model_forward(model, tokens[:-1], setting, step=0), tokens[1:])
        backward(loss)

        park = np.random.default_rng(13)
        for name, p in model.named_parameters().items():
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1) if p.grad is not None else np.zeros_like(flat)
            coords = park.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                orig = flat[c]
                flat[c] = orig + 1e-5
                fp = loss_value()
                flat[c] = orig - 1e-5
                fm = loss_value()
                flat[c] = orig
                fd = (fp - fm) / 2e-5
                if abs(gflat[c]) > 1e-8:
                    assert abs(gflat[c] - fd) / max(abs(fd), 1e-12) < 1e-4, f"{name}[{c}]"

    def test_parameter_count_matches_closed_form(self):
        for kw in (
            {},
            {"layers": 8, "blend_ratio": 3, "d": 24, "d_model": 24, "heads": 3},
            {"tied_head": True},
            {"layers": 5, "blend_ratio": 2, "state_dim": 40},
        ):
            cfg = tiny_config(**kw)
            model = HybridModel(cfg)
            assert model.parameter_count() == expected_parameter_count(cfg)

    def test_needs_at_least_one_layer(self):
        with pytest.raises(ConfigError):
            tiny_config(layers=0)


class TestTraining:
    def test_zero_learning_rate_keeps_parameters(self):
        model = HybridModel(tiny_config())
        opt = AdamW(model.trainable_parameters(), lr=0.0)
        rng = np.random.default_rng(14)
        batch = [rng.integers(0, 32, size=12) for _ in range(2)]
        before = {k: p.data.copy() for k, p in model.named_parameters().items()}
        l1 = train_step(model, batch, opt, full_setting(), step=0)
        l2 = train_step(model, batch, opt, full_setting(), step=0)
        assert l1 == l2
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_frozen_parameters_bitwise_stable(self):
        model = HybridModel(tiny_config())
        frozen_names = ["embedding", "blocks.0.conv_kernel"]
        for name in frozen_names:
            model.named_parameters()[name].requires_grad = False
        opt = AdamW(model.trainable_parameters(), lr=1e-3)
        rng = np.random.default_rng(15)
        before = {k: model.named_parameters()[k].data.copy() for k in frozen_names}
        for step in range(10):
            batch = [rng.integers(0, 32, size=12) for _ in range(2)]
            train_step(model, batch, opt, full_setting(), step=step)
        for k in frozen_names:
            np.testing.assert_array_equal(model.named_parameters()[k].data, before[k])

    def test_overfits_memorizable_corpus(self):
        cfg = ModelConfig(layers=2, d=32, d_model=32, heads=2, blend_ratio=1, vocab=32, seed=3, dtype="float32")
        model = HybridModel(cfg)
        opt = AdamW(model.trainable_parameters(), lr=3e-3)
        rng = np.random.default_rng(16)
        corpus = rng.integers(0, 32, size=64)
        loss = math.inf
        for step in range(500):
            loss = train_step(model, [corpus], opt, full_setting(), step=step)
            if loss < 0.05:
                break
        assert loss < 0.1

    def test_training_is_deterministic(self):
        def run():
            model = HybridModel(tiny_config(dtype="float32"))
            opt = AdamW(model.trainable_parameters(), lr=1e-3)
            rng = np.random.default_rng(17)
            for step in range(3):
                batch = [rng.integers(0, 32, size=12) for _ in range(2)]
                train_step(model, batch, opt, se_setting(seed=5), step=step)
            return {k: p.data.copy() for k, p in model.named_parameters().items()}

        a, b = run(), run()
        for k in a:
            assert (a[k] == b[k]).all()


class TestCheckpoints:
    def test_round_trip_preserves_parameters_and_logits(self, tmp_path):
        model = HybridModel(tiny_config(dtype="float32"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, extra={"note": "test"})
        loaded, header = load_checkpoint(path)
        assert header["extra"]["note"] == "test"
        save_checkpoint(tmp_path / "again.ckpt", loaded, extra={"note": "test"})
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        for k, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.data, loaded.named_parameters()[k].data)
        tokens = np.arange(10) % 32
        np.testing.assert_array_equal(
            model_forward(model, tokens, full_setting()).data,
            model_forward(loaded, tokens, full_setting()).data,
        )

    def test_unreadable_checkpoint_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError, match=rf"^{re.escape(str(tmp_path))}: file: "):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda entries, blob: (entries, blob + b"\0" * 4), "params"),
            (lambda entries, blob: (_shift(entries, 1, -4), blob), "params[1].offset"),
            (lambda entries, blob: (_shift(entries, 1, 4), blob + b"\0" * 4), "params[1].offset"),
        ],
        ids=["trailing_bytes", "overlap", "gap"],
    )
    def test_buffers_must_tile_the_data_bytes(self, tmp_path, edit, field):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, HybridModel(tiny_config(dtype="float32")))
        line, _, blob = path.read_bytes().partition(b"\n")
        header = json.loads(line)
        header["params"], blob = edit(header["params"], blob)
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: {re.escape(field)}: "):
            load_checkpoint(path)

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, HybridModel(tiny_config(dtype="float32")))
        save_checkpoint(p2, HybridModel(tiny_config(dtype="float32")))
        assert p1.read_bytes() == p2.read_bytes()


class TestGeneration:
    def test_greedy_generation_is_deterministic(self):
        model = HybridModel(tiny_config(dtype="float32"))
        prompt = np.arange(8) % 32
        a = greedy_generate(model, prompt, full_setting(), max_new_tokens=5)
        b = greedy_generate(model, prompt, full_setting(), max_new_tokens=5)
        assert a == b and len(a) == 5


def reforward_generate(model, prompt, setting, max_new_tokens, stop_id=None):
    """Greedy decoding by a full forward of the whole sequence per emitted token."""
    tokens, out = list(prompt), []
    for _ in range(max_new_tokens):
        nxt = int(np.argmax(model_forward(model, np.asarray(tokens), setting).data[-1]))
        out.append(nxt)
        tokens.append(nxt)
        if nxt == stop_id:
            break
    return out


DECODE_SETTINGS = {"full": AttentionSetting(kind="full"), "sw": AttentionSetting(kind="sw", window=4)}
DECODE_TOL = {"float32": 1e-5, "float64": 1e-12}


class TestCachedDecoding:
    """Stateful decoding (SSM conv tail and recurrence state plus a KV cache) against a re-forward."""

    @pytest.mark.parametrize("kind", ["full", "sw"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_prefill_from_an_empty_cache_is_the_uncached_forward(self, kind, dtype):
        model = HybridModel(tiny_config(layers=4, dtype=dtype))
        tokens = np.random.default_rng(20).integers(0, 32, size=13)
        cached = model_forward(model, tokens, DECODE_SETTINGS[kind], cache={}).data
        np.testing.assert_array_equal(cached, model_forward(model, tokens, DECODE_SETTINGS[kind]).data)

    @pytest.mark.parametrize("kind", ["full", "sw"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_steps_match_a_re_forward(self, kind, dtype, seed):
        # prompts 1..conv_width+1, and 3, 4, 5, 9 around the window W = 4; the
        # continuation arrives 1, 3 and 2 tokens at a time
        model = HybridModel(tiny_config(layers=4, dtype=dtype, seed=seed))
        setting = DECODE_SETTINGS[kind]
        rng = np.random.default_rng(21 + seed)
        worst = 0.0
        for prompt_len in sorted({*range(1, model.config.conv_width + 2), 3, 4, 5, 9}):
            tokens = rng.integers(0, 32, size=prompt_len + 12)
            cache = {}
            model_forward(model, tokens[:prompt_len], setting, cache=cache)
            pos = prompt_len
            for n in (1, 3, 2, 1, 1, 3, 1):
                got = model_forward(model, tokens[pos : pos + n], setting, cache=cache).data
                want = model_forward(model, tokens[: pos + n], setting).data[pos:]
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
                pos += n
        assert worst < DECODE_TOL[dtype]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_feeds_that_straddle_a_full_attention_tile_match_a_re_forward(self, monkeypatch, dtype):
        import spanattn.attention as attention_mod

        monkeypatch.setattr(attention_mod, "FULL_TILE", 4)
        model = HybridModel(tiny_config(layers=4, dtype=dtype, seed=3))
        rng = np.random.default_rng(24)
        worst = 0.0
        for prompt_len in (1, 3, 4, 6, 9):
            tokens = rng.integers(0, 32, size=prompt_len + 24)
            cache = {}
            model_forward(model, tokens[:prompt_len], DECODE_SETTINGS["full"], cache=cache)
            pos = prompt_len
            for n in (3, 5, 2, 9, 1, 4):  # most feeds cross the boundary after a multiple of 4
                got = model_forward(model, tokens[pos : pos + n], DECODE_SETTINGS["full"], cache=cache).data
                want = model_forward(model, tokens[: pos + n], DECODE_SETTINGS["full"]).data[pos:]
                worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
                pos += n
        assert worst < DECODE_TOL[dtype]

    @pytest.mark.parametrize("kind", ["full", "sw"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_prompt_across_scan_blocks_then_cached_steps_match_a_re_forward(self, kind, dtype):
        prompt_len = 2 * SCAN_BLOCK + 5  # the prefill's recurrence runs in three blocks
        model = HybridModel(tiny_config(layers=4, dtype=dtype, seed=4))
        setting = DECODE_SETTINGS[kind]
        tokens = np.random.default_rng(26).integers(0, 32, size=prompt_len + 12)
        cache = {}
        model_forward(model, tokens[:prompt_len], setting, cache=cache)
        pos, worst = prompt_len, 0.0
        for n in (1, 3, 1, 3, 1, 3):
            got = model_forward(model, tokens[pos : pos + n], setting, cache=cache).data
            want = model_forward(model, tokens[: pos + n], setting).data[pos:]
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
            pos += n
        assert worst < DECODE_TOL[dtype]
        prompt = tokens[:prompt_len]
        want = reforward_generate(model, prompt, setting, max_new_tokens=8, stop_id=3)
        assert greedy_generate(model, prompt, setting, max_new_tokens=8, stop_id=3) == want

    @pytest.mark.parametrize("kind", ["full", "sw"])
    def test_greedy_generate_emits_the_re_forward_tokens(self, kind):
        for seed in range(4):
            model = HybridModel(tiny_config(layers=4, dtype="float32", seed=seed))
            prompt = np.random.default_rng(22 + seed).integers(0, 32, size=7 + seed)
            want = reforward_generate(model, prompt, DECODE_SETTINGS[kind], max_new_tokens=8, stop_id=3)
            assert greedy_generate(model, prompt, DECODE_SETTINGS[kind], max_new_tokens=8, stop_id=3) == want

    def test_sliding_window_cache_holds_at_most_window_minus_one_rows(self):
        model = HybridModel(tiny_config(layers=4))
        cache = {}
        tokens = np.random.default_rng(23).integers(0, 32, size=20)
        model_forward(model, tokens[:9], DECODE_SETTINGS["sw"], cache=cache)
        for t in tokens[9:]:
            model_forward(model, [t], DECODE_SETTINGS["sw"], cache=cache)
            kv = [layer for layer in cache.values() if "k" in layer]
            assert len(kv) == 2 and all(len(layer["k"]) == len(layer["v"]) == 3 for layer in kv)

    def test_se_attention_rejects_a_cache(self):
        model = HybridModel(tiny_config())
        with pytest.raises(UsageError):
            model_forward(model, [1, 2, 3], se_setting(), cache={})


class TestGraphSize:
    def test_one_attention_node_per_attention_layer(self, monkeypatch):
        import spanattn.attention as attention_mod

        monkeypatch.setattr(attention_mod, "FULL_TILE", 4)
        calls = []
        fused = attention_mod.multi_head_attention

        def spy(*args, **kw):
            calls.append(kw["rows"].shape[0])
            return fused(*args, **kw)

        monkeypatch.setattr(attention_mod, "multi_head_attention", spy)
        model = HybridModel(tiny_config(layers=4))
        model_forward(model, np.arange(30) % 32, full_setting())
        assert calls == [8] * sum(kind == "attn" for kind in model.config.layer_kinds())  # 8 tiles, one call

    def test_an_se_adaptation_step_at_2048_builds_358_nodes(self, monkeypatch):
        import spanattn.model as model_mod
        from spanattn.adaptation import AdapterPolicy, apply_policy

        model = HybridModel(ModelConfig(layers=4, d=64, d_model=64, heads=4, blend_ratio=1, vocab=258, seed=0))
        apply_policy(model, AdapterPolicy("hylora", rank=32, alpha=64.0), seed=0)
        setting = AttentionSetting(kind="se", se_cfg=SEAttnConfig(chunk_sizes=(16, 32), seed=0))
        counts = []
        replay = model_mod.backward

        def counting(loss):
            counts.append(replay(loss))
            return counts[-1]

        monkeypatch.setattr(model_mod, "backward", counting)
        batch = np.random.default_rng(25).integers(0, 258, size=(4, 2049))
        train_step(model, batch, AdamW(model.trainable_parameters(), lr=2e-4), setting)
        assert counts == [358]
