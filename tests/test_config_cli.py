"""Config parsing contracts and end-to-end CLI runs in temp directories."""

import json
import os

import numpy as np
import pytest

from spanattn.cli import main
from spanattn.config import config_hash, parse_config_text
from spanattn.errors import ConfigError
from spanattn.model import ATTENTION_VARIANTS, AttentionSetting

TINY_TRAIN = """
# tiny end-to-end config
model.layers = 2
model.d = 16
model.d_model = 16
model.heads = 2
model.blend_ratio = 1
model.vocab = 258
attention.variant = se
attention.chunk_sizes = 16
attention.block_size = 8
attention.top_k = 2
adaptation.policy = none
adaptation.lr = 1e-3
adaptation.steps = 3
adaptation.seed = 5
train.data = niah_single_1
train.seq_len = 256
train.batch_size = 2
eval.tasks = niah_single_1
eval.context_lengths = 128
eval.n_instances = 2
bench.variants = full,se
bench.lengths = 32,64
bench.reps = 5
"""


class TestConfigParsing:
    def test_defaults_round_out_missing_keys(self):
        cfg = parse_config_text("model.layers = 6\n")
        assert cfg.model.layers == 6
        assert cfg.attention.variant == "se"
        assert cfg.adaptation.lr == 2e-4

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="cfg:3: unknown key 'model.depth'"):
            parse_config_text("\n\nmodel.depth = 4\n", origin="cfg")

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigError, match="cfg:1: bad value for model.layers"):
            parse_config_text("model.layers = many\n", origin="cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("model.d = 8\nmodel.d = 16\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("model.layers 4\n")

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError, match="attention.variant"):
            parse_config_text("attention.variant = flash\n")

    def test_shifted_sparse_reported_unavailable(self):
        with pytest.raises(ConfigError, match="not available"):
            parse_config_text("attention.variant = s2\n")

    def test_se_needs_an_attention_layer(self):
        with pytest.raises(ConfigError, match="attention layer"):
            parse_config_text("model.layers = 2\nmodel.blend_ratio = 3\nattention.variant = se\n")

    def test_bench_takes_every_available_variant(self):
        cfg = parse_config_text("bench.variants = se-random,se-lm\n")
        assert cfg.bench.variants == ("se-random", "se-lm")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# header\nmodel.d = 24  # trailing\n\n")
        assert cfg.model.d == 24

    def test_variant_mapping(self):
        se_variants = {"nomem": "nomem", "se": "standard", "se-random": "random", "se-lm": "landmark"}
        assert set(ATTENTION_VARIANTS) == {"full", "sw", "s2", *se_variants}
        for name in ATTENTION_VARIANTS:
            text = (
                f"attention.variant = {name}\nattention.window = 32\nattention.chunk_sizes = 24,12\n"
                "attention.block_size = 4\nattention.top_k = 3\nadaptation.seed = 7\n"
            )
            if name == "s2":
                with pytest.raises(ConfigError, match="not available"):
                    parse_config_text(text)
                continue
            setting = parse_config_text(text).attention_setting()
            if name in se_variants:
                assert (setting.kind, setting.window) == ("se", 0)
                se = setting.se_cfg
                assert (se.variant, se.chunk_sizes, se.memory_block_size, se.top_k, se.seed) == (
                    se_variants[name], (12, 24), 4, 3, 7
                )
            else:
                assert (setting.kind, setting.window, setting.se_cfg) == (name, 32 if name == "sw" else 0, None)
        with pytest.raises(ConfigError, match="unknown attention variant 'flash'"):
            AttentionSetting.named("flash", window=32, chunk_sizes=(16,), block_size=4, top_k=2, seed=0)

    def test_hash_tracks_source_text(self):
        a = parse_config_text("model.d = 8\n")
        b = parse_config_text("model.d = 8\n")
        c = parse_config_text("model.d = 16\n")
        assert config_hash(a) == config_hash(b) != config_hash(c)


def write_config(tmp_path, text=TINY_TRAIN):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


class TestCLITrain:
    def test_train_writes_checkpoint_log_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        logged = capsys.readouterr()
        assert logged.out == "" and logged.err.startswith("step 0: loss ")
        assert (out / "checkpoint.bin").exists()
        assert (out / "train_log.csv").read_text().splitlines()[0] == "step,loss,lr"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "checkpoint.bin" in manifest["artifacts"]
        assert "train_timing.csv" in manifest["metadata_files"]

    def test_zero_steps_checkpoint_equals_initialization(self, tmp_path):
        cfg_text = TINY_TRAIN.replace("adaptation.steps = 3", "adaptation.steps = 0")
        cfg = write_config(tmp_path, cfg_text)
        out = tmp_path / "out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0

        from spanattn.model import HybridModel, load_checkpoint
        from spanattn.config import parse_config_text

        loaded, _ = load_checkpoint(out / "checkpoint.bin")
        fresh = HybridModel(parse_config_text(cfg_text).model_config())
        for k, p in fresh.named_parameters().items():
            np.testing.assert_array_equal(p.data, loaded.named_parameters()[k].data)

    def test_same_seed_bitwise_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["train", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "checkpoint.bin").read_bytes() == (out2 / "checkpoint.bin").read_bytes()
        assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_env_seed_override_changes_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["train", str(cfg), "--out", str(out1)]) == 0
        os.environ["SPANATTN_SEED"] = "99"
        try:
            assert main(["train", str(cfg), "--out", str(out2)]) == 0
        finally:
            del os.environ["SPANATTN_SEED"]
        assert (out1 / "checkpoint.bin").read_bytes() != (out2 / "checkpoint.bin").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 99

    def test_env_seed_that_is_not_an_integer_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPANATTN_SEED", "abc")
        assert main(["train", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "error: SPANATTN_SEED: 'abc' is not an integer\n"

    def test_a_directory_as_config_exits_one(self, tmp_path, capsys):
        folder = tmp_path / "not_a_config"
        folder.mkdir()
        assert main(["train", str(folder), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {folder}: file: cannot be read") and "Traceback" not in err

    def test_a_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("model.layers = 2  # caf\u00e9\n".encode("latin-1"))
        assert main(["train", str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: file: not UTF-8 text") and "Traceback" not in err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["train", str(missing), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: config file not found: {missing}\n"

    def test_invalid_config_exits_one_without_side_effects(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.layers = 2\nmodel.depth = 9\n")
        out = tmp_path / "out"
        assert main(["train", str(bad), "--out", str(out)]) == 1
        assert not out.exists()

    def test_numeric_blowup_exits_three(self, tmp_path):
        text = TINY_TRAIN.replace("adaptation.lr = 1e-3", "adaptation.lr = 1e12").replace(
            "adaptation.steps = 3", "adaptation.steps = 8"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert main(["train", str(cfg), "--out", str(out)]) == 3


class TestCLIEvalGenBenchTrace:
    @pytest.fixture()
    def trained(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "train_out"
        assert main(["train", str(cfg), "--out", str(out)]) == 0
        return cfg, out / "checkpoint.bin", tmp_path

    def test_eval_defaults_to_full_attention(self, trained):
        cfg, ckpt, tmp_path = trained
        out = tmp_path / "eval_out"
        assert main(["eval", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        meta = json.loads((out / "eval_meta.json").read_text())
        assert meta["eval_attention"] == "full"
        assert meta["train_variant"] == "se"
        assert meta["se_traces_per_probe_forward"] == {"niah_single_1@128": 0}
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "task,context_length,metric,value"
        assert len(lines) == 1 + 1  # one task x one context length

    def test_eval_attn_train_reuses_training_variant(self, trained):
        cfg, ckpt, tmp_path = trained
        out = tmp_path / "eval_train_out"
        assert main(["eval", str(cfg), "--out", str(out), "--checkpoint", str(ckpt), "--eval-attn", "train"]) == 0
        meta = json.loads((out / "eval_meta.json").read_text())
        assert meta["eval_attention"] == "se"
        assert meta["se_traces_per_probe_forward"] == {"niah_single_1@128": 1}  # one attention layer

    def test_eval_missing_checkpoint_exits_two(self, trained):
        cfg, _, tmp_path = trained
        out = tmp_path / "eval_missing"
        assert main(["eval", str(cfg), "--out", str(out), "--checkpoint", str(tmp_path / "nope.bin")]) == 2

    def test_eval_row_count_is_tasks_times_lengths(self, trained):
        cfg, ckpt, tmp_path = trained
        multi = (tmp_path / "exp.cfg").read_text().replace(
            "eval.tasks = niah_single_1", "eval.tasks = niah_single_1,vt"
        ).replace("eval.context_lengths = 128", "eval.context_lengths = 384,512")
        cfg2 = tmp_path / "multi.cfg"
        cfg2.write_text(multi)
        out = tmp_path / "eval_multi"
        assert main(["eval", str(cfg2), "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (lambda header, blob: (header, blob[: len(blob) // 2]), "params["),
            (lambda header, blob: (b"\x00garbage{", blob), "header"),
            (lambda header, blob: (header.replace(b'"nbytes":', b'"n_bytes":', 1), blob), "params[0]"),
            (lambda header, blob: (header.replace(b'"layer":1', b'"layer":0', 1), blob), "adapters[0].layer"),
        ],
        ids=["truncated", "garbage_header", "missing_key", "bad_layer"],
    )
    def test_eval_rejects_a_corrupt_checkpoint(self, tmp_path, capsys, corrupt, field):
        from spanattn.adaptation import AdapterPolicy, apply_policy
        from spanattn.model import HybridModel, save_checkpoint

        cfg = write_config(tmp_path)
        model = HybridModel(parse_config_text(TINY_TRAIN).model_config())
        apply_policy(model, AdapterPolicy("lora", rank=2))
        ckpt = tmp_path / "corrupt.bin"
        save_checkpoint(ckpt, model)
        header, _, blob = ckpt.read_bytes().partition(b"\n")
        header, blob = corrupt(header, blob)
        ckpt.write_bytes(header + b"\n" + blob)
        assert main(["eval", str(cfg), "--out", str(tmp_path / "eval_bad"), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: {field}") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_a_directory_as_checkpoint_exits_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        folder = tmp_path / "not_a_checkpoint"
        folder.mkdir()
        assert main([command, str(cfg), "--out", str(tmp_path / "out"), "--checkpoint", str(folder)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {folder}: file: ") and "Traceback" not in err

    def test_gen_writes_instance_lines(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "gen_out"
        assert main(["gen", str(cfg), "--out", str(out)]) == 0
        lines = (out / "instances.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2  # one task, one length, two instances
        from spanattn.evalgen import TaskInstance

        inst = TaskInstance.from_json_line(lines[0])
        assert inst.task == "niah_single_1" and inst.answers

    def test_bench_writes_profile_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "bench_out"
        assert main(["bench", str(cfg), "--out", str(out)]) == 0
        lines = (out / "profile.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,L,M,S,k,median_s,min_s,max_s,peak_bytes,analytic_ops,graph_nodes"
        assert len(lines) == 1 + 2 * 2
        assert all(int(line.split(",")[-1]) > 0 for line in lines[1:])
        info = json.loads((out / "run_info.json").read_text())
        from spanattn.bench import _openblas_threads

        pinned = _openblas_threads() is not None
        assert info["blas_threads"] == (1 if pinned else None) and info["blas_pinned"] is pinned

    @pytest.mark.parametrize("name, message", [("flash", "bench.variants"), ("s2", "not available")])
    def test_bench_with_an_unknown_or_unavailable_variant_exits_one(self, tmp_path, capsys, name, message):
        cfg = write_config(tmp_path, TINY_TRAIN.replace("bench.variants = full,se", f"bench.variants = se,{name}"))
        assert main(["bench", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err

    def test_trace_round_trips_mask(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "trace_out"
        assert main(["trace", str(cfg), "--out", str(out)]) == 0
        from spanattn.se_attn import RetrievalTrace, rle_to_mask, trace_pattern

        trace = RetrievalTrace.from_json((out / "trace.json").read_text())
        rows = json.loads((out / "mask_rle.json").read_text())["rows"]
        np.testing.assert_array_equal(rle_to_mask(rows).visible(), trace_pattern(trace).visible())

    def test_trace_input_that_is_a_directory_exits_one(self, tmp_path, capsys):
        folder = tmp_path / "not_a_text"
        folder.mkdir()
        assert main(["trace", str(write_config(tmp_path)), "--out", str(tmp_path / "out"), "--input", str(folder)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {folder}: file: cannot be read") and "Traceback" not in err

    def test_trace_missing_input_exits_two(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["trace", str(cfg), "--out", str(tmp_path / "out"), "--input", str(tmp_path / "nope.txt")]) == 2

    def test_trace_rejects_non_se_variant(self, tmp_path):
        text = TINY_TRAIN.replace("attention.variant = se", "attention.variant = full")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "trace_bad"
        assert main(["trace", str(cfg), "--out", str(out)]) == 1

    def test_trace_with_checkpoint(self, trained):
        cfg, ckpt, tmp_path = trained
        out = tmp_path / "trace_ckpt"
        assert main(["trace", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)]) == 0
        assert (out / "trace.json").exists()
