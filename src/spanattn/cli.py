"""Command-line entry point: train, eval, gen, bench, trace.

Every command reads one flat key-value config, validates it completely
before touching the filesystem, and writes its artifacts plus a
deterministic manifest under the output directory. Wall-clock figures
(tokens/s, run duration) go to separate metadata files so re-running a
command overwrites the real artifacts bit-identically.

Exit codes: 0 ok, 1 invalid config/usage or a corrupt or unreadable
checkpoint, 2 missing artifact, 3 numeric failure (NaN/Inf detected).
SPANATTN_SEED overrides the config seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from .adaptation import apply_policy, merge_adapters
from .attention import AttentionParams
from .bench import _single_thread_region, run_profile_grid, write_profile_csv
from .config import config_hash, load_config, read_text
from .errors import ConfigError, GenerationError, InputError, NumericError, UsageError
from .evalgen import generate_task, perplexity, score_recall
from .model import (
    AdamW,
    AttentionSetting,
    HybridModel,
    greedy_generate,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    train_step,
)
from .se_attn import mask_to_rle, trace_pattern
from .tensor import Tensor
from .vocab import EOS_ID, N_BYTES, PAD_ID, VOCAB_SIZE, decode, encode

TRAIN_CONTEXT_RESERVE = 64  # answer + separators headroom inside train.seq_len


def _instance_seed(*parts):
    stable = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]
    return int(np.random.SeedSequence(stable).generate_state(1)[0])


def _memorize_corpus(cfg):
    rng = np.random.default_rng([cfg.seed, 999])
    return rng.integers(0, min(cfg.model.vocab, N_BYTES), size=64)


def _supervised_tokens(instance, seq_len):
    tokens = encode(instance.supervised_text()) + [EOS_ID]
    if len(tokens) > seq_len:
        raise ConfigError(
            f"train.seq_len={seq_len} too small for a supervised {instance.task} sample of {len(tokens)} tokens"
        )
    return np.asarray(tokens + [PAD_ID] * (seq_len - len(tokens)))


def _train_batch(cfg, step):
    if cfg.train.data == "memorize":
        corpus = _memorize_corpus(cfg)
        return [corpus for _ in range(cfg.train.batch_size)]
    context = cfg.train.seq_len - TRAIN_CONTEXT_RESERVE
    batch = []
    for i in range(cfg.train.batch_size):
        inst = generate_task(cfg.train.data, context, seed=_instance_seed(cfg.seed, 7, step, i))
        batch.append(_supervised_tokens(inst, cfg.train.seq_len))
    return batch


def _require_task_vocab(cfg):
    if cfg.train.data != "memorize" and cfg.model.vocab < VOCAB_SIZE:
        raise ConfigError(f"task data needs the byte vocabulary ({VOCAB_SIZE}); model.vocab={cfg.model.vocab}")


def _write_manifest(out_dir, command, cfg, artifacts, metadata_files=()):
    manifest = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "artifacts": sorted(artifacts),
        "metadata_files": sorted(metadata_files),
    }
    with open(out_dir / "manifest.json", "w") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _write_run_info(out_dir, started, command, **extra):
    info = {"command": command, "started_unix": started, "duration_s": time.time() - started, **extra}
    with open(out_dir / "run_info.json", "w") as f:
        json.dump(info, f, indent=2)
        f.write("\n")


def cmd_train(cfg, out_dir):
    _require_task_vocab(cfg)
    model = HybridModel(cfg.model_config())
    policy = cfg.adapter_policy()
    if policy is not None:
        apply_policy(model, policy, seed=cfg.seed)
    optimizer = AdamW(model.trainable_parameters(), lr=cfg.adaptation.lr)
    setting = cfg.attention_setting()

    log_rows = []
    timing_rows = []
    for step in range(cfg.adaptation.steps):
        batch = _train_batch(cfg, step)
        t0 = time.perf_counter()
        loss = train_step(model, batch, optimizer, setting, step=step)
        dt = time.perf_counter() - t0
        tokens = sum(len(s) for s in batch)
        log_rows.append((step, loss, cfg.adaptation.lr))
        timing_rows.append((step, tokens / dt))
        if step % cfg.train.log_every == 0:
            print(f"step {step}: loss {loss:.4f}", file=sys.stderr)

    if policy is not None:
        merge_adapters(model)
    ckpt_name = Path(cfg.paths.checkpoint).name
    save_checkpoint(out_dir / ckpt_name, model, extra={"train_variant": cfg.attention.variant})

    with open(out_dir / "train_log.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "lr"])
        for step, loss, lr in log_rows:
            writer.writerow([step, f"{loss:.8f}", f"{lr:.8g}"])
    with open(out_dir / "train_timing.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "tokens_per_s"])
        for step, tps in timing_rows:
            writer.writerow([step, f"{tps:.2f}"])

    _write_manifest(out_dir, "train", cfg, [ckpt_name, "train_log.csv"], ["train_timing.csv", "run_info.json"])
    return 0


def _ppl_stream(cfg, length):
    rng = np.random.default_rng([cfg.seed, 31])
    return rng.integers(0, min(cfg.model.vocab, N_BYTES), size=length)


def _eval_one_instance(model, setting, task, length, index, cfg):
    inst = generate_task(task, length, seed=_instance_seed(cfg.seed, 11, task, length, index))
    prompt = np.asarray(inst.tokens())
    generated = greedy_generate(
        model, prompt, setting, max_new_tokens=inst.answer_budget(), stop_id=EOS_ID, step=index
    )
    return score_recall(decode(generated), inst)


def cmd_eval(cfg, out_dir, checkpoint, eval_attn):
    ckpt_path = Path(checkpoint) if checkpoint else Path(cfg.paths.checkpoint)
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    model, header = load_checkpoint(ckpt_path)
    for p in model.named_parameters().values():
        p.requires_grad = False  # evaluation never differentiates

    # evaluation reverts to full attention unless the training variant is requested
    if eval_attn == "train":
        setting = cfg.attention_setting()
        attn_label = cfg.attention.variant
    else:
        setting = AttentionSetting(kind="full")
        attn_label = "full"

    # every attention layer leaves one retrieval trace per forward under SE attention, none otherwise
    traces_per_forward = len(model.attention_layers()) if setting.kind == "se" else 0
    rows = []
    trace_counts = {}
    for task in cfg.eval.tasks:
        for length in cfg.eval.context_lengths:
            if task == "ppl":
                stream = _ppl_stream(cfg, max(cfg.eval.ppl_stream_len, length * 2))
                value = perplexity(model, stream, length, setting)
                rows.append((task, length, "ppl", value))
            else:
                recalls = [_eval_one_instance(model, setting, task, length, i, cfg) for i in range(cfg.eval.n_instances)]
                rows.append((task, length, "recall", float(np.mean(recalls))))
            trace_counts[f"{task}@{length}"] = traces_per_forward

    with open(out_dir / "results.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["task", "context_length", "metric", "value"])
        for task, length, metric, value in rows:
            writer.writerow([task, length, metric, f"{value:.6f}"])

    meta = {
        "eval_attention": attn_label,
        "train_variant": header.get("extra", {}).get("train_variant"),
        "se_traces_per_probe_forward": trace_counts,
    }
    with open(out_dir / "eval_meta.json", "w") as f:
        json.dump(meta, f, sort_keys=True, indent=2)
        f.write("\n")

    _write_manifest(out_dir, "eval", cfg, ["results.csv", "eval_meta.json"], ["run_info.json"])
    return 0


def cmd_gen(cfg, out_dir):
    lines = []
    for task in cfg.eval.tasks:
        if task == "ppl":
            continue
        for length in cfg.eval.context_lengths:
            for i in range(cfg.eval.n_instances):
                inst = generate_task(task, length, seed=_instance_seed(cfg.seed, 11, task, length, i))
                lines.append(inst.to_json_line())
    with open(out_dir / "instances.jsonl", "w") as f:
        for line in lines:
            f.write(line + "\n")
    _write_manifest(out_dir, "gen", cfg, ["instances.jsonl"], ["run_info.json"])
    return 0


def cmd_bench(cfg, out_dir):
    """Profile grid plus the BLAS thread count it ran with, for run_info.json."""
    with _single_thread_region() as blas_threads:
        records = run_profile_grid(
            cfg.bench.variants,
            cfg.bench.lengths,
            d=cfg.model.d,
            d_model=cfg.model.d_model,
            heads=cfg.model.heads,
            M=max(cfg.attention.chunk_sizes),
            S=cfg.attention.block_size,
            k=cfg.attention.top_k,
            window=cfg.attention.window,
            reps=cfg.bench.reps,
            seed=cfg.seed,
        )
    write_profile_csv(out_dir / "profile.csv", records)
    _write_manifest(out_dir, "bench", cfg, ["profile.csv"], ["run_info.json"])
    return 0, {"blas_threads": blas_threads, "blas_pinned": blas_threads == 1}


def cmd_trace(cfg, out_dir, checkpoint, input_path):
    setting = cfg.attention_setting()
    if setting.kind != "se":
        raise UsageError("trace needs a span-expanded attention variant in the config")
    if input_path:
        tokens = np.asarray(encode(read_text(input_path, InputError)))
    else:
        inst = generate_task("niah_single_1", cfg.train.seq_len, seed=_instance_seed(cfg.seed, 17))
        tokens = np.asarray(inst.tokens())

    if checkpoint:
        ckpt_path = Path(checkpoint)
        if not ckpt_path.exists():
            raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
        model, _ = load_checkpoint(ckpt_path)
        for p in model.named_parameters().values():
            p.requires_grad = False
        _, traces = model_forward(model, tokens, setting, step=0, collect_traces=True)
        if not traces:
            raise UsageError("the model produced no retrieval traces (no attention layers?)")
        trace = traces[0][1]
    else:
        emb = np.random.default_rng([cfg.seed, 23]).standard_normal((cfg.model.vocab, cfg.model.d)).astype(np.float32)
        x = Tensor(emb[tokens])
        params = AttentionParams.random(cfg.model.d, cfg.model.d_model, head_count=cfg.model.heads, seed=cfg.seed)
        _, trace = setting.attend(x, params, rng=np.random.default_rng([cfg.seed, 0]))

    with open(out_dir / "trace.json", "w") as f:
        f.write(trace.to_json() + "\n")
    mask = trace_pattern(trace)
    with open(out_dir / "mask_rle.json", "w") as f:
        json.dump({"seq_len": trace.seq_len, "rows": mask_to_rle(mask)}, f, sort_keys=True)
        f.write("\n")
    _write_manifest(out_dir, "trace", cfg, ["trace.json", "mask_rle.json"], ["run_info.json"])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="spanattn", description="Span-expanded attention experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (default: paths.out from the config)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on recall tasks / perplexity")
    common(p_eval)
    p_eval.add_argument("--checkpoint", default=None, help="checkpoint path (default: paths.checkpoint)")
    p_eval.add_argument(
        "--eval-attn",
        choices=("full", "train"),
        default="full",
        help="attention used at evaluation: full (default) or the training variant",
    )

    p_gen = sub.add_parser("gen", help="generate task instances as JSON lines")
    common(p_gen)

    p_bench = sub.add_parser("bench", help="profile one training step per attention variant")
    common(p_bench)

    p_trace = sub.add_parser("trace", help="dump a retrieval trace and its attention mask")
    common(p_trace)
    p_trace.add_argument("--checkpoint", default=None, help="trace a trained model instead of a fresh layer")
    p_trace.add_argument("--input", default=None, help="text file to trace instead of a generated sample")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    info = {}
    try:
        cfg = load_config(args.config)
        env_seed = os.environ.get("SPANATTN_SEED")
        if env_seed is not None:
            try:
                cfg.with_seed(int(env_seed))
            except ValueError:
                raise ConfigError(f"SPANATTN_SEED: {env_seed!r} is not an integer") from None
        if args.seed is not None:
            cfg.with_seed(args.seed)

        out_dir = Path(args.out if args.out is not None else cfg.paths.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "train":
            code = cmd_train(cfg, out_dir)
        elif args.command == "eval":
            code = cmd_eval(cfg, out_dir, args.checkpoint, args.eval_attn)
        elif args.command == "gen":
            code = cmd_gen(cfg, out_dir)
        elif args.command == "bench":
            code, info = cmd_bench(cfg, out_dir)
        else:
            code = cmd_trace(cfg, out_dir, args.checkpoint, args.input)
        _write_run_info(out_dir, started, args.command, **info)
        return code
    except (ConfigError, UsageError, InputError, GenerationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
