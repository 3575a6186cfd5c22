"""Tests of the benchmark itself: every correctness check fails on a corrupted
output, the tracer's self-time arithmetic holds, and a short run ends with
its result line.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spanattn.adaptation import AdapterPolicy, apply_policy  # noqa: E402
from spanattn.attention import AttentionParams, sliding_window_attention  # noqa: E402
from spanattn.evalgen import generate_task  # noqa: E402
from spanattn.model import AdamW, AttentionSetting, HybridModel, ModelConfig, greedy_generate, train_step  # noqa: E402
from spanattn.se_attn import SEAttnConfig, se_attn_forward  # noqa: E402
from spanattn.tensor import Tensor  # noqa: E402
from spanattn.vocab import EOS_ID, VOCAB_SIZE  # noqa: E402
from spanbench import checks, hostspeed, reference, workloads  # noqa: E402
from spanbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from spanbench.tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def layer(seed, n=128, d=16, heads=4):
    p = AttentionParams.random(d, d, head_count=heads, seed=seed, dtype=np.float32)
    x = np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)
    w = {f"L.{m}": t.data.astype(np.float64) for m, t in p.matrices().items()}
    return p, x, w


def se_case(seed=0):
    p, x, w = layer(seed)
    cfg = SEAttnConfig(chunk_sizes=(16,), memory_block_size=8, top_k=2, seed=seed)
    out, trace = se_attn_forward(Tensor(x), p, cfg)
    q, k, v = reference.project(x.astype(np.float64), w, "L")
    return p, x, w, cfg, out, trace, (q, k, v)


def test_selection_check_passes_and_catches_a_swapped_block():
    p, x, w, cfg, out, trace, qkv = se_case()
    assert checks.selection_failures(trace, *qkv, cfg, 16, "clean") == []
    summaries = reference.block_summaries(*qkv, 8, 16)
    chunk = trace.chunks[-1]
    retrievable = np.asarray([stop <= chunk.start for _, stop in trace.block_ranges])
    scores = reference.relevancy(qkv[0][chunk.start : chunk.stop], summaries, retrievable, 16)
    unselected = [j for j in np.flatnonzero(retrievable) if j not in chunk.selected]
    chunk.selected = sorted([chunk.selected[0], min(unselected, key=lambda j: scores[j])])
    failures = checks.selection_failures(trace, *qkv, cfg, 16, "swapped")
    assert len(failures) == 1 and f"chunk {chunk.index}" in failures[0]
    want = reference.attention(x.astype(np.float64), w, "L", 4, reference.trace_mask(trace))
    assert checks.output_failures(out.data, want, "swapped") != []


def test_selection_check_catches_a_block_from_the_future():
    _, _, _, cfg, _, trace, qkv = se_case(1)
    chunk = trace.chunks[2]
    chunk.selected = [chunk.selected[0], chunk.index * 2]  # the block at the chunk's own start
    assert "end after the chunk starts" in checks.selection_failures(trace, *qkv, cfg, 16, "future")[0]


def test_se_output_check_catches_a_perturbed_row():
    _, x, w, _, out, trace, _ = se_case(2)
    want = reference.attention(x.astype(np.float64), w, "L", 4, reference.trace_mask(trace))
    assert checks.output_failures(out.data, want, "clean") == []
    out.data[37] += 1e-3
    assert checks.output_failures(out.data, want, "perturbed") != []


def test_banded_output_check_catches_a_perturbed_row():
    p, x, w = layer(3, n=96)
    out = sliding_window_attention(Tensor(x), p, window=8).data
    want = reference.attention(x.astype(np.float64), w, "L", 4, reference.banded_mask(96, 8))
    assert checks.output_failures(out, want, "clean") == []
    out[50] += 1e-3
    assert checks.output_failures(out, want, "perturbed") != []


def tiny_model(seed=0):
    return HybridModel(ModelConfig(layers=2, d=16, d_model=16, heads=2, blend_ratio=1, vocab=VOCAB_SIZE, seed=seed))


def test_weight_check_catches_a_changed_frozen_weight_and_an_untrained_one():
    model = tiny_model()
    split = apply_policy(model, AdapterPolicy("hylora", rank=4, alpha=8.0))
    before = {name: t.data.copy() for name, t in model.named_parameters().items()}
    opt = AdamW(model.trainable_parameters(), lr=1e-2)
    rng = np.random.default_rng(0)
    for step in range(3):
        train_step(model, [rng.integers(0, 256, size=24) for _ in range(2)], opt, AttentionSetting("full"), step=step)
    after = {name: t.data.copy() for name, t in model.named_parameters().items()}
    trainable = set(split["trainable"])
    assert checks.weight_failures(before, after, trainable) == []
    frozen = next(name for name in after if name not in trainable)
    changed = dict(after, **{frozen: np.nextafter(after[frozen], np.inf)})
    assert checks.weight_failures(before, changed, trainable) == [f"frozen weight {frozen} changed"]
    trained = sorted(trainable)[0]
    stale = dict(after, **{trained: before[trained]})
    assert checks.weight_failures(before, stale, trainable) == [f"trained weight {trained} never changed"]


def test_loss_check():
    assert checks.loss_failures([5.6, 5.5, 5.45, 5.4]) == []
    assert checks.loss_failures([5.4, 5.5, 5.5, 5.6]) != []
    assert checks.loss_failures([5.6, float("nan"), 5.4]) != []
    assert checks.loss_failures([5.6]) != []


def test_emitted_check_catches_a_wrong_token():
    model = tiny_model(1)
    prompt = list(np.random.default_rng(1).integers(0, 256, size=40))
    out = greedy_generate(model, np.asarray(prompt), AttentionSetting("full"), max_new_tokens=6, stop_id=EOS_ID)
    w = reference.weights64(model)
    logits = reference.model_logits(w, model.config.layer_kinds(), prompt + out[:-1], 2, lambda _, n: reference.causal_mask(n))
    assert checks.emitted_failures(logits, 40, out, 6, EOS_ID, "clean") == []
    wrong = list(out)
    wrong[2] = int(np.argmin(logits[40 - 1 + 2]))
    assert checks.emitted_failures(logits, 40, wrong, 6, EOS_ID, "wrong")[0].startswith("wrong: token 2 is")


def test_prompt_check_catches_a_moved_answer():
    inst = generate_task("niah_single_1", 1024, seed=4)
    assert checks.prompt_failures(inst.text, inst.answers, inst.meta, 1024, "clean") == []
    pos = inst.text.index(inst.answers[0])
    digit = "1" if inst.text[pos] != "1" else "2"
    broken = inst.text[:pos] + digit + inst.text[pos + 1 :]
    assert checks.prompt_failures(broken, inst.answers, inst.meta, 1024, "broken") != []
    assert checks.prompt_failures(inst.text + " ", inst.answers, inst.meta, 1024, "long") != []


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    tracer.spans = [
        ["setup", 0.0, 1.0, -1],
        ["bench.op", 1.0, 11.0, -1],
        ["se_attn.forward", 2.0, 8.0, 1],
        ["attention.mha", 3.0, 5.0, 2],
        ["ops.masked_softmax", 3.5, 4.0, 3],
    ]
    tracer.measure_from = 1
    own, total, chunk_attn = tracer.times()
    assert own["bench.op"] == 4.0 and own["se_attn.forward"] == 4.0 and own["attention.mha"] == 1.5
    assert total["ops.masked_softmax"] == 0.5 and chunk_attn == 2.0
    assert "setup" not in own and tracer.setup_seconds("setup") == 1.0


def test_measure_interleaves_probes_for_a_share_of_operation_time(monkeypatch):
    monkeypatch.setattr(hostspeed, "probe", lambda: 0.01)
    times, tokens, probes, failed, attempted = workloads.measure(lambda i: (time.sleep(0.05), 7)[1], 0.3)
    assert attempted == len(times) == len(tokens) >= 3 and failed == 0 and set(tokens) == {7}
    assert len(probes) - hostspeed.SETUP_PROBES == pytest.approx(hostspeed.PROBE_SHARE * sum(times) / 0.01, abs=1.5)
    assert hostspeed.slowdown([hostspeed.PROBE_REFERENCE_S, 2 * hostspeed.PROBE_REFERENCE_S]) == pytest.approx(1.5)


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", "9001",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", ["adapt-sw-1k", "decode-full-1k"])
def test_short_run_ends_with_the_end_to_end_result(workload):
    result = result_of(run_bench(workload, 0))
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(run_bench("adapt-se-2k", 1))
    assert BENCHMARK["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in BENCHMARK["end_to_end"]] == [
        {"name": n, "unit": u, "better": b} for n, u, b in END_TO_END
    ]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, u, _ in PER_LAYER}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    stages = ("forward_ms", "summaries_ms", "relevancy_ms", "chunk_attn_ms",
              "summaries_ns_per_mac", "relevancy_ns_per_mac", "chunk_attn_ns_per_mac")
    assert all(values[f"se_attn.{s}"] > 0 for s in stages)
    assert values["model.forwards_per_token"] == 0 and values["tensor.nodes_per_step"] > 0


def test_traced_decode_run_counts_forwards_and_the_checkpoint_load():
    values = {name: m["value"] for name, m in result_of(run_bench("decode-full-1k", 1))["metrics"].items()}
    assert values["model.forwards_per_token"] >= 1 and values["model.checkpoint_load_ms"] > 0
    assert values["tensor.backward_ms"] == 0 and values["se_attn.chunks"] == 0


def test_unknown_workload_and_missing_sources_fail_without_a_result(tmp_path):
    proc = run_bench("no-such-workload", 0)
    assert proc.returncode != 0 and proc.stdout == ""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("adapt-sw-1k", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", sorted(w["name"] for w in BENCHMARK["workloads"]))
def test_benchmark_json_names_known_workloads(name):
    from spanbench.workloads import WORKLOADS

    assert name in WORKLOADS
