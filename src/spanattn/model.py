"""Toy hybrid causal language model: gated SSM blocks interleaved with
attention blocks that dispatch to any of the package's attention variants.

The SSM block is a deliberately small stand-in with the classic shape
(norm, input projection, causal depthwise conv, diagonal linear recurrence,
multiplicative gate, output projection, residual); its decay is sigmoid
constrained so the state always fades for bounded input.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .attention import AttentionParams, full_attention, sliding_window_attention
from .errors import ConfigError, InputError, UsageError
from .ops import causal_conv1d, cross_entropy_logits, embedding_lookup, linear_recurrence, rms_norm, sigmoid
from .se_attn import SEAttnConfig, se_attn_forward
from .tensor import Tensor, backward, matmul, narrow, scale, transpose
from .vocab import PAD_ID, VOCAB_SIZE


@dataclass
class ModelConfig:
    layers: int = 4
    d: int = 64
    d_model: int = 64
    heads: int = 4
    blend_ratio: int = 3  # SSM blocks per attention block
    vocab: int = VOCAB_SIZE
    state_dim: int = 0  # 0 selects 2*d
    conv_width: int = 4
    conv_max_width: int = 8
    tied_head: bool = False
    rope_base: float = 10000.0
    rope_pos_scale: float = 1.0
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.layers < 1:
            raise ConfigError("model needs at least one layer")
        if self.d_model % self.heads != 0:
            raise ConfigError("d_model must be divisible by the head count")
        if self.blend_ratio < 0:
            raise ConfigError("blend ratio must be >= 0")
        if self.conv_width > self.conv_max_width:
            raise ConfigError("conv width exceeds the configured maximum")
        if self.state_dim == 0:
            self.state_dim = 2 * self.d

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    def layer_kinds(self):
        """Block pattern: one attention block after every blend_ratio SSM blocks."""
        period = self.blend_ratio + 1
        return ["attn" if (i + 1) % period == 0 else "ssm" for i in range(self.layers)]


# config name -> (attention kind, SE-Attn variant); s2, the shifted-sparse baseline, is named only to be refused
ATTENTION_VARIANTS = {
    "full": ("full", None),
    "sw": ("sw", None),
    "nomem": ("se", "nomem"),
    "se": ("se", "standard"),
    "se-random": ("se", "random"),
    "se-lm": ("se", "landmark"),
    "s2": None,
}


def variant_kind(name):
    """(attention kind, SE-Attn variant) of an ``ATTENTION_VARIANTS`` name; ConfigError for any other name or s2."""
    if name not in ATTENTION_VARIANTS:
        raise ConfigError(f"unknown attention variant {name!r}")
    if ATTENTION_VARIANTS[name] is None:
        available = ", ".join(n for n, v in ATTENTION_VARIANTS.items() if v is not None)
        raise ConfigError(
            f"the shifted-sparse attention baseline is not available in this package; choose one of {available}"
        )
    return ATTENTION_VARIANTS[name]


@dataclass
class AttentionSetting:
    """Which attention variant the model's attention blocks run."""

    kind: str  # full | sw | se
    window: int = 0
    se_cfg: SEAttnConfig = None

    def __post_init__(self):
        if self.kind not in ("full", "sw", "se"):
            raise ConfigError(f"unknown attention kind {self.kind!r}")
        if self.kind == "sw" and self.window < 1:
            raise ConfigError("sliding window attention needs window >= 1")
        if self.kind == "se" and self.se_cfg is None:
            raise ConfigError("se attention needs an SEAttnConfig")

    @classmethod
    def named(cls, name, *, window, chunk_sizes, block_size, top_k, seed):
        """The setting of an ``ATTENTION_VARIANTS`` name; only the arguments its kind uses are read."""
        kind, se_variant = variant_kind(name)
        if kind != "se":
            return cls(kind, window=window if kind == "sw" else 0)
        se_cfg = SEAttnConfig(chunk_sizes, memory_block_size=block_size, top_k=top_k, variant=se_variant, seed=seed)
        return cls(kind, se_cfg=se_cfg)

    def attend(self, x, p, rng=None, cache=None):
        """This variant's attention over ``x`` with projections ``p``: (output,
        retrieval trace or None). ``rng`` draws SE-Attn's chunk size and random
        retrieval; a decode ``cache`` (full and sw only) keeps the K/V rows."""
        if self.kind == "full":
            return full_attention(x, p, cache=cache), None
        if self.kind == "sw":
            return sliding_window_attention(x, p, self.window, cache=cache), None
        return se_attn_forward(x, p, self.se_cfg, rng=rng)


class SSMLayer:
    """norm -> in_proj -> causal conv -> diagonal recurrence -> gate -> out_proj + residual."""

    def __init__(self, cfg, rng):
        d, e, w = cfg.d, cfg.state_dim, cfg.conv_width
        dt = cfg.np_dtype
        self.state_dim = e
        self.conv_max_width = cfg.conv_max_width
        self.norm = Tensor(np.ones(d, dtype=dt), requires_grad=True)
        self.in_proj = Tensor((rng.standard_normal((d, 2 * e)) / math.sqrt(d)).astype(dt), requires_grad=True)
        self.conv_kernel = Tensor((rng.standard_normal((w, e)) / math.sqrt(w)).astype(dt), requires_grad=True)
        self.conv_bias = Tensor(np.zeros(e, dtype=dt), requires_grad=True)
        # decay stays in (0, 1) through the sigmoid; initialized spread over (0.5, 0.95)
        a0 = rng.uniform(0.5, 0.95, size=e)
        self.decay_logit = Tensor(np.log(a0 / (1.0 - a0)).astype(dt), requires_grad=True)
        self.input_gain = Tensor(np.ones(e, dtype=dt), requires_grad=True)
        self.out_proj = Tensor((rng.standard_normal((e, d)) / math.sqrt(e)).astype(dt), requires_grad=True)

    def named_params(self, prefix):
        return {
            f"{prefix}.norm": self.norm,
            f"{prefix}.in_proj": self.in_proj,
            f"{prefix}.conv_kernel": self.conv_kernel,
            f"{prefix}.conv_bias": self.conv_bias,
            f"{prefix}.decay_logit": self.decay_logit,
            f"{prefix}.input_gain": self.input_gain,
            f"{prefix}.out_proj": self.out_proj,
        }

    def forward(self, x, cache=None):
        """The block over ``x``; a decode ``cache`` (a dict, empty at first)
        supplies and keeps the conv tail and the recurrence state, so ``x``
        continues the sequence it has seen."""
        e = self.state_dim
        h = rms_norm(x, self.norm)
        both = matmul(h, self.in_proj)
        u = narrow(both, 1, 0, e)
        gate = narrow(both, 1, e, 2 * e)
        history = h0 = None
        if cache is not None:
            history = cache.get("conv", np.zeros((self.conv_kernel.shape[0] - 1, e), dtype=x.dtype))
            h0 = cache.get("h")
            length = u.shape[0]  # the new tail is the last w - 1 rows of history then u, copied alone
            cache["conv"] = np.concatenate([history[length:], u.data[max(length - len(history), 0) :]])
        u = causal_conv1d(u, self.conv_kernel, self.conv_bias, max_width=self.conv_max_width, history=history)
        decay = sigmoid(self.decay_logit)
        state = linear_recurrence(u, decay, self.input_gain, h0=h0)
        if cache is not None:
            cache["h"] = state.data[-1].copy()
        gated = state * sigmoid(gate)
        return x + matmul(gated, self.out_proj)


class AttentionLayer:
    """norm -> attention variant + residual; LoRA deltas fold into the projections."""

    def __init__(self, cfg, rng):
        self.norm = Tensor(np.ones(cfg.d, dtype=cfg.np_dtype), requires_grad=True)
        self.params = AttentionParams.random(
            cfg.d, cfg.d_model, head_count=cfg.heads, seed=rng, dtype=cfg.np_dtype, requires_grad=True,
            rope_base=cfg.rope_base, rope_pos_scale=cfg.rope_pos_scale,
        )
        self.adapters = {}  # matrix name -> LoRAAdapter

    def named_params(self, prefix):
        out = {f"{prefix}.norm": self.norm}
        for name, w in self.params.matrices().items():
            out[f"{prefix}.{name}"] = w
        for name, ad in self.adapters.items():
            out[f"{prefix}.{name}.lora_a"] = ad.a
            out[f"{prefix}.{name}.lora_b"] = ad.b
        return out

    def effective_params(self):
        """The projections with every adapter folded in: W + (alpha/rank) * (B A)^T."""
        mats = self.params.matrices()
        folded = {
            name: mats[name] + scale(matmul(transpose(ad.a), transpose(ad.b)), ad.alpha / ad.rank)
            for name, ad in self.adapters.items()
        }
        return replace(self.params, **folded)

    def forward(self, x, setting, rng=None, cache=None):
        """The block over ``x``; a decode ``cache`` (full and sw only) keeps the K/V rows."""
        out, trace = setting.attend(rms_norm(x, self.norm), self.effective_params(), rng=rng, cache=cache)
        return x + out, trace


class HybridModel:
    def __init__(self, cfg):
        self.config = cfg
        rng = np.random.default_rng(cfg.seed)
        dt = cfg.np_dtype
        self.embedding = Tensor((rng.standard_normal((cfg.vocab, cfg.d)) / math.sqrt(cfg.d)).astype(dt), requires_grad=True)
        self.blocks = []
        for kind in cfg.layer_kinds():
            self.blocks.append(SSMLayer(cfg, rng) if kind == "ssm" else AttentionLayer(cfg, rng))
        self.final_norm = Tensor(np.ones(cfg.d, dtype=dt), requires_grad=True)
        if cfg.tied_head:
            self.head = None
        else:
            self.head = Tensor((rng.standard_normal((cfg.d, cfg.vocab)) / math.sqrt(cfg.d)).astype(dt), requires_grad=True)

    def attention_layers(self):
        return [(i, b) for i, b in enumerate(self.blocks) if isinstance(b, AttentionLayer)]

    def named_parameters(self):
        out = {"embedding": self.embedding}
        for i, block in enumerate(self.blocks):
            out.update(block.named_params(f"blocks.{i}"))
        out["final_norm"] = self.final_norm
        if self.head is not None:
            out["head"] = self.head
        return out

    def trainable_parameters(self):
        return {k: v for k, v in self.named_parameters().items() if v.requires_grad}

    def parameter_count(self, trainable_only=False):
        params = self.trainable_parameters() if trainable_only else self.named_parameters()
        return sum(p.size for p in params.values())

    def set_all_trainable(self, flag):
        for p in self.named_parameters().values():
            p.requires_grad = flag


def expected_parameter_count(cfg):
    """Closed-form total parameter count for a freshly built model."""
    e, w = cfg.state_dim, cfg.conv_width
    ssm = cfg.d + cfg.d * 2 * e + w * e + e + e + e + e * cfg.d
    attn = cfg.d + 4 * cfg.d * cfg.d_model
    kinds = cfg.layer_kinds()
    total = cfg.vocab * cfg.d + cfg.d  # embedding + final norm
    if not cfg.tied_head:
        total += cfg.d * cfg.vocab
    total += sum(ssm if k == "ssm" else attn for k in kinds)
    return total


def model_forward(model, tokens, setting, step=0, collect_traces=False, cache=None):
    """Causal LM logits for one token sequence.

    ``step`` seeds the per-layer chunk-size draws so identical (tokens,
    step) pairs replay bitwise identically.

    ``cache`` makes the call stateful: a dict, empty before the first call,
    in which every block keeps its decode state (SSM conv tail and
    recurrence state, attention K/V rows). ``tokens`` then continue the
    sequence the cache has seen, and the logits are those of a forward of
    the whole sequence at the new positions. SE attention rejects a cache:
    its relevancy scores a whole chunk at once, so a prefix cannot be reused.
    """
    if cache is not None and setting.kind == "se":
        raise UsageError("se attention has no decode cache; re-run the whole sequence instead")
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or tokens.size < 1:
        raise InputError("tokens must be a non-empty 1-d sequence")
    if tokens.min() < 0 or tokens.max() >= model.config.vocab:
        raise InputError(f"token id out of range for vocab {model.config.vocab}")
    h = embedding_lookup(model.embedding, tokens)
    traces = []
    for li, block in enumerate(model.blocks):
        state = None if cache is None else cache.setdefault(li, {})
        if isinstance(block, SSMLayer):
            h = block.forward(h, state)
        else:
            rng = np.random.default_rng([model.config.seed, li, step])
            h, trace = block.forward(h, setting, rng=rng, cache=state)
            if collect_traces and trace is not None:
                traces.append((li, trace))
    h = rms_norm(h, model.final_norm)
    head = transpose(model.embedding) if model.head is None else model.head
    logits = matmul(h, head)
    return (logits, traces) if collect_traces else logits


class AdamW:
    """Adaptive moments with decoupled weight decay; frozen tensors are never touched."""

    def __init__(self, params, lr=2e-4, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update.astype(p.data.dtype)


def train_step(model, batch, optimizer, setting, step=0, pad_id=PAD_ID):
    """One optimizer step of mean next-token cross entropy over a batch of sequences."""
    optimizer.zero_grad()
    losses = []
    for i, seq in enumerate(batch):
        tokens = np.asarray(seq)
        if tokens.size < 2:
            raise InputError("training sequences need at least two tokens")
        logits = model_forward(model, tokens[:-1], setting, step=step * len(batch) + i)
        losses.append(cross_entropy_logits(logits, tokens[1:], ignore_index=pad_id))
    total = losses[0]
    for extra in losses[1:]:
        total = total + extra
    loss = scale(total, 1.0 / len(losses))
    value = loss.item()
    backward(loss)
    optimizer.step()
    return value


def greedy_generate(model, prompt_tokens, setting, max_new_tokens, stop_id=None, step=0):
    """Greedy decoding, one ``model_forward`` call per emitted token.

    Full and sliding-window attention run the prompt once into a decode
    cache and then feed only the token just emitted, so a token costs one
    token's work. SE attention has no decode cache and re-runs the whole
    sequence for every token.
    """
    cache = None if setting.kind == "se" else {}
    tokens = list(np.asarray(prompt_tokens))
    feed = tokens
    out = []
    for _ in range(max_new_tokens):
        logits = model_forward(model, np.asarray(feed), setting, step=step, cache=cache)
        nxt = int(np.argmax(logits.data[-1]))
        out.append(nxt)
        if stop_id is not None and nxt == stop_id:
            break
        tokens.append(nxt)
        feed = tokens if cache is None else [nxt]
    return out


# checkpoint container: one JSON header line, then raw little-endian buffers


def write_container(path, header, arrays, np_dtype):
    """Write ``header`` plus version, dtype tag and ``params`` manifest, then each (name, array) buffer."""
    header = {**header, "version": 1, "dtype": "<f8" if np_dtype == np.float64 else "<f4"}
    entries, buffers, offset = [], [], 0
    for name, data in arrays:
        raw = np.ascontiguousarray(data, dtype=header["dtype"]).tobytes()
        entries.append({"name": name, "shape": list(data.shape), "offset": offset, "nbytes": len(raw)})
        buffers.append(raw)
        offset += len(raw)
    with open(path, "wb") as f:
        f.write(json.dumps({**header, "params": entries}, sort_keys=True, separators=(",", ":")).encode() + b"\n")
        for raw in buffers:
            f.write(raw)


def read_container(path, fmt, required=()):
    """Validated header and named arrays of a container written by ``write_container``.

    Checks the JSON header, the format tag and version, the dtype tag, the
    ``required`` keys, that nbytes = shape x itemsize, and that the buffers
    tile the data bytes exactly: no gap, no overlap, nothing left over.
    Raises ``InputError`` naming the file and field.
    """

    def bad(field, why):
        return InputError(f"{path}: {field}: {why}")

    try:
        with open(path, "rb") as f:
            line = f.readline()
            blob = f.read()
    except OSError as exc:
        raise bad("file", f"cannot be read ({exc.strerror or exc})") from None

    try:
        header = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise bad("header", f"not a JSON header line ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise bad("format", f"not a {fmt} file")
    for key in ("version", "dtype", "params", *required):
        if key not in header:
            raise bad(key, "missing from the header")
    if header["version"] != 1:
        raise bad("version", f"unsupported version {header['version']!r}")
    if header["dtype"] not in ("<f4", "<f8"):
        raise bad("dtype", f"{header['dtype']!r} is not <f4 or <f8")
    if not isinstance(header["params"], list):
        raise bad("params", "not a list")
    itemsize = np.dtype(header["dtype"]).itemsize
    arrays, spans = {}, []
    for i, entry in enumerate(header["params"]):
        try:
            name, offset, nbytes = str(entry["name"]), int(entry["offset"]), int(entry["nbytes"])
            shape = tuple(int(n) for n in entry["shape"])
        except (KeyError, TypeError, ValueError):
            raise bad(f"params[{i}]", "needs a name, a shape, an offset and nbytes") from None
        count = math.prod(shape)
        if min(shape, default=0) < 0 or nbytes != count * itemsize:
            raise bad(f"params[{i}].nbytes", f"{nbytes} does not match shape {list(shape)} of {header['dtype']}")
        if offset < 0 or offset + nbytes > len(blob):
            raise bad(f"params[{i}].offset", f"{offset} + {nbytes} bytes lies outside the {len(blob)} data bytes")
        spans.append((offset, nbytes, i))
        arrays[name] = np.frombuffer(blob, dtype=header["dtype"], count=count, offset=offset).reshape(shape)
    end = 0
    for offset, nbytes, i in sorted(spans):
        if offset != end:
            why = "overlaps the buffer before it" if offset < end else f"leaves a gap after byte {end}"
            raise bad(f"params[{i}].offset", f"{offset} {why}")
        end += nbytes
    if end != len(blob):
        raise bad("params", f"the buffers cover {end} of the {len(blob)} data bytes")
    return header, arrays


def fill_parameters(path, tensors, arrays):
    """Copy each named array into its tensor; names and shapes must match exactly."""
    unknown = sorted(arrays.keys() - tensors.keys())
    if unknown:
        raise InputError(f"{path}: params: {unknown[0]} is not a parameter of the model")
    for name, t in tensors.items():
        if name not in arrays:
            raise InputError(f"{path}: params: no entry for {name}")
        if arrays[name].shape != t.shape:
            raise InputError(f"{path}: params: {name} has shape {list(arrays[name].shape)}, expected {list(t.shape)}")
        t.data = arrays[name].astype(t.dtype)


def attach_adapters(path, model, manifest):
    """Attach fresh adapters where a checkpoint manifest names them; returns their tensors by name."""
    from .adaptation import LoRAAdapter  # deferred: adaptation builds on this module

    if not isinstance(manifest, list):
        raise InputError(f"{path}: adapters: not a list")
    tensors = {}
    for i, entry in enumerate(manifest):
        try:
            layer, matrix = int(entry["layer"]), str(entry["matrix"])
            rank, alpha = int(entry["rank"]), float(entry["alpha"])
        except (KeyError, TypeError, ValueError):
            raise InputError(f"{path}: adapters[{i}]: needs a layer, a matrix, a rank and an alpha") from None
        if not (0 <= layer < len(model.blocks) and isinstance(model.blocks[layer], AttentionLayer)):
            raise InputError(f"{path}: adapters[{i}].layer: {layer} is not an attention layer of the model")
        block = model.blocks[layer]
        w = block.params.matrices().get(matrix)
        if w is None:
            raise InputError(f"{path}: adapters[{i}].matrix: {matrix!r} is not an attention matrix")
        ad = LoRAAdapter.fresh(
            d_in=w.shape[0], d_out=w.shape[1], rank=rank, alpha=alpha, target=matrix, dtype=model.config.np_dtype
        )
        block.adapters[matrix] = ad
        tensors[f"blocks.{layer}.{matrix}.lora_a"] = ad.a
        tensors[f"blocks.{layer}.{matrix}.lora_b"] = ad.b
    return tensors


def adapter_manifest(model):
    entries = []
    for i, block in model.attention_layers():
        for matrix, ad in block.adapters.items():
            entries.append({"layer": i, "matrix": matrix, "rank": ad.rank, "alpha": ad.alpha})
    return entries


def save_checkpoint(path, model, extra=None):
    header = {
        "format": "spanattn-checkpoint",
        "model": asdict(model.config),
        "adapters": adapter_manifest(model),
    }
    if extra:
        header["extra"] = extra
    arrays = [(name, p.data) for name, p in model.named_parameters().items()]
    write_container(path, header, arrays, model.config.np_dtype)


def load_checkpoint(path):
    header, arrays = read_container(path, "spanattn-checkpoint", required=("model", "adapters"))
    try:
        cfg = ModelConfig(**header["model"])
    except (TypeError, ConfigError) as exc:
        raise InputError(f"{path}: model: {exc}") from None
    model = HybridModel(cfg)
    attach_adapters(path, model, header["adapters"])
    fill_parameters(path, model.named_parameters(), arrays)
    return model, header
