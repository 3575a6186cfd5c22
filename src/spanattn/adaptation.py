"""Parameter-selection policies and low-rank adapter algebra.

Three nested policies decide what trains:
  * lora       — rank-r adapters on the attention projections, all else frozen,
  * lora_plus  — lora plus full training of embeddings and every norm gain,
  * hylora     — lora_plus plus the SSM blocks' causal-conv kernels and biases.

Adapters follow the usual convention: the effective weight is
``W + (alpha/rank) * (B A)^T`` for our right-multiplication layout, with A
Gaussian-initialized at scale 1/sqrt(rank) and B zero, so a fresh policy is
an exact no-op on the model output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .model import SSMLayer, adapter_manifest, attach_adapters, fill_parameters, read_container, write_container
from .tensor import Tensor

POLICIES = ("lora", "lora_plus", "hylora")

ATTENTION_TARGETS = ("w_q", "w_k", "w_v", "w_o")


@dataclass
class LoRAAdapter:
    a: Tensor  # (rank, d_in)
    b: Tensor  # (d_out, rank)
    rank: int
    alpha: float
    target: str

    @classmethod
    def fresh(cls, d_in, d_out, rank, alpha, target, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        a = Tensor((rng.standard_normal((rank, d_in)) / math.sqrt(rank)).astype(dtype), requires_grad=True)
        b = Tensor(np.zeros((d_out, rank), dtype=dtype), requires_grad=True)
        return cls(a=a, b=b, rank=rank, alpha=alpha, target=target)

    @property
    def parameter_count(self):
        return self.a.size + self.b.size


@dataclass
class AdapterPolicy:
    policy: str
    rank: int = 32
    alpha: float = 64.0
    targets: tuple = ATTENTION_TARGETS
    train_conv_bias: bool = True

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}; expected one of {POLICIES}")
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        self.targets = tuple(self.targets)


def apply_policy(model, policy, seed=0):
    """Freeze the model, attach adapters, and mark the policy's extras trainable.

    Returns {"trainable": [...names...], "frozen": [...names...]}; adapters are
    named ``blocks.<i>.<matrix>.lora_a`` / ``.lora_b``.
    """
    if any(block.adapters for _, block in model.attention_layers()):
        raise UsageError("adapters already attached; merge them before applying a policy again")

    model.set_all_trainable(False)
    dtype = model.config.np_dtype

    for i, block in model.attention_layers():
        mats = block.params.matrices()
        for ti, target in enumerate(policy.targets):
            if target not in mats:
                raise ConfigError(f"adapter target {target!r} not present on layer {i}")
            w = mats[target]
            block.adapters[target] = LoRAAdapter.fresh(
                d_in=w.shape[0],
                d_out=w.shape[1],
                rank=policy.rank,
                alpha=policy.alpha,
                target=target,
                seed=np.random.SeedSequence([seed, i, ti]).generate_state(1)[0],
                dtype=dtype,
            )

    if policy.policy in ("lora_plus", "hylora"):
        model.embedding.requires_grad = True
        model.final_norm.requires_grad = True
        for block in model.blocks:
            block.norm.requires_grad = True

    if policy.policy == "hylora":
        for block in model.blocks:
            if isinstance(block, SSMLayer):
                block.conv_kernel.requires_grad = True
                if policy.train_conv_bias:
                    block.conv_bias.requires_grad = True

    named = model.named_parameters()
    trainable = [k for k, p in named.items() if p.requires_grad]
    frozen = [k for k, p in named.items() if not p.requires_grad]
    return {"trainable": trainable, "frozen": frozen}


def merge_adapters(model):
    """Write each layer's adapter-folded matrices (``effective_params``) into
    its base weights and detach the adapters, so the forward pass is unchanged."""
    blocks = [block for _, block in model.attention_layers() if block.adapters]
    if not blocks:
        raise UsageError("no adapters attached; double merge or policy never applied")
    for block in blocks:
        for name, w in block.effective_params().matrices().items():
            getattr(block.params, name).data = w.data
        block.adapters = {}
    return model


def adapter_parameter_count(model):
    return sum(ad.parameter_count for _, block in model.attention_layers() for ad in block.adapters.values())


def expected_adapter_count(cfg, policy):
    """Closed form: every targeted matrix contributes rank*(d_in + d_out)."""
    n_attn = cfg.layer_kinds().count("attn")
    return n_attn * len(policy.targets) * policy.rank * (cfg.d + cfg.d_model)


def expected_trainable_count(cfg, policy):
    """Closed-form trainable parameter count after apply_policy."""
    total = expected_adapter_count(cfg, policy)
    kinds = cfg.layer_kinds()
    if policy.policy in ("lora_plus", "hylora"):
        total += cfg.vocab * cfg.d  # embedding
        total += cfg.d * (len(kinds) + 1)  # block norms + final norm
    if policy.policy == "hylora":
        n_ssm = kinds.count("ssm")
        total += n_ssm * cfg.conv_width * cfg.state_dim
        if policy.train_conv_bias:
            total += n_ssm * cfg.state_dim
    return total


def conv_parameter_fraction(model):
    """Share of total parameters living in the SSM conv kernels and biases."""
    conv = sum(
        block.conv_kernel.size + block.conv_bias.size
        for block in model.blocks
        if isinstance(block, SSMLayer)
    )
    return conv / model.parameter_count()


# adapter-only checkpoints (same container format as full checkpoints)


def save_adapter_checkpoint(path, model):
    manifest = adapter_manifest(model)
    if not manifest:
        raise UsageError("no adapters attached; nothing to save")
    arrays = [(name, t.data) for name, t in model.named_parameters().items() if ".lora_" in name]
    header = {"format": "spanattn-adapters", "adapters": manifest}
    write_container(path, header, arrays, model.config.np_dtype)


def load_adapter_checkpoint(path, model):
    """Attach (or overwrite) adapters on a base model from an adapter-only file."""
    header, arrays = read_container(path, "spanattn-adapters", required=("adapters",))
    fill_parameters(path, attach_adapters(path, model, header["adapters"]), arrays)
    return model
