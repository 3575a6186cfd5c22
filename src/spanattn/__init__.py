"""Span-expanded attention for hybrid SSM/attention models."""

from .attention import (
    AdditiveMask,
    AttentionParams,
    full_attention,
    masked_oracle_attention,
    sliding_window_attention,
)
from .model import AttentionSetting, HybridModel, ModelConfig, model_forward, train_step
from .se_attn import RetrievalTrace, SEAttnConfig, se_attn_forward, trace_pattern
from .tensor import Tensor, backward

__all__ = [
    "AdditiveMask",
    "AttentionParams",
    "AttentionSetting",
    "HybridModel",
    "ModelConfig",
    "RetrievalTrace",
    "SEAttnConfig",
    "Tensor",
    "backward",
    "full_attention",
    "masked_oracle_attention",
    "model_forward",
    "se_attn_forward",
    "sliding_window_attention",
    "trace_pattern",
    "train_step",
]
