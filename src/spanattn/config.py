"""Flat, typed key-value experiment configuration.

The format is one ``section.key = value`` pair per line with ``#`` comments.
Parsing is total: every key must belong to the documented schema, every
value must parse at its declared type, and errors carry the file name and
line number. Nothing is instantiated until the whole file validates.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .evalgen import GENERATED_TASKS as _TASK_NAMES
from .model import ATTENTION_VARIANTS, AttentionSetting, ModelConfig, variant_kind
from .vocab import VOCAB_SIZE

POLICY_NAMES = ("none", "lora", "lora_plus", "hylora")
DATA_NAMES = ("memorize", "niah_single_1", "niah_single_2", "niah_single_3")


@dataclass
class ModelSection:
    layers: int = 4
    d: int = 64
    d_model: int = 64
    heads: int = 4
    blend_ratio: int = 1
    vocab: int = VOCAB_SIZE
    state_dim: int = 0
    conv_width: int = 4
    tied_head: bool = False


@dataclass
class AttentionSection:
    variant: str = "se"
    chunk_sizes: tuple = (16, 32)
    block_size: int = 8
    top_k: int = 2
    window: int = 64


@dataclass
class AdaptationSection:
    policy: str = "none"
    rank: int = 32
    alpha: float = 64.0
    lr: float = 2e-4
    steps: int = 100
    seed: int = 0


@dataclass
class TrainSection:
    data: str = "memorize"
    seq_len: int = 256
    batch_size: int = 4
    log_every: int = 10


@dataclass
class EvalSection:
    tasks: tuple = ("niah_single_1",)
    context_lengths: tuple = (256,)
    n_instances: int = 16
    ppl_stream_len: int = 2048


@dataclass
class BenchSection:
    variants: tuple = ("full", "se")
    lengths: tuple = (256, 512, 1024)
    reps: int = 5


@dataclass
class PathsSection:
    checkpoint: str = "checkpoint.bin"
    out: str = "out"


@dataclass
class ExperimentConfig:
    model: ModelSection = field(default_factory=ModelSection)
    attention: AttentionSection = field(default_factory=AttentionSection)
    adaptation: AdaptationSection = field(default_factory=AdaptationSection)
    train: TrainSection = field(default_factory=TrainSection)
    eval: EvalSection = field(default_factory=EvalSection)
    bench: BenchSection = field(default_factory=BenchSection)
    paths: PathsSection = field(default_factory=PathsSection)
    source_text: str = ""

    @property
    def seed(self):
        return self.adaptation.seed

    def with_seed(self, seed):
        self.adaptation.seed = int(seed)
        return self

    def model_config(self, dtype="float32"):
        return ModelConfig(**asdict(self.model), seed=self.seed, dtype=dtype)

    def attention_setting(self):
        a = self.attention
        return AttentionSetting.named(
            a.variant, window=a.window, chunk_sizes=a.chunk_sizes, block_size=a.block_size, top_k=a.top_k, seed=self.seed
        )

    def adapter_policy(self):
        if self.adaptation.policy == "none":
            return None
        from .adaptation import AdapterPolicy

        return AdapterPolicy(policy=self.adaptation.policy, rank=self.adaptation.rank, alpha=self.adaptation.alpha)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw):
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return _BOOL_WORDS[word]


def _parse_int_list(raw):
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _parse_str_list(raw):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _choice(options):
    def parse(raw):
        value = raw.strip()
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {value!r}")
        return value

    return parse


def _str_list_choice(options):
    def parse(raw):
        values = _parse_str_list(raw)
        for v in values:
            if v not in options:
                raise ValueError(f"expected entries from {', '.join(options)}; got {v!r}")
        return values

    return parse


_EVAL_TASKS = tuple(_TASK_NAMES) + ("ppl",)

SCHEMA = {
    "model.layers": int,
    "model.d": int,
    "model.d_model": int,
    "model.heads": int,
    "model.blend_ratio": int,
    "model.vocab": int,
    "model.state_dim": int,
    "model.conv_width": int,
    "model.tied_head": _parse_bool,
    "attention.variant": _choice(ATTENTION_VARIANTS),
    "attention.chunk_sizes": _parse_int_list,
    "attention.block_size": int,
    "attention.top_k": int,
    "attention.window": int,
    "adaptation.policy": _choice(POLICY_NAMES),
    "adaptation.rank": int,
    "adaptation.alpha": float,
    "adaptation.lr": float,
    "adaptation.steps": int,
    "adaptation.seed": int,
    "train.data": _choice(DATA_NAMES),
    "train.seq_len": int,
    "train.batch_size": int,
    "train.log_every": int,
    "eval.tasks": _str_list_choice(_EVAL_TASKS),
    "eval.context_lengths": _parse_int_list,
    "eval.n_instances": int,
    "eval.ppl_stream_len": int,
    "bench.variants": _str_list_choice(ATTENTION_VARIANTS),
    "bench.lengths": _parse_int_list,
    "bench.reps": int,
    "paths.checkpoint": str,
    "paths.out": str,
}

_SECTIONS = {
    "model": ModelSection,
    "attention": AttentionSection,
    "adaptation": AdaptationSection,
    "train": TrainSection,
    "eval": EvalSection,
    "bench": BenchSection,
    "paths": PathsSection,
}


def parse_config_text(text, origin="config"):
    """Parse and fully validate a config; raises ConfigError with line anchors."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'section.key = value'")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = SCHEMA[key](raw_value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{origin}:{lineno}: bad value for {key}: {exc}") from exc

    cfg = ExperimentConfig(source_text=text)
    for key, value in values.items():
        section, _, name = key.partition(".")
        setattr(getattr(cfg, section), name, value)
    _cross_validate(cfg, origin)
    return cfg


def _cross_validate(cfg, origin):
    try:
        model_cfg = cfg.model_config()
        setting = cfg.attention_setting()
        for name in cfg.bench.variants:
            variant_kind(name)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    if setting.kind == "se" and model_cfg.layer_kinds().count("attn") == 0:
        raise ConfigError(
            f"{origin}: a span-expanded experiment needs at least one attention layer "
            f"(layers={cfg.model.layers}, blend_ratio={cfg.model.blend_ratio} gives none)"
        )
    if cfg.train.seq_len < 2:
        raise ConfigError(f"{origin}: train.seq_len must be >= 2")
    for fname in ("batch_size", "log_every"):
        if getattr(cfg.train, fname) < 1:
            raise ConfigError(f"{origin}: train.{fname} must be >= 1")
    if cfg.adaptation.steps < 0:
        raise ConfigError(f"{origin}: adaptation.steps must be >= 0")
    if cfg.eval.n_instances < 1:
        raise ConfigError(f"{origin}: eval.n_instances must be >= 1")


def read_text(path, error):
    """UTF-8 text of a file; a missing file raises FileNotFoundError, any other failure ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: file: cannot be read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: file: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(path):
    try:
        text = read_text(path, ConfigError)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"config file not found: {path}") from exc
    return parse_config_text(text, origin=str(path))


def config_hash(cfg):
    return hashlib.sha256(cfg.source_text.encode()).hexdigest()
