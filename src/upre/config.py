"""Dataclass configs, strict JSON loading, presets, and config hashing.

Loading is strict: any key that does not name a dataclass field raises
``ConfigError`` with the offending path.  ``config_hash`` is the sha256
of the canonical JSON form (sorted keys, compact separators) and is
stamped into every output artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .losses import BG_VARIANTS, PNS_VARIANTS, RDD_TERMS
from .prompts import PROMPT_MODES
from .world import WorldConfig

SCHEDULE_MODES = ("joint", "alternating")


@dataclass(frozen=True)
class Stage1Config:
    warmup_iters: int = 0
    iters: int = 500
    lr: float = 0.05
    lr_drop_iter: int = 450
    lr_drop_factor: float = 10.0


@dataclass(frozen=True)
class Stage2Config:
    iters: int = 2000
    lr: float = 4.0
    lr_drop_iter: int = 1600
    lr_drop_factor: float = 10.0
    enhance_prob: float = 0.5


@dataclass(frozen=True)
class OptimizerConfig:
    momentum: float = 0.1
    weight_decay: float = 1e-4


@dataclass(frozen=True)
class Toggles:
    prompt_on: bool = True
    enhance_on: bool = True
    img_level_on: bool = True
    ins_level_on: bool = True

    def any_on(self) -> bool:
        return self.prompt_on or self.enhance_on or self.img_level_on or self.ins_level_on


@dataclass(frozen=True)
class TrainConfig:
    stage1: Stage1Config = field(default_factory=Stage1Config)
    stage2: Stage2Config = field(default_factory=Stage2Config)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 2
    seed: int = 0
    toggles: Toggles = field(default_factory=Toggles)
    prompt_mode: str = "learnable_complete"
    enhance_mode: str = "mu_and_sigma"
    enhance_grid: tuple[int, int] = (7, 7)
    bg_variant: str = "hinge_positive_diff"
    pns_variant: str = "bg_and_c"
    rdd_mask: tuple[str, ...] = RDD_TERMS
    weight_align: float = 1.0
    weight_semantic: float = 1.0
    weight_relative: float = 1.0
    schedule_mode: str = "joint"
    run_steps: int = 1000
    softmax_temperature: float = 1.0
    context_length: int = 4
    target_domain: str = "night_rainy"
    val_interval: int = 25
    val_scenes: int = 8
    pns_proposals: int = 6
    stage2_proposals: int = 6
    reg_weight: float = 1.0
    eval_scenes: int = 24
    eval_proposals: int = 16

    def rdd_weights(self) -> dict[str, float]:
        return {
            "align": self.weight_align,
            "semantic": self.weight_semantic,
            "relative": self.weight_relative,
        }

    def validate(self) -> None:
        for name, st in (("stage1", self.stage1), ("stage2", self.stage2)):
            if not (0 <= st.lr_drop_iter < st.iters):
                raise ConfigError(f"{name}.lr_drop_iter must lie in [0, iters)")
            if st.lr <= 0 or st.lr_drop_factor < 1.0:
                raise ConfigError(f"{name}: lr must be positive and lr_drop_factor >= 1")
        if not (0.0 <= self.stage2.enhance_prob <= 1.0):
            raise ConfigError("stage2.enhance_prob must lie in [0, 1]")
        for name in (
            "batch_size", "val_interval", "val_scenes", "pns_proposals",
            "stage2_proposals", "eval_scenes", "eval_proposals",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if len(self.enhance_grid) != 2 or min(self.enhance_grid) < 1:
            raise ConfigError("enhance_grid must be two positive integers")
        if self.prompt_mode not in PROMPT_MODES:
            raise ConfigError(f"unknown prompt_mode {self.prompt_mode!r}")
        if self.bg_variant not in BG_VARIANTS:
            raise ConfigError(f"unknown bg_variant {self.bg_variant!r}")
        if self.pns_variant not in PNS_VARIANTS:
            raise ConfigError(f"unknown pns_variant {self.pns_variant!r}")
        if self.schedule_mode not in SCHEDULE_MODES:
            raise ConfigError(f"unknown schedule_mode {self.schedule_mode!r}")
        if self.schedule_mode == "alternating" and self.run_steps < 1:
            raise ConfigError("alternating schedule needs run_steps >= 1")
        for term in self.rdd_mask:
            if term not in RDD_TERMS:
                raise ConfigError(f"unknown rdd_mask term {term!r}")
        if self.softmax_temperature <= 0:
            raise ConfigError("softmax_temperature must be positive")
        if self.context_length < 1:
            raise ConfigError("context_length must be at least 1")


@dataclass(frozen=True)
class CliConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    world_seed: int = 0
    output_dir: str = "out"
    report_formats: tuple[str, ...] = ("json", "csv")

    def validate(self) -> None:
        self.world.validate()
        self.train.validate()
        if self.train.target_domain not in self.world.domains:
            raise ConfigError(
                f"target_domain {self.train.target_domain!r} not among world domains"
            )
        for fmt in self.report_formats:
            if fmt not in ("json", "csv"):
                raise ConfigError(f"unknown report format {fmt!r}")


_PRIMITIVES = (int, float, str, bool)


def _coerce(value, hint, path: str):
    origin = typing.get_origin(hint)
    if dataclasses.is_dataclass(hint):
        return build_dataclass(hint, value, path)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list")
        args = typing.get_args(hint)
        if args and args[-1] is not Ellipsis and len(args) == len(value):
            elems = [_coerce(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args))]
        else:
            elem_hint = args[0] if args else None
            elems = [
                _coerce(v, elem_hint, f"{path}[{i}]") if elem_hint else v
                for i, v in enumerate(value)
            ]
        return tuple(elems)
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected a boolean")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string")
        return value
    return value


def build_dataclass(cls, data, path: str = "$"):
    """Strictly build dataclass ``cls`` from a JSON-style dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            kwargs[f.name] = _coerce(data[f.name], hints[f.name], f"{path}.{f.name}")
    return cls(**kwargs)


def to_plain(obj):
    """Dataclass -> JSON-ready structure (tuples become lists)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(to_plain(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def load_cli_config(data: dict, preset: str | None = None, seed: int | None = None) -> CliConfig:
    cfg = build_dataclass(CliConfig, data)
    if preset is not None:
        cfg = apply_preset(cfg, preset)
    if seed is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=int(seed)))
    cfg.validate()
    return cfg


PAPER_SCHEDULE = {
    "stage1": Stage1Config(warmup_iters=1300, iters=5000, lr=0.001, lr_drop_iter=4500, lr_drop_factor=10.0),
    "stage2": Stage2Config(iters=100_000, lr=0.001, lr_drop_iter=40_000, lr_drop_factor=10.0, enhance_prob=0.5),
    "batch_size": 4,
}


def apply_preset(cfg: CliConfig, preset: str) -> CliConfig:
    if preset == "desk":
        return cfg
    if preset == "paper_schedule":
        train = dataclasses.replace(cfg.train, **PAPER_SCHEDULE)
        return dataclasses.replace(cfg, train=train)
    raise ConfigError(f"unknown preset {preset!r}")
