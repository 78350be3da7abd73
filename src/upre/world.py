"""Synthetic domain-shifted detection worlds.

A world owns a set of category prototypes (unit vectors in feature
space, pairwise cosine below 0.9) and one affine style field per domain.
Scenes are rendered domain-agnostically -- background noise plus
prototype blobs inside sampled boxes -- and then restyled through the
domain's per-patch affine field, so two domains rendered from the same
rng state share geometry and differ only in style.

Style fields are anchored to language: a domain's mean-shift field is the
least-squares feature-space preimage of that domain's text embedding,
scaled to ``style_strength``.  This bakes in the property the framework
presumes of a vision-language embedding space: scenes from a domain have
image embeddings displaced toward the embedding of the domain's textual
description.  The source domain keeps the identity field.

Also here: the proposal sampler (jittered ground-truth boxes plus random
boxes, labeled by IoU), ROI feature extraction for one box or a stack of
boxes, and AP50/mAP/MAD metrics with all-points precision-recall
interpolation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import EncoderConfig, EncoderStub, default_vocab_sources
from .enhancement import apply_style_field
from .errors import ConfigError, InputError
from .rng import Rng, derive_seed
from .templates import TemplateBank

DEFAULT_CATEGORIES = ("bus", "bike", "car", "motor", "person", "rider", "truck")
WEATHER_DOMAINS = ("daytime_clear", "daytime_foggy", "night_clear", "night_rainy", "dusk_rainy")
PROTOTYPE_COS_CEILING = 0.9


@dataclass(frozen=True)
class WorldConfig:
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    domains: tuple[str, ...] = WEATHER_DOMAINS
    source_domain: str = "daytime_clear"
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    height: int = 28
    width: int = 28
    grid: tuple[int, int] = (7, 7)
    style_strength: float = 2.0
    sigma_amplitude: float = 0.10
    style_patch_noise: float = 0.05
    bg_noise: float = 0.30
    object_noise: float = 0.10
    signal_gain: float = 1.0
    min_objects: int = 1
    max_objects: int = 5
    box_min: int = 8
    box_max: int = 16
    iou_pos_threshold: float = 0.5
    proposal_jitter: float = 0.18

    def validate(self) -> None:
        if len(self.categories) < 2:
            raise ConfigError("world needs at least 2 categories")
        if len(self.domains) < 2:
            raise ConfigError("world needs at least 2 domains")
        if self.source_domain not in self.domains:
            raise ConfigError(f"source domain {self.source_domain!r} not in domains")
        if self.min_objects < 1 or self.max_objects < self.min_objects:
            raise ConfigError("object count range invalid")
        if self.box_min < 2 or self.box_max > min(self.height, self.width):
            raise ConfigError("box size range invalid")


@dataclass
class SceneObject:
    box: tuple[float, float, float, float]
    category: str


@dataclass
class Scene:
    features: Tensor
    objects: list[SceneObject]
    domain: str


@dataclass
class Proposal:
    box: tuple[float, float, float, float]
    max_iou: float
    polarity: str  # "positive" | "negative"
    matched_category: str | None
    matched_box: tuple[float, float, float, float] | None = None


@dataclass
class DomainWorld:
    config: WorldConfig
    seed: int
    prototypes: np.ndarray  # (K, C) unit rows
    domain_styles: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (sigma, mu)

    @property
    def categories(self) -> tuple[str, ...]:
        return self.config.categories

    @property
    def domains(self) -> tuple[str, ...]:
        return self.config.domains

    def target_domains(self) -> tuple[str, ...]:
        return tuple(d for d in self.domains if d != self.config.source_domain)

    def world_hash(self) -> str:
        h = hashlib.sha256()
        h.update(self.prototypes.tobytes())
        for name in self.domains:
            sigma, mu = self.domain_styles[name]
            h.update(sigma.tobytes())
            h.update(mu.tobytes())
        return h.hexdigest()


def build_stub(config: WorldConfig) -> EncoderStub:
    """Encoder stub with a vocabulary covering this world's names."""
    return EncoderStub(config.encoder, default_vocab_sources(config.categories, config.domains))


def _repelled_prototypes(k: int, dim: int, rng: Rng) -> np.ndarray:
    protos = rng.normal((k, dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    for _ in range(1000):
        gram = protos @ protos.T
        np.fill_diagonal(gram, 0.0)
        worst = float(gram.max())
        if worst < PROTOTYPE_COS_CEILING:
            return protos
        i, j = np.unravel_index(int(np.argmax(gram)), gram.shape)
        protos[j] = protos[j] - (worst - PROTOTYPE_COS_CEILING + 0.05) * protos[i]
        norm = np.linalg.norm(protos[j])
        if norm < 1e-9:
            protos[j] = rng.normal(dim)
            norm = np.linalg.norm(protos[j])
        protos[j] /= norm
    raise ConfigError(
        f"could not separate {k} prototypes below cosine {PROTOTYPE_COS_CEILING} in {dim} dims"
    )


def generate_world(config: WorldConfig, seed: int) -> DomainWorld:
    """Deterministic world from (config, seed)."""
    config.validate()
    stub = build_stub(config)
    rng = Rng(derive_seed(seed, "world"))
    protos = _repelled_prototypes(len(config.categories), config.encoder.channels, rng)

    bank = TemplateBank.default()
    text_anchor = {
        d: stub.encode_text(bank.fill(0, d.replace("_", " "))).values for d in config.domains
    }
    ch = config.encoder.channels
    m, n = config.grid
    styles: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for d in config.domains:
        srng = rng.split("style", d)
        if d == config.source_domain:
            styles[d] = (np.ones((ch, m, n)), np.zeros((ch, m, n)))
            continue
        shift, *_ = np.linalg.lstsq(stub.image_projection, text_anchor[d], rcond=None)
        norm = np.linalg.norm(shift)
        if norm > 1e-12:
            shift = shift / norm * config.style_strength
        sigma = 1.0 + config.sigma_amplitude * srng.normal((ch, m, n))
        mu = shift[:, None, None] + config.style_patch_noise * srng.normal((ch, m, n))
        styles[d] = (sigma, mu)
    return DomainWorld(config, seed, protos, styles)


def sample_scene(world: DomainWorld, domain: str, rng: Rng) -> Scene:
    """Background noise + prototype blobs, then the domain's style field."""
    cfg = world.config
    if domain not in cfg.domains:
        raise InputError(f"unknown domain {domain!r}")
    ch, h, w = cfg.encoder.channels, cfg.height, cfg.width
    feats = cfg.bg_noise * rng.normal((ch, h, w))
    n_obj = int(rng.integers(cfg.min_objects, cfg.max_objects + 1)[0])
    objects: list[SceneObject] = []
    for _ in range(n_obj):
        bw = int(rng.integers(cfg.box_min, cfg.box_max + 1)[0])
        bh = int(rng.integers(cfg.box_min, cfg.box_max + 1)[0])
        x1 = int(rng.integers(0, w - bw + 1)[0])
        y1 = int(rng.integers(0, h - bh + 1)[0])
        ci = rng.choice(len(cfg.categories))
        blob = cfg.signal_gain * world.prototypes[ci][:, None, None] + cfg.object_noise * rng.normal(
            (ch, bh, bw)
        )
        feats[:, y1 : y1 + bh, x1 : x1 + bw] += blob
        objects.append(SceneObject((float(x1), float(y1), float(x1 + bw), float(y1 + bh)), cfg.categories[ci]))
    sigma, mu = world.domain_styles[domain]
    feats = apply_style_field(feats, sigma, mu)
    return Scene(ad.constant(feats), objects, domain)


def iou(box_a, box_b) -> float:
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    if ax2 <= ax1 or ay2 <= ay1 or bx2 <= bx1 or by2 <= by1:
        raise InputError("degenerate box")
    ix = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    iy = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = ix * iy
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def _clip_box(x1, y1, x2, y2, w, h, min_side=2.0):
    # builtin clamps, since lo <= hi in each: np.clip is slow on Python scalars
    w, h = float(w), float(h)
    x1 = min(max(float(x1), 0.0), w - min_side)
    y1 = min(max(float(y1), 0.0), h - min_side)
    x2 = min(max(float(x2), x1 + min_side), w)
    y2 = min(max(float(y2), y1 + min_side), h)
    return x1, y1, x2, y2


def _label_proposal(box, objects, threshold) -> Proposal:
    best_iou, best_obj = 0.0, None
    for obj in objects:
        v = iou(box, obj.box)
        if v > best_iou:
            best_iou, best_obj = v, obj
    if best_iou >= threshold and best_obj is not None:
        return Proposal(box, best_iou, "positive", best_obj.category, best_obj.box)
    return Proposal(box, best_iou, "negative", None, None)


def propose(scene: Scene, rng: Rng, count: int, iou_pos_threshold: float = 0.5, jitter: float = 0.18) -> list[Proposal]:
    """Jittered ground-truth boxes interleaved with uniform random boxes."""
    if count < 1:
        raise InputError("propose: count must be at least 1")
    _, h, w = scene.features.shape
    proposals: list[Proposal] = []
    n_obj = len(scene.objects)
    for i in range(count):
        if i % 2 == 0 and n_obj:
            obj = scene.objects[(i // 2) % n_obj]
            x1, y1, x2, y2 = obj.box
            bw, bh = x2 - x1, y2 - y1
            noise = rng.normal(4)
            box = _clip_box(
                x1 + noise[0] * jitter * bw,
                y1 + noise[1] * jitter * bh,
                x2 + noise[2] * jitter * bw,
                y2 + noise[3] * jitter * bh,
                w,
                h,
            )
        else:
            u = rng.uniform(4)
            bw = 3.0 + u[0] * (w / 2 - 3.0)
            bh = 3.0 + u[1] * (h / 2 - 3.0)
            x1 = u[2] * (w - bw)
            y1 = u[3] * (h - bh)
            box = _clip_box(x1, y1, x1 + bw, y1 + bh, w, h)
        proposals.append(_label_proposal(box, scene.objects, iou_pos_threshold))
    return proposals


# one sample per bin at the bin center, in bins from the box edge
_ROI_BIN_CENTERS = np.arange(14) + 0.5


def _box_rows(box) -> tuple[np.ndarray, bool]:
    """Boxes as an (N, 4) float array, and whether ``box`` was a single box."""
    if hasattr(box, "box"):
        box = box.box
    arr = np.asarray([getattr(b, "box", b) for b in box], dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None]
    if arr.ndim != 2 or arr.shape[1] != 4 or arr.shape[0] == 0:
        raise InputError(f"roi_features: expected a box or a non-empty list of boxes, got shape {arr.shape}")
    return arr, single


def roi_features(features: Tensor | Scene, box) -> Tensor:
    """Bilinear resample of boxed regions to (C, 14, 14) blocks.

    ``box`` is one box (a 4-tuple or anything with a ``.box``), giving one
    (C, 14, 14) block, or a sequence or (N, 4) array of them, giving an
    (N, C, 14, 14) stack.  A single box runs as a stack of one.
    """
    if isinstance(features, Scene):
        features = features.features
    boxes, single = _box_rows(box)
    _, h, w = features.shape
    x1, y1, x2, y2 = boxes.T
    degenerate = (x2 <= x1) | (y2 <= y1)
    if degenerate.any():
        raise InputError(f"degenerate box {tuple(boxes[degenerate.argmax()])}")
    outside = (x1 < 0) | (y1 < 0) | (x2 > w) | (y2 > h)
    if outside.any():
        raise InputError(f"box {tuple(boxes[outside.argmax()])} outside feature extent ({w}x{h})")
    sy = y1[:, None] + _ROI_BIN_CENTERS * (y2 - y1)[:, None] / 14.0 - 0.5
    sx = x1[:, None] + _ROI_BIN_CENTERS * (x2 - x1)[:, None] / 14.0 - 0.5
    return ad.bilinear_resample(features, sy[0] if single else sy, sx[0] if single else sx)


@dataclass
class Prediction:
    scene_id: int
    category: str
    score: float
    box: tuple[float, float, float, float]


@dataclass
class GroundTruth:
    scene_id: int
    category: str
    box: tuple[float, float, float, float]


def evaluate_ap50(predictions: list[Prediction], ground_truth: list[GroundTruth], iou_thresh: float = 0.5) -> tuple[dict[str, float], float]:
    """Per-category AP at the given IoU plus the mean over categories present in GT.

    Greedy matching in descending score order (ties keep input order); each
    ground-truth box can match at most one prediction; all-points
    interpolation of the precision envelope.
    """
    for p in predictions:
        if not math.isfinite(p.score):
            raise InputError("prediction scores must be finite")
    cats = sorted({g.category for g in ground_truth})
    per_cat: dict[str, float] = {}
    for cat in cats:
        gts = [g for g in ground_truth if g.category == cat]
        preds = sorted(
            (p for p in predictions if p.category == cat),
            key=lambda p: -p.score,
        )
        n_gt = len(gts)
        if not preds:
            per_cat[cat] = 0.0
            continue
        # candidates per scene, in input order, so ties still go to the first GT
        by_scene: dict[int, list[tuple[int, GroundTruth]]] = {}
        for gi, g in enumerate(gts):
            by_scene.setdefault(g.scene_id, []).append((gi, g))
        matched: set[int] = set()
        tp = np.zeros(len(preds))
        for pi, pred in enumerate(preds):
            best_iou, best_gi = 0.0, -1
            for gi, g in by_scene.get(pred.scene_id, ()):
                v = iou(pred.box, g.box)
                if v > best_iou:
                    best_iou, best_gi = v, gi
            if best_iou >= iou_thresh and best_gi not in matched:
                matched.add(best_gi)
                tp[pi] = 1.0
        cum_tp = np.cumsum(tp)
        ranks = np.arange(1, len(preds) + 1)
        precision = cum_tp / ranks
        recall = cum_tp / n_gt
        # precision envelope, integrated over recall
        env = precision.copy()
        for i in range(len(env) - 2, -1, -1):
            env[i] = max(env[i], env[i + 1])
        ap = 0.0
        prev_r = 0.0
        for r, p_val in zip(recall, env):
            if r > prev_r:
                ap += (r - prev_r) * p_val
                prev_r = r
        per_cat[cat] = float(ap)
    mean_ap = float(np.mean(list(per_cat.values()))) if per_cat else 0.0
    return per_cat, mean_ap


def mad(values) -> float:
    """Mean absolute deviation from the mean."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise InputError("mad: empty input")
    return float(np.abs(arr - arr.mean()).mean())


def save_world(world: DomainWorld, path) -> None:
    """Versioned binary blob plus a JSON descriptor next to it."""
    import json
    from pathlib import Path

    from .checkpoint import save_blob
    from .config import to_plain

    arrays = {"prototypes": world.prototypes}
    for d in world.domains:
        sigma, mu = world.domain_styles[d]
        arrays[f"style_sigma/{d}"] = sigma
        arrays[f"style_mu/{d}"] = mu
    descriptor = {
        "kind": "domain_world",
        "seed": world.seed,
        "config": to_plain(world.config),
        "world_hash": world.world_hash(),
    }
    save_blob(path, descriptor, arrays)
    Path(path).with_suffix(".json").write_text(
        json.dumps(descriptor, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_world(path) -> DomainWorld:
    from .checkpoint import load_blob
    from .config import build_dataclass
    from .errors import VersionError

    meta, arrays = load_blob(path)
    if meta.get("kind") != "domain_world":
        raise VersionError(f"{path}: not a world blob")
    config = build_dataclass(WorldConfig, meta["config"])
    styles = {
        d: (arrays[f"style_sigma/{d}"], arrays[f"style_mu/{d}"]) for d in config.domains
    }
    world = DomainWorld(config, meta["seed"], arrays["prototypes"], styles)
    if world.world_hash() != meta.get("world_hash"):
        raise VersionError(f"{path}: world content does not match its recorded hash")
    return world
