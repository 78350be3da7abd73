"""Per-draw reference for scene synthesis and proposal sampling.

Each scalar of a scene is its own one-value ``Rng.integers`` draw, each
normal block its own ``Rng.normal`` call, each proposal its own 4-value
draw, and each proposal is labelled against the objects one ``iou`` at a
time.  Tests compare the per-scene block draws of ``upre.world`` against
it, values and ``Rng`` counters alike.
"""

from __future__ import annotations

from upre import autodiff as ad
from upre.enhancement import apply_style_field
from upre.errors import InputError
from upre.rng import Rng
from upre.world import DomainWorld, Proposal, Scene, SceneObject, iou


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
