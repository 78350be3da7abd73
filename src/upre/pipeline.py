"""Two-stage training schedule, detector head, zero-shot evaluation, ablations.

Stage 1 learns prompt contexts and the enhancement field together on
source scenes: image-level terms align enhanced image embeddings with
the target-domain prompt embedding, instance-level terms train positive
proposals against per-category prompts and negative proposals against
the background prompt.  The schedule is either joint or alternating
(parameter groups swap every ``run_steps`` iterations).

Stage 2 freezes everything from stage 1 plus the text encoder and trains
only the detector head: a box-delta regression matrix and a trainable
copy of the ROI projection.  Source features pass through the learned
enhancement with probability ``enhance_prob`` per scene.

Evaluation samples unseen scenes from a chosen domain, never invokes the
enhancement (checked through its invocation counter), classifies
proposals against that domain's prompt table, and scores AP50/mAP.

Stage 2 and evaluation batch the detector head per scene: ROI extraction,
projection and the prompt softmax each run once on the stack of the
scene's proposals, one row per proposal.  Batches stop at the scene, so
memory does not grow with the number of eval scenes.  Stage 1 batches ROI
extraction and projection per scene the same way, then splits the rows
by polarity and runs the positive-negative separation heads once per
polarity over the whole step.

Ablation runs go one at a time, in (row, seed) order.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import SgdMomentum, Tensor
from .config import CliConfig, TrainConfig, config_hash
from .encoders import EncoderStub
from .enhancement import EnhanceParams, enhance, init_enhance_params, maybe_enhance
from .errors import ConfigError, InputError, StateError
from .losses import (
    RDD_LOSSES,
    PnsBatch,
    PromptTable,
    RddBatch,
    detect_prob,
    instance_objective,
)
from .prompts import (
    PromptAssembly,
    PromptParams,
    assemble_image_prompt,
    assemble_negative_prompt,
    assemble_positive_prompt,
    encode_prompt,
    init_prompt_params,
)
from .rng import Rng, derive_seed
from .world import (
    DomainWorld,
    GroundTruth,
    Prediction,
    build_stub,
    evaluate_ap50,
    mad,
    propose,
    roi_features,
    sample_scene,
)

REPORT_SCHEMA_VERSION = 1


@dataclass
class RunReport:
    kind: str
    config_hash: str
    seed: int
    loss_history: dict[str, list[float]] = field(default_factory=dict)
    val_history: dict[str, list[float]] = field(default_factory=dict)
    mad_of_validation_loss: float | None = None
    metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    frozen_hashes: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    def to_json_dict(self, include_wall_clock: bool = True) -> dict:
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "loss_history": self.loss_history,
            "val_history": self.val_history,
            "mad_of_validation_loss": self.mad_of_validation_loss,
            "metrics": self.metrics,
            "counters": self.counters,
            "frozen_hashes": self.frozen_hashes,
        }
        if include_wall_clock:
            out["wall_clock_seconds"] = self.wall_clock_seconds
        return out


@dataclass
class DetectorHead:
    """Box-delta regression plus the finetunable ROI projection copy."""

    w_reg: Tensor
    roi_projection: Tensor

    def params(self) -> list[Tensor]:
        return [self.w_reg, self.roi_projection]


@dataclass
class PromptSet:
    """Prebuilt assemblies for one domain pairing."""

    image_source: PromptAssembly
    image_target: PromptAssembly
    positives: dict[str, PromptAssembly]
    negative: PromptAssembly


def _effective_prompt_mode(cfg: TrainConfig) -> str:
    return cfg.prompt_mode if cfg.toggles.prompt_on else "static_complete"


def build_prompt_set(params: PromptParams, stub: EncoderStub, world: DomainWorld, target_domain: str) -> PromptSet:
    cats = world.categories
    return PromptSet(
        image_source=assemble_image_prompt(params, stub, world.config.source_domain),
        image_target=assemble_image_prompt(params, stub, target_domain),
        positives={c: assemble_positive_prompt(params, stub, target_domain, c, cats) for c in cats},
        negative=assemble_negative_prompt(params, stub, target_domain),
    )


def prompt_table(pset: PromptSet, stub: EncoderStub, categories, frozen: bool = False) -> PromptTable:
    """Encode each category's positive prompt, then the background prompt."""
    embeddings = [encode_prompt(stub, pset.positives[c]) for c in categories]
    background = encode_prompt(stub, pset.negative)
    if frozen:
        embeddings = [e.detach() for e in embeddings]
        background = background.detach()
    return PromptTable(tuple(categories), embeddings, background)


def build_prompt_table(params: PromptParams, stub: EncoderStub, world: DomainWorld, domain: str, frozen: bool = False) -> PromptTable:
    """Per-category positive prompt embeddings plus the background prompt embedding."""
    return prompt_table(build_prompt_set(params, stub, world, domain), stub, world.categories, frozen)


def _lr_at(stage, it: int) -> float:
    lr = stage.lr
    warmup = getattr(stage, "warmup_iters", 0)
    if warmup and it < warmup:
        return lr * (it + 1) / warmup
    if it >= stage.lr_drop_iter > 0:
        return lr / stage.lr_drop_factor
    return lr


def _scene_rng(cfg_seed: int, tag: str, *keys) -> Rng:
    return Rng(derive_seed(cfg_seed, tag, *keys))


def _stage1_terms(
    cfg: TrainConfig,
    world: DomainWorld,
    stub: EncoderStub,
    pparams: PromptParams,
    eparams: EnhanceParams,
    pset: PromptSet,
    scenes,
    prop_rngs,
    counters: dict,
) -> dict[str, Tensor]:
    terms: dict[str, Tensor] = {}
    tg = cfg.toggles
    enhanced = [enhance(s.features, eparams) if tg.enhance_on else s.features for s in scenes]
    if tg.img_level_on:
        e_s = [stub.image_encode(s.features) for s in scenes]
        e_st = [stub.image_encode(f) for f in enhanced]
        t_s = encode_prompt(stub, pset.image_source)
        t_t = encode_prompt(stub, pset.image_target)
        batch = RddBatch(e_s, e_st, t_s, t_t)
        for term in cfg.rdd_mask:
            terms[term] = RDD_LOSSES[term](batch)
    if tg.ins_level_on:
        table = prompt_table(pset, stub, world.categories)
        # one ROI and projection pass per scene; rows split by polarity and
        # concatenated over scenes in scene and proposal order
        pos_parts, pos_y, neg_parts = [], [], []
        for scene, feats, rng in zip(scenes, enhanced, prop_rngs):
            props = propose(
                scene, rng, cfg.pns_proposals, world.config.iou_pos_threshold, world.config.proposal_jitter
            )
            emb = stub.roi_project(roi_features(feats, props))
            pos_rows = [i for i, p in enumerate(props) if p.polarity == "positive"]
            neg_rows = [i for i, p in enumerate(props) if p.polarity != "positive"]
            pos_parts.append(ad.gather_rows(emb, pos_rows))
            pos_y += [props[i].matched_category for i in pos_rows]
            neg_parts.append(ad.gather_rows(emb, neg_rows))
        batch = PnsBatch(ad.concat_rows(pos_parts), pos_y, ad.concat_rows(neg_parts), table)
        counters["pns_batches"] = counters.get("pns_batches", 0) + 1
        obj = instance_objective(batch, cfg.pns_variant, cfg.bg_variant, cfg.softmax_temperature)
        if obj is not None:
            terms["instance"] = obj
    return terms


def _weighted_total(cfg: TrainConfig, terms: dict[str, Tensor]) -> Tensor:
    weights = cfg.rdd_weights()
    total: Tensor | None = None
    for name, term in terms.items():
        part = ad.scale(term, float(weights.get(name, 1.0)))
        total = part if total is None else ad.add(total, part)
    if total is None:
        raise StateError("no active loss terms")
    return total


def stage1_train(
    cfg: TrainConfig,
    world: DomainWorld,
    stub: EncoderStub | None = None,
) -> tuple[PromptParams, EnhanceParams, RunReport]:
    """Prompt and enhancement learning on source scenes."""
    tg = cfg.toggles
    if not tg.any_on():
        raise ConfigError("stage 1 needs at least one toggle enabled")
    if not (tg.img_level_on or tg.ins_level_on):
        raise ConfigError("stage 1 needs an image-level or instance-level objective")
    if tg.img_level_on and not cfg.rdd_mask:
        raise ConfigError("img_level_on requires a non-empty rdd_mask")
    if cfg.target_domain not in world.domains:
        raise ConfigError(f"target_domain {cfg.target_domain!r} unknown to the world")
    cfg.validate()

    t0 = time.perf_counter()
    stub = stub or build_stub(world.config)
    pparams = init_prompt_params(
        cfg.context_length, stub.config.d_tok, derive_seed(cfg.seed, "prompt_init"), _effective_prompt_mode(cfg)
    )
    eparams = init_enhance_params(stub.channels, cfg.enhance_grid, cfg.enhance_mode)
    pset = build_prompt_set(pparams, stub, world, cfg.target_domain)

    prompt_group = pparams.unique_tensors() if (tg.prompt_on and pparams.learnable) else []
    enhance_group = eparams.trainable() if tg.enhance_on else []
    opt_prompt = SgdMomentum(prompt_group, cfg.stage1.lr, cfg.optimizer.momentum, cfg.optimizer.weight_decay)
    opt_enhance = SgdMomentum(enhance_group, cfg.stage1.lr, cfg.optimizer.momentum, cfg.optimizer.weight_decay)
    all_params = prompt_group + enhance_group

    val_scenes = [
        sample_scene(world, world.config.source_domain, _scene_rng(world.seed, "validation_scene", i))
        for i in range(cfg.val_scenes)
    ]
    counters: dict = {"pns_batches": 0}
    history: dict[str, list[float]] = {}
    val_history: dict[str, list[float]] = {}

    def record(store: dict, name: str, value: float) -> None:
        store.setdefault(name, []).append(value)

    for it in range(cfg.stage1.iters):
        lr_t = _lr_at(cfg.stage1, it)
        opt_prompt.set_lr(lr_t)
        opt_enhance.set_lr(lr_t)
        scenes = [
            sample_scene(world, world.config.source_domain, _scene_rng(cfg.seed, "s1_scene", it, k))
            for k in range(cfg.batch_size)
        ]
        prop_rngs = [_scene_rng(cfg.seed, "s1_prop", it, k) for k in range(cfg.batch_size)]
        terms = _stage1_terms(cfg, world, stub, pparams, eparams, pset, scenes, prop_rngs, counters)
        if terms:
            total = _weighted_total(cfg, terms)
            total.backward()
            if cfg.schedule_mode == "joint":
                opt_prompt.step()
                opt_enhance.step()
            else:
                # alternating: enhancement group first, swap every run_steps
                phase = (it // cfg.run_steps) % 2
                (opt_enhance if phase == 0 else opt_prompt).step()
            for p in all_params:
                p.grad = None
            for name, term in terms.items():
                record(history, name, term.item())
            record(history, "total", total.item())
        if (it + 1) % cfg.val_interval == 0:
            vterms = _stage1_terms(
                cfg,
                world,
                stub,
                pparams,
                eparams,
                pset,
                val_scenes,
                [_scene_rng(world.seed, "validation_prop", i) for i in range(len(val_scenes))],
                {},
            )
            if vterms:
                for name, term in vterms.items():
                    record(val_history, name, term.item())
                record(val_history, "total", _weighted_total(cfg, vterms).item())

    report = RunReport(
        kind="stage1",
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        loss_history=history,
        val_history=val_history,
        mad_of_validation_loss=mad(val_history["total"]) if val_history.get("total") else None,
        counters=counters,
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return pparams, eparams, report


def box_deltas(prop_box, gt_box) -> np.ndarray:
    px1, py1, px2, py2 = prop_box
    gx1, gy1, gx2, gy2 = gt_box
    pw, ph = px2 - px1, py2 - py1
    return np.array(
        [
            ((gx1 + gx2) / 2 - (px1 + px2) / 2) / pw,
            ((gy1 + gy2) / 2 - (py1 + py2) / 2) / ph,
            math.log((gx2 - gx1) / pw),
            math.log((gy2 - gy1) / ph),
        ]
    )


def apply_deltas(prop_box, deltas, width: float, height: float):
    px1, py1, px2, py2 = prop_box
    pw, ph = px2 - px1, py2 - py1
    cx = (px1 + px2) / 2 + float(deltas[0]) * pw
    cy = (py1 + py2) / 2 + float(deltas[1]) * ph
    # clamp the log-scale terms so decoded boxes stay finite and in-extent;
    # builtin clamps, since every lower bound here is at most its upper bound
    w = pw * math.exp(min(max(float(deltas[2]), -2.0), 2.0))
    h = ph * math.exp(min(max(float(deltas[3]), -2.0), 2.0))
    x1 = float(min(max(cx - w / 2, 0.0), width - 1.0))
    y1 = float(min(max(cy - h / 2, 0.0), height - 1.0))
    x2 = float(min(max(cx + w / 2, x1 + 1.0), width))
    y2 = float(min(max(cy + h / 2, y1 + 1.0), height))
    return (x1, y1, x2, y2)


def _frozen_enhancer(eparams: EnhanceParams) -> EnhanceParams:
    return EnhanceParams(
        ad.constant(eparams.e_mu.values),
        ad.constant(eparams.e_sigma.values),
        eparams.grid,
        eparams.mode,
    )


def stage2_finetune(
    cfg: TrainConfig,
    pparams: PromptParams,
    eparams: EnhanceParams,
    world: DomainWorld,
    stub: EncoderStub | None = None,
) -> tuple[DetectorHead, RunReport]:
    """Detector fine-tuning with frozen prompts, enhancement, and text encoder."""
    if pparams is None or eparams is None:
        raise StateError("stage 2 requires stage-1 parameters")
    cfg.validate()
    t0 = time.perf_counter()
    stub = stub or build_stub(world.config)
    hashes_before = {
        "prompt": pparams.params_hash(),
        "enhance": eparams.params_hash(),
        "encoder_stub": stub.params_hash(),
    }
    table = build_prompt_table(pparams, stub, world, cfg.target_domain, frozen=True)
    frozen_enh = _frozen_enhancer(eparams)

    head = DetectorHead(
        w_reg=ad.parameter(Rng(derive_seed(cfg.seed, "reg_head")).normal((4, stub.d_emb)) * 0.3),
        roi_projection=ad.parameter(stub.roi_projection.copy()),
    )
    opt = SgdMomentum(head.params(), cfg.stage2.lr, cfg.optimizer.momentum, cfg.optimizer.weight_decay)
    history: dict[str, list[float]] = {"classification": [], "regression": [], "total": []}
    enhance_draws = 0
    enhance_applied = 0

    for it in range(cfg.stage2.iters):
        opt.set_lr(_lr_at(cfg.stage2, it))
        enh_rng = _scene_rng(cfg.seed, "s2_enhance", it)
        probs_parts: list[Tensor] = []
        emb_parts: list[Tensor] = []
        labels: list[int] = []
        pos_rows: list[int] = []
        reg_targets: list[np.ndarray] = []
        for k in range(cfg.batch_size):
            scene = sample_scene(world, world.config.source_domain, _scene_rng(cfg.seed, "s2_scene", it, k))
            feats = scene.features
            if cfg.toggles.enhance_on:
                feats, applied = maybe_enhance(feats, frozen_enh, cfg.stage2.enhance_prob, enh_rng)
                enhance_draws += 1
                enhance_applied += int(applied)
            props = propose(
                scene,
                _scene_rng(cfg.seed, "s2_prop", it, k),
                cfg.stage2_proposals,
                world.config.iou_pos_threshold,
                world.config.proposal_jitter,
            )
            # one head pass over all of the scene's proposals
            emb = stub.roi_project(roi_features(feats, props), projection=head.roi_projection)
            emb_parts.append(emb)
            probs_parts.append(detect_prob(emb, table, cfg.softmax_temperature))
            for prop in props:
                if prop.polarity == "positive":
                    pos_rows.append(len(labels))
                    reg_targets.append(box_deltas(prop.box, prop.matched_box))
                    labels.append(table.index_of(prop.matched_category))
                else:
                    labels.append(table.background_index)
        # means over every proposal of the batch, and over every positive's four deltas
        cls = ad.tmean(ad.neg(ad.log(ad.pick_rows(ad.concat_rows(probs_parts), labels))))
        reg = None
        if pos_rows:
            pred = ad.linear_rows(ad.gather_rows(ad.concat_rows(emb_parts), pos_rows), head.w_reg)
            reg = ad.smooth_l1(pred, ad.constant(np.array(reg_targets)))
        total = cls if reg is None else ad.add(cls, ad.scale(reg, cfg.reg_weight))
        total.backward()
        opt.step()
        history["classification"].append(cls.item())
        history["regression"].append(reg.item() if reg is not None else 0.0)
        history["total"].append(total.item())

    hashes_after = {
        "prompt": pparams.params_hash(),
        "enhance": eparams.params_hash(),
        "encoder_stub": stub.params_hash(),
    }
    if hashes_after != hashes_before:
        raise StateError("freeze contract violated: stage-1 parameters changed during stage 2")
    report = RunReport(
        kind="stage2",
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        loss_history=history,
        counters={
            "enhance_draws": enhance_draws,
            "enhance_applied": enhance_applied,
            "enhance_frequency": (enhance_applied / enhance_draws) if enhance_draws else 0.0,
        },
        frozen_hashes={"before": hashes_before, "after": hashes_after},
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return head, report


def eval_detections(
    head: DetectorHead | None,
    table: PromptTable,
    world: DomainWorld,
    target_domain: str,
    cfg: TrainConfig,
    stub: EncoderStub,
) -> tuple[list[Prediction], list[GroundTruth]]:
    """Top-category detections and ground truth on the eval scenes of ``target_domain``.

    Each scene's proposals go through ROI extraction, projection and the
    head as one stack.  Forward only: the head's arrays enter as constants.
    """
    width, height = world.config.width, world.config.height
    projection = ad.constant(head.roi_projection.values) if head is not None else None
    predictions: list[Prediction] = []
    ground_truth: list[GroundTruth] = []
    for i in range(cfg.eval_scenes):
        scene = sample_scene(world, target_domain, _scene_rng(world.seed, "eval_scene", target_domain, i))
        props = propose(
            scene,
            _scene_rng(world.seed, "eval_prop", target_domain, i),
            cfg.eval_proposals,
            world.config.iou_pos_threshold,
            world.config.proposal_jitter,
        )
        emb = stub.roi_project(roi_features(scene.features, props), projection=projection)
        probs = detect_prob(emb, table, cfg.softmax_temperature).values
        fg = probs[:, :-1].argmax(axis=1)
        scores = probs[np.arange(len(props)), fg].tolist()
        boxes = [p.box for p in props]
        if head is not None:
            deltas = (emb.values @ head.w_reg.values.T).tolist()
            boxes = [apply_deltas(b, d, width, height) for b, d in zip(boxes, deltas)]
        predictions += [
            Prediction(i, world.categories[c], s, b) for c, s, b in zip(fg.tolist(), scores, boxes)
        ]
        ground_truth.extend(GroundTruth(i, o.category, o.box) for o in scene.objects)
    return predictions, ground_truth


def zero_shot_eval(
    head: DetectorHead | None,
    pparams: PromptParams,
    eparams: EnhanceParams,
    world: DomainWorld,
    target_domain: str,
    cfg: TrainConfig,
    stub: EncoderStub | None = None,
) -> RunReport:
    """Detection metrics on unseen scenes; enhancement must stay disabled."""
    if target_domain not in world.domains:
        raise InputError(f"unknown domain {target_domain!r}")
    t0 = time.perf_counter()
    stub = stub or build_stub(world.config)
    counter_before = eparams.apply_count
    table = build_prompt_table(pparams, stub, world, target_domain, frozen=True)
    predictions, ground_truth = eval_detections(head, table, world, target_domain, cfg, stub)
    per_cat, mean_ap = evaluate_ap50(predictions, ground_truth, 0.5)
    ure_invocations = eparams.apply_count - counter_before
    if ure_invocations != 0:
        raise StateError("enhancement was invoked during evaluation")
    report = RunReport(
        kind="eval",
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        metrics={
            "domain": target_domain,
            "per_category_ap": {c: per_cat.get(c, 0.0) for c in world.categories if c in per_cat},
            "map": mean_ap,
        },
        counters={"ure_invocations": ure_invocations},
        wall_clock_seconds=time.perf_counter() - t0,
    )
    return report


@dataclass
class FullRunResult:
    pparams: PromptParams
    eparams: EnhanceParams
    head: DetectorHead
    stage1_report: RunReport | None
    stage2_report: RunReport
    eval_reports: dict[str, RunReport]

    def map_for(self, domain: str) -> float:
        return self.eval_reports[domain].metrics["map"]


def run_full(cfg: TrainConfig, world: DomainWorld, stub: EncoderStub | None = None, eval_domains=None) -> FullRunResult:
    """Stage 1 (skipped when no stage-1 objective is enabled), stage 2, then eval."""
    stub = stub or build_stub(world.config)
    tg = cfg.toggles
    if tg.img_level_on or tg.ins_level_on:
        pparams, eparams, s1_report = stage1_train(cfg, world, stub)
    else:
        pparams = init_prompt_params(
            cfg.context_length, stub.config.d_tok, derive_seed(cfg.seed, "prompt_init"), _effective_prompt_mode(cfg)
        )
        eparams = init_enhance_params(stub.channels, cfg.enhance_grid, cfg.enhance_mode)
        s1_report = None
    head, s2_report = stage2_finetune(cfg, pparams, eparams, world, stub)
    domains = list(eval_domains) if eval_domains is not None else [cfg.target_domain]
    evals = {d: zero_shot_eval(head, pparams, eparams, world, d, cfg, stub) for d in domains}
    return FullRunResult(pparams, eparams, head, s1_report, s2_report, evals)


# ------------------------------------------------------------- ablations ---


@dataclass(frozen=True)
class AblationRow:
    row_id: str
    overrides: dict


@dataclass
class AblationSpec:
    base: CliConfig
    seeds: tuple[int, ...]
    rows: tuple[AblationRow, ...]
    eval_domains: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.rows:
            raise ConfigError("ablation spec has no rows")
        if not self.seeds:
            raise ConfigError("ablation spec has no seeds")


def _apply_overrides(train: TrainConfig, overrides: dict) -> TrainConfig:
    from .config import build_dataclass, to_plain

    data = to_plain(train)

    def merge(dst: dict, src: dict, path: str) -> None:
        for key, value in src.items():
            if isinstance(value, dict) and isinstance(dst.get(key), dict):
                merge(dst[key], value, f"{path}.{key}")
            else:
                dst[key] = value

    merge(data, overrides, "$")
    cfg = build_dataclass(TrainConfig, data)
    cfg.validate()
    return cfg


PRESET_ROWS: dict[str, tuple[AblationRow, ...]] = {
    "rdd": (
        AblationRow("rdd_a", {"rdd_mask": ["align"]}),
        AblationRow("rdd_as", {"rdd_mask": ["align", "semantic"]}),
        AblationRow("rdd_r", {"rdd_mask": ["relative"]}),
        AblationRow("rdd_asr", {"rdd_mask": ["align", "semantic", "relative"]}),
    ),
    "pns": (
        AblationRow("pns_ce", {"pns_variant": "ce"}),
        AblationRow("pns_bg_only", {"pns_variant": "bg_only"}),
        AblationRow("pns_c_only", {"pns_variant": "c_only"}),
        AblationRow("pns_bg_and_c", {"pns_variant": "bg_and_c"}),
    ),
    "schedule": (
        AblationRow("joint", {"schedule_mode": "joint"}),
        AblationRow("alternating_100", {"schedule_mode": "alternating", "run_steps": 100}),
        AblationRow("alternating_500", {"schedule_mode": "alternating", "run_steps": 500}),
        AblationRow("alternating_1000", {"schedule_mode": "alternating", "run_steps": 1000}),
    ),
    "prompt": (
        AblationRow("static_keyword", {"prompt_mode": "static_keyword"}),
        AblationRow("static_complete", {"prompt_mode": "static_complete"}),
        AblationRow("learnable_keyword", {"prompt_mode": "learnable_keyword"}),
        AblationRow("learnable_shared", {"prompt_mode": "learnable_shared"}),
        AblationRow("learnable_complete", {"prompt_mode": "learnable_complete"}),
    ),
    "enhance": (
        AblationRow("sigma_1x1", {"enhance_mode": "sigma_only", "enhance_grid": [1, 1]}),
        AblationRow("mu_sigma_1x1", {"enhance_mode": "mu_and_sigma", "enhance_grid": [1, 1]}),
        AblationRow("sigma_grid", {"enhance_mode": "sigma_only", "enhance_grid": [7, 7]}),
        AblationRow("mu_sigma_grid", {"enhance_mode": "mu_and_sigma", "enhance_grid": [7, 7]}),
    ),
    "neglabel": (
        AblationRow("detpro_binary", {"bg_variant": "detpro_binary"}),
        AblationRow("detpro_uniform_fg", {"bg_variant": "detpro_uniform_fg"}),
        AblationRow("uniform_full", {"bg_variant": "hinge_positive_diff"}),
    ),
    "modules": (
        AblationRow("full", {}),
        AblationRow(
            "no_prompt",
            {"toggles": {"prompt_on": False, "enhance_on": True, "img_level_on": True, "ins_level_on": True}},
        ),
        AblationRow(
            "no_enhance",
            {"toggles": {"prompt_on": True, "enhance_on": False, "img_level_on": True, "ins_level_on": True}},
        ),
        AblationRow(
            "no_img",
            {"toggles": {"prompt_on": True, "enhance_on": True, "img_level_on": False, "ins_level_on": True}},
        ),
        AblationRow(
            "no_ins",
            {"toggles": {"prompt_on": True, "enhance_on": True, "img_level_on": True, "ins_level_on": False}},
        ),
        AblationRow(
            "baseline",
            {"toggles": {"prompt_on": False, "enhance_on": False, "img_level_on": False, "ins_level_on": False}},
        ),
    ),
}


@dataclass
class AblationResult:
    row_id: str
    seed: int
    maps: dict[str, float]
    val_mad: float | None


def run_ablation(spec: AblationSpec) -> list[AblationResult]:
    """One run per (row, seed), in that order, one after another."""
    spec.validate()
    from .world import generate_world

    world = generate_world(spec.base.world, spec.base.world_seed)
    eval_domains = spec.eval_domains or (spec.base.train.target_domain,)
    results = []
    for row in spec.rows:
        for seed in spec.seeds:
            cfg = _apply_overrides(dataclasses.replace(spec.base.train, seed=seed), row.overrides)
            result = run_full(cfg, world, eval_domains=eval_domains)
            val_mad = result.stage1_report.mad_of_validation_loss if result.stage1_report else None
            results.append(AblationResult(row.row_id, seed, {d: result.map_for(d) for d in eval_domains}, val_mad))
    return results


def ablation_table(results: list[AblationResult], eval_domains) -> list[list[str]]:
    """CSV rows: one per (config, seed) plus per-config mean and MAD rows."""
    header = ["config_id", "seed"] + [f"map_{d}" for d in eval_domains] + ["mad"]
    rows = [header]

    def fmt(x) -> str:
        if x is None:
            return ""
        return format(float(x), ".9g")

    by_row: dict[str, list[AblationResult]] = {}
    for r in results:
        by_row.setdefault(r.row_id, []).append(r)
    for row_id, group in by_row.items():
        group = sorted(group, key=lambda r: r.seed)
        for r in group:
            rows.append([row_id, str(r.seed)] + [fmt(r.maps[d]) for d in eval_domains] + [fmt(r.val_mad)])
        for agg_name, agg in (("mean", np.mean), ("mad", lambda xs: mad(list(xs)))):
            cells = [row_id, agg_name]
            for d in eval_domains:
                cells.append(fmt(agg([r.maps[d] for r in group])))
            mads = [r.val_mad for r in group if r.val_mad is not None]
            cells.append(fmt(agg(mads)) if mads else "")
            rows.append(cells)
    return rows
