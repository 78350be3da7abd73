#!/usr/bin/env python3
"""Benchmark for the upre package: training, zero-shot eval sweep, ablation grid.

Usage, from the repository root:

    python3 bench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

Each workload does its set-up, then runs whole rounds until ``--seconds``
have passed, then checks its outputs outside the timed region.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every layer of ``src/upre`` is traced
and the metrics are per-layer self times and call counts, plus the
tracing overhead: every traced round also runs untraced on the same inputs.  See bench/README.md.

Round 0 of every workload is the reference round: world seed 0 and
training seed 0, whatever ``--seed`` is, and ``map50`` comes from it.
Later rounds draw their training seed and their eval scenes from
``--seed`` and the round index.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import dataclasses
import json
import os
import resource
import statistics
import sys
from pathlib import Path

from ap_brute import brute_ap50
from spans import Tracer, layer_totals
from yardstick import Yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"

REF_WORLD_SEED = 0
REF_TRAIN_SEED = 0
ABLATION_THREADS = "2"

END_TO_END = {
    "setup_s": "s",
    "stage1_iters_per_s": "iter/s",
    "stage2_iters_per_s": "iter/s",
    "eval_scenes_per_s": "scene/s",
    "ablation_runs_per_s": "run/s",
    "map50": "fraction",
    "peak_rss_mb": "MB",
}

# (module or class path, attribute, span name).  Each entry replaces the
# attribute where the program's callers look it up.
TRACE_POINTS = [
    ("autodiff.Tensor", "backward", "autodiff.backward"),
    ("autodiff.SgdMomentum", "step", "autodiff.sgd_step"),
    ("rng.Rng", "normal", "rng.normal"),
    ("pipeline", "sample_scene", "world.sample_scene"),
    ("pipeline", "propose", "world.propose"),
    ("pipeline", "roi_features", "world.roi_features"),
    ("pipeline", "evaluate_ap50", "world.evaluate_ap50"),
    ("encoders.EncoderStub", "roi_project", "encoders.roi_project"),
    ("encoders.EncoderStub", "image_encode", "encoders.image_encode"),
    ("encoders.EncoderStub", "text_encode", "encoders.text_encode"),
    ("pipeline", "detect_prob", "losses.head_prob"),
    ("losses", "detect_prob", "losses.head_prob"),
    ("losses", "positive_prob", "losses.head_prob"),
    ("losses", "negative_prob", "losses.head_prob"),
    ("losses.RDD_LOSSES", "align", "losses.rdd"),
    ("losses.RDD_LOSSES", "semantic", "losses.rdd"),
    ("losses.RDD_LOSSES", "relative", "losses.rdd"),
    ("pipeline", "instance_objective", "losses.instance_objective"),
    ("pipeline", "encode_prompt", "prompts.encode_prompt"),
    ("pipeline", "enhance", "enhancement.enhance"),
    ("enhancement", "enhance", "enhancement.enhance"),
    ("checkpoint", "save_blob", "checkpoint.save_blob"),
    ("checkpoint", "load_blob", "checkpoint.load_blob"),
]
# Always traced, in untimed runs too: few calls, and the stage rates come from them.
STAGE_POINTS = [
    ("pipeline", "stage1_train", "pipeline.stage1_train"),
    ("pipeline", "stage2_finetune", "pipeline.stage2_finetune"),
    ("pipeline", "zero_shot_eval", "pipeline.zero_shot_eval"),
    ("pipeline", "run_full", "pipeline.run_full"),
]

SELF_TIME_LAYERS = [
    "autodiff.backward",
    "autodiff.sgd_step",
    "rng.normal",
    "world.sample_scene",
    "world.propose",
    "world.roi_features",
    "world.evaluate_ap50",
    "encoders.roi_project",
    "encoders.image_encode",
    "encoders.text_encode",
    "losses.head_prob",
    "losses.rdd",
    "losses.instance_objective",
    "prompts.encode_prompt",
    "enhancement.enhance",
    "pipeline.stage1_train",
    "pipeline.stage2_finetune",
    "pipeline.zero_shot_eval",
    "checkpoint.load_blob",
]
CALL_LAYERS = [
    "autodiff.backward",
    "world.sample_scene",
    "world.roi_features",
    "encoders.roi_project",
    "encoders.image_encode",
    "losses.head_prob",
    "prompts.encode_prompt",
    "enhancement.enhance",
]
PER_LAYER = (
    {f"{name}_s": "s" for name in SELF_TIME_LAYERS}
    | {f"{name}_calls": "count" for name in CALL_LAYERS}
    | {
        "checkpoint.save_blob_s": "s",
        "checkpoint.bytes": "B",
        "pipeline.ablation_row_s": "s",
        "pipeline.ablation_overlap": "ratio",
        "trace.overhead_pct": "%",
    }
)


def _resolve(path: str):
    import importlib

    head, *rest = path.split(".")
    obj = importlib.import_module(f"upre.{head}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def install(tracer: Tracer, points) -> None:
    for owner, attr, name in points:
        tracer.patch(_resolve(owner), attr, name)


def _rate(spans, name: str, work: float, seconds) -> float:
    """``work`` per call of ``name``, over the summed ``seconds(start, end)`` of those calls."""
    durations = [seconds(s.start, s.end) for s in spans if s.name == name]
    return work * len(durations) / sum(durations)


def _rounds_only(spans):
    return [s for s in spans if s.run_id != "setup"]


def _round_seed(seed: int, workload: str, r: int):
    from upre.rng import derive_seed

    return None if r == 0 else derive_seed(seed, workload, r)


# ------------------------------------------------------------ workloads ---


def _desk_config(s1_iters: int, s2_iters: int, eval_scenes: int):
    from upre.config import Stage1Config, Stage2Config, TrainConfig

    return TrainConfig(
        stage1=Stage1Config(iters=s1_iters, lr_drop_iter=s1_iters * 9 // 10),
        stage2=Stage2Config(iters=s2_iters, lr_drop_iter=s2_iters * 4 // 5),
        seed=REF_TRAIN_SEED,
        eval_scenes=eval_scenes,
    )


def _frozen_arrays(pparams, eparams, stub) -> list[bytes]:
    arrays = [t.values for t in pparams.unique_tensors()]
    arrays += [eparams.e_mu.values, eparams.e_sigma.values]
    arrays += [
        stub.vocab.embedding_table,
        stub.text_projection,
        stub.text_mixing,
        stub.image_projection,
        stub.roi_projection,
    ]
    return [a.tobytes() for a in arrays]


def stage1_gradient_check(cfg, world, stub, pparams, eparams, seed: int) -> list[str]:
    """Central differences of the stage-1 objective on a few prompt-context entries."""
    from upre import pipeline
    from upre.rng import Rng, derive_seed
    from upre.world import sample_scene

    eps, tol = 1e-6, 1e-6
    pset = pipeline.build_prompt_set(pparams, stub, world, cfg.target_domain)
    src = world.config.source_domain
    scenes = [sample_scene(world, src, Rng(derive_seed(seed, "fd_scene", k))) for k in range(cfg.batch_size)]

    def objective():
        prop_rngs = [Rng(derive_seed(seed, "fd_prop", k)) for k in range(cfg.batch_size)]
        terms = pipeline._stage1_terms(cfg, world, stub, pparams, eparams, pset, scenes, prop_rngs, {})
        return pipeline._weighted_total(cfg, terms)

    trainable = pparams.unique_tensors() + eparams.trainable()
    for t in trainable:
        t.grad = None
    objective().backward()
    entries = [(pparams.u, (0, 0)), (pparams.u, (3, 17)), (pparams.v, (1, 5)), (pparams.w, (2, 30))]
    analytic = [t.grad[idx] for t, idx in entries]
    for t in trainable:
        t.grad = None
    failures = []
    for (t, idx), a in zip(entries, analytic):
        keep = t.values[idx]
        t.values[idx] = keep + eps
        f_plus = objective().item()
        t.values[idx] = keep - eps
        f_minus = objective().item()
        t.values[idx] = keep
        numeric = (f_plus - f_minus) / (2 * eps)
        rel = abs(a - numeric) / max(1.0, abs(a) + abs(numeric))
        if rel > tol:
            failures.append(f"stage-1 gradient at {idx}: backward {float(a)!r} vs central difference {numeric!r}")
    return failures


# Each workload: the constructor installs the workload's own hooks and does
# nothing heavy; ``setup`` builds the inputs; ``round(r)`` is the timed work
# and returns the round's output; ``check(outputs)`` runs after the timed
# region; ``metrics(outputs, spans, rounds, seconds)`` gives every end-to-end
# metric but set-up time and memory, from the stage spans and the rounds'
# (start, end) intervals, each measured by ``seconds(start, end)``.


class TrainDesk:
    """One full-toggle run_full per round at a shortened desk schedule."""

    name = "train_desk"
    ops_per_round = 1
    S1_ITERS, S2_ITERS, EVAL_SCENES = 40, 200, 48
    # set-up warms every stage with a short run_full, so set-up time is mostly
    # program work and the first timed round finds no lazy state to build
    WARM_ITERS = (10, 50, 16)

    def __init__(self, seed: int):
        from upre import pipeline

        self.seed = seed
        self.frozen_changed = 0
        inner = pipeline.stage2_finetune

        def stage2_with_freeze_check(cfg, pparams, eparams, world, stub=None):
            before = _frozen_arrays(pparams, eparams, stub)
            out = inner(cfg, pparams, eparams, world, stub)
            self.frozen_changed += before != _frozen_arrays(pparams, eparams, stub)
            return out

        pipeline.stage2_finetune = stage2_with_freeze_check

    def setup(self) -> None:
        from upre import pipeline
        from upre.world import WorldConfig, build_stub, generate_world

        self.world = generate_world(WorldConfig(), REF_WORLD_SEED)
        self.stub = build_stub(self.world.config)
        self.cfg = _desk_config(self.S1_ITERS, self.S2_ITERS, self.EVAL_SCENES)
        pipeline.run_full(_desk_config(*self.WARM_ITERS), self.world, self.stub)

    def round(self, r: int):
        from upre import pipeline

        cfg, world = self.cfg, self.world
        s = _round_seed(self.seed, self.name, r)
        if s is not None:
            cfg = dataclasses.replace(cfg, seed=s)
            world = dataclasses.replace(world, seed=s)
        return pipeline.run_full(cfg, world, self.stub)

    def map50(self, outputs) -> float:
        return outputs[0].map_for(self.cfg.target_domain)

    def check(self, outputs) -> list[str]:
        failures = []
        if self.frozen_changed:
            failures.append(f"stage 2 changed frozen arrays in {self.frozen_changed} runs")
        for r, res in enumerate(outputs):
            cls = res.stage2_report.loss_history["classification"]
            k = max(1, len(cls) // 10)
            if not sum(cls[-k:]) / k < sum(cls[:k]) / k:
                failures.append(f"round {r}: stage-2 classification loss did not fall")
        if not 0.0 < self.map50(outputs) <= 1.0:
            failures.append(f"map50 {self.map50(outputs)!r} outside (0, 1]")
        ref = outputs[0]
        return failures + stage1_gradient_check(self.cfg, self.world, self.stub, ref.pparams, ref.eparams, self.seed)

    def metrics(self, outputs, spans, rounds, seconds) -> dict[str, float]:
        spans = _rounds_only(spans)
        return {
            "stage1_iters_per_s": _rate(spans, "pipeline.stage1_train", self.S1_ITERS, seconds),
            "stage2_iters_per_s": _rate(spans, "pipeline.stage2_finetune", self.S2_ITERS, seconds),
            "eval_scenes_per_s": _rate(spans, "pipeline.zero_shot_eval", self.EVAL_SCENES, seconds),
            "ablation_runs_per_s": _rate(spans, "pipeline.run_full", 1, seconds),
            "map50": self.map50(outputs),
        }


class EvalSweep:
    """Zero-shot eval of a model trained in set-up, on all four target domains."""

    name = "eval_sweep"
    ops_per_round = 4
    EVAL_SCENES = 200
    CHECK_SCENES = 12
    # stage 1 longer than train_desk's: its one set-up span gives this
    # workload's stage-1 rate, and 40 iterations last about a second
    S1_ITERS, S2_ITERS = 120, 200

    def __init__(self, seed: int):
        self.seed = seed
        self.load_mismatch = 0

    def setup(self) -> None:
        from upre import checkpoint, pipeline
        from upre.prompts import params_to_arrays
        from upre.world import WorldConfig, build_stub, generate_world

        self.world = generate_world(WorldConfig(), REF_WORLD_SEED)
        self.stub = build_stub(self.world.config)
        train_cfg = _desk_config(self.S1_ITERS, self.S2_ITERS, TrainDesk.EVAL_SCENES)
        self.cfg = dataclasses.replace(train_cfg, eval_scenes=self.EVAL_SCENES)
        trained = pipeline.run_full(train_cfg, self.world, self.stub)
        pmeta, arrays = params_to_arrays(trained.pparams)
        arrays["enhance_mu"] = trained.eparams.e_mu.values
        arrays["enhance_sigma"] = trained.eparams.e_sigma.values
        arrays["head_w_reg"] = trained.head.w_reg.values
        arrays["head_roi_projection"] = trained.head.roi_projection.values
        self.saved = {k: v.tobytes() for k, v in arrays.items()}
        enh = {"grid": list(trained.eparams.grid), "mode": trained.eparams.mode}
        OUT.mkdir(exist_ok=True)
        self.blob = OUT / f"eval_sweep-model-{os.getpid()}.upre"
        checkpoint.save_blob(self.blob, {"kind": "model", "prompt": pmeta, "enhance": enh}, arrays)
        self.blob_bytes = self.blob.stat().st_size

    def _load(self):
        from upre import autodiff as ad
        from upre import checkpoint
        from upre.enhancement import init_enhance_params
        from upre.pipeline import DetectorHead
        from upre.prompts import params_from_arrays

        meta, arrays = checkpoint.load_blob(self.blob)
        self.load_mismatch += {k: v.tobytes() for k, v in arrays.items()} != self.saved
        pparams = params_from_arrays(meta["prompt"], arrays)
        mu = arrays["enhance_mu"]
        eparams = init_enhance_params(mu.shape[0], tuple(meta["enhance"]["grid"]), meta["enhance"]["mode"])
        eparams.e_mu.values[:] = mu
        eparams.e_sigma.values[:] = arrays["enhance_sigma"]
        head = DetectorHead(ad.parameter(arrays["head_w_reg"]), ad.parameter(arrays["head_roi_projection"]))
        return head, pparams, eparams

    def round(self, r: int):
        from upre import pipeline

        head, pparams, eparams = self._load()
        world = self.world
        s = _round_seed(self.seed, self.name, r)
        if s is not None:
            world = dataclasses.replace(world, seed=s)
        return [
            pipeline.zero_shot_eval(head, pparams, eparams, world, d, self.cfg, self.stub).metrics["map"]
            for d in world.target_domains()
        ]

    def map50(self, outputs) -> float:
        return sum(outputs[0]) / len(outputs[0])

    def _rebuilt_ap(self, world, domain: str) -> tuple[float, float, list[str]]:
        """Brute-force AP of detections rebuilt from the public forward functions,
        and the program's mAP, on the first scenes of ``domain``."""
        from upre import pipeline
        from upre.losses import detect_prob
        from upre.rng import Rng, derive_seed
        from upre.world import GroundTruth, Prediction, propose, roi_features, sample_scene

        head, pparams, eparams = self._load()
        cfg = dataclasses.replace(self.cfg, eval_scenes=self.CHECK_SCENES)
        program = pipeline.zero_shot_eval(head, pparams, eparams, world, domain, cfg, self.stub).metrics["map"]
        table = pipeline.build_prompt_table(pparams, self.stub, world, domain, frozen=True)
        wc = world.config
        dets, truths, failures = [], [], []
        for i in range(cfg.eval_scenes):
            scene = sample_scene(world, domain, Rng(derive_seed(world.seed, "eval_scene", domain, i)))
            prop_rng = Rng(derive_seed(world.seed, "eval_prop", domain, i))
            for prop in propose(scene, prop_rng, cfg.eval_proposals, wc.iou_pos_threshold, wc.proposal_jitter):
                e_p = self.stub.roi_project(roi_features(scene.features, prop.box), projection=head.roi_projection)
                probs = detect_prob(e_p, table, cfg.softmax_temperature).values
                if abs(probs.sum() - 1.0) > 1e-12:
                    failures.append(f"scene {i}: head probabilities sum to {probs.sum()!r}")
                fg = int(probs[:-1].argmax())
                box = pipeline.apply_deltas(prop.box, head.w_reg.values @ e_p.values, wc.width, wc.height)
                dets.append(Prediction(i, world.categories[fg], float(probs[fg]), box))
            truths += [GroundTruth(i, o.category, o.box) for o in scene.objects]
        return brute_ap50(dets, truths)[1], program, failures

    def check(self, outputs) -> list[str]:
        from upre.rng import derive_seed

        failures = []
        if self.load_mismatch:
            failures.append(f"{self.load_mismatch} blob loads differ from the saved arrays")
        if not 0.0 < self.map50(outputs) <= 1.0:
            failures.append(f"map50 {self.map50(outputs)!r} outside (0, 1]")
        world = dataclasses.replace(self.world, seed=derive_seed(self.seed, self.name, "check"))
        domains = world.target_domains()
        oracle, program, prob_failures = self._rebuilt_ap(world, domains[self.seed % len(domains)])
        if abs(oracle - program) > 1e-12:
            failures.append(f"brute-force AP {oracle!r} != zero_shot_eval mAP {program!r}")
        return failures + prob_failures

    def metrics(self, outputs, spans, rounds, seconds) -> dict[str, float]:
        scenes = self.EVAL_SCENES * self.ops_per_round
        return {
            "stage1_iters_per_s": _rate(spans, "pipeline.stage1_train", self.S1_ITERS, seconds),
            "stage2_iters_per_s": _rate(spans, "pipeline.stage2_finetune", self.S2_ITERS, seconds),
            "eval_scenes_per_s": scenes * len(rounds) / sum(seconds(a, b) for a, b in rounds),
            "ablation_runs_per_s": _rate(spans, "pipeline.run_full", 1, seconds),
            "map50": self.map50(outputs),
        }

    def close(self) -> None:
        self.blob.unlink(missing_ok=True)


class AblationGrid:
    """The ``modules`` preset rows through run_ablation on two threads."""

    name = "ablation_grid"
    S1_ITERS, S2_ITERS, EVAL_SCENES = 12, 36, 24

    def __init__(self, seed: int):
        from upre.pipeline import PRESET_ROWS

        self.seed = seed
        self.rows = PRESET_ROWS["modules"]
        self.ops_per_round = len(self.rows)

    def setup(self) -> None:
        from upre import pipeline
        from upre.config import CliConfig
        from upre.world import generate_world

        os.environ["UPRE_THREADS"] = ABLATION_THREADS
        train = _desk_config(self.S1_ITERS, self.S2_ITERS, self.EVAL_SCENES)
        self.base = CliConfig(train=train, world_seed=REF_WORLD_SEED)
        # warm-up: the full row once, serially, as in train_desk's set-up
        pipeline.run_full(train, generate_world(self.base.world, self.base.world_seed))

    def _train_seed(self, r: int) -> int:
        s = _round_seed(self.seed, self.name, r)
        return REF_TRAIN_SEED if s is None else s

    def round(self, r: int):
        from upre import pipeline

        spec = pipeline.AblationSpec(self.base, (self._train_seed(r),), self.rows)
        target = self.base.train.target_domain
        return {res.row_id: res.maps[target] for res in pipeline.run_ablation(spec)}

    def map50(self, outputs) -> float:
        return sum(outputs[0].values()) / len(outputs[0])

    def check(self, outputs) -> list[str]:
        from upre import pipeline
        from upre.config import Toggles
        from upre.world import generate_world

        failures = []
        for r, grid in enumerate(outputs):
            if sorted(grid) != sorted(row.row_id for row in self.rows):
                failures.append(f"round {r}: grid rows {sorted(grid)}")
            failures += [f"round {r}: row {k} mAP {v!r} outside [0, 1]" for k, v in grid.items() if not 0.0 <= v <= 1.0]
        r = len(outputs) - 1
        row = self.rows[self.seed % len(self.rows)]
        train = dataclasses.replace(self.base.train, seed=self._train_seed(r))
        if "toggles" in row.overrides:
            train = dataclasses.replace(train, toggles=Toggles(**row.overrides["toggles"]))
        world = generate_world(self.base.world, self.base.world_seed)
        serial = pipeline.run_full(train, world).map_for(train.target_domain)
        if serial != outputs[r][row.row_id]:
            failures.append(f"row {row.row_id} rerun serially: mAP {serial!r} != grid {outputs[r][row.row_id]!r}")
        return failures

    def metrics(self, outputs, spans, rounds, seconds) -> dict[str, float]:
        spans = _rounds_only(spans)
        return {
            "stage1_iters_per_s": _rate(spans, "pipeline.stage1_train", self.S1_ITERS, seconds),
            "stage2_iters_per_s": _rate(spans, "pipeline.stage2_finetune", self.S2_ITERS, seconds),
            "eval_scenes_per_s": _rate(spans, "pipeline.zero_shot_eval", self.EVAL_SCENES, seconds),
            "ablation_runs_per_s": self.ops_per_round * len(rounds) / sum(seconds(a, b) for a, b in rounds),
            "map50": self.map50(outputs),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, EvalSweep, AblationGrid)}


# ------------------------------------------------------------------ main ---


def _untraced_round(workload, tracer: Tracer, r: int, points) -> float:
    """Wall time of round ``r`` with only the stage spans an untraced run has."""
    tracer.unpatch_all()
    stage_only = Tracer()
    install(stage_only, STAGE_POINTS)
    t = time.perf_counter()
    workload.round(r)
    wall = time.perf_counter() - t
    stage_only.unpatch_all()
    install(tracer, points)
    return wall


def _timed_rounds(workload, tracer: Tracer, seconds: float, traced_points=None):
    """Whole rounds until ``seconds`` have passed: each round's output and (start, end).

    With ``traced_points`` installed on ``tracer``, every round also runs
    untraced, before or after the traced run in turn, and the third list
    holds those wall times; otherwise it stays empty.
    """
    outputs, rounds, untraced = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        r = len(rounds)
        tracer.run_id = f"round{r}"
        if traced_points and r % 2 == 0:
            untraced.append(_untraced_round(workload, tracer, r, traced_points))
        t = time.perf_counter()
        outputs.append(workload.round(r))
        rounds.append((t, time.perf_counter()))
        if traced_points and r % 2 == 1:
            untraced.append(_untraced_round(workload, tracer, r, traced_points))
    return outputs, rounds, untraced


def _layer_metrics(workload, spans, walls: list[float], overhead_pct: float) -> dict[str, float]:
    by_run: dict[str, list] = {}
    for s in spans:
        by_run.setdefault(s.run_id, []).append(s)
    rounds = [by_run.get(f"round{r}", []) for r in range(len(walls))]
    totals = [layer_totals(round_spans) for round_spans in rounds]
    out = {f"{name}_s": statistics.median(t.get(name, (0.0, 0))[0] for t in totals) for name in SELF_TIME_LAYERS}
    out |= {f"{name}_calls": totals[0].get(name, (0.0, 0))[1] for name in CALL_LAYERS}
    setup = layer_totals(by_run.get("setup", []))
    out["checkpoint.save_blob_s"] = setup.get("checkpoint.save_blob", (0.0, 0))[0]
    out["checkpoint.bytes"] = getattr(workload, "blob_bytes", 0)
    rows = [[s.end - s.start for s in round_spans if s.name == "pipeline.run_full"] for round_spans in rounds]
    out["pipeline.ablation_row_s"] = statistics.median([d for r in rows for d in r] or [0.0])
    out["pipeline.ablation_overlap"] = statistics.median(sum(r) / w for r, w in zip(rows, walls))
    out["trace.overhead_pct"] = overhead_pct
    return out


def _import_program() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "upre" / "__init__.py").is_file():
        raise SystemExit(f"bench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import upre

    if Path(upre.__file__).resolve().parent != src / "upre":
        raise SystemExit(f"bench: imported upre from {upre.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    workload = WORKLOADS[args.workload](args.seed)
    points = STAGE_POINTS + (TRACE_POINTS if args.trace else [])
    tracer = Tracer()
    install(tracer, points)
    yardstick = Yardstick()
    if not args.trace:
        yardstick.patch(_resolve("pipeline"), "sample_scene")
    try:
        workload.setup()
        setup_end = time.perf_counter()
        outputs, rounds, untraced = _timed_rounds(workload, tracer, args.seconds, points if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        yardstick.unpatch_all()
        tracer.unpatch_all()
        failures = workload.check(outputs)
    finally:
        yardstick.unpatch_all()
        tracer.unpatch_all()
        if hasattr(workload, "close"):
            workload.close()
    for f in failures:
        print(f"CHECK FAILED: {f}", file=sys.stderr)

    walls = [end - start for start, end in rounds]
    if args.trace:
        overhead_pct = 100.0 * (statistics.median(w / u for w, u in zip(walls, untraced)) - 1.0)
        metrics, units = _layer_metrics(workload, tracer.spans, walls, overhead_pct), PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setup_s = yardstick.program_seconds(T0, setup_end)
        metrics = workload.metrics(outputs, tracer.spans, rounds, yardstick.program_seconds)
        metrics |= {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(rounds) * workload.ops_per_round,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
