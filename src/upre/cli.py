"""Command-line entry point.

Subcommands: train-prompt, finetune, eval, ablate, export-embeddings,
gradcheck.  Exit codes: 0 success, 1 verification failure or invalid
state, 2 config or input error, 3 IO error, 4 blob version/corruption
error, 5 any other package error (a shape, domain or contract check
failed inside the program).  Every output artifact carries the config
hash and seed.  ``ablate`` runs its (row, seed) cells one after another.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import grad_check
from .checkpoint import load_blob, save_blob
from .config import CliConfig, build_dataclass, config_hash, load_cli_config, to_plain
from .encoders import EncoderConfig, EncoderStub
from .enhancement import enhance, init_enhance_params
from .errors import ConfigError, InputError, StateError, UpreError, VersionError
from .losses import (
    BG_VARIANTS,
    PnsBatch,
    PromptTable,
    RddBatch,
    detect_prob,
    instance_objective,
    loss_align,
    loss_background,
    loss_positive,
    loss_relative,
    loss_semantic,
    negative_prob,
    positive_prob,
    rdd_total,
)
from .pipeline import (
    AblationRow,
    AblationSpec,
    DetectorHead,
    PRESET_ROWS,
    RunReport,
    ablation_table,
    run_ablation,
    stage1_train,
    stage2_finetune,
    zero_shot_eval,
)
from .prompts import params_from_arrays, params_to_arrays
from .rng import Rng
from .world import build_stub, generate_world, roi_features

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VERSION = 4
EXIT_INTERNAL = 5


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    path.write_text("\n".join(",".join(cells) for cells in rows) + "\n", encoding="utf-8")


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _load_config(path: str, preset: str | None, seed: int | None) -> CliConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return load_cli_config(data, preset=preset, seed=seed)


def _loss_csv(history: dict[str, list[float]], cfg_hash: str, seed: int) -> list[list[str]]:
    names = sorted(history)
    length = max((len(v) for v in history.values()), default=0)
    rows = [["config_hash", cfg_hash, "seed", str(seed)], ["iteration"] + names]
    for i in range(length):
        rows.append([str(i)] + [_fmt(history[n][i]) if i < len(history[n]) else "" for n in names])
    return rows


def _report_payload(report: RunReport, cfg_hash: str) -> dict:
    payload = report.to_json_dict()
    payload["cli_config_hash"] = cfg_hash
    return payload


def cmd_train_prompt(args) -> int:
    cfg = _load_config(args.config, args.preset, args.seed)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = generate_world(cfg.world, cfg.world_seed)
    stub = build_stub(cfg.world)
    pparams, eparams, report = stage1_train(cfg.train, world, stub)
    chash = config_hash(cfg)

    pmeta, parrays = params_to_arrays(pparams)
    arrays = dict(parrays)
    arrays["enhance_mu"] = eparams.e_mu.values.copy()
    arrays["enhance_sigma"] = eparams.e_sigma.values.copy()
    meta = {
        "kind": "stage1_checkpoint",
        "config_hash": chash,
        "cli_config": to_plain(cfg),
        "seed": cfg.train.seed,
        "prompt": pmeta,
        "enhance": {"grid": list(eparams.grid), "mode": eparams.mode},
    }
    save_blob(out / "checkpoint.upre", meta, arrays)
    _write_json(out / "report.json", _report_payload(report, chash))
    _write_csv(out / "losses.csv", _loss_csv(report.loss_history, chash, cfg.train.seed))
    return EXIT_OK


def _load_stage1(path):
    meta, arrays = load_blob(path)
    if meta.get("kind") != "stage1_checkpoint":
        raise VersionError(f"{path}: not a stage-1 checkpoint")
    pparams = params_from_arrays(meta["prompt"], arrays)
    eparams = init_enhance_params(
        arrays["enhance_mu"].shape[0], tuple(meta["enhance"]["grid"]), meta["enhance"]["mode"]
    )
    eparams.e_mu.values[:] = arrays["enhance_mu"]
    eparams.e_sigma.values[:] = arrays["enhance_sigma"]
    return meta, pparams, eparams


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config, args.preset, args.seed)
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta, pparams, eparams = _load_stage1(args.checkpoint)
    world = generate_world(cfg.world, cfg.world_seed)
    stub = build_stub(cfg.world)
    head, report = stage2_finetune(cfg.train, pparams, eparams, world, stub)
    chash = config_hash(cfg)

    pmeta, parrays = params_to_arrays(pparams)
    arrays = dict(parrays)
    arrays["enhance_mu"] = eparams.e_mu.values.copy()
    arrays["enhance_sigma"] = eparams.e_sigma.values.copy()
    arrays["head_w_reg"] = head.w_reg.values.copy()
    arrays["head_roi_projection"] = head.roi_projection.values.copy()
    model_meta = {
        "kind": "model",
        "config_hash": chash,
        "cli_config": to_plain(cfg),
        "seed": cfg.train.seed,
        "prompt": pmeta,
        "enhance": {"grid": list(eparams.grid), "mode": eparams.mode},
        "frozen_hashes": report.frozen_hashes,
        "stage1_config_hash": meta.get("config_hash"),
    }
    save_blob(out / "model.upre", model_meta, arrays)
    _write_json(out / "report.json", _report_payload(report, chash))
    return EXIT_OK


def _load_model(path):
    meta, arrays = load_blob(path)
    if meta.get("kind") != "model":
        raise VersionError(f"{path}: not a finetuned model blob")
    cfg = build_dataclass(CliConfig, meta["cli_config"])
    cfg.validate()
    pparams = params_from_arrays(meta["prompt"], arrays)
    eparams = init_enhance_params(
        arrays["enhance_mu"].shape[0], tuple(meta["enhance"]["grid"]), meta["enhance"]["mode"]
    )
    eparams.e_mu.values[:] = arrays["enhance_mu"]
    eparams.e_sigma.values[:] = arrays["enhance_sigma"]
    head = DetectorHead(ad.parameter(arrays["head_w_reg"]), ad.parameter(arrays["head_roi_projection"]))
    return meta, cfg, pparams, eparams, head


def cmd_eval(args) -> int:
    meta, cfg, pparams, eparams, head = _load_model(args.model)
    world = generate_world(cfg.world, cfg.world_seed)
    stub = build_stub(cfg.world)
    report = zero_shot_eval(head, pparams, eparams, world, args.domain, cfg.train, stub)
    per_cat = report.metrics["per_category_ap"]
    lines = [["category", "ap50"]]
    for cat in world.categories:
        lines.append([cat, _fmt(per_cat.get(cat, 0.0))])
    lines.append(["mAP", _fmt(report.metrics["map"])])
    widths = [max(len(r[0]) for r in lines), max(len(r[1]) for r in lines)]
    for name, val in lines:
        print(f"{name:<{widths[0]}}  {val:>{widths[1]}}")
    print(f"ure_invocations  {report.counters['ure_invocations']}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        csv_rows = [["category", "ap50", "config_hash", "seed"]]
        for cat in world.categories:
            csv_rows.append([cat, _fmt(per_cat.get(cat, 0.0)), meta["config_hash"], str(cfg.train.seed)])
        csv_rows.append(["mAP", _fmt(report.metrics["map"]), meta["config_hash"], str(cfg.train.seed)])
        _write_csv(out / f"eval_{args.domain}.csv", csv_rows)
        _write_json(out / f"eval_{args.domain}.json", _report_payload(report, meta["config_hash"]))
    return EXIT_OK


def cmd_ablate(args) -> int:
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read spec {args.spec}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.spec}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    known = {"base", "seeds", "rows", "preset", "eval_domains"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"ablation spec: unknown key(s) {sorted(unknown)!r}")
    base = load_cli_config(data.get("base", {}))
    if "preset" in data:
        if data["preset"] not in PRESET_ROWS:
            raise ConfigError(f"unknown ablation preset {data['preset']!r}")
        rows = PRESET_ROWS[data["preset"]]
    else:
        rows = tuple(
            AblationRow(str(r["id"]), dict(r.get("overrides", {}))) for r in data.get("rows", [])
        )
    seeds = tuple(int(s) for s in data.get("seeds", []))
    spec = AblationSpec(base, seeds, rows, tuple(data.get("eval_domains", [])))
    results = run_ablation(spec)
    eval_domains = spec.eval_domains or (base.train.target_domain,)
    table = ablation_table(results, eval_domains)
    out = Path(args.out or base.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    table[0].append("config_hash")
    for row in table[1:]:
        row.append(config_hash(base))
    _write_csv(out / "ablation.csv", table)
    for row in table:
        print(",".join(row))
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    meta, cfg, pparams, eparams, head = _load_model(args.model)
    world = generate_world(cfg.world, cfg.world_seed)
    stub = build_stub(cfg.world)
    domains = [d.strip() for d in args.domains.split(",") if d.strip()]
    if not domains:
        raise InputError("export-embeddings: needs at least one domain")
    for d in domains:
        if d not in world.domains:
            raise InputError(f"unknown domain {d!r}")
    from .pipeline import _scene_rng
    from .world import sample_scene

    rows = [["domain", "scene_index"] + [f"e{i}" for i in range(stub.d_emb)]]
    for domain in domains:
        for i in range(args.scenes):
            scene = sample_scene(world, domain, _scene_rng(world.seed, "export_scene", domain, i))
            emb = stub.image_encode(scene.features).values
            rows.append([domain, str(i)] + [_fmt(v) for v in emb])
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    header_meta = [["config_hash", meta["config_hash"], "seed", str(cfg.train.seed)]]
    _write_csv(out / "embeddings.csv", header_meta + rows)
    return EXIT_OK


def gradcheck_suite(seed: int = 0):
    """(name, fn, inputs) triples covering every loss and differentiable op."""
    rng = Rng(seed)

    def unit_param(n):
        return ad.parameter(rng.normal(n))

    checks = []
    a, b = unit_param(6), unit_param(6)
    sep = np.abs(a.values - b.values) < 1e-3
    a.values[sep] += 5e-3
    w6 = rng.normal(6)
    checks.append(("cosine_similarity", lambda x, y: ad.cosine_similarity(x, y), [a, b]))
    checks.append(("l1_distance", lambda x, y: ad.l1_distance(x, y), [a, b]))
    checks.append(
        ("softmax", lambda x: ad.tsum(ad.mul(ad.softmax(x), ad.constant(w6))), [unit_param(6)])
    )
    checks.append(
        ("l2_normalize", lambda x: ad.tsum(ad.mul(ad.l2_normalize(x), ad.constant(w6))), [unit_param(6)])
    )
    checks.append(("log", lambda x: ad.tsum(ad.log(x)), [ad.parameter(rng.uniform(5) + 0.5)]))
    checks.append(("relu_mean", lambda x: ad.tmean(ad.relu(x)), [unit_param(8)]))
    m = ad.parameter(rng.normal((4, 6)))
    w4 = rng.normal(4)
    checks.append(
        ("matmul", lambda mm, x: ad.tsum(ad.mul(ad.matmul(mm, x), ad.constant(w4))), [m, unit_param(6)])
    )

    ep = init_enhance_params(2, (2, 2))
    ep.e_mu.values[:] = rng.normal((2, 2, 2)) * 0.3
    ep.e_sigma.values[:] = 1.0 + rng.normal((2, 2, 2)) * 0.2
    fmap = ad.parameter(rng.normal((2, 6, 6)))
    wmap = rng.normal(2 * 6 * 6)

    def enhance_fn(f, mu, sigma):
        return ad.tsum(ad.mul(ad.reshape(enhance(f, ep), (-1,)), ad.constant(wmap)))

    checks.append(("enhance", enhance_fn, [fmap, ep.e_mu, ep.e_sigma]))

    def rdd_build(*ts):
        e_s = [ad.l2_normalize(ts[0]), ad.l2_normalize(ts[1])]
        e_st = [ad.l2_normalize(ts[2]), ad.l2_normalize(ts[3])]
        return RddBatch(e_s, e_st, ad.l2_normalize(ts[4]), ad.l2_normalize(ts[5]))

    raw = [unit_param(8) for _ in range(6)]
    checks.append(("loss_align", lambda *ts: loss_align(rdd_build(*ts)), list(raw)))
    checks.append(("loss_semantic", lambda *ts: loss_semantic(rdd_build(*ts)), list(raw)))
    checks.append(("loss_relative", lambda *ts: loss_relative(rdd_build(*ts)), list(raw)))
    checks.append(("rdd_total", lambda *ts: rdd_total(rdd_build(*ts)), list(raw)))

    cats = ("a", "b", "c", "d")
    table_raw = [unit_param(8) for _ in range(5)]
    e_raw = unit_param(8)

    def table_of(tr):
        return PromptTable(cats, [ad.l2_normalize(t) for t in tr[:4]], ad.l2_normalize(tr[4]))

    checks.append(
        (
            "detect_prob_head",
            lambda e, *tr: ad.neg(ad.log(ad.pick(detect_prob(ad.l2_normalize(e), table_of(tr)), 1))),
            [e_raw, *table_raw],
        )
    )
    checks.append(
        (
            "loss_positive",
            lambda e, *tr: loss_positive(positive_prob(ad.l2_normalize(e), table_of(tr)), "c", cats),
            [e_raw, *table_raw],
        )
    )
    for variant in ("eq12_uniform_ce", "hinge_positive_diff", "detpro_binary"):
        checks.append(
            (
                f"loss_background[{variant}]",
                lambda e, *tr, v=variant: loss_background(
                    negative_prob(ad.l2_normalize(e), table_of(tr)), 1 / 5, v, 4
                ),
                [e_raw, *table_raw],
            )
        )
    checks.append(
        (
            "loss_background[detpro_uniform_fg]",
            lambda e, *tr: loss_background(
                positive_prob(ad.l2_normalize(e), table_of(tr)), 1 / 5, "detpro_uniform_fg"
            ),
            [e_raw, *table_raw],
        )
    )

    stub = EncoderStub(EncoderConfig(seed=seed, channels=2))
    wemb = rng.normal(stub.d_emb)
    ctx = ad.parameter(rng.normal((2, stub.config.d_tok)) * 0.02)
    suffix = ad.constant(stub.token_rows("a photo taken in a night rainy"))

    def prompt_fn(c):
        return ad.tsum(ad.mul(stub.text_encode(ad.concat_rows([c, suffix])), ad.constant(wemb)))

    checks.append(("encode_prompt_context", prompt_fn, [ctx]))

    small_map = ad.parameter(rng.normal((2, 5, 5)))
    checks.append(
        (
            "image_encode",
            lambda f: ad.tsum(ad.mul(stub.image_encode(f), ad.constant(wemb))),
            [small_map],
        )
    )
    roi_block = ad.parameter(rng.normal((2, 14, 14)))
    checks.append(
        (
            "roi_project",
            lambda blk: ad.tsum(ad.mul(stub.roi_project(blk), ad.constant(wemb))),
            [roi_block],
        )
    )
    pred = ad.parameter(rng.normal(4))
    target = ad.constant(rng.normal(4) + 3.0)
    checks.append(("smooth_l1", lambda p: ad.smooth_l1(p, target), [pred]))

    # ops of the per-scene batched head, on small stacks of rows
    def weighted(t, w):
        return ad.tsum(ad.mul(t, ad.constant(w)))

    w34, w36, w46 = rng.normal((3, 4)), rng.normal((3, 6)), rng.normal((4, 6))
    w_pool = rng.normal((2, 2, 3))
    row_checks = [
        ("linear_rows", lambda x, mm: weighted(ad.linear_rows(x, mm), w34), [(3, 6), (4, 6)]),
        ("l2_normalize_rows", lambda x: weighted(ad.l2_normalize_rows(x), w36), [(3, 6)]),
        ("softmax_rows", lambda x: weighted(ad.softmax_rows(x), w36), [(3, 6)]),
        ("pick_rows", lambda x: ad.tsum(ad.log(ad.pick_rows(ad.softmax_rows(x), [2, 0, 5]))), [(3, 6)]),
        ("gather_rows", lambda x: weighted(ad.gather_rows(x, [2, 0, 2, 1]), w46), [(3, 6)]),
        ("avg_pool2", lambda x: weighted(ad.avg_pool2(x), w_pool), [(2, 4, 6)]),
    ]
    for name, fn, shapes in row_checks:
        checks.append((name, fn, [ad.parameter(rng.normal(shape)) for shape in shapes]))

    # the per-scene detector head: a stack of boxes through ROI extraction,
    # the trainable projection and the prompt softmax, one label per row
    fmap_boxes = ad.parameter(rng.normal((2, 9, 9)))
    boxes = [(0.5, 1.0, 6.0, 7.5), (2.0, 0.0, 9.0, 5.0), (1.2, 3.3, 4.8, 8.9)]
    w_blocks = rng.normal((3, 2, 14, 14))
    checks.append(
        ("bilinear_resample_boxes", lambda f: weighted(roi_features(f, boxes), w_blocks), [fmap_boxes])
    )
    units = rng.normal((5, stub.d_emb))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    head_table = PromptTable(cats, [ad.constant(u) for u in units[:4]], ad.constant(units[4]))
    projection = ad.parameter(stub.roi_projection.copy())
    labels = [1, 4, 0]

    def batched_head(f, proj):
        emb = stub.roi_project(roi_features(f, boxes), projection=proj)
        return ad.tmean(ad.neg(ad.log(ad.pick_rows(detect_prob(emb, head_table), labels))))

    checks.append(("detect_head_batched", batched_head, [fmap_boxes, projection]))

    # the stacked instance objective: a stack of labeled positives and a
    # stack of negatives, one head call per polarity
    pos_raw, neg_raw = ad.parameter(rng.normal((3, 8))), ad.parameter(rng.normal((2, 8)))
    pns_labels = ["c", "a", "c"]
    pns_cases = [(v, "bg_and_c", v) for v in BG_VARIANTS] + [("ce", "ce", "hinge_positive_diff")]
    for case, pns_variant, bg_variant in pns_cases:
        checks.append(
            (
                f"instance_objective[{case}]",
                lambda p, n, *tr, pv=pns_variant, bv=bg_variant: instance_objective(
                    PnsBatch(ad.l2_normalize_rows(p), pns_labels, ad.l2_normalize_rows(n), table_of(tr)), pv, bv
                ),
                [pos_raw, neg_raw, *table_raw],
            )
        )
    return checks


def cmd_gradcheck(args) -> int:
    seeds = range(args.seeds)
    failures = []
    total_checks = 0
    worst = {}
    for seed in seeds:
        for name, fn, inputs in gradcheck_suite(seed * 101 + 7):
            res = grad_check(fn, inputs, eps=1e-5, tol=args.tol)
            total_checks += 1
            worst[name] = max(worst.get(name, 0.0), res.max_rel_error)
            if not res.passed:
                failures.append((name, seed, res.max_rel_error))
    names = sorted(worst)
    for name in names:
        status = "FAIL" if any(f[0] == name for f in failures) else "ok"
        print(f"{status:4s} {name:40s} max rel err {worst[name]:.3e}")
    print(f"checked {len(names)} ops/losses x {args.seeds} seeds ({total_checks} runs)")
    if failures:
        name, seed, err = failures[0]
        print(f"FAILURE: {name} (seed {seed}) rel err {err:.3e}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="upre", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="path to a JSON run config")
            p.add_argument("--preset", choices=("desk", "paper_schedule"), default=None)
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("train-prompt", help="stage-1 prompt/enhancement learning")
    common(p)
    p.set_defaults(fn=cmd_train_prompt)

    p = sub.add_parser("finetune", help="stage-2 detector fine-tuning")
    common(p)
    p.add_argument("--checkpoint", required=True, help="stage-1 checkpoint blob")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("eval", help="zero-shot evaluation on one domain")
    p.add_argument("--model", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation grid")
    p.add_argument("--spec", required=True, help="ablation spec JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("export-embeddings", help="dump per-scene image embeddings as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--domains", required=True, help="comma-separated domain names")
    p.add_argument("--scenes", type=int, default=20)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_export_embeddings)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except VersionError as exc:
        print(f"version error: {exc}", file=sys.stderr)
        return EXIT_VERSION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StateError as exc:
        print(f"state error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except UpreError as exc:
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
