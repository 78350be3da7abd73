import json
from pathlib import Path

import numpy as np
import pytest

from upre import cli
from upre.checkpoint import load_blob

TINY_CONFIG = {
    "world_seed": 5,
    "train": {
        "stage1": {"iters": 25, "lr": 0.05, "lr_drop_iter": 20},
        "stage2": {"iters": 30, "lr": 2.0, "lr_drop_iter": 24},
        "batch_size": 1,
        "seed": 0,
        "val_interval": 10,
        "val_scenes": 2,
        "pns_proposals": 4,
        "stage2_proposals": 4,
        "eval_scenes": 3,
        "eval_proposals": 5,
    },
}


def write_config(tmp_path, data=None) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data if data is not None else TINY_CONFIG), encoding="utf-8")
    return path


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def strip_clock(report: dict) -> dict:
    report = dict(report)
    report.pop("wall_clock_seconds", None)
    return report


def test_train_prompt_writes_three_files(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["checkpoint.upre", "losses.csv", "report.json"]
    report = read_report(out / "report.json")
    assert report["kind"] == "stage1"
    assert report["config_hash"]
    assert report["seed"] == 0
    meta, arrays = load_blob(out / "checkpoint.upre")
    assert meta["kind"] == "stage1_checkpoint"
    assert "prompt_u" in arrays and "enhance_mu" in arrays


def test_train_prompt_rejects_unknown_key(tmp_path):
    data = dict(TINY_CONFIG)
    data["turbo"] = True
    cfg = write_config(tmp_path, data)
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_train_prompt_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope", encoding="utf-8")
    assert cli.main(["train-prompt", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_train_prompt_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(out_b)]) == 0
    ra = strip_clock(read_report(out_a / "report.json"))
    rb = strip_clock(read_report(out_b / "report.json"))
    assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
    assert (out_a / "losses.csv").read_bytes() == (out_b / "losses.csv").read_bytes()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(root)
    out1 = root / "stage1"
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(out1)]) == 0
    out2 = root / "stage2"
    rc = cli.main(
        ["finetune", "--config", str(cfg), "--checkpoint", str(out1 / "checkpoint.upre"), "--out", str(out2)]
    )
    assert rc == 0
    return root, cfg, out1, out2


def test_finetune_outputs_and_freeze(trained):
    root, cfg, out1, out2 = trained
    report = read_report(out2 / "report.json")
    assert report["kind"] == "stage2"
    assert report["frozen_hashes"]["before"] == report["frozen_hashes"]["after"]
    meta, arrays = load_blob(out2 / "model.upre")
    assert meta["kind"] == "model"
    assert "head_w_reg" in arrays
    ck_meta, ck_arrays = load_blob(out1 / "checkpoint.upre")
    assert np.array_equal(arrays["prompt_u"], ck_arrays["prompt_u"])
    assert np.array_equal(arrays["enhance_mu"], ck_arrays["enhance_mu"])
    # the report's frozen-parameter hashes match the checkpoint contents
    from upre.enhancement import init_enhance_params
    from upre.prompts import params_from_arrays

    pparams = params_from_arrays(ck_meta["prompt"], ck_arrays)
    eparams = init_enhance_params(
        ck_arrays["enhance_mu"].shape[0], tuple(ck_meta["enhance"]["grid"]), ck_meta["enhance"]["mode"]
    )
    eparams.e_mu.values[:] = ck_arrays["enhance_mu"]
    eparams.e_sigma.values[:] = ck_arrays["enhance_sigma"]
    assert report["frozen_hashes"]["before"]["prompt"] == pparams.params_hash()
    assert report["frozen_hashes"]["before"]["enhance"] == eparams.params_hash()


def test_finetune_corrupt_checkpoint_exits_4(trained, tmp_path):
    root, cfg, out1, out2 = trained
    bad = tmp_path / "bad.upre"
    bad.write_bytes(b"garbage" * 10)
    rc = cli.main(["finetune", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(tmp_path)])
    assert rc == 4


def test_eval_stdout_and_csv(trained, capsys, tmp_path):
    root, cfg, out1, out2 = trained
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--model", str(out2 / "model.upre"), "--domain", "night_rainy", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    cats = ("bus", "bike", "car", "motor", "person", "rider", "truck")
    positions = [printed.index(c) for c in cats]
    assert positions == sorted(positions)  # fixed category order
    assert "mAP" in printed
    assert "ure_invocations  0" in printed
    csv1 = (out / "eval_night_rainy.csv").read_bytes()
    rc = cli.main(["eval", "--model", str(out2 / "model.upre"), "--domain", "night_rainy", "--out", str(out)])
    assert rc == 0
    assert (out / "eval_night_rainy.csv").read_bytes() == csv1


def test_eval_unknown_domain_exits_2(trained):
    root, cfg, out1, out2 = trained
    assert cli.main(["eval", "--model", str(out2 / "model.upre"), "--domain", "atlantis"]) == 2


def test_export_embeddings(trained, tmp_path):
    root, cfg, out1, out2 = trained
    out = tmp_path / "emb"
    rc = cli.main(
        [
            "export-embeddings",
            "--model",
            str(out2 / "model.upre"),
            "--domains",
            "daytime_clear,night_rainy",
            "--scenes",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "embeddings.csv").read_text().strip().splitlines()
    # meta line + header + 2 domains x 4 scenes
    assert len(lines) == 2 + 8
    header = lines[1].split(",")
    assert header[:2] == ["domain", "scene_index"]
    assert len(header) == 2 + 64
    for row in lines[2:]:
        vals = np.array([float(x) for x in row.split(",")[2:]])
        assert abs(np.linalg.norm(vals) - 1.0) < 1e-6
    rc = cli.main(
        [
            "export-embeddings",
            "--model",
            str(out2 / "model.upre"),
            "--domains",
            "daytime_clear,night_rainy",
            "--scenes",
            "4",
            "--out",
            str(tmp_path / "emb2"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "emb2" / "embeddings.csv").read_bytes() == (out / "embeddings.csv").read_bytes()


def test_ablate_smoke(tmp_path):
    spec = {
        "base": TINY_CONFIG,
        "seeds": [0],
        "rows": [
            {"id": "full", "overrides": {}},
            {"id": "no_ins", "overrides": {"toggles": {"ins_level_on": False}}},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "ablate"
    assert cli.main(["ablate", "--spec", str(spec_path), "--out", str(out)]) == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[:2] == ["config_id", "seed"]
    assert len(rows) == 1 + 2 * 3  # header + (run + mean + mad) per config
    empty = {"base": TINY_CONFIG, "seeds": [], "rows": []}
    spec_path.write_text(json.dumps(empty), encoding="utf-8")
    assert cli.main(["ablate", "--spec", str(spec_path), "--out", str(out)]) == 2


def test_gradcheck_cli_passes():
    assert cli.main(["gradcheck", "--seeds", "2"]) == 0


def test_gradcheck_cli_detects_corruption(monkeypatch, capsys):
    import upre.cli as cli_mod
    from upre import autodiff as ad

    real_suite = cli_mod.gradcheck_suite

    def corrupted(seed=0):
        checks = real_suite(seed)

        def bad_fn(t):
            out = ad.mul(t, t)
            wrong = ad.Tensor(
                out.values, requires_grad=True, _parents=(t,), _vjp=lambda g: ad._accum(t, 3.0 * g)
            )
            return ad.tsum(wrong)

        return checks + [("corrupted_square", bad_fn, [ad.parameter([2.0])])]

    monkeypatch.setattr(cli_mod, "gradcheck_suite", corrupted)
    assert cli_mod.main(["gradcheck", "--seeds", "1"]) == 1
    assert "corrupted_square" in capsys.readouterr().out


def test_gradcheck_suite_covers_at_least_eight():
    names = {name for name, _, _ in cli.gradcheck_suite(0)}
    assert len(names) >= 8


def test_io_error_exits_3(tmp_path):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    rc = cli.main(["train-prompt", "--config", str(cfg), "--out", str(blocker / "sub")])
    assert rc == 3


def test_losses_csv_embeds_hash_and_seed(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train-prompt", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "losses.csv").read_text().splitlines()[0].split(",")
    assert first[0] == "config_hash" and len(first[1]) == 64
    assert first[2] == "seed" and first[3] == "0"
    report = read_report(out / "report.json")
    assert report["cli_config_hash"] == first[1]


@pytest.mark.parametrize("value", ["two", "0"])
def test_ablate_bad_upre_threads_exits_2(tmp_path, monkeypatch, capsys, value):
    spec = {"base": TINY_CONFIG, "seeds": [0], "rows": [{"id": "full", "overrides": {}}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.setenv("UPRE_THREADS", value)
    assert cli.main(["ablate", "--spec", str(spec_path), "--out", str(tmp_path / "ablate")]) == 2
    assert "UPRE_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "ablate").exists()


def test_eval_on_a_corrupt_blob_directory_exits_4(tmp_path, capsys):
    import struct

    from upre.checkpoint import FORMAT_VERSION, MAGIC

    header = json.dumps({"kind": "model", "arrays": [{"name": "w_reg", "shape": [3], "offset": 0, "bytes": 4}]})
    blob = tmp_path / "model.upre"
    blob.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header.encode("utf-8") + b"\0" * 4)
    assert cli.main(["eval", "--model", str(blob), "--domain", "night_rainy"]) == 4
    assert "w_reg" in capsys.readouterr().err
