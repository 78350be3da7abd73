import dataclasses
import json

import numpy as np
import pytest

from upre.checkpoint import FORMAT_VERSION, MAGIC, load_blob, save_blob
from upre.config import (
    CliConfig,
    apply_preset,
    build_dataclass,
    canonical_json,
    config_hash,
    load_cli_config,
    to_plain,
)
from upre.errors import ConfigError, VersionError


def test_defaults_validate():
    cfg = CliConfig()
    cfg.validate()
    assert cfg.train.optimizer.momentum == 0.1
    assert cfg.train.optimizer.weight_decay == pytest.approx(1e-4)
    assert cfg.train.stage2.enhance_prob == 0.5


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match=r"\$\.train.*mystery"):
        build_dataclass(CliConfig, {"train": {"mystery": 1}})
    with pytest.raises(ConfigError, match="bogus"):
        build_dataclass(CliConfig, {"bogus": True})


def test_type_errors_are_reported():
    with pytest.raises(ConfigError, match="expected an integer"):
        build_dataclass(CliConfig, {"train": {"batch_size": "four"}})
    with pytest.raises(ConfigError, match="expected a number"):
        build_dataclass(CliConfig, {"train": {"stage1": {"lr": "fast"}}})


def test_roundtrip_through_json():
    cfg = CliConfig()
    data = json.loads(json.dumps(to_plain(cfg)))
    again = build_dataclass(CliConfig, data)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_changes_with_content():
    cfg = CliConfig()
    other = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, seed=99))
    assert config_hash(cfg) != config_hash(other)
    assert canonical_json(cfg) == canonical_json(CliConfig())


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        load_cli_config({"train": {"stage1": {"iters": 10, "lr_drop_iter": 10}}})
    with pytest.raises(ConfigError):
        load_cli_config({"train": {"stage2": {"enhance_prob": 1.5}}})
    with pytest.raises(ConfigError):
        load_cli_config({"train": {"prompt_mode": "psychic"}})
    with pytest.raises(ConfigError):
        load_cli_config({"train": {"target_domain": "atlantis"}})
    with pytest.raises(ConfigError):
        load_cli_config({"train": {"rdd_mask": ["align", "vibes"]}})


def test_paper_schedule_preset():
    cfg = apply_preset(CliConfig(), "paper_schedule")
    assert cfg.train.stage1.warmup_iters == 1300
    assert cfg.train.stage1.iters == 5000
    assert cfg.train.stage1.lr == pytest.approx(0.001)
    assert cfg.train.stage1.lr_drop_iter == 4500
    assert cfg.train.stage2.iters == 100_000
    assert cfg.train.stage2.lr_drop_iter == 40_000
    assert cfg.train.batch_size == 4
    with pytest.raises(ConfigError):
        apply_preset(CliConfig(), "gpu_cluster")


def test_seed_override():
    cfg = load_cli_config({}, seed=1234)
    assert cfg.train.seed == 1234


def test_blob_roundtrip(tmp_path):
    path = tmp_path / "x.upre"
    arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.ones(4)}
    save_blob(path, {"kind": "test", "seed": 7}, arrays)
    meta, loaded = load_blob(path)
    assert meta["kind"] == "test" and meta["seed"] == 7
    assert np.array_equal(loaded["a"], arrays["a"])
    assert np.array_equal(loaded["b"], arrays["b"])


def test_blob_rejects_garbage_and_versions(tmp_path):
    path = tmp_path / "bad.upre"
    path.write_bytes(b"not a blob at all")
    with pytest.raises(VersionError):
        load_blob(path)
    good = tmp_path / "good.upre"
    save_blob(good, {"kind": "test"}, {"a": np.ones(2)})
    raw = bytearray(good.read_bytes())
    raw[len(MAGIC)] = FORMAT_VERSION + 1  # bump the little-endian version byte
    bad = tmp_path / "future.upre"
    bad.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        load_blob(bad)
    truncated = tmp_path / "trunc.upre"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(VersionError):
        load_blob(truncated)


def _blob_with_directory(path, directory, payload: bytes = b"\0" * 24):
    """A blob whose header carries ``directory`` as its array directory verbatim."""
    import struct

    header = json.dumps({"kind": "model", "arrays": directory}).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header + payload)
    return path


@pytest.mark.parametrize(
    "directory,match",
    [
        # shape disagrees with the byte count
        ([{"name": "a", "shape": [3], "offset": 0, "bytes": 16}], "'a'"),
        # byte count not a multiple of 8
        ([{"name": "a", "shape": [1], "offset": 0, "bytes": 4}], "'a'"),
        # missing offset
        ([{"name": "a", "shape": [2], "bytes": 16}], "'a'"),
        # the directory is not a list
        ({"name": "a", "shape": [2], "offset": 0, "bytes": 16}, "not a list"),
        # negative offset, an offset past the payload, a negative dimension
        ([{"name": "a", "shape": [2], "offset": -8, "bytes": 16}], "'a'"),
        ([{"name": "a", "shape": [2], "offset": 16, "bytes": 16}], "'a'"),
        ([{"name": "a", "shape": [-2], "offset": 0, "bytes": 16}], "'a'"),
        ([["a", [2], 0, 16]], "entry"),
    ],
)
def test_blob_rejects_corrupt_array_directory(tmp_path, directory, match):
    path = _blob_with_directory(tmp_path / "corrupt.upre", directory)
    with pytest.raises(VersionError, match=match):
        load_blob(path)


def test_blob_directory_check_accepts_a_valid_directory(tmp_path):
    directory = [{"name": "a", "shape": [2], "offset": 0, "bytes": 16}, {"name": "b", "shape": [], "offset": 16, "bytes": 8}]
    payload = np.array([1.0, 2.0, 3.0], dtype="<f8").tobytes()
    _, arrays = load_blob(_blob_with_directory(tmp_path / "ok.upre", directory, payload))
    assert arrays["a"].tolist() == [1.0, 2.0] and arrays["b"].shape == () and float(arrays["b"]) == 3.0
