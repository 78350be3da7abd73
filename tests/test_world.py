import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upre.encoders import EncoderConfig
from upre.errors import ConfigError, InputError
from upre.rng import Rng
from upre.world import (
    GroundTruth,
    Prediction,
    WorldConfig,
    evaluate_ap50,
    generate_world,
    iou,
    mad,
    propose,
    roi_features,
    sample_scene,
)

from ap_oracle import oracle_ap, random_instance


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(), seed=11)


def test_iou_known_values():
    assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0
    assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0
    assert iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)
    with pytest.raises(InputError):
        iou((0, 0, 0, 2), (0, 0, 1, 1))


@settings(max_examples=100)
@given(st.tuples(*[st.floats(0, 20) for _ in range(8)]))
def test_iou_bounds_and_symmetry(vals):
    a = (vals[0], vals[1], vals[0] + vals[2] + 0.5, vals[1] + vals[3] + 0.5)
    b = (vals[4], vals[5], vals[4] + vals[6] + 0.5, vals[5] + vals[7] + 0.5)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0
    assert v == pytest.approx(iou(b, a))


def test_world_determinism_and_shapes(world):
    again = generate_world(WorldConfig(), seed=11)
    assert world.world_hash() == again.world_hash()
    other = generate_world(WorldConfig(), seed=12)
    assert world.world_hash() != other.world_hash()
    assert world.prototypes.shape == (7, 16)
    gram = world.prototypes @ world.prototypes.T
    np.fill_diagonal(gram, 0.0)
    assert gram.max() < 0.9
    norms = np.linalg.norm(world.prototypes, axis=1)
    assert np.allclose(norms, 1.0)


def test_two_categories_in_wide_space():
    cfg = WorldConfig(categories=("car", "person"), encoder=EncoderConfig(channels=64))
    w = generate_world(cfg, seed=1)
    assert w.prototypes.shape == (2, 64)


def test_unreachable_separability_raises():
    cats = tuple(f"c{i}" for i in range(40))
    cfg = WorldConfig(categories=cats, encoder=EncoderConfig(channels=2))
    with pytest.raises(ConfigError):
        generate_world(cfg, seed=1)


def test_source_style_is_identity_and_targets_differ(world):
    sigma, mu = world.domain_styles["daytime_clear"]
    assert np.all(sigma == 1.0) and np.all(mu == 0.0)
    for d in world.target_domains():
        s, m = world.domain_styles[d]
        assert np.abs(m - mu).sum() > 0
        assert np.abs(s - sigma).sum() > 0


def test_scene_layout_contract(world):
    for i in range(10):
        scene = sample_scene(world, "daytime_clear", Rng(i))
        assert 1 <= len(scene.objects) <= 5
        _, h, w = scene.features.shape
        for obj in scene.objects:
            x1, y1, x2, y2 = obj.box
            assert 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h
            assert obj.category in world.categories
    with pytest.raises(InputError):
        sample_scene(world, "marsscape", Rng(0))


def test_scene_determinism_and_style_only_shift(world):
    a = sample_scene(world, "daytime_clear", Rng(5))
    b = sample_scene(world, "daytime_clear", Rng(5))
    assert a.features.values.tobytes() == b.features.values.tobytes()
    src = sample_scene(world, "daytime_clear", Rng(9))
    tgt = sample_scene(world, "night_rainy", Rng(9))
    assert [o.box for o in src.objects] == [o.box for o in tgt.objects]
    assert [o.category for o in src.objects] == [o.category for o in tgt.objects]
    assert np.abs(src.features.values - tgt.features.values).sum() > 0


def test_propose_threshold_and_labels(world):
    scene = sample_scene(world, "daytime_clear", Rng(3))
    props = propose(scene, Rng(4), 32)
    assert len(props) == 32
    for p in props:
        recomputed = max((iou(p.box, o.box) for o in scene.objects), default=0.0)
        assert recomputed == pytest.approx(p.max_iou)
        assert (p.polarity == "positive") == (p.max_iou >= 0.5)
        if p.polarity == "positive":
            assert p.matched_category in world.categories
        else:
            assert p.matched_category is None
    # exact ground-truth copy is positive with IoU 1
    from upre.world import _label_proposal

    exact = _label_proposal(scene.objects[0].box, scene.objects, 0.5)
    assert exact.polarity == "positive" and exact.max_iou == 1.0
    # raising the threshold never converts negatives to positives
    strict = [
        _label_proposal(p.box, scene.objects, 0.7) for p in props
    ]
    for loose, tight in zip(props, strict):
        if loose.polarity == "negative":
            assert tight.polarity == "negative"
    with pytest.raises(InputError):
        propose(scene, Rng(0), 0)


def test_roi_features_contract(world):
    scene = sample_scene(world, "daytime_clear", Rng(6))
    block = roi_features(scene, scene.objects[0].box)
    assert block.shape == (16, 14, 14)
    again = roi_features(scene, scene.objects[0].box)
    assert block.values.tobytes() == again.values.tobytes()
    with pytest.raises(InputError):
        roi_features(scene, (-1.0, 0.0, 5.0, 5.0))
    # constant region -> constant block
    const = np.tile(Rng(7).normal(16)[:, None, None], (1, 28, 28))
    from upre import autodiff as ad

    blk = roi_features(ad.constant(const), (3.0, 3.0, 11.0, 11.0))
    assert np.allclose(blk.values, const[:, :14, :14][:, :1, :1])
    # full-image box on a 14x14 map is the identity resample
    small = Rng(8).normal((16, 14, 14))
    ident = roi_features(ad.constant(small), (0.0, 0.0, 14.0, 14.0))
    assert np.allclose(ident.values, small, atol=1e-12)


def test_ap_simple_cases():
    gt = [GroundTruth(0, "car", (0, 0, 4, 4))]
    pred = [Prediction(0, "car", 0.9, (0, 0, 4, 4))]
    per, m = evaluate_ap50(pred, gt)
    assert per["car"] == 1.0 and m == 1.0
    per, m = evaluate_ap50([], gt)
    assert per["car"] == 0.0 and m == 0.0


def test_ap_frozen_three_prediction_case():
    gt = [GroundTruth(0, "car", (0, 0, 4, 4)), GroundTruth(0, "car", (10, 10, 14, 14))]
    preds = [
        Prediction(0, "car", 0.9, (0, 0, 4, 4)),
        Prediction(0, "car", 0.8, (20, 20, 24, 24)),
        Prediction(0, "car", 0.7, (10, 10, 14, 14)),
    ]
    per, m = evaluate_ap50(preds, gt)
    oper, om = oracle_ap(preds, gt)
    assert per["car"] == pytest.approx(oper["car"])
    assert per["car"] == pytest.approx(5 / 6)


def test_ap_matches_bruteforce_oracle_on_200_instances():
    for seed in range(200):
        preds, gts = random_instance(Rng(10_000 + seed))
        per, m = evaluate_ap50(preds, gts)
        oper, om = oracle_ap(preds, gts)
        assert per == pytest.approx(oper), f"seed {seed}"
        assert m == pytest.approx(om)


def test_ap_invariant_under_monotone_score_transform():
    for seed in range(20):
        preds, gts = random_instance(Rng(777 + seed))
        _, m1 = evaluate_ap50(preds, gts)
        squashed = [
            Prediction(p.scene_id, p.category, float(np.tanh(p.score) * 3 + 1), p.box) for p in preds
        ]
        _, m2 = evaluate_ap50(squashed, gts)
        assert m1 == pytest.approx(m2)
        assert 0.0 <= m1 <= 1.0


def test_ap_rejects_non_finite_scores():
    gt = [GroundTruth(0, "car", (0, 0, 4, 4))]
    with pytest.raises(InputError):
        evaluate_ap50([Prediction(0, "car", float("nan"), (0, 0, 4, 4))], gt)


def test_mad_values():
    assert mad([5.0, 5.0, 5.0]) == 0.0
    assert mad([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)
    assert mad([4.2]) == 0.0
    with pytest.raises(InputError):
        mad([])


def test_world_serialization_roundtrip(world, tmp_path):
    from upre.errors import VersionError
    from upre.world import load_world, save_world

    path = tmp_path / "world.upre"
    save_world(world, path)
    assert (tmp_path / "world.json").exists()
    again = load_world(path)
    assert again.world_hash() == world.world_hash()
    assert again.categories == world.categories
    assert again.config == world.config
    # scenes regenerate identically from the loaded world
    a = sample_scene(world, "night_rainy", Rng(4))
    b = sample_scene(again, "night_rainy", Rng(4))
    assert a.features.values.tobytes() == b.features.values.tobytes()
    corrupted = tmp_path / "bad.upre"
    corrupted.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(VersionError):
        load_world(corrupted)


def _clip_box_np(x1, y1, x2, y2, w, h, min_side=2.0):
    """``_clip_box`` with numpy clamps, as a reference for the builtin ones."""
    x1 = float(np.clip(x1, 0.0, w - min_side))
    y1 = float(np.clip(y1, 0.0, h - min_side))
    x2 = float(np.clip(x2, x1 + min_side, w))
    y2 = float(np.clip(y2, y1 + min_side, h))
    return x1, y1, x2, y2


def test_clip_box_matches_np_clip():
    from upre.world import _clip_box

    rng = Rng(21)
    cases = [tuple((rng.uniform(4) * 40.0 - 6.0).tolist()) for _ in range(1000)]
    cases += [tuple(rng.normal(4) * 30.0) for _ in range(200)]  # numpy scalars, as propose passes them
    # each edge clamped on its own, and a box squeezed to the minimum side
    cases += [
        (-3.0, 5.0, 10.0, 12.0), (27.5, 5.0, 30.0, 12.0), (4.0, -1.0, 10.0, 12.0), (4.0, 27.0, 10.0, 29.0),
        (4.0, 5.0, 4.5, 12.0), (4.0, 5.0, 31.0, 12.0), (4.0, 5.0, 10.0, 5.5), (4.0, 5.0, 10.0, 40.0),
        (26.0, 26.0, 26.0, 26.0), (0.0, 0.0, 28.0, 28.0), (-9.0, -9.0, -8.0, -8.0),
    ]
    for box in cases:
        assert _clip_box(*box, 28, 28) == _clip_box_np(*box, 28, 28)
        assert _clip_box(*box, 28, 28, 3.0) == _clip_box_np(*box, 28, 28, 3.0)


def test_roi_features_stack_matches_single_boxes(world):
    scene = sample_scene(world, "night_clear", Rng(12))
    props = propose(scene, Rng(13), 9)
    stack = roi_features(scene, props)
    assert stack.shape == (9, 16, 14, 14)
    for n, prop in enumerate(props):
        assert stack.values[n].tobytes() == roi_features(scene, prop.box).values.tobytes()
    boxes = np.array([p.box for p in props])
    assert roi_features(scene.features, boxes).values.tobytes() == stack.values.tobytes()
    assert roi_features(scene, [p.box for p in props]).values.tobytes() == stack.values.tobytes()
    assert roi_features(scene, props[0]).shape == (16, 14, 14)
    with pytest.raises(InputError):
        roi_features(scene, [props[0].box, (2.0, 2.0, 30.0, 8.0)])
    with pytest.raises(InputError):
        roi_features(scene, [props[0].box, (5.0, 2.0, 5.0, 8.0)])
    with pytest.raises(InputError):
        roi_features(scene, [])


class _CountingTruth(GroundTruth):
    """Ground truth that counts reads of its ``scene_id``."""

    reads = 0

    def __getattribute__(self, name):
        if name == "scene_id":
            type(self).reads += 1
        return super().__getattribute__(name)


def test_evaluate_ap50_compares_only_same_scene_ground_truth(monkeypatch):
    import upre.world as world_mod

    rng = Rng(17)
    cats = ("car", "bus")
    gts, preds = [], []
    for scene_id in range(30):
        for _ in range(3):
            x, y = (rng.uniform(2) * 18.0).tolist()
            gts.append(_CountingTruth(scene_id, cats[rng.choice(2)], (x, y, x + 8.0, y + 8.0)))
        for _ in range(5):
            x, y = (rng.uniform(2) * 18.0).tolist()
            preds.append(Prediction(scene_id, cats[rng.choice(2)], float(rng.uniform(1)[0]), (x, y, x + 8.0, y + 8.0)))
    bound = sum(
        sum(1 for g in gts if g.scene_id == p.scene_id and g.category == p.category) for p in preds
    )
    assert bound < len(preds) * len(gts) / 20
    calls = []
    real_iou = world_mod.iou

    def counting_iou(a, b):
        calls.append(1)
        return real_iou(a, b)

    monkeypatch.setattr(world_mod, "iou", counting_iou)
    _CountingTruth.reads = 0
    per, mean = evaluate_ap50(preds, gts)
    assert len(calls) <= bound
    # each ground truth is filed under its scene once, not rescanned per prediction
    assert _CountingTruth.reads <= len(gts)
    monkeypatch.setattr(world_mod, "iou", real_iou)
    oper, omean = oracle_ap(preds, gts)
    assert abs(mean - omean) < 1e-12
    # equal IoU with two ground truths: the first in input order is matched
    twins = [GroundTruth(0, "car", (0.0, 0.0, 4.0, 4.0)), GroundTruth(0, "car", (0.0, 0.0, 4.0, 4.0))]
    per, _ = evaluate_ap50([Prediction(0, "car", 0.9, (0.0, 0.0, 4.0, 4.0)), Prediction(0, "car", 0.8, (0.0, 0.0, 4.0, 4.0))], twins)
    assert per["car"] == 0.5
