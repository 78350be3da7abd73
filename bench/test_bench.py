"""Tests of the benchmark's own parts; none of them runs the program's heavy paths.

Run from the repository root: ``python -m pytest -q bench``.
"""

import json
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from ap_brute import box_iou, brute_ap50
from spans import Span, Tracer, layer_totals, self_times
from yardstick import REF_SLICE_S, Slice, Yardstick


def det(scene, cat, score, box):
    return SimpleNamespace(scene_id=scene, category=cat, score=score, box=box)


def gt(scene, cat, box):
    return SimpleNamespace(scene_id=scene, category=cat, box=box)


# ------------------------------------------------------------- AP oracle ---


def test_iou_hand_values():
    assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert box_iou((0, 0, 10, 10), (0, 0, 10, 5)) == 0.5
    assert box_iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0
    assert box_iou((0, 0, 2, 2), (1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_ap_tp_fp_tp():
    # ranks: TP (P=1, R=.5), FP (P=.5), TP (P=2/3, R=1) -> .5 * 1 + .5 * 2/3
    truths = [gt(0, "car", (0, 0, 10, 10)), gt(0, "car", (20, 20, 30, 30))]
    dets = [
        det(0, "car", 0.9, (0, 0, 10, 10)),
        det(0, "car", 0.8, (40, 40, 45, 45)),
        det(0, "car", 0.7, (20, 20, 30, 30)),
    ]
    per_cat, mean = brute_ap50(dets, truths)
    assert per_cat == {"car": pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-15)}
    assert mean == per_cat["car"]


def test_ap_precision_envelope_uses_later_ranks():
    # ranks: FP, TP (P=.5, R=.5), TP (P=2/3, R=1): the first step takes the later 2/3
    truths = [gt(0, "car", (0, 0, 10, 10)), gt(0, "car", (20, 20, 30, 30))]
    dets = [
        det(0, "car", 0.9, (40, 40, 45, 45)),
        det(0, "car", 0.8, (0, 0, 10, 10)),
        det(0, "car", 0.7, (20, 20, 30, 30)),
    ]
    assert brute_ap50(dets, truths)[1] == pytest.approx(2 / 3, abs=1e-15)


def test_ap_duplicate_is_false_positive_and_threshold_is_inclusive():
    truths = [gt(0, "car", (0, 0, 10, 10))]
    dets = [det(0, "car", 0.9, (0, 0, 10, 5)), det(0, "car", 0.8, (0, 0, 10, 10))]
    # IoU exactly 0.5 matches; the second detection hits a taken truth
    assert brute_ap50(dets, truths)[1] == 1.0
    assert brute_ap50([det(0, "car", 0.9, (0, 0, 10, 4.9))], truths)[1] == 0.0


def test_ap_scene_and_category_must_match():
    truths = [gt(0, "car", (0, 0, 10, 10)), gt(1, "bus", (0, 0, 10, 10))]
    dets = [det(1, "car", 0.9, (0, 0, 10, 10)), det(1, "bus", 0.5, (0, 0, 10, 10))]
    per_cat, mean = brute_ap50(dets, truths)
    assert per_cat == {"bus": 1.0, "car": 0.0}
    assert mean == 0.5


def test_ap_ties_keep_input_order():
    # equal scores: the miss listed first ranks first, so precision at the hit is .5
    truths = [gt(0, "car", (0, 0, 10, 10))]
    dets = [det(0, "car", 0.5, (40, 40, 45, 45)), det(0, "car", 0.5, (0, 0, 10, 10))]
    assert brute_ap50(dets, truths)[1] == 0.5


def test_ap_category_without_detections_counts_zero():
    truths = [gt(0, "car", (0, 0, 10, 10)), gt(0, "person", (0, 0, 4, 8))]
    per_cat, mean = brute_ap50([det(0, "car", 0.3, (0, 0, 10, 10))], truths)
    assert per_cat == {"car": 1.0, "person": 0.0}
    assert mean == 0.5


# ------------------------------------------------------------- self time ---


def test_self_time_on_known_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 3.0, 6.0, 0, "r"),  # overlaps a: the union [1, 6] counts once
        Span(3, "c", 2.0, 3.0, 1, "r"),
        Span(4, "d", 9.0, 12.0, 0, "r"),  # outlives its parent: only [9, 10] is covered
    ]
    own = self_times(spans)
    assert own == {0: pytest.approx(4.0), 1: pytest.approx(2.0), 2: 3.0, 3: 1.0, 4: 3.0}
    assert layer_totals(spans + [Span(5, "c", 6.0, 6.5, 0, "r")]) == {
        "root": (pytest.approx(3.5), 1),
        "a": (pytest.approx(2.0), 1),
        "b": (3.0, 1),
        "c": (1.5, 2),
        "d": (3.0, 1),
    }


def test_self_time_of_leaf_is_duration():
    assert self_times([Span(7, "x", 2.0, 2.5, None, "r")]) == {7: 0.5}


# ---------------------------------------------------------------- tracer ---


class _Owner:
    def work(self, n):
        return n + 1


def test_tracer_records_nesting_and_restores(tmp_path):
    tracer = Tracer()
    original = vars(_Owner)["work"]
    table = {"outer": lambda: _Owner().work(1)}
    tracer.patch(_Owner, "work", "inner")
    tracer.patch(table, "outer", "outer")
    tracer.run_id = "round0"
    assert table["outer"]() == 2
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.run_id == outer.run_id == "round0"
    tracer.unpatch_all()
    assert vars(_Owner)["work"] is original and not hasattr(table["outer"], "__wrapped__")
    tracer.dump(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert lines[0] == ["sid", "name", "start", "end", "parent", "run_id"]
    assert lines[1] == [inner.sid, "inner", inner.start, inner.end, outer.sid, "round0"]


def test_worker_thread_spans_nest_under_open_main_span():
    tracer = Tracer()
    leaf = tracer.wrap("row", lambda: None)

    def grid():
        workers = [threading.Thread(target=leaf) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    tracer.wrap("grid", grid)()
    grid_span = tracer.spans[-1]
    rows = [s for s in tracer.spans if s.name == "row"]
    assert len(rows) == 3 and all(s.parent == grid_span.sid for s in rows)


# ------------------------------------------------------------- yardstick ---


def test_program_seconds_removes_slices_and_scales_to_reference():
    y = Yardstick()
    # two slices inside [0, 10], each costing twice the reference: the host runs at half speed
    y.slices += [Slice(1.0, 1.0 + 2 * REF_SLICE_S, 2 * REF_SLICE_S), Slice(5.0, 5.0 + 2 * REF_SLICE_S, 2 * REF_SLICE_S)]
    y.slices.append(Slice(9.9, 10.1, 0.2))  # ends outside the interval: ignored
    assert y.program_seconds(0.0, 10.0) == pytest.approx((10.0 - 4 * REF_SLICE_S) / 2)
    with pytest.raises(RuntimeError):
        y.program_seconds(2.0, 4.0)


def test_probe_runs_a_slice_at_most_every_gap_and_restores():
    module = SimpleNamespace(call=lambda n: n * 2)
    original = module.call
    y = Yardstick(gap_s=3600.0)
    y.patch(module, "call")
    assert [module.call(k) for k in range(5)] == [0, 2, 4, 6, 8]
    assert len(y.slices) == 1 and y.slices[0].cpu > 0
    y.unpatch_all()
    assert module.call is original


# -------------------------------------------------------- metric catalogue ---


def test_benchmark_json_matches_the_metrics_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
