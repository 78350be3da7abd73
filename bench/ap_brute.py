"""Brute-force AP50, kept apart from the program's evaluator.

Detections and ground truths are any objects with ``scene_id``,
``category``, ``box`` (x1, y1, x2, y2) and, for detections, ``score``.
Per category, detections are taken in descending score order (ties in
input order); each is a true positive when the ground truth of its scene
and category with the highest IoU reaches the threshold and no earlier
detection took it.  AP sums, over every true positive, the recall step
``1 / n_gt`` times the best precision at that rank or any later rank.
The mean runs over the categories that have ground truth.
"""

from __future__ import annotations


def box_iou(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    inter = w * h if w > 0 and h > 0 else 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def brute_ap50(detections, truths, thresh: float = 0.5) -> tuple[dict[str, float], float]:
    per_cat: dict[str, float] = {}
    for cat in sorted({t.category for t in truths}):
        gts = [t for t in truths if t.category == cat]
        dets = sorted((d for d in detections if d.category == cat), key=lambda d: -d.score)
        taken: set[int] = set()
        hits: list[bool] = []
        for d in dets:
            best, best_iou = None, 0.0
            for gi, g in enumerate(gts):
                if g.scene_id == d.scene_id:
                    v = box_iou(d.box, g.box)
                    if v > best_iou:
                        best, best_iou = gi, v
            hit = best is not None and best_iou >= thresh and best not in taken
            if hit:
                taken.add(best)
            hits.append(hit)
        precision = [sum(hits[: k + 1]) / (k + 1) for k in range(len(hits))]
        per_cat[cat] = sum(max(precision[k:]) / len(gts) for k in range(len(hits)) if hits[k])
    mean = sum(per_cat.values()) / len(per_cat) if per_cat else 0.0
    return per_cat, mean
