"""Metrics, evaluation reports, and the pathway-sharing benchmark.

Classification accuracy is correct count over test count. A localization
counts as correct when the predicted box's IoU with the annotated object box
strictly exceeds 0.5. PCL is the fraction of part points falling inside the
predicted box (half-open convention). One classification-network pass per
test image gives both its attention boxes and the localization network's map;
the test split is scored in batches of ``pl.BATCH`` images, each sharing one
OTSU pass and one proposal-network pass. Beside the hit rates, the report
pairs the localization network with the attention that trained it: the mean
IoU with the object box per level for both, and the number of images only one
of the two localizes at the cam level. These cam-level figures and PCL fall
back to the last configured level of a model without a cam level.
The benchmark compares one shared backbone pass feeding all heads against one
full network pass per head.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import attention as att
from . import pipeline as pl
from . import rpn
from . import synthdata as sd

LOCALIZATION_LEVEL = "cam"  # boxes scored against the object annotation
LOCALIZATION_IOU = 0.5      # a localization counts when its IoU exceeds this
BENCH_MIN_IMAGES = 100      # fewest images a bench run accepts


def accuracy(predictions, labels) -> float:
    predictions = list(predictions)
    labels = list(labels)
    if not predictions:
        raise ValueError("accuracy needs at least one prediction")
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(labels)} labels")
    correct = sum(1 for p, t in zip(predictions, labels) if p == t)
    return correct / len(predictions)


def _box_table(boxes) -> np.ndarray:
    """``boxes``, an [N,4] corner table or N ``Box``es, as [N,4] float64 with N >= 1."""
    table = np.asarray(boxes, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != 4 or not len(table):
        raise ValueError(f"box metrics need at least one box in an [N,4] table, got {table.shape}")
    return table


def _box_ious(pred_boxes, gt_boxes) -> np.ndarray:
    """[N] IoU of each predicted box with its annotated box."""
    pred, gt = _box_table(pred_boxes), _box_table(gt_boxes)
    if len(pred) != len(gt):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gt)} boxes")
    return rpn.iou(pred, gt)


def _hit_rate(ious: np.ndarray) -> float:
    """Fraction of ``ious`` strictly above ``LOCALIZATION_IOU``."""
    return int(np.count_nonzero(ious > LOCALIZATION_IOU)) / len(ious)


def localization_accuracy(pred_boxes, gt_boxes) -> float:
    return _hit_rate(_box_ious(pred_boxes, gt_boxes))


def pcl(pred_boxes, part_points):
    """Per-part and average fraction of part points inside the predicted boxes."""
    boxes = _box_table(pred_boxes)
    part_points = list(part_points)
    if len(boxes) != len(part_points):
        raise ValueError(f"length mismatch: {len(boxes)} boxes vs {len(part_points)} point sets")
    k = len(part_points[0])
    if k == 0:
        raise ValueError("pcl needs at least one part point per image")
    if any(len(parts) != k for parts in part_points):
        raise ValueError("inconsistent part count across images")
    x, y = np.moveaxis(np.asarray(part_points, dtype=np.float64), 2, 0)  # each [N,K]
    inside = ((boxes[:, :1] <= x) & (x < boxes[:, 2:3])
              & (boxes[:, 1:2] <= y) & (y < boxes[:, 3:]))
    per_part = [hits / len(boxes) for hits in inside.sum(axis=0).tolist()]
    return per_part, sum(per_part) / k


def confusion_matrix(predictions, labels, num_classes: int) -> np.ndarray:
    """Counts[i, j] of true class i predicted as j."""
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, t in zip(predictions, labels, strict=True):
        if not (0 <= p < num_classes and 0 <= t < num_classes):
            raise ValueError(f"class out of range [0,{num_classes}): true={t}, predicted={p}")
        m[t, p] += 1
    return m


def top_confused(matrix: np.ndarray, k: int = 5) -> list:
    """Largest off-diagonal entries as (true, predicted, count), ties lexicographic."""
    pairs = sorted((-int(n), i, j) for (i, j), n in np.ndenumerate(matrix) if i != j and n > 0)
    return [(i, j, -n) for n, i, j in pairs[:k]]


# ---------------------------------------------------------------------------
# report


@dataclass
class EvalReport:
    test_count: int
    correct_count: int
    accuracy: float
    per_level_accuracy: dict
    full_image_accuracy: float
    dln_localization: dict            # level -> accuracy at IoU > 0.5
    maen_localization: dict
    # the cam-level figures fall back to the last level of a model without "cam"
    localization_accuracy: float      # dln, cam level
    maen_localization_accuracy: float  # attention, cam level
    dln_mean_iou: dict                # level -> mean IoU with the object box
    maen_mean_iou: dict
    dln_only_localized: int           # cam level: images the dln localizes and attention misses
    maen_only_localized: int          # cam level: images attention localizes and the dln misses
    pcl_per_part: list                # dln box, cam level
    pcl_average: float
    confusion: list                   # row-major counts
    top_confused_pairs: list
    levels: list
    timing: dict | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def evaluate_model(model: pl.TrainedModel, test_dir) -> EvalReport:
    """Run inference over a test split and score it against the annotations."""
    view = sd.TrainView(test_dir)
    annotations = sd.load_annotations(test_dir)
    for name in view.filenames:
        if name not in annotations:
            raise ValueError(f"{os.path.join(test_dir, 'annotations.tsv')}: no annotation for {name}")
    levels = list(model.levels)
    num_classes = model.config.backbone.num_classes

    predictions, attended_boxes = [], []
    for images in pl.batches(view.images):
        attended = att.pseudo_boxes_batch(images, model.maen_params, model.config.backbone)
        predictions += pl._infer(model, [[(model.levels, late)] for _, late in attended])
        attended_boxes += [boxes for boxes, _ in attended]
    attended_boxes = np.stack(attended_boxes)  # [N,L,4]

    labels = view.labels.tolist()
    fused = [p.predicted_class for p in predictions]
    gt_boxes = _box_table([annotations[name].object_box for name in view.filenames])
    parts = [annotations[name].part_points for name in view.filenames]

    per_level_acc = {
        level: accuracy([int(np.argmax(p.per_level[level].scores)) for p in predictions], labels)
        for level in levels
    }
    dln_iou = {level: _box_ious([p.per_level[level].box for p in predictions], gt_boxes)
               for level in levels}
    maen_iou = {level: _box_ious(attended_boxes[:, j], gt_boxes) for j, level in enumerate(levels)}
    dln_loc = {level: _hit_rate(ious) for level, ious in dln_iou.items()}
    maen_loc = {level: _hit_rate(ious) for level, ious in maen_iou.items()}

    loc_level = LOCALIZATION_LEVEL if LOCALIZATION_LEVEL in dln_loc else levels[-1]
    dln_hits = dln_iou[loc_level] > LOCALIZATION_IOU
    maen_hits = maen_iou[loc_level] > LOCALIZATION_IOU
    loc_boxes = [p.per_level[loc_level].box for p in predictions]
    per_part, pcl_avg = pcl(loc_boxes, parts)
    matrix = confusion_matrix(fused, labels, num_classes)

    return EvalReport(
        test_count=len(view),
        correct_count=int(sum(1 for p, t in zip(fused, labels) if p == t)),
        accuracy=accuracy(fused, labels),
        per_level_accuracy=per_level_acc,
        full_image_accuracy=accuracy(
            [int(np.argmax(p.full_image_scores)) for p in predictions], labels),
        dln_localization=dln_loc,
        maen_localization=maen_loc,
        localization_accuracy=dln_loc[loc_level],
        maen_localization_accuracy=maen_loc[loc_level],
        dln_mean_iou={level: float(ious.mean()) for level, ious in dln_iou.items()},
        maen_mean_iou={level: float(ious.mean()) for level, ious in maen_iou.items()},
        dln_only_localized=int(np.count_nonzero(dln_hits & ~maen_hits)),
        maen_only_localized=int(np.count_nonzero(maen_hits & ~dln_hits)),
        pcl_per_part=per_part,
        pcl_average=pcl_avg,
        confusion=matrix.tolist(),
        top_confused_pairs=top_confused(matrix),
        levels=levels,
    )


def write_report(report: EvalReport, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json())
    c = len(report.confusion)
    with open(os.path.join(out_dir, "confusion_matrix.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("true\\predicted," + ",".join(str(j) for j in range(c)) + "\n")
        for i, row in enumerate(report.confusion):
            fh.write(f"{i}," + ",".join(str(v) for v in row) + "\n")
    with open(os.path.join(out_dir, "pcl.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("part,fraction\n")
        for idx, frac in enumerate(report.pcl_per_part):
            fh.write(f"{idx},{repr(frac)}\n")
        fh.write(f"average,{repr(report.pcl_average)}\n")


# ---------------------------------------------------------------------------
# benchmark


def bench(model: pl.TrainedModel, images, mode: str, repeats: int = 5) -> float:
    """Median images/second over ``repeats`` timed passes (one warm-up pass excluded).

    ``shared`` runs the n-pathway once per image; ``separate`` runs one full
    network per level per image.
    """
    if repeats < 1:
        raise ValueError(f"bench needs repeats >= 1, got {repeats}")
    if len(images) < BENCH_MIN_IMAGES:
        raise ValueError(f"bench needs at least {BENCH_MIN_IMAGES} images, got {len(images)}")
    if mode == "shared":
        run = pl.infer
    elif mode == "separate":
        run = pl.infer_separate
    else:
        raise ValueError(f"unknown bench mode {mode!r}")

    for img in images:  # warm-up, excluded from timing
        run(img, model)
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        for img in images:
            run(img, model)
        rates.append(len(images) / (time.perf_counter() - start))
    return statistics.median(rates)
