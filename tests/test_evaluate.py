import os
import re
import shutil

import numpy as np
import pytest

from wsdl import attention as att
from wsdl import evaluate as ev
from wsdl import rpn
from wsdl.attention import Box


def test_accuracy_examples():
    assert ev.accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert ev.accuracy([1] * 7 + [0] * 3, [1] * 10) == 0.7
    assert ev.accuracy([0, 0], [1, 2]) == 0.0
    with pytest.raises(ValueError):
        ev.accuracy([], [])
    with pytest.raises(ValueError):
        ev.accuracy([1], [1, 2])


def test_localization_examples():
    boxes = [Box(0, 0, 10, 10), Box(5, 5, 20, 20)]
    assert ev.localization_accuracy(boxes, boxes) == 1.0

    # IoU exactly 0.5 must not count ("exceeds" is strict)
    a = Box(0, 0, 10, 10)
    b = Box(0, 0, 10, 5)
    assert rpn.iou(a, b) == 0.5
    assert ev.localization_accuracy([b], [a]) == 0.0

    with pytest.raises(ValueError):
        ev.localization_accuracy([a], [a, b])


def test_localization_matches_counting_oracle():
    rng = np.random.default_rng(0)
    pred, gt = [], []
    for _ in range(20):
        mins = rng.uniform(0, 30, size=4)
        pred.append(Box(mins[0], mins[1], mins[0] + rng.uniform(2, 30), mins[1] + rng.uniform(2, 30)))
        gt.append(Box(mins[2], mins[3], mins[2] + rng.uniform(2, 30), mins[3] + rng.uniform(2, 30)))
    expected = sum(1 for p, g in zip(pred, gt) if rpn.iou(p, g) > 0.5) / 20
    assert abs(ev.localization_accuracy(pred, gt) - expected) < 1e-9


@pytest.mark.parametrize("metric", [ev.localization_accuracy, ev.pcl])
def test_box_metrics_reject_empty_input(metric):
    with pytest.raises(ValueError, match="at least one"):
        metric([], [])


def test_box_metrics_read_tables_as_box_lists():
    rng = np.random.default_rng(2)
    mins = rng.uniform(0, 30, size=(30, 2))
    pred = np.concatenate([mins, mins + rng.uniform(2, 30, size=(30, 2))], axis=1)
    gt = np.concatenate([mins + 3, mins + rng.uniform(5, 30, size=(30, 2))], axis=1)
    points = [[tuple(p) for p in rng.uniform(0, 64, size=(2, 2))] for _ in range(30)]
    pred_boxes, gt_boxes = [Box(*r) for r in pred], [Box(*r) for r in gt]
    assert ev.localization_accuracy(pred, gt) == ev.localization_accuracy(pred_boxes, gt_boxes)
    assert ev.pcl(pred, points) == ev.pcl(pred_boxes, points)
    with pytest.raises(ValueError, match=r"\[N,4\]"):
        ev.localization_accuracy(pred[:, :3], gt[:, :3])
    with pytest.raises(ValueError, match="inconsistent part count"):
        ev.pcl(pred[:2], [[(1.0, 1.0)], [(1.0, 1.0), (2.0, 2.0)]])


def test_pcl_rejects_images_without_part_points():
    with pytest.raises(ValueError, match="at least one part point"):
        ev.pcl([Box(0, 0, 1, 1)], [[]])
    with pytest.raises(ValueError, match="at least one part point"):
        ev.pcl([Box(0, 0, 1, 1), Box(0, 0, 1, 1)], [[], []])


def test_pcl_examples():
    box = Box(0, 0, 10, 10)
    per_part, avg = ev.pcl([box], [[(5.0, 5.0), (10.0, 5.0), (0.0, 0.0)]])
    # strictly inside counts, the half-open far edge does not, the near edge does
    assert per_part == [1.0, 0.0, 1.0]
    assert abs(avg - 2 / 3) < 1e-12

    whole = Box(0, 0, 64, 64)
    per_part, avg = ev.pcl([whole, whole], [[(1, 1), (2, 2)], [(60, 60), (3, 3)]])
    assert per_part == [1.0, 1.0] and avg == 1.0


def test_pcl_brute_force_oracle():
    rng = np.random.default_rng(1)
    boxes, points = [], []
    for _ in range(100):
        m = rng.uniform(0, 40, size=2)
        boxes.append(Box(m[0], m[1], m[0] + rng.uniform(2, 24), m[1] + rng.uniform(2, 24)))
        points.append([tuple(rng.uniform(0, 64, size=2)) for _ in range(3)])
    per_part, avg = ev.pcl(boxes, points)
    for k in range(3):
        expected = sum(
            1 for box, pts in zip(boxes, points)
            if box.x_min <= pts[k][0] < box.x_max and box.y_min <= pts[k][1] < box.y_max
        ) / len(boxes)
        assert per_part[k] == expected
    assert abs(avg - sum(per_part) / 3) < 1e-12


def test_confusion_matrix_examples():
    m = ev.confusion_matrix([0, 1, 2], [0, 1, 2], 3)
    assert np.array_equal(m, np.eye(3, dtype=np.int64))

    labels = [0, 0, 1, 1, 1, 2]
    preds = [0, 1, 1, 1, 0, 2]
    m = ev.confusion_matrix(preds, labels, 3)
    assert m.sum() == len(labels)
    assert np.array_equal(m.sum(axis=1), np.bincount(labels, minlength=3))
    assert m[0, 1] == 1 and m[1, 0] == 1 and m[2, 2] == 1

    with pytest.raises(ValueError):
        ev.confusion_matrix([3], [0], 3)


def test_top_confused_ordering():
    m = np.array([[5, 2, 0], [4, 5, 1], [0, 0, 5]])
    pairs = ev.top_confused(m, k=2)
    assert pairs == [(1, 0, 4), (0, 1, 2)]


def test_bench_requires_enough_images():
    with pytest.raises(ValueError, match="100"):
        ev.bench(None, [np.zeros((3, 64, 64))] * 5, "shared")
    with pytest.raises(ValueError, match="mode"):
        ev.bench(None, [np.zeros((3, 64, 64))] * 100, "bogus")


def test_bench_rejects_no_repeats_before_warm_up():
    # the model is never touched: the check comes before the warm-up pass
    for repeats in (0, -1):
        with pytest.raises(ValueError, match="repeats"):
            ev.bench(None, [np.zeros((3, 64, 64))] * 100, "shared", repeats=repeats)


def test_evaluate_model_names_a_test_image_without_annotation(tiny_setup, tmp_path, monkeypatch):
    # a bare KeyError before, after the whole inference pass
    test_dir = tmp_path / "test"
    shutil.copytree(os.path.join(tiny_setup.data, "test"), test_dir)
    annotations = test_dir / "annotations.tsv"
    annotations.write_text("".join(annotations.read_text().splitlines(keepends=True)[1:]))

    def no_inference(*args):
        raise AssertionError("inference ran")

    monkeypatch.setattr(att, "pseudo_boxes_batch", no_inference)
    with pytest.raises(ValueError, match=f"^{re.escape(str(annotations))}: no annotation for "
                                         r"img_00000\.ppm$"):
        ev.evaluate_model(tiny_setup.model, test_dir)
