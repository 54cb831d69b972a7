import math

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import rpn
from wsdl.attention import Box
from wsdl.autodiff import Tensor

from oracles import finite_difference, gradient_mismatch, iou_raster, nms_bruteforce


@pytest.fixture
def cfg():
    return rpn.AnchorConfig()


def test_config_validation():
    with pytest.raises(ValueError):
        rpn.AnchorConfig(scales=(16.0, 32.0))
    with pytest.raises(ValueError):
        rpn.AnchorConfig(pos_iou=0.3, neg_iou=0.4)


# ---------------------------------------------------------------------------
# anchors


def test_anchor_counts(cfg):
    assert rpn.generate_anchors(4, 4, cfg).shape == (144, 4)
    nine = rpn.generate_anchors(1, 1, cfg)
    assert nine.shape == (9, 4)
    centers_x = (nine[:, 0] + nine[:, 2]) / 2
    centers_y = (nine[:, 1] + nine[:, 3]) / 2
    assert np.allclose(centers_x, 4.0) and np.allclose(centers_y, 4.0)


def test_square_anchor_from_unit_ratio(cfg):
    anchors = rpn.generate_anchors(1, 1, cfg)
    for i, s in enumerate(cfg.scales):
        a = anchors[i * 3 + 1]  # ratio 1.0 sits in the middle
        assert math.isclose(a[2] - a[0], s)
        assert math.isclose(a[3] - a[1], s)


def test_anchor_shapes_follow_sqrt_ratio(cfg):
    anchors = rpn.generate_anchors(1, 1, cfg)
    for i, s in enumerate(cfg.scales):
        for j, r in enumerate(cfg.ratios):
            a = anchors[i * 3 + j]
            assert math.isclose(a[2] - a[0], s / math.sqrt(r))
            assert math.isclose(a[3] - a[1], s * math.sqrt(r))


# ---------------------------------------------------------------------------
# IoU


def test_iou_examples():
    a = Box(0, 0, 10, 10)
    assert rpn.iou(a, a) == 1.0
    assert rpn.iou(a, Box(20, 20, 30, 30)) == 0.0
    got = rpn.iou(a, Box(5, 5, 15, 15))
    assert abs(got - 25.0 / 175.0) < 1e-12
    assert abs(got - iou_raster((0, 0, 10, 10), (5, 5, 15, 15))) < 1e-9


def test_iou_properties_against_raster_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        ax = np.sort(rng.integers(0, 33, size=2))
        ay = np.sort(rng.integers(0, 33, size=2))
        bx = np.sort(rng.integers(0, 33, size=2))
        by = np.sort(rng.integers(0, 33, size=2))
        if ax[0] == ax[1] or ay[0] == ay[1] or bx[0] == bx[1] or by[0] == by[1]:
            continue
        a = Box(ax[0], ay[0], ax[1], ay[1])
        b = Box(bx[0], by[0], bx[1], by[1])
        v = rpn.iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == rpn.iou(b, a)
        assert (v == 1.0) == (a == b)
        expected = iou_raster((ax[0], ay[0], ax[1], ay[1]), (bx[0], by[0], bx[1], by[1]), span=33)
        assert abs(v - expected) < 1e-9


def test_iou_matrix_matches_pairwise():
    rng = np.random.default_rng(1)
    boxes = rng.uniform(0, 30, size=(6, 2))
    boxes = np.concatenate([boxes, boxes + rng.uniform(1, 20, size=(6, 2))], axis=1)
    others = rng.uniform(0, 30, size=(4, 2))
    others = np.concatenate([others, others + rng.uniform(1, 20, size=(4, 2))], axis=1)
    m = rpn.iou_matrix(boxes, others)
    for i in range(6):
        for j in range(4):
            assert abs(m[i, j] - rpn.iou(Box(*boxes[i]), Box(*others[j]))) < 1e-12


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_examples():
    anchor = np.array([[0.0, 0, 10, 10]])
    assert np.allclose(rpn.encode_boxes(anchor, anchor), np.zeros((1, 4)))
    delta = rpn.encode_boxes(np.array([[0.0, 0, 20, 20]]), anchor)
    assert np.allclose(delta, [[0.5, 0.5, math.log(2), math.log(2)]])
    with pytest.raises(ValueError):
        rpn.encode_boxes(np.array([[0.0, 0, 0, 5]]), np.array([[0.0, 0, 5, 5]]))


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.uniform(0, 40, size=2)
        anchor = np.concatenate([a, a + rng.uniform(0.5, 20, size=2)])
        b = rng.uniform(0, 40, size=2)
        box = np.concatenate([b, b + rng.uniform(0.5, 20, size=2)])
        delta = rpn.encode_boxes(box[None], anchor[None])
        back = rpn.decode_boxes(delta, anchor[None])[0]
        assert np.abs(back - box).max() < 1e-9


def test_decode_clips_to_image():
    anchor = np.array([[50.0, 50, 70, 70]])
    delta = np.array([[0.0, 0.0, 0.0, 0.0]])
    out = rpn.decode_boxes(delta, anchor, image_size=(64, 64))
    assert np.all(out[0] == [50, 50, 64, 64])


# ---------------------------------------------------------------------------
# labeling


def _batch(anchors, boxes, cfg, seed=0):
    return rpn.label_anchors(anchors, boxes, cfg, np.random.default_rng(seed))


def test_label_anchor_equal_to_box(cfg):
    anchors = np.array([[0.0, 0, 10, 10], [40.0, 40, 41, 41]])
    batch = _batch(anchors, [Box(0, 0, 10, 10)], cfg)
    assert batch.labels[0] == rpn.POSITIVE
    assert np.allclose(batch.targets[0], 0.0)


def test_label_thresholds(cfg):
    anchors = np.array([
        [0.0, 0, 10, 10],   # IoU 1.0 -> positive (also global max)
        [0.0, 0, 10, 5],    # IoU 0.5 -> between thresholds, not max -> ignore
        [0.0, 0, 10, 1],    # IoU 0.1 -> negative
    ])
    batch = _batch(anchors, [Box(0, 0, 10, 10)], cfg)
    assert batch.labels.tolist() == [rpn.POSITIVE, rpn.IGNORE, rpn.NEGATIVE]


def test_forced_max_guarantees_positive(cfg):
    # every anchor far below pos_iou, best one gets forced positive
    anchors = np.array([
        [0.0, 0, 10, 2],
        [0.0, 0, 10, 4],
        [30.0, 30, 40, 40],
    ])
    batch = _batch(anchors, [Box(0, 0, 10, 10)], cfg)
    assert (batch.labels == rpn.POSITIVE).sum() == 1
    assert batch.labels[1] == rpn.POSITIVE  # IoU 0.4 beats 0.2


def test_label_requires_boxes(cfg):
    with pytest.raises(ValueError):
        _batch(np.zeros((1, 4)), [], cfg)


@pytest.mark.parametrize("boxes", [[0.0, 0.0, 10.0, 10.0], [[0.0, 0.0, 10.0]], np.zeros((0, 4))])
def test_label_rejects_malformed_table(cfg, boxes):
    with pytest.raises(ValueError, match=r"\[G,4\]"):
        _batch(np.zeros((1, 4)), boxes, cfg)


def test_sampling_cap_and_balance(cfg):
    anchors = rpn.generate_anchors(8, 8, cfg)
    batch = _batch(anchors, [Box(20, 20, 44, 44)], cfg, seed=3)
    assert len(batch.sampled) <= cfg.anchors_per_image_sampled
    labels = batch.labels[batch.sampled]
    n_pos = (labels == rpn.POSITIVE).sum()
    n_neg = (labels == rpn.NEGATIVE).sum()
    assert n_pos >= 1
    assert n_pos + n_neg == len(batch.sampled)
    assert n_pos <= cfg.anchors_per_image_sampled // 2
    assert len(batch.labels) // cfg.anchors_per_cell == 64  # one label per anchor of 64 cells


# ---------------------------------------------------------------------------
# loss


def _perfect_setup(cfg):
    anchors = rpn.generate_anchors(2, 2, cfg)
    batch = _batch(anchors, [Box(4, 4, 20, 20)], cfg, seed=1)
    probs = np.zeros((len(anchors), 2))
    probs[np.arange(len(anchors)), np.clip(batch.labels, 0, 1)] = 1.0
    return anchors, batch, probs


def test_rpn_loss_zero_at_perfect(cfg):
    _, batch, probs = _perfect_setup(cfg)
    loss = rpn.rpn_loss(Tensor(probs), Tensor(batch.targets), batch, cfg)
    assert loss.item() == 0.0


def test_rpn_loss_lambda_behavior(cfg):
    rng = np.random.default_rng(4)
    anchors = rpn.generate_anchors(2, 2, cfg)
    batch = _batch(anchors, [Box(4, 4, 20, 20)], cfg, seed=2)
    raw = rng.uniform(0.05, 1.0, size=(len(anchors), 2))
    probs = raw / raw.sum(axis=1, keepdims=True)
    deltas = rng.normal(size=(len(anchors), 4))

    def loss_with(balance):
        c = rpn.AnchorConfig(loss_balance=balance)
        return rpn.rpn_loss(Tensor(probs), Tensor(deltas), batch, c).item()

    cls_only = loss_with(0.0)
    reg_part = loss_with(10.0) - cls_only
    assert reg_part > 0
    assert abs(loss_with(20.0) - cls_only - 2 * reg_part) < 1e-9


def test_rpn_loss_nonnegative_random(cfg):
    rng = np.random.default_rng(5)
    anchors = rpn.generate_anchors(3, 3, cfg)
    for _ in range(20):
        batch = rpn.label_anchors(anchors, [Box(2, 2, 20, 22)], cfg, rng)
        raw = rng.uniform(0.01, 1.0, size=(len(anchors), 2))
        probs = raw / raw.sum(axis=1, keepdims=True)
        deltas = rng.normal(size=(len(anchors), 4))
        assert rpn.rpn_loss(Tensor(probs), Tensor(deltas), batch, cfg).item() >= 0.0


def test_rpn_loss_misalignment_rejected(cfg):
    anchors = rpn.generate_anchors(2, 2, cfg)
    batch = _batch(anchors, [Box(4, 4, 20, 20)], cfg)
    with pytest.raises(ad.ShapeError):
        rpn.rpn_loss(Tensor(np.zeros((3, 2))), Tensor(np.zeros((len(anchors), 4))), batch, cfg)


def test_rpn_loss_gradcheck(cfg):
    rng = np.random.default_rng(6)
    anchors = rpn.generate_anchors(2, 2, cfg)
    batch = _batch(anchors, [Box(4, 4, 20, 20)], cfg, seed=5)
    raw = rng.uniform(0.05, 1.0, size=(len(anchors), 2))
    probs = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    deltas = Tensor(rng.normal(size=(len(anchors), 4)), requires_grad=True)

    def forward():
        return rpn.rpn_loss(probs, deltas, batch, cfg)

    loss = forward()
    ad.backward(loss)
    for p in (probs, deltas):
        numeric = finite_difference(lambda: forward().item(), p.data)
        assert gradient_mismatch(p.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# NMS and proposals


def test_nms_examples():
    assert rpn.nms(np.array([[0.0, 0, 5, 5]]), np.array([0.5]), 0.5) == [0]

    boxes = np.array([[0.0, 0, 10, 10], [0.0, 0, 10, 10]])
    assert rpn.nms(boxes, np.array([0.8, 0.9]), 0.5) == [1]

    boxes = np.array([[0.0, 0, 5, 5], [10.0, 10, 15, 15], [20.0, 20, 25, 25]])
    assert rpn.nms(boxes, np.array([0.3, 0.9, 0.5]), 0.5) == [1, 2, 0]


def test_nms_matches_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 21)
        mins = rng.uniform(0, 40, size=(n, 2))
        sizes = rng.uniform(1, 25, size=(n, 2))
        boxes = np.concatenate([mins, mins + sizes], axis=1)
        scores = rng.uniform(0, 1, size=n)
        thresh = rng.uniform(0.1, 0.9)
        assert rpn.nms(boxes, scores, thresh) == nms_bruteforce(boxes.tolist(), scores.tolist(), thresh)


def _random_boxes(rng, n, span=64.0):
    mins = rng.uniform(0, span, size=(n, 2))
    return np.concatenate([mins, mins + rng.uniform(1, span / 2, size=(n, 2))], axis=1)


def test_nms_matches_bruteforce_at_pre_nms_top(cfg):
    rng = np.random.default_rng(11)
    for _ in range(50):
        boxes = _random_boxes(rng, cfg.pre_nms_top)
        scores = rng.uniform(0, 1, size=cfg.pre_nms_top)
        for thresh in (cfg.nms_iou, rng.uniform(0.1, 0.9)):
            assert rpn.nms(boxes, scores, thresh) == nms_bruteforce(boxes.tolist(), scores.tolist(), thresh)


def test_nms_duplicate_boxes():
    rng = np.random.default_rng(12)
    boxes = _random_boxes(rng, 64)
    boxes[1::3] = boxes[0]
    boxes[2::5] = boxes[7]
    scores = rng.uniform(0, 1, size=64)
    kept = rpn.nms(boxes, scores, 0.7)
    assert kept == nms_bruteforce(boxes.tolist(), scores.tolist(), 0.7)
    assert sum(1 for i in kept if np.array_equal(boxes[i], boxes[0])) == 1
    assert sum(1 for i in kept if np.array_equal(boxes[i], boxes[7])) == 1


def test_nms_tied_scores_go_to_lower_index():
    boxes = np.array([[0.0, 0, 10, 10], [1.0, 0, 11, 10], [0.0, 0, 10, 10], [30.0, 30, 40, 40]])
    assert rpn.nms(boxes, np.full(4, 0.5), 0.5) == [0, 3]
    rng = np.random.default_rng(13)
    for _ in range(50):
        boxes = _random_boxes(rng, 64, span=16.0)
        scores = rng.integers(0, 4, size=64).astype(np.float64)
        assert rpn.nms(boxes, scores, 0.3) == nms_bruteforce(boxes.tolist(), scores.tolist(), 0.3)


def test_nms_keeps_pair_at_threshold():
    # IoU of [0,10)x[0,10) and [5,15)x[0,10) is 50 / 150 = 1/3 exactly
    boxes = np.array([[0.0, 0, 10, 10], [5.0, 0, 15, 10]])
    thresh = rpn.iou(Box(*boxes[0]), Box(*boxes[1]))
    assert thresh == 50.0 / 150.0
    assert rpn.nms(boxes, np.array([0.9, 0.8]), thresh) == [0, 1]
    assert rpn.nms(boxes, np.array([0.9, 0.8]), np.nextafter(thresh, 0.0)) == [0]
    assert nms_bruteforce(boxes.tolist(), [0.9, 0.8], thresh) == [0, 1]


@pytest.mark.parametrize("bad", [
    [0.0, float("nan"), 10.0, 10.0],
    [0.0, 0.0, float("inf"), 10.0],
    [5.0, 0.0, 5.0, 10.0],
    [0.0, 4.0, 10.0, 3.0],
])
def test_nms_rejects_invalid_boxes(bad):
    boxes = np.array([[0.0, 0, 10, 10], bad, [20.0, 20, 30, 30]])
    with pytest.raises(ValueError, match="finite|positive extent"):
        rpn.nms(boxes, np.array([0.9, 0.5, 0.1]), 0.5)
    with pytest.raises(ValueError):
        Box(*bad)


def test_nms_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="matching"):
        rpn.nms(np.array([[0.0, 0, 10, 10]]), np.array([0.5, 0.4]), 0.5)
    assert rpn.nms(np.zeros((0, 4)), np.zeros(0), 0.5) == []


def _scalar_iou(a, b) -> float:
    """IoU of two corner rows, one Python float operation at a time: the
    per-pair form that the broadcast ``iou`` replaced."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _iou_cases(rng):
    boxes = np.concatenate([_random_boxes(rng, 40), _random_boxes(rng, 8, span=8.0)])
    boxes[:5] = np.round(boxes[:5])
    others = np.concatenate([_random_boxes(rng, 30), boxes[:6]])
    want = np.array([[_scalar_iou(a, b) for b in others.tolist()] for a in boxes.tolist()])
    return boxes, others, want


def test_iou_matrix_bit_exact_to_scalar_iou():
    # nms relies on this: the matrix must reproduce the pairwise values exactly,
    # not to a tolerance
    boxes, others, want = _iou_cases(np.random.default_rng(14))
    m = rpn.iou_matrix(boxes, others)
    assert np.array_equal(m, want)
    for i in range(len(boxes)):
        for j in range(len(others)):
            assert m[i, j] == rpn.iou(Box(*boxes[i]), Box(*others[j]))


def test_iou_broadcasts_bit_exact_to_scalar_iou():
    boxes, others, want = _iou_cases(np.random.default_rng(16))
    assert np.array_equal(rpn.iou(boxes[:, None], others[None]), want)
    assert np.array_equal(rpn.iou(boxes, others[3]), want[:, 3])
    assert np.array_equal(rpn.iou(boxes[: len(others)], others), np.diagonal(want))
    assert np.array_equal(rpn.iou(boxes[:6, None, None], others[None, None]), want[:6, None])
    single = rpn.iou(Box(*boxes[0]), others[0].tolist())
    assert np.ndim(single) == 0 and single == want[0, 0]


def test_propose_contract(cfg):
    rng = np.random.default_rng(8)
    anchors = rpn.generate_anchors(8, 8, cfg)
    raw = rng.uniform(0.01, 1.0, size=(len(anchors), 2))
    probs = raw / raw.sum(axis=1, keepdims=True)
    deltas = rng.normal(size=(len(anchors), 4)) * 0.3
    proposals = rpn.propose(probs, deltas, anchors, cfg, image_size=(64, 64))
    assert 0 < len(proposals) <= cfg.post_nms_top
    proposals = [Box(*row) for row in proposals]
    for box in proposals:
        assert 0.0 <= box.x_min < box.x_max <= 64.0
        assert 0.0 <= box.y_min < box.y_max <= 64.0
    for i, a in enumerate(proposals):
        for b in proposals[i + 1:]:
            assert rpn.iou(a, b) <= cfg.nms_iou


def test_rpn_forward_layout(cfg):
    params = rpn.init_rpn_params(4, cfg, np.random.default_rng(9))
    params["rpn.obj.weight"].data[...] = 0.0
    params["rpn.obj.bias"].data[...] = np.arange(18, dtype=np.float32)
    fmap = np.random.default_rng(10).normal(size=(1, 4, 3, 3))
    probs, deltas = rpn.rpn_forward(params, fmap, cfg)
    assert probs.shape == (81, 2) and deltas.shape == (81, 4)
    # zeroed objectness weights leave only the per-channel bias: row for anchor a
    # must be softmax([2a, 2a+1]) regardless of grid cell
    expected = np.exp([0.0, 1.0]) / np.exp([0.0, 1.0]).sum()
    for row in range(81):
        assert np.allclose(probs.data[row], expected, atol=1e-6)


def test_rpn_forward_batch_rows_equal_single_image_passes(cfg):
    rng = np.random.default_rng(11)
    params = rpn.init_rpn_params(16, cfg, rng)
    maps = rng.normal(size=(5, 16, 8, 8)).astype(np.float32)
    maps[2] = 0.0
    probs, deltas = rpn.rpn_forward(params, maps, cfg)
    singles = [rpn.rpn_forward(params, maps[i : i + 1], cfg) for i in range(5)]
    a = 8 * 8 * cfg.anchors_per_cell
    assert probs.shape == (5 * a, 2) and deltas.shape == (5 * a, 4)
    for i, (p, d) in enumerate(singles):
        assert probs.data[i * a : (i + 1) * a].tobytes() == p.data.tobytes(), i
        assert deltas.data[i * a : (i + 1) * a].tobytes() == d.data.tobytes(), i


def test_decode_rows_do_not_depend_on_their_table():
    rng = np.random.default_rng(12)
    deltas = rng.normal(scale=2.0, size=(200, 4)).astype(np.float32)
    deltas[:5, 2:] = (-800.0, 50.0)  # a collapsed and an overflowing box
    corner = rng.uniform(0, 60, size=(200, 2))
    anchors = np.concatenate([corner, corner + rng.uniform(0.5, 40, size=(200, 2))], axis=1)
    table = rpn.decode_boxes(deltas, anchors, (64, 64))
    for i in range(len(deltas)):
        row = rpn.decode_boxes(deltas[i][None], anchors[i][None], (64, 64))[0]
        assert row.tobytes() == table[i].tobytes(), i
