import math

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import heads
from wsdl import rpn
from wsdl.attention import Box
from wsdl.autodiff import Tensor

from oracles import finite_difference, gradient_mismatch, grid_box_direct, roi_pool_direct


@pytest.fixture
def cfg():
    return heads.HeadConfig(num_classes=4)


@pytest.mark.parametrize("kwargs", [
    {"fg_fraction": 3.0}, {"fg_fraction": -0.1}, {"fg_iou": 0.0}, {"fg_iou": 1.5},
    {"fg_iou": math.nan},  # a NaN fails every range
])
def test_config_rejects_out_of_range_fractions(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        heads.HeadConfig(**kwargs)


def test_config_accepts_range_ends():
    heads.HeadConfig(fg_fraction=0.0, fg_iou=1.0)
    heads.HeadConfig(fg_fraction=1.0, fg_iou=1e-9)


# ---------------------------------------------------------------------------
# RoI pooling


def test_roi_pool_whole_map_single_bin():
    rng = np.random.default_rng(0)
    fmap = rng.normal(size=(3, 8, 8))
    out = heads.roi_pool(fmap, Box(0, 0, 64, 64), stride=8, roi_out=(1, 1))
    assert np.array_equal(out[:, 0, 0], fmap.max(axis=(1, 2)))


def test_roi_pool_ramp_quadrants():
    ramp = np.arange(16, dtype=np.float64).reshape(1, 4, 4)
    out = heads.roi_pool(ramp, Box(0, 0, 32, 32), stride=8, roi_out=(2, 2))
    assert np.array_equal(out[0], [[5.0, 7.0], [13.0, 15.0]])
    assert np.array_equal(out, roi_pool_direct(ramp, (0, 0, 4, 4), 2, 2))


def test_roi_pool_constant_map():
    fmap = np.full((2, 8, 8), 3.5)
    out = heads.roi_pool(fmap, Box(5, 5, 30, 30), stride=8, roi_out=(4, 4))
    assert np.all(out == 3.5)


def test_roi_pool_never_exceeds_region_max():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fmap = rng.normal(size=(2, 8, 8))
        mins = rng.uniform(0, 56, size=2)
        box = Box(mins[0], mins[1], mins[0] + rng.uniform(1, 64 - mins[0]),
                  mins[1] + rng.uniform(1, 64 - mins[1]))
        x0, y0, x1, y1 = grid_box_direct(np.asarray(box), 8, 8, 8)
        region_max = fmap[:, y0:y1, x0:x1].max(axis=(1, 2))
        out = heads.roi_pool(fmap, box, stride=8, roi_out=(4, 4))
        assert np.all(out.max(axis=(1, 2)) <= region_max + 1e-12)


def test_roi_pool_matches_direct_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h, w = rng.integers(2, 10, size=2)
        fmap = rng.normal(size=(rng.integers(1, 4), h, w))
        x0 = rng.integers(0, w)
        y0 = rng.integers(0, h)
        grid_box = (x0, y0, rng.integers(x0 + 1, w + 1), rng.integers(y0 + 1, h + 1))
        box = Box(grid_box[0] * 8, grid_box[1] * 8, grid_box[2] * 8, grid_box[3] * 8)
        out = heads.roi_pool(fmap, box, stride=8, roi_out=(4, 4))
        assert np.allclose(out, roi_pool_direct(fmap, grid_box, 4, 4))


def test_roi_pool_outside_grid_rejected():
    fmap = np.zeros((1, 8, 8))
    with pytest.raises(ValueError):
        heads.roi_pool(fmap, Box(70, 70, 80, 80), stride=8)


def _random_table(rng, h, w, stride):
    """An [R,4] table of fractional boxes: random ones, the whole image, one-cell
    boxes and boxes that cross the border."""
    r = int(rng.integers(1, 21))
    ih, iw = h * stride, w * stride
    kinds = rng.integers(0, 4, size=r)
    rows = []
    for kind in kinds:
        if kind == 0:    # anywhere, fractional
            x0, y0 = rng.uniform(0, iw - 0.5), rng.uniform(0, ih - 0.5)
            rows.append([x0, y0, rng.uniform(x0 + 0.25, iw), rng.uniform(y0 + 0.25, ih)])
        elif kind == 1:  # the whole image
            rows.append([0.0, 0.0, float(iw), float(ih)])
        elif kind == 2:  # inside one cell
            cx, cy = rng.integers(0, w), rng.integers(0, h)
            a, b = np.sort(rng.uniform(0, stride, size=2)), np.sort(rng.uniform(0, stride, size=2))
            rows.append([cx * stride + a[0], cy * stride + b[0],
                         cx * stride + max(a[1], a[0] + 0.1), cy * stride + max(b[1], b[0] + 0.1)])
        else:            # crosses the border on some side
            x0, y0 = rng.uniform(-3 * stride, iw - 1), rng.uniform(-3 * stride, ih - 1)
            rows.append([x0, y0, rng.uniform(max(x0, 0) + 0.5, iw + 3 * stride),
                         rng.uniform(max(y0, 0) + 0.5, ih + 3 * stride)])
    return np.array(rows)


def test_roi_pool_batch_matches_direct_oracle_row_by_row():
    rng = np.random.default_rng(21)
    stride = 8
    for trial in range(60):
        h, w = (int(v) for v in rng.integers(2, 11, size=2))
        c = int(rng.integers(1, 71))
        oh, ow = (int(v) for v in rng.integers(1, 6, size=2))
        dtype = np.float64 if trial % 2 else np.float32
        fmap = rng.normal(size=(c, h, w)).astype(dtype)
        table = _random_table(rng, h, w, stride)
        out = heads.roi_pool_batch(fmap, table, stride, (oh, ow))
        assert out.shape == (len(table), c, oh, ow) and out.dtype == dtype
        for row, got in zip(table, out):
            want = roi_pool_direct(fmap, grid_box_direct(row, stride, h, w), oh, ow)
            assert np.array_equal(got, want.astype(dtype))
            assert np.array_equal(heads.roi_pool(fmap, Box(*row), stride, (oh, ow)), got)


@pytest.mark.parametrize("bad", [
    [70.0, 70.0, 80.0, 80.0],           # below and right of the 8x8 grid
    [-20.0, 5.0, -1.0, 30.0],           # left of it
    [np.nan, 0.0, 10.0, 10.0],
    [0.0, 0.0, np.inf, 10.0],
    [10.0, 5.0, 10.0, 30.0],            # zero width
    [5.0, 30.0, 20.0, 12.0],            # negative height
])
def test_roi_pool_batch_rejects_bad_row_by_index(bad):
    fmap = np.zeros((2, 8, 8))
    table = np.array([[0.0, 0.0, 64.0, 64.0], [8.0, 8.0, 24.0, 40.0], bad, [1.0, 1.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match="row 2 "):
        heads.roi_pool_batch(fmap, table, stride=8)


@pytest.mark.parametrize("table", [np.zeros((0, 4)), np.zeros(4), np.zeros((3, 5))])
def test_roi_pool_batch_rejects_malformed_table(table):
    with pytest.raises(ValueError, match=r"\[R,4\]"):
        heads.roi_pool_batch(np.zeros((1, 8, 8)), table, stride=8)


# ---------------------------------------------------------------------------
# head network


def test_head_forward_contract(cfg):
    params = heads.init_head_params(cfg, in_channels=8, rng=np.random.default_rng(3))
    pooled = np.random.default_rng(4).normal(size=(5, 8, 4, 4))
    scores, deltas = heads.head_forward(params, pooled, cfg)
    assert scores.shape == (5, cfg.num_classes + 1)
    assert deltas.shape == (5, 4)
    assert np.abs(scores.data.sum(axis=1) - 1.0).max() < 1e-6

    scores2, deltas2 = heads.head_forward(params, pooled, cfg)
    assert np.array_equal(scores.data, scores2.data)
    assert np.array_equal(deltas.data, deltas2.data)


def test_head_forward_ignores_roi_scale(cfg):
    params = heads.init_head_params(cfg, in_channels=8, rng=np.random.default_rng(12))
    pooled = np.random.default_rng(13).normal(size=(3, 8, 4, 4))
    scores, deltas = heads.head_forward(params, pooled, cfg)
    scaled = pooled.copy()
    scaled[1] *= 37.5
    scores2, deltas2 = heads.head_forward(params, scaled, cfg)
    # rows are normalized independently: the untouched rows are bit-identical
    assert np.array_equal(scores.data[[0, 2]], scores2.data[[0, 2]])
    # equal up to the epsilon added to the RMS
    assert np.allclose(scores2.data[1], scores.data[1], rtol=1e-5, atol=1e-6)
    assert np.allclose(deltas2.data[1], deltas.data[1], rtol=1e-5, atol=1e-6)


def test_head_forward_zero_roi_finite(cfg):
    params = heads.init_head_params(cfg, in_channels=8, rng=np.random.default_rng(14))
    pooled = np.zeros((2, 8, 4, 4), dtype=np.float32)
    pooled[1] = np.random.default_rng(15).normal(size=(8, 4, 4))
    scores, deltas = heads.head_forward(params, pooled, cfg)
    assert np.all(np.isfinite(scores.data)) and np.all(np.isfinite(deltas.data))
    assert np.abs(scores.data.sum(axis=1) - 1.0).max() < 1e-6
    # a zero RoI stays zero after normalization, so only the biases act on it
    zero_bias = heads.head_forward(params, np.zeros((1, 8, 4, 4)), cfg)[0]
    assert np.allclose(zero_bias.data[0], scores.data[0])


def test_head_forward_divides_each_roi_by_its_rms():
    cfg = heads.HeadConfig(num_classes=4, roi_out=(1, 1), hidden=2)
    params = heads.init_head_params(cfg, in_channels=2, rng=np.random.default_rng(16))
    params["head.fc.weight"].data[...] = [[1.0, -1.0], [-1.0, 1.0]]  # zero biases
    params["head.reg.weight"].data[...] = np.eye(2, 4)
    # [3,-4] has RMS sqrt(12.5): hidden = relu([7, -7] / sqrt(12.5)), deltas its first unit
    _, deltas = heads.head_forward(params, np.array([3.0, -4.0]).reshape(1, 2, 1, 1), cfg)
    assert np.allclose(deltas.data[0], [7.0 / math.sqrt(12.5), 0.0, 0.0, 0.0])


def test_head_forward_zero_weights_uniform(cfg):
    params = heads.init_head_params(cfg, in_channels=8, rng=np.random.default_rng(5))
    for p in params.values():
        p.data[...] = 0.0
    pooled = np.random.default_rng(6).normal(size=(2, 8, 4, 4))
    scores, deltas = heads.head_forward(params, pooled, cfg)
    assert np.allclose(scores.data, 1.0 / (cfg.num_classes + 1))
    assert np.all(deltas.data == 0.0)


# ---------------------------------------------------------------------------
# targets


def test_head_targets_examples(cfg):
    pseudo = Box(10, 10, 30, 30)
    rng = np.random.default_rng(7)
    rois, cls_t, delta_t, fg = heads.head_targets(
        [pseudo, Box(40, 40, 60, 60)], pseudo, image_label=2, config=cfg, rng=rng,
        image_size=(64, 64))
    by_box = {tuple(r): i for i, r in enumerate(rois)}
    exact = by_box[(10, 10, 30, 30)]
    assert cls_t[exact] == 2 and fg[exact]
    assert np.allclose(delta_t[exact], 0.0)
    disjoint = by_box[(40, 40, 60, 60)]
    assert cls_t[disjoint] == cfg.background and not fg[disjoint]
    # whole-image box was appended as a candidate and is labelled with the
    # image's class, though its IoU with the pseudo box is below fg_iou; it
    # gets no regression target
    whole = by_box[(0.0, 0.0, 64.0, 64.0)]
    assert whole == len(rois) - 1
    assert cls_t[whole] == 2 and not fg[whole]
    assert np.all(delta_t[whole] == 0.0)


def test_head_targets_whole_image_always_sampled(cfg):
    # more proposals than slots, foreground and background alike
    proposals = [Box(x, y, x + 20, y + 20) for x in range(0, 44, 4) for y in range(0, 44, 4)]
    pseudo = Box(10, 10, 30, 30)
    want_fg = int(round(cfg.fg_fraction * (cfg.rois_per_image - 1)))
    for seed in range(20):
        rois, cls_t, delta_t, fg = heads.head_targets(
            proposals, pseudo, image_label=3, config=cfg, rng=np.random.default_rng(seed),
            image_size=(64, 64))
        rois = [Box(*r) for r in rois]
        assert len(rois) == cfg.rois_per_image
        assert rois[-1] == Box(0, 0, 64, 64)
        assert rois[:-1].count(Box(0, 0, 64, 64)) == 0
        assert cls_t[-1] == 3 and not fg[-1]
        assert fg.sum() == want_fg
        for r, c, f in zip(rois[:-1], cls_t[:-1], fg[:-1]):
            assert f == (rpn.iou(r, pseudo) >= cfg.fg_iou)
            assert c == (3 if f else cfg.background)


def test_head_targets_whole_image_regression_follows_iou(cfg):
    # the pseudo box covers the whole image: the whole-image RoI is foreground
    # by IoU too, so it gets a regression target; the proposals' foreground
    # share of the other slots is unchanged
    proposals = [Box(0, 0, 64 - d, 64 - d) for d in range(0, 20, 2)] + \
        [Box(40, 40, 60, 60)] * 20
    rois, cls_t, delta_t, fg = heads.head_targets(
        proposals, Box(0, 0, 64, 64), image_label=1, config=cfg,
        rng=np.random.default_rng(18), image_size=(64, 64))
    assert cls_t[-1] == 1 and fg[-1]
    assert np.allclose(delta_t[-1], 0.0)
    assert fg[:-1].sum() == int(round(cfg.fg_fraction * (cfg.rois_per_image - 1)))
    assert len(rois) == cfg.rois_per_image


def test_head_targets_labels_follow_scalar_iou():
    rng = np.random.default_rng(19)
    pseudo = Box(*(rng.uniform(0, 20, 2).tolist() + rng.uniform(30, 64, 2).tolist()))
    mins = rng.uniform(0, 40, size=(40, 2))
    proposals = [Box(*m, *(m + rng.uniform(4, 24, 2))) for m in mins]
    config = heads.HeadConfig(num_classes=4, rois_per_image=64, fg_fraction=1.0)
    rois, cls_t, delta_t, fg = heads.head_targets(
        proposals, pseudo, image_label=2, config=config, rng=rng, image_size=(64, 64))
    assert len(rois) == len(proposals) + 1
    for r, f in zip(rois, fg):
        assert f == (rpn.iou(Box(*r), pseudo) >= config.fg_iou)


def test_head_targets_inclusive_boundary(cfg):
    # proposal with IoU exactly 0.5 against the pseudo box
    pseudo = Box(0, 0, 10, 10)
    proposal = Box(0, 0, 10, 5)
    rois, cls_t, delta_t, fg = heads.head_targets(
        [proposal], pseudo, image_label=1, config=cfg, rng=np.random.default_rng(8),
        image_size=(64, 64))
    i = next(i for i, r in enumerate(rois) if Box(*r) == proposal)
    assert fg[i] and cls_t[i] == 1


def test_head_targets_sampling_cap(cfg):
    rng = np.random.default_rng(9)
    proposals = [Box(x, x, x + 20, x + 20) for x in range(0, 40, 2)]
    rois, cls_t, delta_t, fg = heads.head_targets(
        proposals, Box(10, 10, 30, 30), image_label=0, config=cfg, rng=rng,
        image_size=(64, 64))
    assert len(rois) <= cfg.rois_per_image
    assert fg.sum() <= int(round(cfg.fg_fraction * cfg.rois_per_image))


def test_head_loss_zero_at_perfect_and_gradcheck(cfg):
    rng = np.random.default_rng(10)
    r = 6
    cls_t = rng.integers(0, cfg.num_classes + 1, size=r)
    fg_mask = cls_t != cfg.background
    delta_t = np.where(fg_mask[:, None], rng.normal(size=(r, 4)) * 0.5, 0.0)

    perfect_scores = np.zeros((r, cfg.num_classes + 1))
    perfect_scores[np.arange(r), cls_t] = 1.0
    loss = heads.head_loss(Tensor(perfect_scores), Tensor(delta_t), cls_t, delta_t, fg_mask)
    assert loss.item() == 0.0

    raw = rng.uniform(0.05, 1.0, size=(r, cfg.num_classes + 1))
    scores = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
    deltas = Tensor(rng.normal(size=(r, 4)), requires_grad=True)

    def forward():
        return heads.head_loss(scores, deltas, cls_t, delta_t, fg_mask)

    ad.backward(forward())
    for p in (scores, deltas):
        numeric = finite_difference(lambda: forward().item(), p.data)
        assert gradient_mismatch(p.grad, numeric) < 1e-4


# ---------------------------------------------------------------------------
# fusion


def test_fuse_identical_vectors():
    v = np.array([0.1, 0.2, 0.7])
    fused, cls = heads.fuse_scores([v, v], v)
    assert np.allclose(fused, v)
    assert cls == 2


def test_fuse_symmetric_tie_takes_lowest():
    fused, cls = heads.fuse_scores([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                                   np.array([0.5, 0.5]))
    assert np.allclose(fused, [0.5, 0.5])
    assert cls == 0


def test_fuse_permutation_invariant():
    rng = np.random.default_rng(11)
    vs = [rng.dirichlet(np.ones(5)) for _ in range(3)]
    full = rng.dirichlet(np.ones(5))
    a, _ = heads.fuse_scores(vs, full)
    b, _ = heads.fuse_scores(vs[::-1], full)
    assert np.allclose(a, b)
    assert abs(a.sum() - 1.0) < 1e-6


def test_fuse_length_mismatch():
    with pytest.raises(ValueError):
        heads.fuse_scores([np.array([0.5, 0.5])], np.array([0.3, 0.3, 0.4]))


def test_renormalize_foreground():
    scores = np.array([0.2, 0.1, 0.1, 0.2, 0.4])  # last is background
    fg = heads.renormalize_foreground(scores, 4)
    assert abs(fg.sum() - 1.0) < 1e-12
    assert np.allclose(fg, [1 / 3, 1 / 6, 1 / 6, 1 / 3])
