import numpy as np
import pytest

from wsdl import attention as att
from wsdl import backbone as bb
from wsdl.attention import Box

from oracles import flood_fill_bbox, otsu_exhaustive


def test_box_invariants():
    b = Box(1.0, 2.0, 4.0, 7.0)
    assert b.width == 3.0 and b.height == 5.0 and b.area == 15.0
    assert b.contains(1.0, 2.0)
    assert not b.contains(4.0, 2.0)  # half-open edge
    with pytest.raises(ValueError):
        Box(2.0, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        Box(0.0, 0.0, float("nan"), 1.0)


def test_box_reads_as_corner_row_and_table():
    row = np.asarray(Box(1, 2, 4, 7))
    assert row.dtype == np.float64 and row.tolist() == [1.0, 2.0, 4.0, 7.0]
    table = np.asarray([Box(1, 2, 4, 7), Box(0.5, 0.25, 3.0, 9.5)], dtype=np.float64)
    assert table.shape == (2, 4)
    assert table.tolist() == [[1.0, 2.0, 4.0, 7.0], [0.5, 0.25, 3.0, 9.5]]


# ---------------------------------------------------------------------------
# attention maps


def test_attention_map_constant_channels_mean():
    features = np.full((4, 3, 3), 8.0)
    amap = att.attention_map(features)
    assert np.allclose(amap, 8.0)


def test_attention_map_cam_one_hot_selects_channel():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(5, 4, 4))
    weights = np.zeros((5, 3))
    weights[2, 1] = 1.0
    amap = att.attention_map(features, class_weights=weights[:, 1])
    assert np.array_equal(amap, features[2])


def test_attention_map_cancellation():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    amap = att.attention_map(np.stack([a, -a]))
    assert np.abs(amap).max() < 1e-12


def test_attention_map_mean_property():
    rng = np.random.default_rng(2)
    for _ in range(20):
        features = rng.normal(size=(rng.integers(1, 8), 5, 7))
        amap = att.attention_map(features)
        assert np.abs(amap - features.mean(axis=0)).max() < 1e-9


# ---------------------------------------------------------------------------
# OTSU


def test_otsu_two_cluster_map():
    values = np.array([[0.0, 0, 0], [1, 1, 1]])
    thresh = att.otsu_threshold(values)
    assert thresh is not None and 0.0 < thresh < 1.0
    mask = att.binarize([values])[0][0]
    assert np.array_equal(mask, values >= 0.5)


def test_otsu_constant_map_degenerate():
    assert att.otsu_threshold(np.full((4, 4), 2.5)) is None
    masks, thresholds = att.binarize([np.full((4, 4), 2.5)])
    assert thresholds[0] is None
    assert masks[0].all()


def test_otsu_two_valued_maps():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = sorted(rng.normal(size=2))
        if a == b:
            continue
        n, m = rng.integers(1, 20), rng.integers(1, 20)
        values = np.array([a] * n + [b] * m)
        thresh = att.otsu_threshold(values)
        assert 0.0 < thresh < 1.0
        mask = values >= a + thresh * (b - a)
        # normalized threshold separates the two values
        assert mask.sum() == m


def test_otsu_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for trial in range(200):
        shape = (rng.integers(1, 12), rng.integers(1, 12))
        if trial % 3 == 0:
            values = rng.choice([0.0, 0.3, 0.7, 1.0], size=shape)
        else:
            values = rng.normal(size=shape)
        expected_k = otsu_exhaustive(values)
        got = att.otsu_threshold(values)
        if expected_k is None:
            assert got is None
        else:
            assert got == expected_k / att.OTSU_BINS


def _comparison_product(values, k, bins=att.OTSU_BINS) -> int:
    """The exhaustive search's cross-multiplied term num * den at boundary k."""
    norm = (values - values.min()) / (values.max() - values.min())
    hist = np.bincount(np.minimum((norm.ravel() * bins).astype(np.int64), bins - 1),
                       minlength=bins).tolist()
    n, n0 = len(norm.ravel()), sum(hist[:k])
    s0, total_sum = sum(j * hist[j] for j in range(k)), sum(j * c for j, c in enumerate(hist))
    return (n * s0 - total_sum * n0) ** 2 * (n0 * (n - n0))


def test_binarize_matches_exhaustive_oracle_in_one_call():
    rng = np.random.default_rng(21)
    maps = []
    for trial in range(160):
        shape = (rng.integers(1, 12), rng.integers(1, 12))
        kind = trial % 4
        if kind == 0:
            maps.append(rng.normal(size=shape))
        elif kind == 1:  # quantized: many tied cells and empty buckets
            maps.append(rng.choice([0.0, 0.25, 0.5, 1.0], size=shape))
        elif kind == 2:
            maps.append(np.full(shape, rng.normal()))
        else:
            maps.append(rng.normal(size=(1, 1)))
    # boundaries 61..105 and 106..255 tie exactly, with different class counts
    maps.append(np.repeat([0.0, 60.5 / 256, 105.5 / 256, 1.0], [5, 5, 5, 1]).reshape(4, 4))
    assert otsu_exhaustive(maps[-1]) == 61
    big = rng.normal(size=(64, 64))
    big[:, 40:] += 4.0
    maps.append(big)
    # exactness cannot rest on int64: the search's comparison terms overflow it here
    assert _comparison_product(big, otsu_exhaustive(big)) > np.iinfo(np.int64).max

    by_shape = {}  # one call per shape: binarize takes a stack of same-shape maps
    for i, values in enumerate(maps):
        by_shape.setdefault(values.shape, []).append(i)
    for shape, members in by_shape.items():
        masks, thresholds = att.binarize([maps[i] for i in members])
        assert masks.shape == (len(members), *shape) and masks.dtype == bool
        assert len(thresholds) == len(members)
        for i, mask, threshold in zip(members, masks, thresholds):
            values = maps[i]
            expected_k = otsu_exhaustive(values)
            if expected_k is None:
                assert threshold is None and mask.all()
            else:
                assert threshold == expected_k / att.OTSU_BINS
                norm = (values - values.min()) / (values.max() - values.min())
                assert np.array_equal(mask, norm >= threshold)


def test_binarize_rejects_empty_input():
    for empty in ([], np.zeros((0, 4, 4)), np.ones((2, 0, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match="at least one cell"):
            att.binarize(empty)


def test_binarize_rejects_a_ragged_list():
    with pytest.raises(ValueError):
        att.binarize([np.ones((2, 2)), np.ones((2, 3))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_binarize_rejects_non_finite_maps_by_index(bad):
    maps = np.stack([np.ones((2, 5)), np.arange(10.0).reshape(2, 5), np.zeros((2, 5)),
                     np.ones((2, 5))])
    maps[2, 1, 3] = bad
    maps[3, 0, 0] = bad
    with pytest.raises(ValueError, match="attention map 2 holds non-finite values"):
        att.binarize(maps)


# ---------------------------------------------------------------------------
# connected components


def test_single_cell_component():
    mask = np.zeros((5, 6), dtype=bool)
    mask[2, 3] = True
    assert att.largest_component_bbox(mask) == Box(3, 2, 4, 3)


def test_two_blob_sizes():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:2, 1:6] = True  # 5 cells
    mask[5:6, 2:5] = True  # 3 cells
    box = att.largest_component_bbox(mask)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == flood_fill_bbox(mask)
    assert box == Box(1, 1, 6, 2)


def test_all_true_and_all_false():
    assert att.largest_component_bbox(np.ones((3, 4), dtype=bool)) == Box(0, 0, 4, 3)
    assert att.largest_component_bbox(np.zeros((3, 4), dtype=bool)) is None


def test_component_matches_flood_fill_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        shape = (rng.integers(1, 17), rng.integers(1, 17))
        mask = rng.random(size=shape) < rng.uniform(0.2, 0.8)
        expected = flood_fill_bbox(mask)
        got = att.largest_component_bbox(mask)
        if expected is None:
            assert got is None
        else:
            assert (got.x_min, got.y_min, got.x_max, got.y_max) == expected


def _serpentine(h, w):
    """One path that winds through every other row of an h x w grid."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for r in range(1, h, 2):
        mask[r, w - 1 if r % 4 == 1 else 0] = True
    return mask


def _assert_matches_flood_fill(masks, got):
    assert got.shape == (len(masks), 4) and got.dtype == np.float64
    for mask, row in zip(masks, got):
        expected = flood_fill_bbox(mask)
        if expected is None:
            assert np.isnan(row).all()
        else:
            assert row.tolist() == list(expected)


def test_component_boxes_edge_cases_in_one_call():
    h, w = 9, 10
    masks = np.zeros((10, h, w), dtype=bool)
    masks[1] = True                                        # all true
    masks[2, 4, 7] = True                                  # one cell
    masks[3, 0, 0] = masks[3, h - 1, w - 1] = True         # two one-cell ties
    masks[4, 1, 6:9] = masks[4, 5, 1:4] = True             # ties: the upper row wins
    masks[5, 2:5, 1] = masks[5, 2, 5:8] = True             # tie: first in row-major order
    masks[6] = _serpentine(h, w)                           # the longest path
    masks[7] = ~_serpentine(h, w)
    masks[8, :, ::2] = True                                # columns, five ties
    masks[9] = np.eye(h, w, dtype=bool)                    # diagonal cells never touch
    got = att.component_boxes(masks)
    _assert_matches_flood_fill(masks, got)
    assert np.isnan(got[0]).all()
    assert got[1].tolist() == [0.0, 0.0, w, h]
    assert got[2].tolist() == [7.0, 4.0, 8.0, 5.0]
    assert got[5].tolist() == [1.0, 2.0, 2.0, 5.0]
    assert got[6].tolist() == [0.0, 0.0, w, h]


def test_component_boxes_serpentine_on_a_square_grid():
    masks = np.stack([_serpentine(16, 16), _serpentine(16, 16).T, np.zeros((16, 16), bool)])
    got = att.component_boxes(masks)
    _assert_matches_flood_fill(masks, got)
    assert got[:2].tolist() == [[0.0, 0.0, 16.0, 16.0]] * 2


def test_component_boxes_match_flood_fill_over_random_stacks():
    rng = np.random.default_rng(15)
    for _ in range(40):
        shape = (rng.integers(1, 9), rng.integers(1, 17), rng.integers(1, 17))
        masks = rng.random(size=shape) < rng.uniform(0.2, 0.8, size=(shape[0], 1, 1))
        _assert_matches_flood_fill(masks, att.component_boxes(masks))


def test_component_boxes_rejects_bad_shapes():
    for shape in [(4, 4), (2, 0, 3), (1, 3, 0)]:
        with pytest.raises(ValueError, match="M,h,w"):
            att.component_boxes(np.ones(shape, dtype=bool))
    with pytest.raises(ValueError, match="2-D"):
        att.largest_component_bbox(np.ones((2, 2, 2), dtype=bool))


# ---------------------------------------------------------------------------
# pseudo boxes


@pytest.fixture(scope="module")
def small_cfg():
    return bb.BackboneConfig(num_classes=3)


def test_pseudo_boxes_cardinality_and_bounds(small_cfg):
    params = bb.init_maen_params(small_cfg, np.random.default_rng(6))
    image = np.random.default_rng(7).uniform(0, 1, size=(3, 64, 64)).astype(np.float32)
    boxes, _ = att.pseudo_boxes_batch([image], params, small_cfg)[0]
    assert boxes.shape == (len(small_cfg.tap_levels), 4) and boxes.dtype == np.float64
    for box in boxes:
        assert 0.0 <= box[0] < box[2] <= 64.0
        assert 0.0 <= box[1] < box[3] <= 64.0


def test_pseudo_boxes_degenerate_network_gives_whole_image(small_cfg):
    params = bb.init_maen_params(small_cfg, np.random.default_rng(8))
    for p in params.values():
        p.data[...] = 0.0
    image = np.random.default_rng(9).uniform(0, 1, size=(3, 64, 64)).astype(np.float32)
    boxes, _ = att.pseudo_boxes_batch([image], params, small_cfg)[0]
    assert boxes.tolist() == [[0.0, 0.0, 64.0, 64.0]] * len(small_cfg.tap_levels)


def test_pseudo_boxes_reject_a_checkpoint_with_a_nan_cam_weight(small_cfg):
    ckpt = bb.params_to_checkpoint(bb.init_maen_params(small_cfg, np.random.default_rng(12)),
                                   "maen")
    ckpt.params["cam.fc.weight"][5, :] = np.nan
    params = bb.checkpoint_to_params(ckpt)
    images = np.random.default_rng(13).uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        att.pseudo_boxes_batch(images, params, small_cfg)


def test_pseudo_boxes_batch_equals_per_image_across_grid_sizes():
    config = bb.BackboneConfig(num_classes=3, tap_levels=("mid", "late", "cam"))
    params = bb.init_maen_params(config, np.random.default_rng(10))
    images = np.random.default_rng(11).uniform(0, 1, size=(5, 3, 64, 64)).astype(np.float32)
    batched = att.pseudo_boxes_batch(images, params, config)
    assert len(batched) == len(images)
    for image, (boxes, late) in zip(images, batched):
        want_boxes, want_late = att.pseudo_boxes_batch([image], params, config)[0]
        assert boxes.shape == (3, 4)
        assert np.array_equal(boxes, want_boxes)
        assert np.array_equal(late.data, want_late.data)

