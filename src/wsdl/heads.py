"""RoI pooling, per-level localization heads, and score fusion.

Every head reads the one shared stride-8 feature map. Boxes stay [N,4]
float64 corner tables from the proposals to the pooled RoIs. An image's RoIs,
its proposals and the whole-image box, form one [R,4] table (``roi_table``);
``roi_pool_batch`` max-pools every row into a fixed 4x4 grid with one gather
over the map (``roi_pool`` is its single-box form). Each pooled RoI is
flattened, divided by its RMS, and pushed through a small two-branch MLP
giving (C+1)-way class scores (background last) and a class-agnostic box
refinement. Each head also scores the whole-image box, which it is trained
to classify as the image's class. At inference each head contributes the
renormalized foreground scores of its most confident proposal and of the
whole-image box; the final class is the arithmetic mean of the head vectors
and the full-image score vector (the mean of the heads' whole-image scores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rpn
from .attention import Box
from .autodiff import Tensor
from .config import check_ranges

# added to a pooled RoI's RMS before dividing; keeps an all-zero RoI finite
RMS_EPS = 1e-6


@dataclass
class HeadConfig:
    roi_out: tuple = (4, 4)
    hidden: int = 128
    num_classes: int = 8          # foreground classes; scores carry one extra background slot
    fg_iou: float = 0.5
    rois_per_image: int = 16
    fg_fraction: float = 0.25

    def __post_init__(self):
        self.roi_out = tuple(self.roi_out)
        check_ranges(self)
        if len(self.roi_out) != 2:
            raise ValueError(f"roi_out must have two entries, got {self.roi_out}")

    @property
    def background(self) -> int:
        return self.num_classes


@dataclass
class LevelPrediction:
    box: Box
    scores: np.ndarray  # length C, renormalized over foreground classes


@dataclass
class Prediction:
    per_level: dict                  # level -> LevelPrediction
    full_image_scores: np.ndarray    # length C
    fused: np.ndarray                # length C
    predicted_class: int


# ---------------------------------------------------------------------------
# RoI pooling


def _grid_cells(rois, stride: int, grid_h: int, grid_w: int) -> np.ndarray:
    """[R,4] image boxes -> [R,4] int64 cell ranges (x0, y0, x1, y1), half-open.

    Each box is divided by the stride, rounded outward, clamped to the grid
    and kept at least one cell wide and high. Raises ``ValueError`` naming the
    first row that is non-finite, has no positive extent or lies fully outside
    the grid.
    """
    rois = np.asarray(rois, dtype=np.float64)
    if rois.ndim != 2 or rois.shape[1] != 4 or len(rois) == 0:
        raise ValueError(f"RoI table must be [R,4] with R >= 1, got shape {rois.shape}")
    lo, hi = rois[:, :2], rois[:, 2:]
    grid = np.array([grid_w, grid_h])
    finite = np.isfinite(rois).all(axis=1)
    extent = (hi > lo).all(axis=1)
    inside = ((lo < grid * stride) & (hi > 0)).all(axis=1)
    valid = finite & extent & inside
    if not valid.all():
        row = int(np.argmin(valid))
        reason = ("is not finite" if not finite[row] else
                  "has no positive extent" if not extent[row] else
                  f"lies fully outside the {grid_h}x{grid_w} grid")
        raise ValueError(f"RoI row {row} {rois[row].tolist()} {reason}")
    lo_cell = np.clip(np.floor(lo / stride), 0, grid - 1)
    hi_cell = np.maximum(np.minimum(np.ceil(hi / stride), grid), lo_cell + 1)
    return np.concatenate([lo_cell, hi_cell], axis=1).astype(np.int64)


def _bin_cells(start: np.ndarray, length: np.ndarray, bins: int) -> np.ndarray:
    """[R] cell ranges -> [k,R,bins]: the cells of each proportional bin along one axis.

    Bin i spans [start + floor(i*len/bins), start + ceil((i+1)*len/bins)),
    never empty for a range of at least one cell. ``k`` is the widest bin; a
    narrower bin repeats its last cell.
    """
    i = np.arange(bins)
    lo = start[:, None] + (i * length[:, None]) // bins
    hi = start[:, None] - (-(i + 1) * length[:, None]) // bins
    k = int((hi - lo).max())
    return np.minimum(lo + np.arange(k)[:, None, None], hi - 1)


def roi_pool_batch(features: np.ndarray, rois, stride: int, roi_out=(4, 4)) -> np.ndarray:
    """Max pool a [C,h,w] map over every row of an [R,4] box table: [R,C,oh,ow].

    Each box is divided by the stride, rounded outward to grid cells, clamped
    to the grid and kept at least one cell wide and high, then split into
    ``roi_out`` bins by proportional rounding. Every bin of every
    box is read in one gather from a channel-last copy of the map, padded to
    the widest bin by repeating each bin's last row and column, and reduced by
    one max over the padded window. The result is exact and keeps the map's
    dtype. Raises ``ValueError`` naming the first row that is non-finite, has
    no positive extent or lies fully outside the grid.
    """
    features = np.asarray(features)
    c, h, w = features.shape
    x0, y0, x1, y1 = _grid_cells(rois, stride, h, w).T
    oh, ow = roi_out
    rows = _bin_cells(y0, y1 - y0, oh)                             # [kr,R,oh]
    cols = _bin_cells(x0, x1 - x0, ow)                             # [kc,R,ow]
    cells = rows[:, None, :, :, None] * w + cols[None, :, :, None, :]
    cells = cells.reshape(-1, len(x0), oh, ow)                     # [kr*kc,R,oh,ow]
    pixels = np.ascontiguousarray(features.reshape(c, h * w).T)    # [h*w,C]
    pooled = pixels[cells].max(axis=0)                             # [R,oh,ow,C]
    return np.ascontiguousarray(pooled.transpose(0, 3, 1, 2))


def roi_pool(features: np.ndarray, box: Box, stride: int, roi_out=(4, 4)) -> np.ndarray:
    """One box's [C,oh,ow] bins: ``roi_pool_batch`` over a one-row table."""
    return roi_pool_batch(features, [box], stride, roi_out)[0]


def roi_table(proposals, image_size) -> np.ndarray:
    """The [P,4] proposal table with the whole-image box appended: [P+1,4] float64."""
    h, w = image_size
    return np.concatenate([np.asarray(proposals, dtype=np.float64),
                           [[0.0, 0.0, float(w), float(h)]]])


# ---------------------------------------------------------------------------
# head network


def init_head_params(config: HeadConfig, in_channels: int, rng: np.random.Generator) -> dict:
    flat = in_channels * config.roi_out[0] * config.roi_out[1]
    return {
        "head.fc.weight": Tensor(ad.fan_in_uniform(rng, (flat, config.hidden), flat),
                                 requires_grad=True),
        "head.fc.bias": Tensor(np.zeros(config.hidden, np.float32), requires_grad=True),
        "head.cls.weight": Tensor(ad.fan_in_uniform(rng, (config.hidden, config.num_classes + 1),
                                                    config.hidden), requires_grad=True),
        "head.cls.bias": Tensor(np.zeros(config.num_classes + 1, np.float32), requires_grad=True),
        "head.reg.weight": Tensor(ad.fan_in_uniform(rng, (config.hidden, 4), config.hidden),
                                  requires_grad=True),
        "head.reg.bias": Tensor(np.zeros(4, np.float32), requires_grad=True),
    }


def head_forward(params: dict, pooled: np.ndarray, config: HeadConfig):
    """Pooled RoIs, an [R,C',oh,ow] array -> (softmax class scores [R,C+1], deltas [R,4]).

    Each flattened RoI is divided by its RMS plus ``RMS_EPS`` before the fc
    layer, so the scores do not depend on the RoI's overall scale and the
    heavy-tailed shared features cannot saturate the softmax. The paper does
    not say how RoI features are scaled; this per-RoI normalization is a
    choice of this reproduction (as in ParseNet, arXiv 1506.04579).
    """
    flat = pooled.reshape(len(pooled), -1)
    if flat.shape[1] != params["head.fc.weight"].shape[0]:
        raise ad.ShapeError(f"pooled features flatten to {flat.shape[1]}, "
                            f"head expects {params['head.fc.weight'].shape[0]}")
    flat = Tensor(flat / (np.sqrt(np.mean(np.square(flat), axis=1, keepdims=True)) + RMS_EPS))
    hidden = ad.relu(ad.linear(flat, params["head.fc.weight"], params["head.fc.bias"]))
    scores = ad.softmax(ad.linear(hidden, params["head.cls.weight"], params["head.cls.bias"]))
    deltas = ad.linear(hidden, params["head.reg.weight"], params["head.reg.bias"])
    return scores, deltas


# ---------------------------------------------------------------------------
# training targets


def head_targets(proposals, level_pseudo_box, image_label: int,
                 config: HeadConfig, rng: np.random.Generator, image_size):
    """Label [P,4] proposals against one level's [4] pseudo box and sample a training set.

    A proposal is foreground (class = image_label) when its IoU with the
    pseudo box reaches ``fg_iou`` (inclusive), background otherwise. The
    proposals fill ``rois_per_image - 1`` slots, at most ``fg_fraction`` of
    them foreground where possible. The whole-image box is then appended as
    the last RoI, with class image_label whatever its IoU: inference reads
    the full-image score vector from that box. Returns (rois [R,4],
    class_targets, delta_targets, fg_mask); ``fg_mask`` marks the RoIs with
    IoU >= ``fg_iou`` (the whole-image box included), the only ones with a
    box-regression target.
    """
    rois = roi_table(proposals, image_size)
    whole = len(rois) - 1
    pseudo = np.asarray(level_pseudo_box, dtype=np.float64)
    fg = rpn.iou(rois, pseudo) >= config.fg_iou

    fg_idx = np.flatnonzero(fg[:whole])
    bg_idx = np.flatnonzero(~fg[:whole])
    slots = config.rois_per_image - 1
    chosen = np.concatenate([
        rpn.sample_quota(fg_idx, bg_idx, int(round(config.fg_fraction * slots)), slots, rng),
        [whole],
    ])

    sampled_rois = rois[chosen]
    cls_targets = np.where(fg[chosen] | (chosen == whole), image_label,
                           config.background).astype(np.int64)
    delta_targets = np.zeros((len(chosen), 4))
    fg_mask = fg[chosen]
    if fg_mask.any():
        anchors = sampled_rois[fg_mask]
        delta_targets[fg_mask] = rpn.encode_boxes(np.broadcast_to(pseudo, anchors.shape), anchors)
    return sampled_rois, cls_targets, delta_targets, fg_mask


def head_loss(scores: Tensor, deltas: Tensor, cls_targets: np.ndarray,
              delta_targets: np.ndarray, fg_mask: np.ndarray) -> Tensor:
    """Cross entropy plus unit-weight smooth L1 on foreground RoIs, normalized by the RoI count."""
    cls = ad.cross_entropy(scores, cls_targets)
    fg = np.flatnonzero(fg_mask)
    if len(fg) == 0:
        return cls
    reg = ad.smooth_l1(ad.take_rows(deltas, fg),
                       delta_targets[fg].astype(deltas.data.dtype))
    return ad.add(cls, ad.scale(reg, 1.0 / len(cls_targets)))


# ---------------------------------------------------------------------------
# fusion


def fuse_scores(per_level_scores: list, full_image_scores: np.ndarray):
    """Arithmetic mean of the n level vectors and the full-image vector.

    Returns (fused vector, argmax class); argmax ties resolve to the lowest
    class index.
    """
    full = np.asarray(full_image_scores, dtype=np.float64)
    vectors = [np.asarray(v, dtype=np.float64) for v in per_level_scores]
    for v in vectors:
        if v.shape != full.shape:
            raise ValueError(f"score length mismatch: {v.shape} vs {full.shape}")
    fused = np.mean(vectors + [full], axis=0)
    return fused, int(fused.argmax())


def renormalize_foreground(scores: np.ndarray, num_classes: int) -> np.ndarray:
    """Drop the background slot and rescale the foreground scores to sum to 1."""
    fg = np.asarray(scores, dtype=np.float64)[:num_classes]
    total = fg.sum()
    if total <= 0.0:
        return np.full(num_classes, 1.0 / num_classes)
    return fg / total
