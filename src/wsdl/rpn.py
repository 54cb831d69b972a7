"""Region proposal machinery over the shared feature grid.

Nine anchors (3 scales x 3 aspect ratios) sit on every cell of the stride-8
feature map. Anchors are labeled against the attention-derived pseudo boxes,
a small conv head predicts objectness and box deltas, and training minimizes
a two-term loss: log loss over a sampled anchor set plus a weighted smooth-L1
regression over the positives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import check_ranges

POSITIVE, NEGATIVE, IGNORE = 1, 0, -1


@dataclass
class AnchorConfig:
    scales: tuple = (16.0, 32.0, 48.0)
    ratios: tuple = (0.5, 1.0, 2.0)  # height/width
    stride: int = 8
    pos_iou: float = 0.7
    neg_iou: float = 0.3
    nms_iou: float = 0.7
    pre_nms_top: int = 64
    post_nms_top: int = 16
    loss_balance: float = 10.0  # weight of the regression term
    anchors_per_image_sampled: int = 64
    rpn_channels: int = 128

    def __post_init__(self):
        self.scales = tuple(float(s) for s in self.scales)
        self.ratios = tuple(float(r) for r in self.ratios)
        check_ranges(self)
        if len(self.scales) * len(self.ratios) != 9:
            raise ValueError(
                f"expected 9 anchors from 3 scales x 3 ratios, got "
                f"{len(self.scales)} x {len(self.ratios)}")
        if not self.neg_iou < self.pos_iou:
            raise ValueError(f"need neg_iou < pos_iou, got {self.neg_iou}, {self.pos_iou}")

    @property
    def anchors_per_cell(self) -> int:
        return len(self.scales) * len(self.ratios)


@dataclass
class AnchorBatch:
    labels: np.ndarray           # [A] in {POSITIVE, NEGATIVE, IGNORE}, one per anchor
    targets: np.ndarray          # [A,4], valid where labels == POSITIVE
    sampled: np.ndarray          # indices marked for the loss


# ---------------------------------------------------------------------------
# geometry


def generate_anchors(grid_h: int, grid_w: int, config: AnchorConfig) -> np.ndarray:
    """All anchors as [grid_h * grid_w * 9, 4], cell-major then (scale, ratio).

    Anchors center on cell centers scaled by the stride; a scale-s, ratio-r
    anchor spans width s/sqrt(r) and height s*sqrt(r). Not clipped.
    """
    if grid_h < 1 or grid_w < 1:
        raise ValueError(f"grid extents must be >= 1, got {grid_h}x{grid_w}")
    shapes = []
    for s in config.scales:
        for r in config.ratios:
            w = s / math.sqrt(r)
            h = s * math.sqrt(r)
            shapes.append((w, h))
    shapes = np.array(shapes)  # [9,2]

    cx = (np.arange(grid_w) + 0.5) * config.stride
    cy = (np.arange(grid_h) + 0.5) * config.stride
    centers = np.stack(np.meshgrid(cx, cy), axis=-1).reshape(-1, 2)  # [cells,2] row-major

    half = shapes / 2.0
    out = np.empty((centers.shape[0], shapes.shape[0], 4))
    out[:, :, 0] = centers[:, None, 0] - half[None, :, 0]
    out[:, :, 1] = centers[:, None, 1] - half[None, :, 1]
    out[:, :, 2] = centers[:, None, 0] + half[None, :, 0]
    out[:, :, 3] = centers[:, None, 1] + half[None, :, 1]
    return out.reshape(-1, 4)


def iou(boxes, others):
    """Intersection over union of corner-format boxes [...,4] against [...,4],
    broadcast over the leading axes (a ``Box`` reads as a [4] row); a pair
    without positive overlap scores 0. Two single boxes give a scalar."""
    a = np.asarray(boxes, dtype=np.float64)
    b = np.asarray(others, dtype=np.float64)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    union = ((a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
             + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1]) - inter)
    return np.where(inter > 0, inter / union, 0.0)[()]


def iou_matrix(boxes: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Pairwise ``iou`` of [N,4] vs [M,4] corner-format boxes: [N,M]."""
    return iou(np.asarray(boxes, dtype=np.float64)[:, None],
               np.asarray(others, dtype=np.float64)[None])


def encode_boxes(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """(tx, ty, tw, th) of each [N,4] target box relative to its [N,4] anchor."""
    boxes = np.asarray(boxes, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    bw, bh = boxes[:, 2] - boxes[:, 0], boxes[:, 3] - boxes[:, 1]
    aw, ah = anchors[:, 2] - anchors[:, 0], anchors[:, 3] - anchors[:, 1]
    if np.any(bw <= 0) or np.any(bh <= 0) or np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("encode_boxes needs positive widths and heights")
    tx = ((boxes[:, 0] + boxes[:, 2]) - (anchors[:, 0] + anchors[:, 2])) / 2.0 / aw
    ty = ((boxes[:, 1] + boxes[:, 3]) - (anchors[:, 1] + anchors[:, 3])) / 2.0 / ah
    tw = np.log(bw / aw)
    th = np.log(bh / ah)
    return np.stack([tx, ty, tw, th], axis=1)


def decode_boxes(deltas: np.ndarray, anchors: np.ndarray, image_size=None) -> np.ndarray:
    """Exact inverse of encode_boxes, then (optionally) clipped to the image."""
    deltas = np.asarray(deltas, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    aw, ah = anchors[:, 2] - anchors[:, 0], anchors[:, 3] - anchors[:, 1]
    if np.any(aw <= 0) or np.any(ah <= 0):
        raise ValueError("decode_boxes needs positive anchor extents")
    cx = (anchors[:, 0] + anchors[:, 2]) / 2.0 + deltas[:, 0] * aw
    cy = (anchors[:, 1] + anchors[:, 3]) / 2.0 + deltas[:, 1] * ah
    w = np.exp(deltas[:, 2]) * aw
    h = np.exp(deltas[:, 3]) * ah
    out = np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1)
    if image_size is not None:
        ih, iw = image_size
        out[:, 0::2] = np.clip(out[:, 0::2], 0.0, float(iw))
        out[:, 1::2] = np.clip(out[:, 1::2], 0.0, float(ih))
    return out


# ---------------------------------------------------------------------------
# anchor labeling


def label_anchors(anchors: np.ndarray, pseudo_boxes, config: AnchorConfig,
                  rng: np.random.Generator) -> AnchorBatch:
    """Assign {positive, negative, ignore} labels and regression targets.

    ``pseudo_boxes`` is a [G,4] corner table, G >= 1 (a list of ``Box`` reads
    as one). Positive when the best IoU over pseudo boxes reaches ``pos_iou``,
    or when the anchor attains a box's global-max IoU (one forced positive per
    box, first such anchor). Negative when the best IoU is at most ``neg_iou``
    and the anchor was not forced. A sample of at most
    ``anchors_per_image_sampled`` anchors (1:1 positive:negative where
    possible) is marked for the loss.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    gt = np.asarray(pseudo_boxes, dtype=np.float64)
    if gt.ndim != 2 or gt.shape[1] != 4 or len(gt) < 1:
        raise ValueError(f"label_anchors needs a [G,4] pseudo box table with G >= 1, "
                         f"got shape {gt.shape}")
    m = iou_matrix(anchors, gt)
    best_iou = m.max(axis=1)
    best_gt = m.argmax(axis=1)

    labels = np.full(len(anchors), IGNORE, dtype=np.int64)
    labels[best_iou <= config.neg_iou] = NEGATIVE
    labels[best_iou >= config.pos_iou] = POSITIVE
    for j in range(gt.shape[0]):
        forced = int(m[:, j].argmax())  # first anchor attaining the column max
        if labels[forced] != POSITIVE:
            labels[forced] = POSITIVE
            best_gt[forced] = j

    targets = np.zeros_like(anchors)
    pos = np.flatnonzero(labels == POSITIVE)
    targets[pos] = encode_boxes(gt[best_gt[pos]], anchors[pos])

    return AnchorBatch(labels=labels, targets=targets, sampled=sample_for_loss(labels, config, rng))


def sample_for_loss(labels: np.ndarray, config: AnchorConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Pick at most ``anchors_per_image_sampled`` anchors, 1:1 pos:neg where possible."""
    cap = config.anchors_per_image_sampled
    return sample_quota(np.flatnonzero(labels == POSITIVE), np.flatnonzero(labels == NEGATIVE),
                        cap // 2, cap, rng)


def sample_quota(first: np.ndarray, second: np.ndarray, want_first: int, cap: int,
                 rng: np.random.Generator) -> np.ndarray:
    """At most ``cap`` indices drawn without replacement, ``want_first`` of them
    from ``first`` where possible and a shortfall on either side filled from
    the other; ``first`` is drawn first and its indices come first."""
    n_first = min(len(first), want_first)
    n_second = min(len(second), cap - n_first)
    n_first = min(len(first), cap - n_second)
    return np.concatenate([
        rng.choice(first, size=n_first, replace=False) if n_first else np.empty(0, dtype=np.int64),
        rng.choice(second, size=n_second, replace=False) if n_second else np.empty(0, dtype=np.int64),
    ]).astype(np.int64)


# ---------------------------------------------------------------------------
# loss


def rpn_loss(obj_probs: Tensor, deltas: Tensor, batch: AnchorBatch,
             config: AnchorConfig) -> Tensor:
    """Two-class log loss over the sampled anchors plus weighted regression.

    loss = mean_cls(sampled) + balance / n_positions * sum smooth_l1(positives)

    ``obj_probs`` rows are (background, region) probabilities aligned with
    ``batch.labels``, whose anchors fill n_positions cells of ``anchors_per_cell``;
    regression covers the sampled positive anchors only.
    """
    a = len(batch.labels)
    if obj_probs.shape != (a, 2) or deltas.shape != (a, 4):
        raise ad.ShapeError(
            f"scores/deltas misaligned with anchors: {obj_probs.shape}, {deltas.shape} vs {a} anchors")
    cls = ad.cross_entropy(ad.take_rows(obj_probs, batch.sampled), batch.labels[batch.sampled])
    pos = batch.sampled[batch.labels[batch.sampled] == POSITIVE]
    if len(pos) == 0:
        return cls
    reg = ad.smooth_l1(ad.take_rows(deltas, pos), batch.targets[pos].astype(deltas.data.dtype))
    return ad.add(cls, ad.scale(reg, config.loss_balance / (a // config.anchors_per_cell)))


# ---------------------------------------------------------------------------
# proposals


def nms(boxes: np.ndarray, scores: np.ndarray, iou_thresh: float) -> list:
    """Greedy suppression; keeps indices in score-descending order, ties to the lower index.

    A box is kept unless a kept box of higher rank overlaps it with IoU above
    ``iou_thresh``. All pairwise overlaps come from one ``iou_matrix`` call
    over the score-sorted boxes.
    Boxes must be finite with positive extent; ``ValueError`` names the first
    that is not.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(boxes) != len(scores):
        raise ValueError(f"nms needs matching lists, got {len(boxes)} boxes, {len(scores)} scores")
    if len(boxes) == 0:
        return []
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ValueError(f"nms needs [N,4] boxes, got shape {boxes.shape}")
    finite = np.isfinite(boxes).all(axis=1)
    if not finite.all():
        raise ValueError(f"box coordinates must be finite: {boxes[~finite][0].tolist()}")
    flat = (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    if flat.any():
        raise ValueError(f"box must have positive extent: {boxes[flat][0].tolist()}")
    order = np.argsort(-scores, kind="stable")
    overlaps = iou_matrix(boxes[order], boxes[order]) > iou_thresh
    keep = np.ones(len(order), dtype=bool)
    for i in range(len(order)):
        if keep[i]:
            keep[i + 1:] &= ~overlaps[i, i + 1:]
    return order[keep].tolist()


def propose(obj_probs: np.ndarray, deltas: np.ndarray, anchors: np.ndarray,
            config: AnchorConfig, image_size) -> np.ndarray:
    """Decode, clip, keep the pre-NMS top scores, suppress, cap the output.

    Returns the kept boxes as a [K,4] float64 corner table in score order,
    K <= ``post_nms_top`` (K = 0 when nothing survives); boxes that collapse
    to zero extent after clipping are dropped.
    """
    scores = obj_probs[:, 1].astype(np.float64)
    decoded = decode_boxes(deltas, anchors, image_size)
    valid = np.flatnonzero((decoded[:, 2] > decoded[:, 0]) & (decoded[:, 3] > decoded[:, 1]))
    if len(valid) == 0:
        return np.empty((0, 4))
    decoded, scores = decoded[valid], scores[valid]
    top = np.argsort(-scores, kind="stable")[: config.pre_nms_top]
    kept = nms(decoded[top], scores[top], config.nms_iou)[: config.post_nms_top]
    return decoded[top[kept]]


# ---------------------------------------------------------------------------
# head


def init_rpn_params(in_channels: int, config: AnchorConfig, rng: np.random.Generator) -> dict:
    """3x3 conv trunk plus 1x1 objectness (2k channels) and delta (4k) branches."""
    k = config.anchors_per_cell
    mid = config.rpn_channels
    return {
        "rpn.conv.weight": Tensor(ad.fan_in_uniform(rng, (mid, in_channels, 3, 3),
                                                    in_channels * 9), requires_grad=True),
        "rpn.conv.bias": Tensor(np.zeros(mid, np.float32), requires_grad=True),
        "rpn.obj.weight": Tensor(ad.fan_in_uniform(rng, (2 * k, mid, 1, 1), mid), requires_grad=True),
        "rpn.obj.bias": Tensor(np.zeros(2 * k, np.float32), requires_grad=True),
        "rpn.reg.weight": Tensor(ad.fan_in_uniform(rng, (4 * k, mid, 1, 1), mid), requires_grad=True),
        "rpn.reg.bias": Tensor(np.zeros(4 * k, np.float32), requires_grad=True),
    }


def rpn_forward(params: dict, shared_map: np.ndarray, config: AnchorConfig):
    """Slide the head over N stacked maps, an [N,C,h,w] array; returns
    per-anchor probs [N*A,2] and deltas [N*A,4], image by image.

    Within an image, rows follow the anchor order of ``generate_anchors``: grid
    cells row-major, then anchor index within the cell. ``conv2d`` runs one
    GEMM per sample and the rest is row-wise, so each image's rows are bit for
    bit those of its batch-1 pass.
    """
    n, _, h, w = shared_map.shape
    k = config.anchors_per_cell
    trunk = ad.conv2d_relu(Tensor(shared_map), params["rpn.conv.weight"],
                           params["rpn.conv.bias"], stride=1, pad=1)
    obj = ad.conv2d(trunk, params["rpn.obj.weight"], params["rpn.obj.bias"])
    reg = ad.conv2d(trunk, params["rpn.reg.weight"], params["rpn.reg.bias"])
    obj_logits = ad.reshape(ad.transpose(obj, (0, 2, 3, 1)), (n * h * w * k, 2))
    deltas = ad.reshape(ad.transpose(reg, (0, 2, 3, 1)), (n * h * w * k, 4))
    return ad.softmax(obj_logits), deltas
