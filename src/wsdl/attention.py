"""Attention maps, OTSU binarization, and pseudo ground-truth boxes.

Each configured feature level yields one 2-D importance map: the last
("cam") level weights channels by the classifier column of the predicted
class, every other level takes the plain channel mean. The map is min-max
normalized, thresholded with OTSU, and the tight box around the largest
4-connected foreground component becomes that level's pseudo box in image
coordinates. Degenerate maps fall back to the whole-image box. Everything
here is a plain array: ``attention_map`` gives a float64 [h,w] map, ``binarize``
a level's [M,h,w] bool mask stack and its thresholds, and ``component_boxes`` an
[M,4] table in grid cells, which the level's ``tap_stride`` scales to pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bb

OTSU_BINS = 256


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in half-open coordinates: [x_min, x_max) x [y_min, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(np.isfinite([self.x_min, self.y_min, self.x_max, self.y_max])):
            raise ValueError(f"box coordinates must be finite: {self}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"box must have positive extent: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The corner row (x_min, y_min, x_max, y_max), float64 unless ``dtype`` says
        otherwise; ``np.asarray`` reads a Box as a [4] row and a list of them as [N,4]."""
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max],
                        dtype=np.float64 if dtype is None else dtype)

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max


def attention_map(features: np.ndarray, class_weights: np.ndarray | None = None) -> np.ndarray:
    """The float64 [h,w] importance map of a [C,h,w] feature slab: the channel
    sum weighted by ``class_weights`` [C] (at the cam level, the classifier
    column of the predicted class), or without weights the channel mean."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ValueError(f"features must be [C,h,w], got shape {features.shape}")
    if class_weights is None:
        return features.mean(axis=0)
    return np.einsum("c,chw->hw", np.asarray(class_weights, dtype=np.float64), features)


def binarize(maps) -> tuple:
    """OTSU-threshold each map of an [M,...] stack of same-shape maps in one
    pass: ``(masks, thresholds)``, an [M,...] bool mask stack and a list of M
    float thresholds in normalized units, None for a constant map.

    Each map (at least one cell) is min-max normalized once; its foreground is
    the cells at or above the threshold. Candidate thresholds are the bucket
    boundaries k/``OTSU_BINS``, and the chosen one maximizes the between-class
    variance, ties to the lowest. One histogram and one cumulative sum cover
    all maps; a float64 score picks the near-best boundaries of each map, and
    any map whose near-best boundaries differ in their integer class counts is
    decided by exact integer comparison, so the result matches an exhaustive
    search bit for bit. A constant map gets an all-foreground mask. A map
    holding NaN or inf (from a corrupt checkpoint, say) raises ``ValueError``
    naming the first such map's index. A ragged list of maps raises it too.
    """
    bins = OTSU_BINS
    stack = np.asarray(maps, dtype=np.float64)
    if stack.ndim == 0 or stack.size == 0:
        raise ValueError("binarize needs maps of at least one cell")
    values = stack.reshape(len(stack), -1)
    m, size = values.shape
    if (bins - 1) * size ** 2 >= 2 ** 63:
        raise ValueError(f"a map of {size} cells is too large for exact OTSU")
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ValueError(f"attention map {finite.argmin()} holds non-finite values")
    lo, hi = values.min(axis=1), values.max(axis=1)
    varying = hi > lo
    norm = (values - lo[:, None]) / np.where(varying, hi - lo, 1.0)[:, None]
    idx = np.minimum((norm * bins).astype(np.int64), bins - 1)
    hist = np.bincount((idx + bins * np.arange(m)[:, None]).ravel(),
                       minlength=m * bins).reshape(m, bins)

    # boundary k = 1..bins-1 (column k-1) splits the cells into buckets < k and >= k;
    # its between-class variance is a^2 / den up to a per-map constant
    n0 = np.cumsum(hist, axis=1)[:, :-1]
    s0 = np.cumsum(hist * np.arange(bins), axis=1)
    a = size * s0[:, :-1] - s0[:, -1:] * n0  # exact: |a| <= (bins-1) * size^2
    den = n0 * (size - n0)
    score = np.divide(a.astype(np.float64) ** 2, den, out=np.zeros(den.shape), where=den > 0)
    # the exact best lies within 1e-9 of the float best (the score is off by a few ulp)
    near = score >= score.max(axis=1, keepdims=True) * (1.0 - 1e-9)
    first = near.argmax(axis=1)[:, None]
    same = ((a == np.take_along_axis(a, first, axis=1))
            & (den == np.take_along_axis(den, first, axis=1)))
    best = first[:, 0] + 1
    for i in np.flatnonzero((near & ~same).any(axis=1)):
        best_num, best_den = -1, 1
        for j in np.flatnonzero(near[i]):
            num, d = int(a[i, j]) ** 2, max(int(den[i, j]), 1)
            if num * best_den > best_num * d:
                best[i], best_num, best_den = j + 1, num, d
    thresholds = np.where(varying, best / bins, -np.inf)
    return ((norm >= thresholds[:, None]).reshape(stack.shape),
            [float(t) if ok else None for t, ok in zip(thresholds, varying)])


def otsu_threshold(values: np.ndarray) -> float | None:
    """The OTSU threshold of one map in min-max normalized units (``binarize``'s
    one-map case); None for a constant map."""
    return binarize([values])[1][0]


def component_boxes(masks) -> np.ndarray:
    """The tight half-open box (x_min, y_min, x_max, y_max), in grid cells, of
    the largest 4-connected true component of each of M masks [M,h,w]: [M,4]
    float64, a NaN row where a mask has no foreground.

    Each true cell starts labelled with its flat index; each round it takes
    the least label of itself and its true 4-neighbours, then the label of the
    cell that label names, until nothing changes. A component ends labelled
    with its first cell in row-major order, so the first largest size in label
    order breaks size ties toward that cell.
    """
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 3 or masks.shape[1] < 1 or masks.shape[2] < 1:
        raise ValueError(f"masks must be [M,h,w] with nonempty maps, got shape {masks.shape}")
    m, h, w = masks.shape
    n = masks.size
    labels = np.where(masks, np.arange(n).reshape(masks.shape), n)  # background holds n
    previous = None
    while not np.array_equal(labels, previous):
        previous, low = labels, labels.copy()
        np.minimum(low[:, 1:], labels[:, :-1], out=low[:, 1:])
        np.minimum(low[:, :-1], labels[:, 1:], out=low[:, :-1])
        np.minimum(low[:, :, 1:], labels[:, :, :-1], out=low[:, :, 1:])
        np.minimum(low[:, :, :-1], labels[:, :, 1:], out=low[:, :, :-1])
        flat = np.append(np.where(masks, low, n).ravel(), n)  # flat[n] keeps background at n
        labels = flat[flat[:-1]].reshape(masks.shape)

    sizes = np.bincount(labels.ravel(), minlength=n + 1)[:n].reshape(m, h * w)
    roots = sizes.argmax(axis=1) + np.arange(m) * (h * w)
    member = labels == roots[:, None, None]
    rows, cols = member.any(axis=2), member.any(axis=1)
    boxes = np.stack([cols.argmax(axis=1), rows.argmax(axis=1),
                      w - cols[:, ::-1].argmax(axis=1), h - rows[:, ::-1].argmax(axis=1)],
                     axis=1).astype(np.float64)
    boxes[~masks.any(axis=(1, 2))] = np.nan
    return boxes


def largest_component_bbox(mask: np.ndarray) -> Box | None:
    """``component_boxes`` of one 2-D mask as a ``Box``; None when the mask has
    no foreground."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be a nonempty 2-D array, got shape {mask.shape}")
    row = component_boxes(mask[None])[0]
    return None if np.isnan(row[0]) else Box(*row.tolist())


def pseudo_boxes_batch(images, maen_params: dict, config: bb.BackboneConfig) -> list:
    """Per image: ``(boxes, late)``, its pseudo boxes as an [L,4] float64 corner
    table in ``tap_levels`` order (a constant map or empty foreground gives the
    whole-image box) and the same pass's last stage output, a [1,C,h,w] array.

    One classification-network pass per image, at batch 1 so that its cam
    logits (and the predicted class that weighs the cam map) keep a lone
    image's bits; then per level one ``binarize`` call over the stack of that
    level's maps and one ``component_boxes`` call over its masks.
    """
    levels = config.tap_levels
    # column views of one float64 table, as einsum's sum order (and with it
    # the cam map's bits) depends on its operands' strides
    class_weights = maen_params["cam.fc.weight"].data.astype(np.float64)
    maps, lates = {level: [] for level in levels}, []
    for image in images:
        stage_outputs, cam_map, logits = bb.maen_forward(
            maen_params, np.asarray(image)[None], config)
        predicted = int(ad.softmax(logits).data[0].argmax())
        taps = {"mid": stage_outputs[-2], "late": stage_outputs[-1], "cam": cam_map}
        for level in levels:
            weights = class_weights[:, predicted] if level == "cam" else None
            maps[level].append(attention_map(taps[level].data[0], weights))
        lates.append(stage_outputs[-1].data)

    table = np.stack([component_boxes(binarize(maps[level])[0]) * config.tap_stride(level)
                      for level in levels], axis=1)
    h, w = config.input_size
    table = np.where(np.isnan(table), [0.0, 0.0, w, h], np.clip(table, 0.0, [w, h, w, h]))
    return list(zip(table, lates))

