"""Attention maps, OTSU binarization, and pseudo ground-truth boxes.

Each configured feature level yields one 2-D importance map: the last
("cam") level weights channels by the classifier column of the predicted
class, every other level takes the plain channel mean. The map is min-max
normalized, thresholded with OTSU, and the tight box around the largest
4-connected foreground component becomes that level's pseudo box in image
coordinates. Degenerate maps fall back to the whole-image box.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .autodiff import Tensor

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


def whole_image_box(image_size) -> Box:
    h, w = image_size
    return Box(0.0, 0.0, float(w), float(h))


@dataclass
class AttentionMap:
    values: np.ndarray  # 2-D, finite
    level: str
    stride: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"attention map must be 2-D, got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("attention map holds non-finite values")


@dataclass
class BinaryMask:
    mask: np.ndarray  # 2-D bool
    threshold: float | None  # normalized units; None marks the degenerate constant map


def attention_map(features: np.ndarray, level: str, stride: int,
                  class_weights: np.ndarray | None = None,
                  predicted_class: int | None = None) -> AttentionMap:
    """Weighted channel sum of a [C,h,w] feature slab.

    The cam level uses the classifier column of the predicted class as the
    channel weights; every other level weighs uniformly by 1/C (channel mean).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3:
        raise ValueError(f"features must be [C,h,w], got shape {features.shape}")
    if level == "cam":
        if class_weights is None or predicted_class is None:
            raise ValueError("cam level needs class_weights and predicted_class")
        w = np.asarray(class_weights, dtype=np.float64)[:, int(predicted_class)]
        values = np.einsum("c,chw->hw", w, features)
    else:
        values = features.mean(axis=0)
    return AttentionMap(values=values, level=level, stride=stride)


def otsu_threshold(values: np.ndarray, bins: int = OTSU_BINS) -> float | None:
    """Threshold (in min-max normalized units) maximizing between-class variance.

    Candidates are the bucket boundaries k/bins; ties resolve to the lowest
    threshold. Comparisons run in exact integer arithmetic on the histogram,
    so the result matches an exhaustive search bit for bit. Returns None for
    a constant map (caller treats the whole map as foreground).
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 1:
        raise ValueError("otsu_threshold needs at least one cell")
    lo, hi = v.min(), v.max()
    if hi == lo:
        return None
    norm = (v - lo) / (hi - lo)
    idx = np.minimum((norm * bins).astype(np.int64), bins - 1)
    hist = np.bincount(idx, minlength=bins)

    counts = [int(c) for c in hist]
    total = int(v.size)
    total_sum = sum(k * c for k, c in enumerate(counts))
    best_k, best_num, best_den = 1, -1, 1
    n0 = s0 = 0
    for k in range(1, bins):
        n0 += counts[k - 1]
        s0 += (k - 1) * counts[k - 1]
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            num, den = 0, 1
        else:
            a = s0 * n1 - (total_sum - s0) * n0
            num, den = a * a, n0 * n1
        if num * best_den > best_num * den:
            best_k, best_num, best_den = k, num, den
    return best_k / bins


def binarize(amap: AttentionMap, bins: int = OTSU_BINS) -> BinaryMask:
    """OTSU-threshold the normalized map; foreground is >= threshold."""
    thresh = otsu_threshold(amap.values, bins)
    if thresh is None:
        return BinaryMask(mask=np.ones(amap.values.shape, dtype=bool), threshold=None)
    lo, hi = amap.values.min(), amap.values.max()
    norm = (amap.values - lo) / (hi - lo)
    return BinaryMask(mask=norm >= thresh, threshold=thresh)


def largest_component_bbox(mask: np.ndarray) -> Box | None:
    """Tight half-open box of the largest 4-connected true component.

    Size ties go to the component whose first cell comes earliest in
    row-major order. Returns None when the mask has no foreground.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or mask.size < 1:
        raise ValueError(f"mask must be a nonempty 2-D array, got shape {mask.shape}")
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best_size = 0
    best = None
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            queue = deque([(r, c)])
            seen[r, c] = True
            size = 0
            rmin = rmax = r
            cmin = cmax = c
            while queue:
                cr, cc = queue.popleft()
                size += 1
                rmin, rmax = min(rmin, cr), max(rmax, cr)
                cmin, cmax = min(cmin, cc), max(cmax, cc)
                for nr, nc in ((cr - 1, cc), (cr + 1, cc), (cr, cc - 1), (cr, cc + 1)):
                    if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        queue.append((nr, nc))
            if size > best_size:
                best_size = size
                best = Box(float(cmin), float(rmin), float(cmax + 1), float(rmax + 1))
    return best


def to_image_coords(box: Box, stride: int, image_size) -> Box:
    """Scale a feature-grid box by its stride and clip to the image."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    h, w = image_size
    return Box(
        min(max(box.x_min * stride, 0.0), float(w)),
        min(max(box.y_min * stride, 0.0), float(h)),
        min(max(box.x_max * stride, 0.0), float(w)),
        min(max(box.y_max * stride, 0.0), float(h)),
    )


def pseudo_boxes(image: np.ndarray, maen_params: dict, config: bb.BackboneConfig) -> tuple:
    """One (level, Box) pseudo annotation per configured tap level, and the
    last stage output [1,C,h,w] of the same pass: ``(boxes, late)``.

    Runs the trained classification network once, takes its predicted class
    for the cam-level weighting, and maps each level's largest attention
    component back to image coordinates. Degenerate maps (constant attention
    or empty foreground) resolve to the whole-image box.
    """
    image = np.asarray(image)
    with ad.no_grad():
        fs = bb.maen_forward(maen_params, Tensor(image[None]), config)
        probs = ad.softmax(fs.cam_logits).data
    predicted = int(probs[0].argmax())

    out = []
    for level in config.tap_levels:
        fmap = fs.taps[level].data[0]
        stride = fs.strides[level]
        if level == "cam":
            amap = attention_map(fmap, level, stride, fs.cam_class_weights, predicted)
        else:
            amap = attention_map(fmap, level, stride)
        component = largest_component_bbox(binarize(amap).mask)
        if component is None:
            box = whole_image_box(config.input_size)
        else:
            box = to_image_coords(component, stride, config.input_size)
        out.append((level, box))
    return out, fs.late

