"""Brute-force reference implementations used to check the package.

Everything here is deliberately naive (nested loops, exhaustive search,
finite differences) and independent of the implementations under test,
except ``conv2d_im2col``: a fixed copy of an earlier fast kernel that the
package's kernel must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np


def conv2d_direct(x, kernels, bias, stride=1, pad=0):
    """Direct cross-correlation with explicit loops."""
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, k, ho, wo))
    for b in range(n):
        for oc in range(k):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, oc, i, j] = (patch * kernels[oc]).sum() + bias[oc]
    return out


def conv2d_im2col(x, kernels, bias, g, stride=1, pad=0):
    """The ``np.pad`` im2col conv2d kernel with its gradient math: a fixed
    reference that ``ad.conv2d`` must match bit for bit.

    Pads with ``np.pad``, builds the columns with one strided slice per kernel
    tap, runs one ``np.matmul`` per sample and adds the bias out of place.
    ``g`` is the upstream gradient of the output. Works at the inputs' dtype
    and returns (out, grad of x, grad of kernels, grad of bias).
    """
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1

    cols = np.empty((n, c, kh, kw, ho, wo), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    cols2 = cols.reshape(n, c * kh * kw, ho * wo)
    wflat = kernels.reshape(k, c * kh * kw)
    out = np.matmul(wflat, cols2).reshape(n, k, ho, wo) + bias.reshape(1, k, 1, 1)

    gflat = g.reshape(n, k, ho * wo)
    gk = np.matmul(gflat, cols2.transpose(0, 2, 1)).sum(axis=0).reshape(kernels.shape)
    gb = g.sum(axis=(0, 2, 3))
    dcols = np.matmul(wflat.T, gflat).reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols[:, :, i, j]
    gx = gxp[:, :, pad : pad + h, pad : pad + w] if pad else gxp
    return out, gx, gk, gb


def window_max_pool(x):
    """2x2/stride-2 pooling by explicit window max."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2))
    for b in range(n):
        for ch in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[b, ch, i, j] = x[b, ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()
    return out


def argmax_max_pool(x):
    """2x2/stride-2 pooling by ``np.argmax`` over each window in row-major order.

    Returns the pooled values, each the picked element itself, and a boolean
    mask of the picked elements. ``np.argmax`` picks a window's first NaN, or
    else its first maximum.
    """
    x = np.asarray(x)
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2), dtype=x.dtype)
    picked = np.zeros(x.shape, dtype=bool)
    for b, ch, i, j in np.ndindex(out.shape):
        k = int(np.argmax(x[b, ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].reshape(4)))
        pos = (b, ch, 2 * i + k // 2, 2 * j + k % 2)
        out[b, ch, i, j] = x[pos]
        picked[pos] = True
    return out, picked


def finite_difference(f, x, h=1e-5):
    """Central finite differences of scalar-valued f over every element of x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def gradient_mismatch(analytic, numeric):
    """Max elementwise error relative to max(1, |analytic|, |numeric|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def otsu_exhaustive(values, bins=256):
    """Try every bucket boundary, maximize between-class variance exactly.

    Works on the integer bin histogram so ties resolve without float noise;
    returns the bin index k of the best boundary (threshold = k / bins), or
    None for a constant map.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = v.min(), v.max()
    if hi == lo:
        return None
    norm = (v - lo) / (hi - lo)
    idx = np.minimum((norm * bins).astype(np.int64), bins - 1)
    hist = [0] * bins
    for i in idx:
        hist[int(i)] += 1
    total = len(v)
    total_sum = sum(k * hist[k] for k in range(bins))

    best_k, best_num, best_den = None, 0, 1
    for k in range(1, bins):
        n0 = sum(hist[:k])
        n1 = total - n0
        if n0 == 0 or n1 == 0:
            num, den = 0, 1
        else:
            s0 = sum(j * hist[j] for j in range(k))
            a = s0 * n1 - (total_sum - s0) * n0
            num, den = a * a, n0 * n1
        if best_k is None or num * best_den > best_num * den:
            best_k, best_num, best_den = k, num, den
    return best_k


def flood_fill_bbox(mask):
    """Largest 4-connected component's tight half-open box via explicit flood fill.

    Returns (x_min, y_min, x_max, y_max) or None for an all-false mask. Ties
    go to the component whose first cell comes earliest in row-major order.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    best = None
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            stack = [(r, c)]
            seen[r, c] = True
            size = 0
            rmin = rmax = r
            cmin = cmax = c
            while stack:
                cr, cc = stack.pop()
                size += 1
                rmin, rmax = min(rmin, cr), max(rmax, cr)
                cmin, cmax = min(cmin, cc), max(cmax, cc)
                for nr, nc in ((cr - 1, cc), (cr + 1, cc), (cr, cc - 1), (cr, cc + 1)):
                    if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            if best is None or size > best[0]:
                best = (size, (cmin, rmin, cmax + 1, rmax + 1))
    return None if best is None else best[1]


def iou_raster(a, b, span=64):
    """IoU of integer boxes by counting unit pixels."""
    count_i = count_a = count_b = 0
    for y in range(span):
        for x in range(span):
            in_a = a[0] <= x < a[2] and a[1] <= y < a[3]
            in_b = b[0] <= x < b[2] and b[1] <= y < b[3]
            count_a += in_a
            count_b += in_b
            count_i += in_a and in_b
    union = count_a + count_b - count_i
    return count_i / union if union else 0.0


def _iou_plain(a, b):
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def nms_bruteforce(boxes, scores, thresh):
    """Greedy suppression, highest score first, ties to the lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if all(_iou_plain(boxes[i], boxes[j]) <= thresh for j in kept):
            kept.append(i)
    return kept


def grid_box_direct(box, stride, grid_h, grid_w):
    """Image box (x_min, y_min, x_max, y_max) -> cell range: divide by the stride,
    round outward, clamp to the grid, keep at least one cell."""
    x0 = min(max(math.floor(box[0] / stride), 0), grid_w - 1)
    y0 = min(max(math.floor(box[1] / stride), 0), grid_h - 1)
    x1 = max(min(math.ceil(box[2] / stride), grid_w), x0 + 1)
    y1 = max(min(math.ceil(box[3] / stride), grid_h), y0 + 1)
    return x0, y0, x1, y1


def roi_pool_direct(features, grid_box, out_h, out_w):
    """Max pool a [C,h,w] slab over proportionally partitioned bins of grid_box."""
    features = np.asarray(features, dtype=np.float64)
    x0, y0, x1, y1 = grid_box
    hh, ww = y1 - y0, x1 - x0
    c = features.shape[0]
    out = np.zeros((c, out_h, out_w))
    for i in range(out_h):
        r0 = y0 + math.floor(i * hh / out_h)
        r1 = y0 + math.ceil((i + 1) * hh / out_h)
        for j in range(out_w):
            c0 = x0 + math.floor(j * ww / out_w)
            c1 = x0 + math.ceil((j + 1) * ww / out_w)
            for ch in range(c):
                out[ch, i, j] = features[ch, r0:r1, c0:c1].max()
    return out
