"""Dense tensors, reverse-mode differentiation, and momentum SGD.

Tensors wrap numpy arrays (float32 for training storage, float64 in tests
and oracles). Whether an operation records a graph depends only on its
inputs: one that touches a gradient-requiring input records its inputs and
a gradient closure on the output, and one over frozen tensors only (loaded
checkpoint tables, or an image batch or shared map wrapped as an op's input;
values no gradient reaches travel as plain arrays) records nothing.
``backward`` walks the recorded graph once in reverse topological order and
accumulates adjoints additively into the ``.grad`` of its leaves, the
tensors that no recorded operation produced; intermediate tensors keep
``.grad`` None. A graph lives as long as a reference to its output does, so
a training step that drops its loss frees its whole graph. A recorded op
keeps its inputs and its output, not scratch buffers: ``conv2d`` rebuilds its
im2col columns from its input in backward (and forms its input gradient one
kernel tap at a time), and ``conv2d_relu`` rectifies the conv output in place.
Both 2x2 pools route their gradient by one uint8 switch code per pooled
element, formed in forward, and never read the map they pooled again;
``conv2d_relu2_pool`` (two convs, their relus and a pool) keeps its input and
its pooled output, not a full-resolution map, and rebuilds the map between
its convs one sample at a time in backward.
Apart from a pool's input, writing a recorded input or output in place before
``backward`` changes the gradients (only ``SGD.step`` writes ``.data`` in
place, after backward). ``backward`` gives each closure the only reference to
its adjoint, freed once spent. Only the ops the pipeline needs are provided.
"""

from __future__ import annotations

import math

import numpy as np

CROSS_ENTROPY_EPS = 1e-12

_fast_malloc_done = False


def enable_buffer_reuse():
    """Keep large numpy buffers on the heap so training steps reuse them.

    glibc hands allocations above its mmap threshold straight back to the
    kernel on free, which makes every conv re-fault the megabytes of its
    per-call scratch: the column buffers, the padded input gradient and its
    one-tap column buffer, none of which a graph retains. Raising the
    threshold (and the trim threshold) lets the allocator recycle those
    blocks. No-op without glibc; ``_fast_malloc_done`` is True once both are raised.
    """
    global _fast_malloc_done
    if _fast_malloc_done:
        return
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        _fast_malloc_done = (libc.mallopt(-3, 512 * 1024 * 1024) == 1     # M_MMAP_THRESHOLD
                             and libc.mallopt(-1, 512 * 1024 * 1024) == 1)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):  # no such library, or no mallopt in it
        pass


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """A dense n-dimensional value with an optional gradient record."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grad_fn = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _owned(g: np.ndarray) -> np.ndarray:
    return g if g.base is None else g.copy()


def backward(loss: Tensor):
    """Populate ``.grad`` on every gradient-requiring leaf reachable from ``loss``.

    Only leaves, tensors without a gradient closure (parameters and inputs
    made with ``requires_grad=True``), get a ``.grad``; the adjoints of
    intermediate tensors are dropped once passed on. Adjoints accumulate
    additively: calling twice on one graph without zeroing doubles every
    leaf gradient. Each graph node is visited exactly once, in reverse
    execution order.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    adjoint = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        if id(node) not in adjoint:
            continue
        if node._grad_fn is not None:
            # the closure gets the only reference to its adjoint, so it can free it once spent
            for parent, pg in zip(node._parents, node._grad_fn(adjoint.pop(id(node)))):
                if pg is not None:
                    pid = id(parent)
                    adjoint[pid] = adjoint[pid] + pg if pid in adjoint else pg
            pg = None  # the next closure's adjoint may be this last one
        elif node.requires_grad:
            g = adjoint.pop(id(node))
            node.grad = _owned(g) if node.grad is None else node.grad + g


# ---------------------------------------------------------------------------
# forward operators


def _sample_columns(samples, kh: int, kw: int, stride: int, pad: int, ho: int, wo: int):
    """Yield the [C*kh*kw, Ho*Wo] column matrix of each [C,H,W] map of ``samples``, built in
    one reused buffer; a padded sample is copied into the interior of one zeroed buffer."""
    for s, xs in enumerate(samples):
        if s == 0:
            c, h, w = xs.shape
            xp = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=xs.dtype) if pad else None
            cols = np.empty((c, kh, kw, ho, wo), dtype=xs.dtype)
        if pad:
            xp[:, pad : pad + h, pad : pad + w] = xs
            xs = xp
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xs[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
        yield cols.reshape(c * kh * kw, ho * wo)


def _conv_grads(g: np.ndarray, kernels: np.ndarray, x_shape, x_dtype, stride: int, pad: int,
                wants: tuple, columns) -> tuple:
    """A conv's gradients (gx, gk, gb) for its adjoint ``g`` [N,K,Ho,Wo] over an input of
    ``x_shape`` and ``x_dtype``, each None unless flagged in ``wants``: gk sums one GEMM per
    sample's columns from ``columns``; gx is col2im one tap at a time (one [N,C,Ho*Wo] buffer)."""
    n, k, ho, wo = g.shape
    _, c, h, w = x_shape
    kh, kw = kernels.shape[2:]
    gflat = g.reshape(n, k, ho * wo)
    gx = gk = None
    if wants[1]:
        per = np.empty((n, k, c * kh * kw), dtype=np.result_type(gflat, x_dtype))
        for s, cols in enumerate(columns):
            np.matmul(gflat[s], cols.T, out=per[s])
        gk = per.sum(axis=0).reshape(kernels.shape)
        per = cols = None  # freed before the input gradient forms
    gb = g.sum(axis=(0, 2, 3)) if wants[2] else None
    if wants[0]:
        # taps[t].T is F-contiguous like wflat.T, so BLAS keeps its transposed-A path
        taps = np.ascontiguousarray(kernels.transpose(2, 3, 0, 1)).reshape(kh * kw, k, c)
        dcols = np.empty((n, c, ho, wo), dtype=np.result_type(taps, gflat))
        gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x_dtype)
        for t, (i, j) in enumerate(np.ndindex(kh, kw)):
            np.matmul(taps[t].T, gflat, out=dcols.reshape(n, c, ho * wo))
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += dcols
        gx = gxp[:, :, pad : pad + h, pad : pad + w] if pad else gxp
    return gx, gk, gb


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate ``x`` [N,C,H,W] with ``kernels`` [K,C,kh,kw] plus bias [K].

    Unrolled convolution (im2col, Chellapilla et al. 2006): one
    ``(K, C*kh*kw) @ (C*kh*kw, Ho*Wo)`` GEMM per sample, on columns built one
    sample at a time with one strided slice per kernel tap. A 1x1, stride-1,
    unpadded conv reads ``x`` itself, reshaped to [N,C,H*W], as its column
    matrix (copied only when ``x`` is not C-contiguous). The bias is added in
    place to the GEMM output. Outputs and gradients are bit for bit those of
    the ``np.pad`` im2col kernel (``conv2d_im2col`` in the test oracles).
    A recorded conv keeps its input, not its columns or its output, which
    ``conv2d_relu`` rectifies in place: backward rebuilds each sample's
    columns from ``x.data`` for the weight gradient (recompute, not store:
    Chen et al. 2016), so writing ``x.data`` in place between forward and
    ``backward`` changes the weight gradient. The input gradient is col2im
    one tap at a time: a ``(C, K) @ (K, Ho*Wo)`` GEMM into one [N,C,Ho*Wo]
    buffer, then the oracle's whole-batch strided add, never all taps' columns.
    """
    if x.ndim != 4 or kernels.ndim != 4 or bias.ndim != 1:
        raise ShapeError(
            f"conv2d expects input [N,C,H,W], kernels [K,C,kh,kw], bias [K]; "
            f"got {x.shape}, {kernels.shape}, {bias.shape}"
        )
    n, c, h, w = x.shape
    k, ck, kh, kw = kernels.shape
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernels expect {ck}")
    if bias.shape[0] != k:
        raise ShapeError(f"conv2d bias length {bias.shape[0]} != kernel count {k}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d needs stride >= 1 and pad >= 0, got {stride}, {pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}"
        )

    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    wflat = kernels.data.reshape(k, c * kh * kw)
    if kh == kw == stride == 1 and not pad:
        out = np.matmul(wflat, np.ascontiguousarray(x.data).reshape(n, c, h * w))
    else:
        out = np.empty((n, k, ho * wo), dtype=np.result_type(wflat, x.data))
        for s, cols in enumerate(_sample_columns(x.data, kh, kw, stride, pad, ho, wo)):
            np.matmul(wflat, cols, out=out[s])
    out = out.reshape(n, k, ho, wo)
    out = out.astype(np.result_type(out, bias.data), copy=False)
    out += bias.data.reshape(1, k, 1, 1)

    def grad_fn(g):
        wants = (x.requires_grad, kernels.requires_grad, bias.requires_grad)
        return _conv_grads(g, kernels.data, x.shape, x.data.dtype, stride, pad, wants,
                           _sample_columns(x.data, kh, kw, stride, pad, ho, wo))

    return _make(out, (x, kernels, bias), grad_fn)


def conv2d_relu(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """``relu(conv2d(...))`` bit for bit, recorded as one op that keeps one array: the
    conv output, rectified in place (``conv2d_relu2_pool`` keeps only its pooled form).
    Backward's relu mask ``y > 0`` is ``pre > 0`` (in-place activation, Rota Bulo 2018)."""
    conv = conv2d(x, kernels, bias, stride, pad)
    y = np.maximum(conv.data, 0.0, out=conv.data)
    conv_grad = conv._grad_fn

    def grad_fn(g):
        g = np.multiply(g, y > 0)  # drops the incoming adjoint before the conv's backward
        return conv_grad(g)

    return _make(y, (x, kernels, bias), grad_fn)


def conv2d_relu2_pool(x: Tensor, k0: Tensor, b0: Tensor, k1: Tensor, b1: Tensor,
                      pad: int = 0) -> Tensor:
    """``max_pool2d(conv2d_relu(conv2d_relu(x, k0, b0, 1, pad), k1, b1, 1, pad))`` bit for bit;
    recorded, it keeps ``x``, its pooled output and the switch codes, never a full-resolution
    map: forward frees the inner one once the outer conv has read it, and backward rebuilds it
    per sample for the outer kernel gradient and the inner relu mask (Chen et al. 2016)."""
    parents = (x, k0, b0, k1, b1)
    fx, fk0, fb0, fk1, fb1 = (Tensor(p.data) for p in parents)  # these convs record nothing
    inner = conv2d_relu(fx, fk0, fb0, 1, pad).data
    inner_shape, dtype = inner.shape, inner.dtype
    y = conv2d(Tensor(inner), fk1, fb1, 1, pad).data
    del inner
    shape = np.maximum(y, 0.0, out=y).shape
    pooled, codes = _pool(y, any(p.requires_grad for p in parents))

    def inner_maps(masks):  # rebuilt per sample, each first masking its row of ``masks``
        for s in range(x.shape[0]):
            ys = conv2d_relu(Tensor(x.data[s : s + 1]), fk0, fb0, 1, pad).data[0]
            np.multiply(masks[s], ys > 0, out=masks[s])
            yield ys

    def grad_fn(g):
        gy = _unpool(np.multiply(np.asarray(g, dtype=pooled.dtype), codes >= 16), codes, shape)
        del g  # freed before the col2im
        gin = _conv_grads(gy, k1.data, inner_shape, dtype, 1, pad, (True, False, False), ())[0]
        columns = _sample_columns(inner_maps(gin), *k1.shape[2:], 1, pad, *shape[2:])
        _, gk1, gb1 = _conv_grads(gy, k1.data, inner_shape, dtype, 1, pad, (False, True, True), columns)
        del gy
        gin = np.ascontiguousarray(gin)  # frees the padded gradient before the inner backward
        columns = _sample_columns(x.data, *k0.shape[2:], 1, pad, *inner_shape[2:])
        return _conv_grads(gin, k0.data, x.shape, x.data.dtype, 1, pad, tuple(
            p.requires_grad for p in parents[:3]), columns) + (gk1, gb1)

    return _make(pooled, parents, grad_fn)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def grad_fn(g):
        return (np.multiply(g, x.data > 0),)

    return _make(y, (x,), grad_fn)


# the four elements of a 2x2 window as strided views, in row-major window order
_WINDOW = (np.s_[:, :, ::2, ::2], np.s_[:, :, ::2, 1::2],
           np.s_[:, :, 1::2, ::2], np.s_[:, :, 1::2, 1::2])


def _pool(xd: np.ndarray, switches: bool) -> tuple:
    """The 2x2 windows' first maxima, as ``max_pool2d`` defines them, and if ``switches``
    (else None) a uint8 switch code per window (Zeiler & Fergus 2014): bits 0-3 mark
    the view of its first max (first NaN in a NaN window), bit 4 whether it is > 0."""
    h, w = xd.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"2x2 max pooling needs even extents, got {h}x{w}")
    # np.maximum returns its second operand on a tie, so folding from the last
    # view to the first keeps the earliest of tied signed zeros
    y = np.maximum(xd[_WINDOW[3]], xd[_WINDOW[2]])
    np.maximum(y, xd[_WINDOW[1]], out=y)
    np.maximum(y, xd[_WINDOW[0]], out=y)
    if not switches:
        return y, None
    codes = np.left_shift(y > 0, 4, dtype=np.uint8)
    free = np.ones(y.shape, dtype=bool)  # windows whose first max is still ahead
    for k, view in enumerate(_WINDOW):
        hit = (xd[view] == y) | np.isnan(xd[view])
        hit &= free
        free ^= hit
        codes |= np.left_shift(hit, k, dtype=np.uint8)
    return y, codes


def _unpool(g: np.ndarray, codes: np.ndarray, shape) -> np.ndarray:
    """An array of ``shape`` with each window's gradient bits where its switch code
    marks its first max, zero bits elsewhere: an integer multiply by the code bit
    is exact even for non-finite gradients, where a float select is slower."""
    gx = np.empty(shape, dtype=g.dtype)
    uint = np.dtype(f"u{gx.itemsize}")
    for k, view in enumerate(_WINDOW):
        np.multiply(g.view(uint), (codes >> k) & 1, out=gx.view(uint)[view])
    return gx


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2: the elementwise max of the four stride-2
    views, which is each window's first max in row-major order, bit for bit (of
    tied signed zeros the first one's sign; a window that holds a NaN pools to
    the bits of one of its NaNs). Backward sends each window's gradient whole
    to that first max (the first NaN in a NaN window), +0 to the other three,
    by ``_pool``'s switch codes: a recorded pool never reads its input again."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects [N,C,H,W], got {x.shape}")
    y, codes = _pool(x.data, x.requires_grad)

    def grad_fn(g):
        return (_unpool(np.asarray(g, dtype=y.dtype), codes, x.shape),)

    return _make(y, (x,), grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean: [N,C,H,W] -> [N,C]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    y = x.data.mean(axis=(2, 3))

    def grad_fn(g):
        gx = np.broadcast_to((g / (h * w))[:, :, None, None], x.shape).copy()
        return (gx,)

    return _make(y, (x,), grad_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map x @ W + b for x [N,D], W [D,E], b [E]."""
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ShapeError(
            f"linear expects x [N,D], weight [D,E], bias [E]; got {x.shape}, {weight.shape}, {bias.shape}"
        )
    if x.shape[1] != weight.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ShapeError(f"linear dims disagree: x {x.shape}, weight {weight.shape}, bias {bias.shape}")
    y = x.data @ weight.data + bias.data

    def grad_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return _make(y, (x, weight, bias), grad_fn)


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction for stability; logits [N,C]."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax expects [N,C], got {logits.shape}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)

    return _make(s, (logits,), grad_fn)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean over rows of -log(max(p_label, eps)); labels are class indices."""
    if probs.ndim != 2:
        raise ShapeError(f"cross_entropy expects probs [N,C], got {probs.shape}")
    labels = np.asarray(labels)
    n, c = probs.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy label out of range [0,{c}): {labels.min()}..{labels.max()}")
    picked = probs.data[np.arange(n), labels]
    clamped = np.maximum(picked, CROSS_ENTROPY_EPS)
    loss = np.asarray(-np.log(clamped).mean(), dtype=probs.data.dtype)

    def grad_fn(g):
        gp = np.zeros_like(probs.data)
        live = picked >= CROSS_ENTROPY_EPS
        gp[np.arange(n), labels] = np.where(live, -1.0 / clamped, 0.0) / n
        return (gp * g,)

    return _make(loss, (probs,), grad_fn)


def smooth_l1(pred: Tensor, target) -> Tensor:
    """Summed robust loss: 0.5 d^2 for |d| < 1, |d| - 0.5 otherwise, d = pred - target.

    The caller divides by its own normalizer. ``target`` may be a Tensor or a
    plain array; gradients flow to both sides when requested.
    """
    target_t = target if isinstance(target, Tensor) else None
    tdata = target_t.data if target_t is not None else np.asarray(target, dtype=pred.data.dtype)
    if pred.shape != tdata.shape:
        raise ShapeError(f"smooth_l1 shape mismatch: {pred.shape} vs {tdata.shape}")
    d = pred.data - tdata
    absd = np.abs(d)
    cell = np.where(absd < 1.0, 0.5 * d * d, absd - 0.5)
    loss = np.asarray(cell.sum(), dtype=pred.data.dtype)

    def grad_fn(g):
        gd = np.clip(d, -1.0, 1.0) * g
        if target_t is not None:
            return gd, -gd
        return (gd,)

    parents = (pred, target_t) if target_t is not None else (pred,)
    return _make(loss, parents, grad_fn)


# ---------------------------------------------------------------------------
# plumbing operators used to assemble composite losses and heads


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def grad_fn(g):
        return g, g

    return _make(a.data + b.data, (a, b), grad_fn)


def scale(x: Tensor, c: float) -> Tensor:
    def grad_fn(g):
        return (g * c,)

    return _make(x.data * c, (x,), grad_fn)


def mul_const(x: Tensor, arr) -> Tensor:
    arr = np.asarray(arr, dtype=x.data.dtype)
    if arr.shape != x.shape:
        raise ShapeError(f"mul_const shape mismatch: {x.shape} vs {arr.shape}")

    def grad_fn(g):
        return (g * arr,)

    return _make(x.data * arr, (x,), grad_fn)


def sum_all(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.full_like(x.data, 1.0) * g,)

    return _make(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), grad_fn)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.shape

    def grad_fn(g):
        return (g.reshape(old),)

    return _make(x.data.reshape(shape), (x,), grad_fn)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g):
        return (g.transpose(inverse),)

    return _make(x.data.transpose(axes), (x,), grad_fn)


def take_rows(x: Tensor, idx) -> Tensor:
    """Row gather along axis 0; backward scatter-adds (duplicate indices accumulate)."""
    idx = np.asarray(idx, dtype=np.int64)

    def grad_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(x.data[idx], (x,), grad_fn)


# ---------------------------------------------------------------------------
# optimizer


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Zero-mean uniform initialization scaled by fan-in.

    The limit sqrt(6/fan_in) keeps activation variance roughly constant
    through stacked conv+relu layers; smaller gains starve deep stacks of
    signal and stall training.
    """
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class SGD:
    """Momentum SGD over a named parameter table."""

    def __init__(self, params: dict, learning_rate: float = 0.001,
                 momentum: float = 0.9, weight_decay: float = 0.0005):
        self.learning_rate = learning_rate
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.params = params
        self.velocity = {k: np.zeros_like(t.data) for k, t in params.items()}

    @property
    def learning_rate(self) -> float:
        return self._learning_rate

    @learning_rate.setter
    def learning_rate(self, value: float):
        if value <= 0:
            raise ValueError(f"learning_rate must be positive, got {value}")
        self._learning_rate = value

    def step(self):
        """One in-place momentum update, v <- m*v + g + wd*p; p <- p - lr*v, of
        every parameter with a gradient; the rest keep their values.

        Raises ``RuntimeError`` when no parameter has a gradient, as when the
        loss was built from frozen copies and ``backward`` reached nothing.
        """
        if all(p.grad is None for p in self.params.values()):
            raise RuntimeError("SGD.step: no parameter has a gradient "
                               "(was the loss built from frozen tensors?)")
        for name, p in self.params.items():
            if p.grad is None:
                continue
            velocity = self.velocity[name]
            velocity *= self.momentum
            velocity += p.grad + self.weight_decay * p.data
            p.data -= self._learning_rate * velocity

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
