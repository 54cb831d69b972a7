import math
import tracemalloc

import numpy as np
import pytest

from wsdl import autodiff as ad
from wsdl import backbone as bb
from wsdl.autodiff import Tensor

from oracles import (argmax_max_pool, conv2d_direct, conv2d_im2col, finite_difference,
                     gradient_mismatch, window_max_pool)

GRAD_TOL = 1e-4


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# forward examples


def test_conv2d_matches_direct_oracle():
    x = t([[[[1.0, 2, 3], [4, 5, 6], [7, 8, 9]]]], grad=False)
    k = t([[[[1.0, 0], [0, 1]]]], grad=False)
    b = t([0.0], grad=False)
    out = ad.conv2d(x, k, b, stride=1, pad=0)
    expected = conv2d_direct(x.data, k.data, b.data)
    assert np.array_equal(out.data, expected)
    assert np.array_equal(out.data[0, 0], [[6.0, 8.0], [12.0, 14.0]])


def test_conv2d_identity_kernel_bit_exact():
    rng = np.random.default_rng(0)
    x = t(rng.normal(size=(2, 1, 5, 7)), grad=False)
    k = t(np.ones((1, 1, 1, 1)), grad=False)
    out = ad.conv2d(x, k, t([0.0], grad=False))
    assert np.array_equal(out.data, x.data)


def test_conv2d_zero_input_gives_bias():
    x = t(np.zeros((1, 2, 4, 4)), grad=False)
    k = t(np.ones((3, 2, 3, 3)), grad=False)
    b = t([1.0, -2.0, 0.5], grad=False)
    out = ad.conv2d(x, k, b, stride=1, pad=1)
    for oc, bias in enumerate(b.data):
        assert np.all(out.data[:, oc] == bias)


def test_conv2d_shape_errors():
    x = t(np.zeros((1, 2, 4, 4)), grad=False)
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, t(np.zeros((1, 3, 3, 3)), grad=False), t([0.0], grad=False))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, t(np.zeros((1, 2, 5, 5)), grad=False), t([0.0], grad=False))
    with pytest.raises(ad.ShapeError):
        ad.conv2d(x, t(np.zeros((2, 2, 3, 3)), grad=False), t([0.0], grad=False))


def test_relu_examples():
    out = ad.relu(t([-1.0, 0.0, 2.0], grad=False))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])
    x = np.array([0.5, 3.0])
    assert np.array_equal(ad.relu(t(x, grad=False)).data, x)
    assert np.all(ad.relu(t([-2.0, -0.1], grad=False)).data == 0.0)


def test_max_pool_examples():
    out = ad.max_pool2d(t([[[[1.0, 2], [3, 4]]]], grad=False))
    assert out.data.reshape(-1)[0] == 4.0

    const = ad.max_pool2d(t(np.full((1, 1, 4, 4), 3.25), grad=False))
    assert np.all(const.data == 3.25)

    ramp = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = ad.max_pool2d(t(ramp, grad=False))
    assert np.array_equal(out.data, window_max_pool(ramp))
    assert np.array_equal(out.data[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    with pytest.raises(ad.ShapeError):
        ad.max_pool2d(t(np.zeros((1, 1, 3, 4)), grad=False))


def _bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


def _pool_and_grad(x):
    """max_pool2d of x with a random upstream gradient: (pooled, grad of x, upstream)."""
    xt = Tensor(x, requires_grad=True)
    out = ad.max_pool2d(xt)
    g = np.random.default_rng(3).normal(size=out.shape).astype(x.dtype)
    ad.backward(ad.sum_all(ad.mul_const(out, g)))
    return out.data, xt.grad, g


def _routed(picked, g):
    """The gradient that sends each window's g to its picked element, +0 elsewhere."""
    return np.where(picked, g.repeat(2, axis=2).repeat(2, axis=3), 0).astype(g.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_pool_ties_route_to_first_max(dtype):
    rng = np.random.default_rng(11)
    cases = [np.full((2, 3, 4, 6), 1.5), np.zeros((1, 2, 4, 4)),
             rng.integers(0, 3, size=(2, 3, 6, 8)), rng.integers(-2, 2, size=(3, 4, 16, 32))]
    for x in cases:
        x = x.astype(dtype)
        out, gx, g = _pool_and_grad(x)
        want, picked = argmax_max_pool(x)
        assert np.array_equal(_bits(out), _bits(want))
        assert np.array_equal(_bits(gx), _bits(_routed(picked, g)))
    # all-equal windows: every gradient lands on the window's top-left element
    _, gx, g = _pool_and_grad(np.full((1, 1, 4, 4), 2.0, dtype=dtype))
    assert np.array_equal(gx[0, 0, ::2, ::2], g[0, 0])
    assert not gx[0, 0, 1::2].any() and not gx[0, 0, :, 1::2].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (2, 3, 4, 6), (2, 4, 32, 64)])
def test_max_pool_signed_zeros_and_nans_match_argmax_bitwise(dtype, shape):
    rng = np.random.default_rng(12)
    x = rng.choice(np.array([-0.0, 0.0, np.nan, -1.0, 0.5]), size=shape).astype(dtype)
    out, gx, g = _pool_and_grad(x)
    want, picked = argmax_max_pool(x)
    assert np.array_equal(_bits(out), _bits(want))
    assert np.array_equal(_bits(gx), _bits(_routed(picked, g)))


def test_max_pool_backward_does_not_read_its_input_again():
    x = np.random.default_rng(13).integers(-2, 3, size=(2, 3, 6, 8)).astype(np.float64)
    grads = []
    for overwrite in (False, True):
        xt = t(x.copy())
        loss = ad.sum_all(ad.mul_const(ad.max_pool2d(xt), np.arange(72.0).reshape(2, 3, 3, 4)))
        if overwrite:  # the switch codes, formed in forward, still route the gradient
            xt.data *= -1.0
        ad.backward(loss)
        grads.append(xt.grad)
    assert np.array_equal(_bits(grads[0]), _bits(grads[1]))
    assert np.count_nonzero(grads[0]) == 71  # every window's weight but the zero one


def test_max_pool_nan_window_gradient_goes_to_first_nan():
    nan = np.nan
    x = np.array([[[[1.0, nan, 9.0, 9.0],
                    [nan, 5.0, 9.0, nan],
                    [nan, nan, -0.0, 0.0],
                    [nan, nan, 0.0, -0.0]]]])
    out, gx, g = _pool_and_grad(x)
    assert np.isnan(out[0, 0, 0, 0]) and np.isnan(out[0, 0, 0, 1]) and np.isnan(out[0, 0, 1, 0])
    assert np.signbit(out[0, 0, 1, 1])  # the first zero, -0.0, is the picked max
    expected = np.zeros_like(x)
    expected[0, 0, 0, 1] = g[0, 0, 0, 0]
    expected[0, 0, 1, 3] = g[0, 0, 0, 1]
    expected[0, 0, 2, 0] = g[0, 0, 1, 0]
    expected[0, 0, 2, 2] = g[0, 0, 1, 1]
    assert np.array_equal(_bits(gx), _bits(expected))


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _sprinkle(a, rng):
    """``a`` with about one element in eight replaced by +-0, +-inf or NaN."""
    a = a.copy()
    hit = rng.random(a.shape) < 0.125
    a[hit] = rng.choice(_SPECIALS, size=int(hit.sum()))
    return a


def _conv_inputs(rng, n, dtype, kh, kw, layout):
    """x [n,3,7,9], kernels [4,3,kh,kw], bias [4]; ``layout`` picks a
    contiguous input, a strided view of a larger array, or special values."""
    shape = (n, 3, 7, 9)
    if layout == "view":
        x = rng.normal(size=(n, 6, 14, 9)).astype(dtype)[:, ::2, 1::2]
        assert x.shape == shape and not x.flags.c_contiguous
    else:
        x = rng.normal(size=shape).astype(dtype)
        if layout == "special":
            x = _sprinkle(x, rng)
    kernels = rng.normal(size=(4, 3, kh, kw)).astype(dtype)
    bias = rng.normal(size=4).astype(dtype)
    return x, kernels, bias


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize("kh,kw", [(1, 1), (2, 3), (3, 3)])
def test_conv2d_bitwise_equals_pad_im2col_kernel(dtype, n, kh, kw):
    rng = np.random.default_rng(21)
    for pad in (0, 1, 2):
        for stride in (1, 2):
            for layout in ("contiguous", "view", "special"):
                x, kernels, bias = _conv_inputs(rng, n, dtype, kh, kw, layout)
                x_before = x.copy()
                xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kernels, bias))
                with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
                    out = ad.conv2d(xt, kt, bt, stride=stride, pad=pad)
                    g = rng.normal(size=out.shape).astype(dtype)
                    if layout == "special":
                        g = _sprinkle(g, rng)
                    ad.backward(ad.sum_all(ad.mul_const(out, g)))
                    want = conv2d_im2col(x, kernels, bias, g, stride=stride, pad=pad)
                case = (pad, stride, layout)
                for got, ref in zip((out.data, xt.grad, kt.grad, bt.grad), want):
                    assert got.dtype == ref.dtype == dtype, case
                    assert got.shape == ref.shape, case
                    assert np.array_equal(_bits(got), _bits(ref)), case
                assert np.array_equal(_bits(xt.data), _bits(x_before)), case
                assert not np.shares_memory(out.data, xt.data), case


def test_conv2d_retains_neither_columns_nor_padded_input():
    rng = np.random.default_rng(23)
    x = t(rng.normal(size=(2, 8, 32, 32)))
    k = t(rng.normal(size=(4, 8, 3, 3)))
    b = t(rng.normal(size=4))
    ad.conv2d(x, k, b, pad=1)  # warm-up: first-call allocations are not retained by the op
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, k, b, pad=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 16 KiB covers the output Tensor and the closure; the columns (1.2 MB) and
    # the padded input (148 KB) are rebuilt from x in backward
    assert retained <= out.data.nbytes + 16 * 1024


def test_conv2d_backward_holds_one_tap_of_input_gradient_columns():
    rng = np.random.default_rng(24)
    n, c, k, hw = 8, 16, 16, 16
    x = t(rng.normal(size=(n, c, hw, hw)))
    kernels = t(rng.normal(size=(k, c, 3, 3)))
    b = t(rng.normal(size=k))

    def backward_peak():
        x.grad = kernels.grad = b.grad = None
        loss = ad.sum_all(ad.conv2d(x, kernels, b, pad=1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    backward_peak()  # warm-up: first-call allocations
    peak = backward_peak()
    item = x.data.itemsize
    padded_grad = n * c * (hw + 2) ** 2 * item    # gxp
    tap_columns = n * c * hw * hw * item          # one tap's [n, C, Ho*Wo] column gradient
    upstream = n * k * hw * hw * item             # the adjoint backward hands the conv
    # 256 KiB covers numpy's strided-add buffers and small arrays; the
    # whole-batch column gradient alone would be 9 taps, 2.4 MB. The weight
    # gradient's rebuilt columns and per-sample table are freed before the
    # input gradient forms, so they do not count.
    assert peak <= padded_grad + tap_columns + upstream + 256 * 1024


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3)])
def test_conv2d_relu_bitwise_equals_relu_of_conv2d(dtype, kh, kw):
    rng = np.random.default_rng(26)
    for pad in (0, 1, 2):
        for stride in (1, 2):
            for layout in ("contiguous", "view", "special"):
                x, kernels, bias = _conv_inputs(rng, 3, dtype, kh, kw, layout)
                x_before = x.copy()
                case = (pad, stride, layout)
                with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
                    frozen = ad.conv2d_relu(Tensor(x), Tensor(kernels), Tensor(bias), stride, pad)
                    assert frozen._grad_fn is None and frozen._parents == (), case
                    assert not frozen.requires_grad, case
                    g = _sprinkle(rng.normal(size=frozen.shape), rng).astype(dtype)
                    runs = []
                    for fused in (False, True):
                        leaves = [Tensor(a, requires_grad=True) for a in (x, kernels, bias)]
                        if fused:
                            out = ad.conv2d_relu(*leaves, stride, pad)
                        else:
                            out = ad.relu(ad.conv2d(*leaves, stride=stride, pad=pad))
                        loss = ad.sum_all(ad.mul_const(out, g))
                        ad.backward(loss)
                        first = [p.grad.copy() for p in leaves]
                        ad.backward(loss)  # a second pass doubles every leaf gradient
                        for p, once in zip(leaves, first):
                            assert np.array_equal(_bits(p.grad), _bits(once + once)), case
                        runs.append([out.data] + first)
                for got, ref in zip(runs[1], runs[0]):
                    assert got.dtype == ref.dtype == dtype, case
                    assert np.array_equal(_bits(got), _bits(ref)), case
                assert np.array_equal(_bits(frozen.data), _bits(runs[0][0])), case
                assert np.array_equal(_bits(x), _bits(x_before)), case
                assert not np.shares_memory(frozen.data, x), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_masks_special_values_bitwise(dtype):
    rng = np.random.default_rng(28)
    x = _sprinkle(rng.normal(size=(4, 5, 6)), rng).astype(dtype)
    g = _sprinkle(rng.normal(size=x.shape), rng).astype(dtype)
    xt = Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):  # inf * 0
        ad.backward(ad.sum_all(ad.mul_const(ad.relu(xt), g)))
        want = (x > 0).astype(dtype) * g  # the float 0/1 mask, multiplied out
    assert xt.grad.dtype == dtype
    assert np.array_equal(_bits(xt.grad), _bits(want))


def test_conv2d_relu_retains_only_its_output():
    rng = np.random.default_rng(29)
    x = t(rng.normal(size=(2, 8, 32, 32)))
    k = t(rng.normal(size=(4, 8, 3, 3)))
    b = t(rng.normal(size=4))
    ad.conv2d_relu(x, k, b, pad=1)  # warm-up: first-call allocations are not retained by the op
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d_relu(x, k, b, pad=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # relu(conv2d(...)) would keep the conv output as well as the relu output
    assert retained <= out.data.nbytes + 16 * 1024


def test_conv2d_relu_pool_backward_frees_each_adjoint_once_spent():
    rng = np.random.default_rng(30)
    n, c, k, hw = 8, 16, 16, 32
    x = t(rng.normal(size=(n, c, hw, hw)))
    kernels = t(rng.normal(size=(k, c, 3, 3)))
    b = t(rng.normal(size=k))

    def backward_peak():
        x.grad = kernels.grad = b.grad = None
        loss = ad.sum_all(ad.max_pool2d(ad.conv2d_relu(x, kernels, b, pad=1)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ad.backward(loss)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    backward_peak()  # warm-up: first-call allocations
    peak = backward_peak()
    item = x.data.itemsize
    padded_grad = n * c * (hw + 2) ** 2 * item    # gxp
    tap_columns = n * c * hw * hw * item          # one tap's [n, C, Ho*Wo] column gradient
    upstream = n * k * hw * hw * item             # the masked adjoint the conv's backward reads
    # the pool's adjoint to the conv (1 MiB) must be gone once it is masked:
    # a reference to it left in backward's loop pushes the peak over the bound
    assert peak <= padded_grad + tap_columns + upstream + 256 * 1024


def _pool_conv_inputs(rng, n, dtype, special):
    """x [n,3,8,12], kernels [4,3,3,3], bias [4]. Channel 0 is a zero kernel
    with a negative bias (windows of tied zeros), channel 1 one with a
    positive bias (tied positive windows); ``special`` sprinkles +-0, +-inf
    and NaN into x, which gives NaN windows in every channel."""
    x = rng.normal(size=(n, 3, 8, 12))
    kernels = rng.normal(size=(4, 3, 3, 3))
    kernels[:2] = 0.0
    bias = np.array([-1.0, 0.5, 0.1, -0.1])
    if special:
        x = _sprinkle(x, rng)
    return x.astype(dtype), kernels.astype(dtype), bias.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 20])
def test_conv2d_relu_pool_bitwise_equals_pool_of_conv2d_relu(dtype, n):
    rng = np.random.default_rng(31)
    # (kh, pad, stride) giving even conv extents on the 8x12 input
    for kh, pad, stride in ((3, 1, 1), (3, 0, 1), (3, 1, 2), (1, 0, 1)):
        for special in (False, True):
            x, kernels, bias = _pool_conv_inputs(rng, n, dtype, special)
            kernels = np.ascontiguousarray(kernels[:, :, :kh, :kh])
            x_before = x.copy()
            case = (kh, pad, stride, special)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
                frozen = ad.conv2d_relu_pool(Tensor(x), Tensor(kernels), Tensor(bias), stride, pad)
                assert frozen._grad_fn is None and not frozen.requires_grad, case
                g = _sprinkle(rng.normal(size=frozen.shape), rng).astype(dtype)
                runs = []
                for fused in (False, True):
                    leaves = [Tensor(a, requires_grad=True) for a in (x, kernels, bias)]
                    if fused:
                        out = ad.conv2d_relu_pool(*leaves, stride, pad)
                    else:
                        out = ad.max_pool2d(ad.conv2d_relu(*leaves, stride, pad))
                    loss = ad.sum_all(ad.mul_const(out, g))
                    ad.backward(loss)
                    first = [p.grad.copy() for p in leaves]
                    ad.backward(loss)  # a second pass doubles every leaf gradient
                    for p, once in zip(leaves, first):
                        assert np.array_equal(_bits(p.grad), _bits(once + once)), case
                    runs.append([out.data] + first)
            for got, ref in zip(runs[1], runs[0]):
                assert got.dtype == ref.dtype == dtype, case
                assert np.array_equal(_bits(got), _bits(ref)), case
            assert np.array_equal(_bits(frozen.data), _bits(runs[0][0])), case
            assert np.array_equal(_bits(x), _bits(x_before)), case
    assert np.isnan(runs[1][0]).any()  # the special inputs did reach NaN windows


def test_conv2d_relu_pool_retains_pooled_output_and_one_code_per_element():
    rng = np.random.default_rng(32)
    x = t(rng.normal(size=(2, 8, 32, 32)))
    k = t(rng.normal(size=(4, 8, 3, 3)))
    b = t(rng.normal(size=4))
    ad.conv2d_relu_pool(x, k, b, pad=1)  # warm-up: first-call allocations are not retained
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d_relu_pool(x, k, b, pad=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the full-resolution conv output (4x the pooled bytes) is not kept
    assert retained <= out.data.nbytes + out.data.size + 16 * 1024


def test_conv2d_relu_pool_rejects_odd_extents():
    x, k, b = t(np.zeros((1, 2, 5, 6))), t(np.zeros((3, 2, 3, 3))), t(np.zeros(3))
    with pytest.raises(ad.ShapeError, match="even extents, got 5x6"):
        ad.conv2d_relu_pool(x, k, b, pad=1)
    with pytest.raises(ad.ShapeError, match="even extents, got 3x4"):
        ad.conv2d_relu_pool(x, k, b, pad=0)


def _stage_pair(x, k0, b0, k1, b1, pad, g, frozen=()):
    """Output and leaf gradients of ``conv2d_relu2_pool`` and of the composition it
    stands for, each as [output, gx, gk0, gb0, gk1, gb1] (None for a frozen leaf), after
    checking that a second ``backward`` doubles every gradient. ``frozen`` holds the
    indices of the leaves that do not require grad."""
    runs = []
    for fused in (False, True):
        leaves = [Tensor(a, requires_grad=i not in frozen)
                  for i, a in enumerate((x, k0, b0, k1, b1))]
        if fused:
            out = ad.conv2d_relu2_pool(*leaves, pad=pad)
        else:
            inner = ad.conv2d_relu(*leaves[:3], 1, pad)
            out = ad.conv2d_relu_pool(inner, *leaves[3:], 1, pad)
        loss = ad.sum_all(ad.mul_const(out, g))
        ad.backward(loss)
        first = [None if p.grad is None else p.grad.copy() for p in leaves]
        ad.backward(loss)  # a second pass doubles every leaf gradient
        for p, once in zip(leaves, first):
            assert (p.grad is None) == (once is None)
            assert once is None or np.array_equal(_bits(p.grad), _bits(once + once))
        runs.append([out.data] + first)
    return runs


def _assert_same_bits(got, ref, case):
    for a, b in zip(got, ref):
        assert (a is None) == (b is None), case
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape, case
            assert np.array_equal(_bits(a), _bits(b)), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 20])
def test_conv2d_relu2_pool_bitwise_equals_conv2d_relu_pool_of_conv2d_relu(dtype, n):
    rng = np.random.default_rng(36)
    # (inner kh, outer kh, pad) giving even extents on the 8x12 input
    for kh0, kh1, pad in ((3, 3, 1), (3, 3, 0), (1, 1, 0), (1, 3, 1), (3, 1, 1)):
        for special in (False, True):
            x, k0, b0 = _pool_conv_inputs(rng, n, dtype, special)
            _, k1, b1 = _pool_conv_inputs(rng, 1, dtype, False)
            k0 = np.ascontiguousarray(k0[:, :, :kh0, :kh0])
            k1 = np.ascontiguousarray(np.concatenate([k1, k1[:, :1]], axis=1)[:, :, :kh1, :kh1])
            x_before = x.copy()
            case = (kh0, kh1, pad, special)
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
                frozen = ad.conv2d_relu2_pool(*(Tensor(a) for a in (x, k0, b0, k1, b1)), pad=pad)
                assert frozen._grad_fn is None and frozen._parents == (), case
                assert not frozen.requires_grad, case
                g = _sprinkle(rng.normal(size=frozen.shape), rng).astype(dtype)
                # all leaves; a frozen outer kernel; a frozen input and inner conv
                for frozen_leaves in ((), (3,), (0, 1, 2)):
                    ref, got = _stage_pair(x, k0, b0, k1, b1, pad, g, frozen_leaves)
                    _assert_same_bits(got, ref, case + (frozen_leaves,))
            assert np.array_equal(_bits(frozen.data), _bits(ref[0])), case
            assert np.array_equal(_bits(x), _bits(x_before)), case
    assert np.isnan(got[0]).any()  # the special inputs did reach NaN windows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize("c,k,hw", [(3, 16, 64), (16, 32, 32), (32, 64, 16)])
def test_conv2d_relu2_pool_bitwise_equals_its_composition_at_trunk_shapes(dtype, n, c, k, hw):
    rng = np.random.default_rng(37)
    for special in (False, True):
        x = rng.normal(size=(n, c, hw, hw)).astype(dtype)
        k0 = rng.normal(size=(k, c, 3, 3)).astype(dtype)
        k1 = rng.normal(size=(k, k, 3, 3)).astype(dtype)
        b0, b1 = rng.normal(size=(2, k)).astype(dtype)
        g = rng.normal(size=(n, k, hw // 2, hw // 2)).astype(dtype)
        if special:
            x, g = _sprinkle(x, rng), _sprinkle(g, rng)
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
            ref, got = _stage_pair(x, k0, b0, k1, b1, 1, g)
        _assert_same_bits(got, ref, special)


def test_conv2d_relu2_pool_retains_pooled_output_and_one_code_per_element():
    rng = np.random.default_rng(38)
    x = t(rng.normal(size=(2, 8, 32, 32)))
    k0, k1 = t(rng.normal(size=(4, 8, 3, 3))), t(rng.normal(size=(4, 4, 3, 3)))
    b0, b1 = t(rng.normal(size=4)), t(rng.normal(size=4))
    ad.conv2d_relu2_pool(x, k0, b0, k1, b1, pad=1)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d_relu2_pool(x, k0, b0, k1, b1, pad=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # neither the inner map nor the outer full-resolution map (4x the pooled bytes
    # each) is kept
    assert retained <= out.data.nbytes + out.data.size + 16 * 1024


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("c,k,hw", [(16, 16, 16), (16, 32, 16), (32, 64, 8), (64, 64, 8),
                                    (64, 128, 8)])
def test_conv2d_bitwise_equals_pad_im2col_kernel_at_trunk_shapes(dtype, n, c, k, hw):
    rng = np.random.default_rng(25)
    for special in (False, True):
        x = rng.normal(size=(n, c, hw, hw)).astype(dtype)
        kernels = rng.normal(size=(k, c, 3, 3)).astype(dtype)
        bias = rng.normal(size=k).astype(dtype)
        g = rng.normal(size=(n, k, hw, hw)).astype(dtype)
        if special:
            x, g = _sprinkle(x, rng), _sprinkle(g, rng)
        xt, kt, bt = (Tensor(a, requires_grad=True) for a in (x, kernels, bias))
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0
            out = ad.conv2d(xt, kt, bt, pad=1)
            ad.backward(ad.sum_all(ad.mul_const(out, g)))
            want = conv2d_im2col(x, kernels, bias, g, pad=1)
        for got, ref in zip((out.data, xt.grad, kt.grad, bt.grad), want):
            assert got.dtype == ref.dtype == dtype, special
            assert np.array_equal(_bits(got), _bits(ref)), special


def test_conv2d_bias_dtype_promotes_as_out_of_place_add():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
    kernels = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    bias = rng.normal(size=4)  # float64: the sum is float64, as with ``+``
    out = ad.conv2d(Tensor(x), Tensor(kernels), Tensor(bias), pad=1)
    want, _, _, _ = conv2d_im2col(x, kernels, bias, np.zeros((2, 4, 5, 5), np.float32), pad=1)
    assert out.data.dtype == want.dtype == np.float64
    assert np.array_equal(_bits(out.data), _bits(want))


def test_global_avg_pool_examples():
    out = ad.global_avg_pool(t([[[[1.0, 2], [3, 4]]]], grad=False))
    assert out.data[0, 0] == 2.5
    assert ad.global_avg_pool(t(np.full((1, 3, 2, 2), 7.0), grad=False)).data[0, 1] == 7.0
    assert ad.global_avg_pool(t([[[[5.5]]]], grad=False)).data[0, 0] == 5.5


def test_linear_examples():
    x = t([[1.0, 2.0]], grad=False)
    eye = t(np.eye(2), grad=False)
    zero_b = t([0.0, 0.0], grad=False)
    assert np.array_equal(ad.linear(x, eye, zero_b).data, x.data)

    zero_w = t(np.zeros((2, 2)), grad=False)
    out = ad.linear(x, zero_w, t([1.0, 2.0], grad=False))
    assert np.array_equal(out.data, [[1.0, 2.0]])

    out = ad.linear(x, t([[1.0], [1.0]], grad=False), t([0.0], grad=False))
    assert np.array_equal(out.data, [[3.0]])

    with pytest.raises(ad.ShapeError):
        ad.linear(x, t(np.zeros((3, 2)), grad=False), zero_b)


def test_softmax_examples():
    out = ad.softmax(t([[0.0, 0.0]], grad=False))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    out = ad.softmax(t([[2.0, 2.0, 2.0]], grad=False))
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-12)

    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 5))
    a = ad.softmax(t(logits, grad=False)).data
    b = ad.softmax(t(logits + 13.7, grad=False)).data
    assert np.abs(a - b).max() < 1e-6
    assert np.array_equal(a.argmax(axis=1), b.argmax(axis=1))
    assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-6


def test_cross_entropy_examples():
    onehot = t([[0.0, 1.0, 0.0]], grad=False)
    assert ad.cross_entropy(onehot, [1]).item() == 0.0

    uniform = t([[0.5, 0.5]], grad=False)
    assert abs(ad.cross_entropy(uniform, [0]).item() - math.log(2)) < 1e-12

    floor = t([[0.0, 1.0]], grad=False)
    assert abs(ad.cross_entropy(floor, [0]).item() - (-math.log(ad.CROSS_ENTROPY_EPS))) < 1e-9

    with pytest.raises(ValueError):
        ad.cross_entropy(uniform, [2])


def test_smooth_l1_examples():
    zero = ad.smooth_l1(t([0.0], grad=False), np.array([0.0]))
    assert zero.item() == 0.0
    assert ad.smooth_l1(t([0.5], grad=False), np.array([0.0])).item() == 0.125
    assert ad.smooth_l1(t([2.0], grad=False), np.array([0.0])).item() == 1.5
    with pytest.raises(ad.ShapeError):
        ad.smooth_l1(t([1.0, 2.0], grad=False), np.array([0.0]))


def test_sgd_examples():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = ad.SGD({"p": p}, learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    p.grad = np.array([1.0])
    opt.step()
    assert np.allclose(p.data, [0.9])

    q = Tensor(np.array([0.5]), requires_grad=True)
    opt = ad.SGD({"q": q}, learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    q.grad = np.array([0.0])
    opt.step()
    assert np.array_equal(q.data, [0.5])

    w = Tensor(np.array([0.0]), requires_grad=True)
    opt = ad.SGD({"w": w}, learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    for _ in range(2):
        w.grad = np.array([1.0])
        opt.step()
        opt.zero_grad()
    assert np.allclose(w.data, [-0.29])


def test_sgd_step_rejects_graph_built_from_frozen_copies():
    w = t([1.0, -2.0])
    opt = ad.SGD({"w": w}, learning_rate=0.1)
    frozen = Tensor(w.data.copy())
    loss = ad.sum_all(ad.add(frozen, frozen))
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="no parameter has a gradient"):
        opt.step()
    assert np.array_equal(w.data, [1.0, -2.0])


def test_sgd_step_allows_partial_gradients():
    w, unused = t([1.0]), t([5.0])
    opt = ad.SGD({"w": w, "unused": unused}, learning_rate=0.1, momentum=0.0,
                 weight_decay=0.0)
    ad.backward(ad.sum_all(w))
    opt.step()
    assert np.allclose(w.data, [0.9])
    assert np.array_equal(unused.data, [5.0])


def test_optimstate_validation():
    with pytest.raises(ValueError):
        ad.SGD({}, learning_rate=-1.0)
    with pytest.raises(ValueError):
        ad.SGD({}, learning_rate=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        ad.SGD({}, learning_rate=0.1, weight_decay=-0.1)


# ---------------------------------------------------------------------------
# backward


def test_backward_sums_the_paths_of_a_reused_input():
    x = t([3.0])
    ad.backward(ad.sum_all(ad.add(x, x)))
    assert np.array_equal(x.grad, [2.0])


def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3))
    ad.backward(ad.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_rejects_nonscalar():
    x = t([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.backward(ad.relu(x))


def test_backward_accumulates_without_zeroing():
    x = t(np.array([1.0, -2.0, 3.0]))
    loss = ad.sum_all(ad.relu(x))
    ad.backward(loss)
    first = x.grad.copy()
    ad.backward(loss)
    assert np.array_equal(x.grad, 2 * first)


def _conv_relu_pool_graph():
    """A conv -> relu -> max-pool -> projection graph: (leaves, intermediates, loss)."""
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(2, 2, 6, 6)))
    k = t(rng.normal(size=(3, 2, 3, 3)))
    b = t(rng.normal(size=3))
    conv = ad.conv2d(x, k, b, pad=1)
    act = ad.relu(conv)
    pooled = ad.max_pool2d(act)
    loss = _project(pooled, rng)
    return (x, k, b), (conv, act, pooled), loss


def test_backward_sets_grad_on_leaves_only():
    leaves, intermediates, loss = _conv_relu_pool_graph()
    ad.backward(loss)
    for p in leaves:
        assert p.grad is not None and p.grad.shape == p.shape
    for node in intermediates + (loss,):
        assert node.grad is None


def test_backward_twice_doubles_every_leaf_gradient():
    leaves, _, loss = _conv_relu_pool_graph()
    ad.backward(loss)
    first = [p.grad.copy() for p in leaves]
    ad.backward(loss)
    for p, g in zip(leaves, first):
        assert np.array_equal(p.grad, 2 * g)


def test_backward_deterministic_with_zeroing():
    rng = np.random.default_rng(7)
    x = t(rng.normal(size=(2, 2, 4, 4)))
    k = t(rng.normal(size=(3, 2, 3, 3)))
    b = t(rng.normal(size=3))
    w = t(rng.normal(size=(12, 2)))
    wb = t(rng.normal(size=2))

    def run():
        conv = ad.relu(ad.conv2d(x, k, b, stride=1, pad=0))
        flat = ad.reshape(conv, (2, 12))
        out = ad.linear(flat, w, wb)
        loss = ad.sum_all(out)
        ad.backward(loss)

    run()
    grads = [p.grad.copy() for p in (x, k, b, w, wb)]
    for p in (x, k, b, w, wb):
        p.zero_grad()
    run()
    for p, g in zip((x, k, b, w, wb), grads):
        assert np.array_equal(p.grad, g)


def test_op_on_frozen_tensors_records_no_graph():
    x, w = t([[1.0, -2.0]], grad=False), t([[0.5], [3.0]], grad=False)
    y = ad.relu(ad.linear(x, w, t([0.0], grad=False)))
    assert y._grad_fn is None and y._parents == () and not y.requires_grad
    # one gradient-requiring input is enough to record
    z = ad.relu(ad.linear(x, t(w.data), t([0.0], grad=False)))
    assert z._grad_fn is not None and z.requires_grad


def test_composite_network_gradcheck():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(1, 2, 8, 8)))
    k = t(rng.normal(size=(3, 2, 3, 3)) * 0.5)
    b = t(rng.normal(size=3) * 0.1)
    w = t(rng.normal(size=(3 * 2 * 2, 4)) * 0.5)
    wb = t(rng.normal(size=4) * 0.1)
    labels = np.array([2])

    def forward():
        conv = ad.relu(ad.conv2d(x, k, b, stride=2, pad=1))
        pooled = ad.max_pool2d(conv)
        flat = ad.reshape(pooled, (1, 12))
        probs = ad.softmax(ad.linear(flat, w, wb))
        return ad.cross_entropy(probs, labels)

    loss = forward()
    ad.backward(loss)
    for p in (x, k, b, w, wb):
        numeric = finite_difference(lambda: forward().item(), p.data)
        assert gradient_mismatch(p.grad, numeric) < GRAD_TOL


# ---------------------------------------------------------------------------
# per-op randomized gradient checks (small tensors, many trials)


def _check(build, params, trials_seed, n=20):
    rng = np.random.default_rng(trials_seed)
    for _ in range(n):
        tensors = params(rng)
        loss = build(*tensors)
        for p in tensors:
            p.zero_grad()
        ad.backward(loss)
        for p in tensors:
            numeric = finite_difference(lambda: build(*tensors).item(), p.data)
            assert gradient_mismatch(p.grad, numeric) < GRAD_TOL


def _project(out, rng):
    return ad.sum_all(ad.mul_const(out, rng.normal(size=out.shape)))


def test_gradcheck_conv2d():
    rng0 = np.random.default_rng(10)

    def params(rng):
        return (
            t(rng.normal(size=(2, 2, 5, 4))),
            t(rng.normal(size=(3, 2, 2, 3))),
            t(rng.normal(size=3)),
        )

    proj = {}

    def build(x, k, b):
        out = ad.conv2d(x, k, b, stride=2, pad=1)
        if out.shape not in proj:
            proj[out.shape] = rng0.normal(size=out.shape)
        return ad.sum_all(ad.mul_const(out, proj[out.shape]))

    _check(build, params, 11)


def test_gradcheck_relu():
    def params(rng):
        return (t(rng.normal(size=(3, 4)) + 0.05),)  # keep away from the kink

    weights = np.random.default_rng(12).normal(size=(3, 4))

    def build(x):
        return ad.sum_all(ad.mul_const(ad.relu(x), weights))

    _check(build, params, 13)


def test_gradcheck_max_pool():
    weights = np.random.default_rng(14).normal(size=(1, 2, 2, 2))

    def params(rng):
        # well-separated values so the argmax is stable under the probe step
        vals = rng.permutation(32).astype(np.float64).reshape(1, 2, 4, 4)
        return (t(vals),)

    def build(x):
        return ad.sum_all(ad.mul_const(ad.max_pool2d(x), weights))

    _check(build, params, 15)


def test_gradcheck_conv2d_relu_pool():
    weights = np.random.default_rng(34).normal(size=(2, 3, 2, 3))

    def params(rng):
        return (
            t(rng.normal(size=(2, 2, 4, 6))),
            t(rng.normal(size=(3, 2, 3, 3))),
            t(rng.normal(size=3)),
        )

    def build(x, k, b):
        return ad.sum_all(ad.mul_const(ad.conv2d_relu_pool(x, k, b, pad=1), weights))

    _check(build, params, 35)


def test_gradcheck_conv2d_relu2_pool():
    weights = np.random.default_rng(39).normal(size=(2, 3, 2, 3))

    def params(rng):
        return (
            t(rng.normal(size=(2, 2, 4, 6))),
            t(rng.normal(size=(3, 2, 3, 3))),
            t(rng.normal(size=3)),
            t(rng.normal(size=(3, 3, 3, 3))),
            t(rng.normal(size=3)),
        )

    def build(x, k0, b0, k1, b1):
        return ad.sum_all(ad.mul_const(ad.conv2d_relu2_pool(x, k0, b0, k1, b1, pad=1), weights))

    _check(build, params, 40)


def test_gradcheck_global_avg_pool():
    weights = np.random.default_rng(16).normal(size=(2, 3))

    def params(rng):
        return (t(rng.normal(size=(2, 3, 3, 4))),)

    def build(x):
        return ad.sum_all(ad.mul_const(ad.global_avg_pool(x), weights))

    _check(build, params, 17)


def test_gradcheck_linear():
    weights = np.random.default_rng(18).normal(size=(3, 2))

    def params(rng):
        return (
            t(rng.normal(size=(3, 4))),
            t(rng.normal(size=(4, 2))),
            t(rng.normal(size=2)),
        )

    def build(x, w, b):
        return ad.sum_all(ad.mul_const(ad.linear(x, w, b), weights))

    _check(build, params, 19)


def test_gradcheck_softmax():
    weights = np.random.default_rng(20).normal(size=(3, 5))

    def params(rng):
        return (t(rng.normal(size=(3, 5))),)

    def build(x):
        return ad.sum_all(ad.mul_const(ad.softmax(x), weights))

    _check(build, params, 21)


def test_gradcheck_cross_entropy():
    labels = np.array([0, 2, 1])

    def params(rng):
        # positive rows comfortably above the clamp
        return (t(rng.uniform(0.05, 1.0, size=(3, 3))),)

    def build(p):
        return ad.cross_entropy(p, labels)

    _check(build, params, 22)


def test_gradcheck_smooth_l1():
    def params(rng):
        # keep |d| away from the 0 and 1 kinks
        d = rng.uniform(0.05, 2.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
        d[np.abs(np.abs(d) - 1.0) < 0.05] = 0.5
        pred = rng.normal(size=(3, 4))
        return (t(pred), t(pred - d))

    def build(pred, target):
        return ad.smooth_l1(pred, target)

    _check(build, params, 23)


def test_gradcheck_take_rows_and_plumbing():
    idx = np.array([0, 2, 2])
    weights = np.random.default_rng(24).normal(size=(3, 3))

    def params(rng):
        return (t(rng.normal(size=(4, 3))),)

    def build(x):
        rows = ad.take_rows(x, idx)
        y = ad.add(ad.scale(rows, 0.5), ad.scale(rows, 1.5))
        return ad.sum_all(ad.mul_const(y, weights))

    _check(build, params, 25)


def test_center_mean_zero_for_constant_rows():
    # stage_forward centres each image on its own mean before the first conv,
    # so an image that is one constant enters as zeros, whatever the biases
    cfg = bb.BackboneConfig(num_classes=4)
    params = bb.init_maen_params(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for name, p in params.items():
        if name.endswith(".bias"):
            p.data[...] = rng.uniform(0.1, 1.0, size=p.shape)
    fills = np.array([0.0, 0.3, 1.0, 0.7], np.float32)
    images = np.broadcast_to(fills[:, None, None, None], (4, 3, 64, 64)).copy()
    got = bb.stage_forward(params, images, cfg)
    want = bb.stage_forward(params, np.zeros_like(images), cfg)
    for g, w in zip(got, want, strict=True):
        assert np.any(w.data != 0.0)
        assert np.allclose(g.data, w.data, rtol=0.0, atol=1e-5)


def test_gradcheck_transpose_reshape():
    weights = np.random.default_rng(26).normal(size=(6, 2))

    def params(rng):
        return (t(rng.normal(size=(2, 3, 2))),)

    def build(x):
        y = ad.reshape(ad.transpose(x, (1, 2, 0)), (6, 2))
        return ad.sum_all(ad.mul_const(y, weights))

    _check(build, params, 27)



def test_buffer_reuse_flag_says_whether_the_allocator_switched(monkeypatch):
    import ctypes
    from types import SimpleNamespace

    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    def libc(results):  # mallopt param -> its return value (1 is success)
        return lambda name: SimpleNamespace(mallopt=lambda param, value: results[param])

    for cdll, switched in [(no_libc, False), (libc({-3: 0, -1: 1}), False),
                           (libc({-3: 1, -1: 0}), False), (libc({-3: 1, -1: 1}), True)]:
        monkeypatch.setattr(ad, "_fast_malloc_done", False)
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        ad.enable_buffer_reuse()
        assert ad._fast_malloc_done is switched
