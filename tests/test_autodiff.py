"""Engine tests: forward identities, finite-difference gradient checks, Adam."""

import numpy as np
import pytest

from gradcheck import channels_last, check_gradients

from soundscan import autodiff as ad
from soundscan import workers as pools
from soundscan.autodiff import Adam, Parameter, Tensor


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def image_leaf(rng, shape):
    """A leaf drawn as (B, C, ...) values and laid out channels-last."""
    return Tensor(channels_last(rng.standard_normal(shape)), requires_grad=True)


# -- forward identities -------------------------------------------------------

def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(channels_last(rng.uniform(-1, 1, (1, 1, 4, 4))))
    w = Tensor(np.ones((1, 1, 1, 1)))
    out = ad.conv2d(x, w, stride=(1, 1), padding=(0, 0))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_ones_counting():
    x = Tensor(np.ones((1, 4, 4, 1)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w)
    assert out.shape == (1, 2, 2, 1)
    assert np.all(out.data == 9.0)


def test_conv2d_output_shape_formula():
    rng = np.random.default_rng(1)
    for _ in range(30):
        H = int(rng.integers(3, 14))
        W = int(rng.integers(3, 14))
        kh = int(rng.integers(1, H + 1))
        kw = int(rng.integers(1, W + 1))
        sh = int(rng.integers(1, 4))
        sw = int(rng.integers(1, 4))
        ph = int(rng.integers(0, 3))
        pw = int(rng.integers(0, 3))
        x = Tensor(channels_last(rng.standard_normal((2, 3, H, W))))
        w = Tensor(rng.standard_normal((4, 3, kh, kw)))
        out = ad.conv2d(x, w, stride=(sh, sw), padding=(ph, pw))
        assert out.shape == (2, (H + 2 * ph - kh) // sh + 1, (W + 2 * pw - kw) // sw + 1, 4)


def test_conv1d_length_formula():
    x = Tensor(np.zeros((1, 80001, 1)))
    w = Tensor(np.zeros((2, 1, 256)))
    out = ad.conv1d(x, w, stride=64)
    assert out.shape == (1, 1247, 2)


def test_conv1d_kernel_equals_length():
    x = Tensor(np.arange(8.0).reshape(1, 8, 1))
    w = Tensor(np.ones((1, 1, 8)))
    out = ad.conv1d(x, w, stride=1)
    assert out.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 28.0


def test_linear_identity_and_ones():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    w_eye = Tensor(np.eye(3))
    b = Tensor(np.zeros(3))
    np.testing.assert_array_equal(ad.linear(x, w_eye, b).data, x.data)
    w_ones = Tensor(np.ones((4, 3)))
    out = ad.linear(x, w_ones, Tensor(np.zeros(4)))
    assert np.all(out.data == 6.0)


def test_relu_and_sigmoid_points():
    assert ad.relu(Tensor(np.array(-1.0))).item() == 0.0
    assert ad.relu(Tensor(np.array(2.5))).item() == 2.5
    assert ad.sigmoid(Tensor(np.array(0.0))).item() == pytest.approx(0.5)


def test_max_pool_constant_and_hot_cell():
    x = Tensor(np.full((1, 4, 4, 1), 3.25))
    out = ad.max_pool2d(x, (2, 2))
    assert np.all(out.data == 3.25)

    hot = np.zeros((1, 4, 4, 1))
    hot[0, 1, 2, 0] = 7.0
    out = ad.max_pool2d(Tensor(hot), (2, 2))
    np.testing.assert_array_equal(out.data[0, :, :, 0], [[0.0, 7.0], [0.0, 0.0]])


def test_max_pool_global_mode():
    rng = np.random.default_rng(2)
    values = rng.standard_normal((2, 3, 5, 7))
    out = ad.max_pool2d(Tensor(channels_last(values)), (5, 7))
    assert out.shape == (2, 1, 1, 3)
    np.testing.assert_allclose(out.data[:, 0, 0, :], values.max(axis=(2, 3)))


def test_batch_norm_unit_stats_passthrough():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((8, 2, 3, 3))
    x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
    t = Tensor(channels_last(x))
    gamma = Tensor(np.ones(2))
    beta = Tensor(np.zeros(2))
    out = ad.batch_norm2d(t, gamma, beta, np.zeros(2), np.ones(2))
    np.testing.assert_allclose(out.data, channels_last(x), atol=1e-4)  # within the eps=1e-5 shrink


def test_batch_norm_beta_shifts_mean():
    rng = np.random.default_rng(4)
    x = Tensor(channels_last(rng.standard_normal((4, 3, 2, 2))))
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.array([1.0, -2.0, 0.5]))
    out = ad.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3))
    np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), beta.data, atol=1e-9)


def test_stats_pool_values():
    x = Tensor(np.array([[[1.0], [3.0]]]))  # B=1, two positions, C=1
    out = ad.stats_pool(x)
    assert out.data[0, 0] == pytest.approx(2.0)
    assert out.data[0, 1] == pytest.approx(1.0)

    const = Tensor(np.full((1, 5, 2), 4.0))
    out = ad.stats_pool(const)
    np.testing.assert_allclose(out.data[0, :2], 4.0)
    # floored std: a constant channel reports sqrt(eps), not exactly 0
    np.testing.assert_allclose(out.data[0, 2:], 0.0, atol=4e-3)


# -- backward basics ----------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_at_three():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x ** 2).sum().backward()
    assert x.grad[0] == pytest.approx(6.0)


def test_backward_accumulates_and_doubles():
    # .grad accumulates across graphs: a second loss built from the same
    # leaf adds onto the first one's gradient
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_backward_releases_the_graph_it_walks():
    import gc
    import tracemalloc

    rng = np.random.default_rng(3)
    w = leaf(rng, (64, 64))
    x = Tensor(rng.standard_normal((256, 64)))
    gc.collect()
    tracemalloc.start()
    try:
        h = x
        for _ in range(8):
            h = ad.linear(h, w).sigmoid()
        loss = (h * h).sum()
        held = tracemalloc.get_traced_memory()[0]
        loss.backward()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # 16 intermediates of 256x64 float64 (128 KiB each) were on the tape
    assert held - after > 1_000_000
    assert loss._parents == () and h._parents == ()
    assert w.grad is not None and w.grad.shape == (64, 64)


def test_second_backward_on_the_same_loss_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(RuntimeError, match="released"):
        loss.backward()
    assert np.array_equal(x.grad, first)


def test_a_graph_built_on_a_released_intermediate_raises():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    h = x * 3.0
    h.sum().backward()
    first = x.grad.copy()
    again = (h * h).sum()
    assert again._backward is not None      # h still counts as differentiable
    with pytest.raises(RuntimeError, match="released"):
        again.backward()
    assert h.grad is None and np.array_equal(x.grad, first)


def test_no_grad_blocks_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and y._parents == ()


def test_checked_mode_flags_nan():
    ad.set_checked(True)
    try:
        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                ad.log(Tensor(np.array([-1.0])))
    finally:
        ad.set_checked(False)


# -- finite-difference gradient checks -----------------------------------------

def test_grad_elementwise_chain():
    rng = np.random.default_rng(5)
    x = leaf(rng, (3, 4))
    y = leaf(rng, (3, 4))

    def build():
        z = (x * y + x.exp() * 0.1).sigmoid()
        return (z * z).sum()

    check_gradients(build, [x, y])


def test_grad_log_sqrt_div():
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(0.5, 2.0, (4,)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, (4,)), requires_grad=True)
    check_gradients(lambda: (x.log() + y.sqrt() + ad.div(x, y)).sum(), [x, y])


def test_grad_broadcast_add_mul():
    rng = np.random.default_rng(7)
    x = leaf(rng, (2, 3, 4))
    b = leaf(rng, (4,))
    check_gradients(lambda: ((x + b) * b).sum(), [x, b])


def test_grad_matmul_and_reshape():
    rng = np.random.default_rng(8)
    a = leaf(rng, (3, 4))
    b = leaf(rng, (4, 2))
    check_gradients(lambda: (a @ b).reshape(6).sum(), [a, b])


def test_grad_transpose_concat_mean():
    rng = np.random.default_rng(9)
    a = leaf(rng, (2, 3))
    b = leaf(rng, (2, 3))
    check_gradients(
        lambda: (ad.concat([a.T, b.T], axis=1).mean(axis=1) ** 2).sum(), [a, b])


# (x as (B, C, H, W), weight, stride, padding, bias). Stride-1 convs with
# padding below the kernel backpropagate through a gather of the gradient;
# the rest re-gather the input and scatter.
CONV2D_GRAD_CASES = {
    "strided": ((1, 2, 5, 5), (3, 2, 3, 3), (2, 1), (1, 1), True),
    "s1_pad0": ((2, 2, 5, 4), (3, 2, 3, 3), (1, 1), (0, 0), True),
    "s1_pad1_no_bias": ((1, 2, 5, 5), (3, 2, 3, 3), (1, 1), (1, 1), False),
    "s1_pad2x1": ((1, 2, 5, 5), (2, 2, 3, 3), (1, 1), (2, 1), True),
    "s1_kernel2x3": ((1, 3, 4, 5), (2, 3, 2, 3), (1, 1), (1, 1), True),
    "s1_kernel1x1": ((2, 3, 3, 4), (4, 3, 1, 1), (1, 1), (0, 0), False),
    "s1_same_channels": ((1, 3, 4, 4), (3, 3, 3, 3), (1, 1), (1, 1), True),
    "s1_kernel1x1_pad1": ((1, 2, 3, 3), (3, 2, 1, 1), (1, 1), (1, 1), True),
    "strided_kernel1x1": ((2, 3, 5, 4), (4, 3, 1, 1), (2, 2), (0, 0), False),
}


@pytest.mark.parametrize("case", list(CONV2D_GRAD_CASES))
def test_grad_conv2d(case):
    x_shape, w_shape, stride, padding, with_bias = CONV2D_GRAD_CASES[case]
    rng = np.random.default_rng(10)
    x = image_leaf(rng, x_shape)
    w = leaf(rng, w_shape, scale=0.5)
    b = leaf(rng, (w_shape[0],)) if with_bias else None
    check_gradients(
        lambda: (ad.conv2d(x, w, b, stride=stride, padding=padding) ** 2).sum(),
        [x, w] + ([b] if with_bias else []))


@pytest.mark.parametrize("stride", [3, 1])
def test_grad_conv1d(stride):
    rng = np.random.default_rng(11)
    x = image_leaf(rng, (2, 2, 11))
    w = leaf(rng, (3, 2, 4), scale=0.5)
    b = leaf(rng, (3,))
    check_gradients(lambda: (ad.conv1d(x, w, b, stride=stride) ** 2).sum(), [x, w, b])


def test_conv2d_backward_scatters_only_when_strided_or_overpadded(monkeypatch):
    calls = []
    scatter = ad._scatter_rows

    def counted(*args):
        calls.append(args[0].shape)
        return scatter(*args)

    monkeypatch.setattr(ad, "_scatter_rows", counted)
    rng = np.random.default_rng(13)
    for case, expected in (("s1_pad0", 0), ("s1_pad2x1", 0), ("s1_kernel2x3", 0),
                           ("s1_kernel1x1", 0), ("strided", 1), ("s1_kernel1x1_pad1", 1)):
        x_shape, w_shape, stride, padding, _ = CONV2D_GRAD_CASES[case]
        x = image_leaf(rng, x_shape)
        w = leaf(rng, w_shape)
        calls.clear()
        (ad.conv2d(x, w, stride=stride, padding=padding) ** 2).sum().backward()
        assert len(calls) == expected, case
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
    calls.clear()
    x = image_leaf(rng, (2, 2, 11))
    (ad.conv1d(x, leaf(rng, (3, 2, 4))) ** 2).sum().backward()
    assert calls == []


@pytest.mark.parametrize("H, W, stride", [(5, 7, (2, 2)), (6, 8, (2, 2)),
                                          (5, 8, (2, 1)), (7, 6, (3, 2))])
def test_strided_pointwise_conv_matches_the_scatter_path(H, W, stride, monkeypatch):
    # a 1x1 unpadded conv gathers by slicing and backpropagates by one
    # strided assignment; both must equal the gather and scatter exactly
    scattered, scatter_rows = [], ad._scatter_rows
    monkeypatch.setattr(ad, "_scatter_rows",
                        lambda *args: scattered.append(1) or scatter_rows(*args))
    rng = np.random.default_rng(H * W)
    B, C, c_out = 3, 4, 5
    x = leaf(rng, (B, H, W, C))
    w = leaf(rng, (c_out, C, 1, 1))
    out = ad.conv2d(x, w, stride=stride)
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    assert not scattered

    monkeypatch.undo()
    idx = ad._conv2d_index(H, W, 1, 1, *stride)[0]
    cols = np.take(x.data.reshape(B, H * W, C), idx, axis=1).reshape(-1, C)
    w_mat = w.data.reshape(c_out, C)
    g_mat = g.reshape(-1, c_out)
    scatter = ad._conv2d_scatter_index(C, H, W, 1, 1, *stride)
    gx = ad._scatter_rows((g_mat @ w_mat).reshape(B, -1), scatter, H * W * C)
    assert np.array_equal(out.data, (cols @ w_mat.T).reshape(out.shape))
    assert np.array_equal(x.grad, gx.reshape(x.shape))
    assert np.array_equal(w.grad, (g_mat.T @ cols).reshape(w.shape))


def test_grad_linear():
    rng = np.random.default_rng(12)
    x = leaf(rng, (4, 5))
    w = leaf(rng, (3, 5))
    b = leaf(rng, (3,))
    check_gradients(lambda: (ad.linear(x, w, b) ** 2).sum(), [x, w, b])


def test_grad_max_pool_tie_free():
    rng = np.random.default_rng(13)
    vals = rng.permutation(2 * 2 * 6 * 6).astype(float) * 0.01
    x = Tensor(channels_last(vals.reshape(2, 2, 6, 6)), requires_grad=True)
    check_gradients(lambda: (ad.max_pool2d(x, (3, 3), (2, 2), (1, 1)) ** 2).sum(), [x])


def test_grad_batch_norm_train_mode():
    rng = np.random.default_rng(14)
    x = image_leaf(rng, (4, 3, 2, 2))
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = leaf(rng, (3,))

    def build():
        return (ad.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3)) ** 2).sum()

    check_gradients(build, [x, gamma, beta])


def test_grad_stats_pool():
    rng = np.random.default_rng(15)
    x = image_leaf(rng, (2, 3, 4, 5))
    check_gradients(lambda: (ad.stats_pool(x) ** 2).sum(), [x])


def test_grad_sum_axis_keepdims():
    rng = np.random.default_rng(16)
    x = leaf(rng, (3, 4, 2))
    check_gradients(lambda: ((x.sum(axis=(1, 2), keepdims=True) + x) ** 2).sum(), [x])


# -- Adam ----------------------------------------------------------------------

def test_adam_single_step_matches_hand_formula():
    g = np.array([0.3, -1.7, 0.002])
    p = Parameter(np.zeros(3), name="p")
    opt = Adam([p], lr=0.001)
    p.grad = g.copy()
    opt.step()
    # t=1: m_hat = g, v_hat = g^2  ->  update = -lr * g / (|g| + eps)
    expect = -0.001 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(p.data, expect, rtol=1e-12)


def test_adam_zero_grad_zero_update():
    p = Parameter(np.array([1.0, 2.0]), name="p")
    opt = Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, 2.0])


def test_adam_opposite_gradients_symmetric_moments():
    a = Parameter(np.zeros(2), name="a")
    b = Parameter(np.zeros(2), name="b")
    opt = Adam([a, b])
    g = np.array([0.5, -0.25])
    a.grad = g.copy()
    b.grad = -g.copy()
    opt.step()
    np.testing.assert_allclose(opt.m[0], -opt.m[1], rtol=1e-15)
    np.testing.assert_allclose(opt.v[0], opt.v[1], rtol=1e-15)
    np.testing.assert_allclose(a.data, -b.data, rtol=1e-15)


def test_seeded_forward_backward_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(channels_last(rng.standard_normal((2, 1, 6, 6))), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        out = (ad.conv2d(x, w, padding=(1, 1)).relu() ** 2).sum()
        out.backward()
        return out.item(), x.grad.copy(), w.grad.copy()

    v1, gx1, gw1 = run()
    v2, gx2, gw2 = run()
    assert v1 == v2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_conv2d_tape_keeps_no_im2col_block():
    # what a recorded conv holds for backward beyond its input and output
    # must be far less than its im2col block: backward re-gathers it. The
    # block is B*P*kh*kw*C*8 bytes, nine times the input here; the bound is
    # the input's size.
    import tracemalloc

    rng = np.random.default_rng(12)
    x = image_leaf(rng, (64, 16, 8, 8))
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    with ad.no_grad():
        ad.conv2d(x, w, padding=(1, 1))          # builds the cached gather index

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, padding=(1, 1))
        retained = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert retained < x.data.nbytes, retained

    (out ** 2).sum().backward()
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


# -- tiled convolutions -------------------------------------------------------

def _tile_images(P, K):
    """Images per tile of an unrecorded conv with P positions and K columns."""
    return max(1, ad.CONV_TILE_BYTES // (P * K * 8))


def _whole_block(x, kh, kw, stride, padding):
    """The im2col block of x, gathered whole by `np.take` from its padded
    copy, and the gather index: the reference the tiles must equal."""
    B, H, W, C = x.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    idx = ad._conv2d_index(H + 2 * ph, W + 2 * pw, kh, kw, sh, sw)[0]
    return np.take(xp.reshape(B, -1, C), idx, axis=1).reshape(B * idx.shape[0], -1), idx


def _reference_conv(x, w, g, stride, padding):
    """Output, input gradient and weight gradient of a conv as whole-block
    numpy products: the output as block @ w_mat.T; the input gradient of a
    stride-1 conv as the padded gradient's block times the flipped kernel,
    of a strided one by scattering g_mat @ w_mat onto the padded grid in
    column order; the weight gradient as g_mat.T @ block."""
    B, H, W, C = x.shape
    c_out, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    block, idx = _whole_block(x, kh, kw, stride, padding)
    w_mat = w.transpose(0, 2, 3, 1).reshape(c_out, -1)
    out = (block @ w_mat.T).reshape(g.shape)
    g_mat = g.reshape(-1, c_out)
    if (sh, sw) == (1, 1):
        col, _ = _whole_block(g, kh, kw, (1, 1), (kh - 1 - ph, kw - 1 - pw))
        w_flip = w[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(C, -1)
        gx = (col @ w_flip.T).reshape(x.shape)
    else:
        Hp, Wp = H + 2 * ph, W + 2 * pw
        flat = (idx[:, :, None] * C + np.arange(C)).reshape(-1)
        g_col = (g_mat @ w_mat).reshape(B, -1)
        acc = np.zeros((B, Hp * Wp * C))
        for b in range(B):
            np.add.at(acc[b], flat, g_col[b])
        gx = acc.reshape(B, Hp, Wp, C)[:, ph:ph + H, pw:pw + W]
    gw = (g_mat.T @ block).reshape(c_out, kh, kw, C).transpose(0, 3, 1, 2)
    return out, gx, gw


@pytest.mark.parametrize("c_in", [1, 16])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_unrecorded_conv2d_tiles_equal_the_whole_block_product(c_in, stride, pad,
                                                               monkeypatch):
    # a batch of three tiles plus a remainder, which the last tile takes
    tiled, tiled_product = [], ad._tiled_product
    monkeypatch.setattr(ad, "_tiled_product",
                        lambda *args: tiled.append(1) or tiled_product(*args))
    H = W = 16
    h_out = (H + 2 * pad - 3) // stride + 1
    P, K = h_out * h_out, 9 * c_in
    per_tile = _tile_images(P, K)
    B = 3 * per_tile + per_tile // 2 + 1
    rng = np.random.default_rng(c_in * 10 + stride + pad)
    x = rng.standard_normal((B, H, W, c_in))
    w = Tensor(rng.standard_normal((8, c_in, 3, 3)))
    b = Tensor(rng.standard_normal(8))
    args = ((stride, stride), (pad, pad))
    block, _ = _whole_block(x, 3, 3, *args)
    whole = (block @ w.data.transpose(0, 2, 3, 1).reshape(8, -1).T + b.data).reshape(
        B, h_out, h_out, 8)
    with ad.no_grad():
        out = ad.conv2d(Tensor(x, requires_grad=True), w, b, *args)
    assert out.data.tobytes() == whole.tobytes()
    out = ad.conv2d(Tensor(x), w, b, *args)         # no input needs a gradient
    assert out.data.tobytes() == whole.tobytes()
    assert len(tiled) == 2


def _recorded_conv_case(c_in, stride, pad, monkeypatch):
    """x, w, g and (x.grad, w.grad, output) of a recorded 3x3 conv whose
    forward and backward each run over at least three tiles."""
    loops, tiles = [], ad._tiles
    monkeypatch.setattr(ad, "_tiles", lambda x, ph, pw, idx, per_tile:
                        loops.append((x.shape[0], per_tile)) or tiles(x, ph, pw, idx, per_tile))
    H = W = 16
    c_out = 8
    h_out = (H + 2 * pad - 3) // stride + 1
    forward = ad._tile_images(h_out * h_out, 9 * c_in, c_out)
    backward = ad._tile_images(H * W, 9 * c_out, c_in) if stride == 1 else forward
    B = 3 * max(forward, backward) + 1
    rng = np.random.default_rng(c_in * 100 + stride * 10 + pad)
    x = Tensor(rng.standard_normal((B, H, W, c_in)), requires_grad=True)
    w = Tensor(rng.standard_normal((c_out, c_in, 3, 3)), requires_grad=True)
    out = ad.conv2d(x, w, stride=(stride, stride), padding=(pad, pad))
    g = rng.standard_normal(out.shape)
    (out * Tensor(g)).sum().backward()
    assert len(loops) == 2 and all(n // per_tile >= 3 for n, per_tile in loops), loops
    return x.data, w.data, g, (x.grad, w.grad, out.data)


@pytest.mark.parametrize("c_in", [1, 16])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_recorded_conv2d_tiles_keep_the_output_and_input_gradient_bytes(c_in, stride, pad,
                                                                        monkeypatch):
    # each tile of the forward and of the input gradient keeps at least
    # CONV_TILE_CELLS output cells, and a strided conv scatters whole images
    x, w, g, (gx, _, out) = _recorded_conv_case(c_in, stride, pad, monkeypatch)
    ref_out, ref_gx, _ = _reference_conv(x, w, g, (stride, stride), (pad, pad))
    assert out.tobytes() == ref_out.tobytes()
    assert np.ascontiguousarray(gx).tobytes() == np.ascontiguousarray(ref_gx).tobytes()


@pytest.mark.parametrize("c_in", [1, 16])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [0, 1])
def test_recorded_conv2d_weight_gradient_sums_tiles_to_the_whole_product(c_in, stride, pad,
                                                                         monkeypatch):
    # summed tile by tile, the weight gradient may round unlike the one
    # whole-block product, in its last bits only
    x, w, g, (_, gw, _) = _recorded_conv_case(c_in, stride, pad, monkeypatch)
    _, _, ref_gw = _reference_conv(x, w, g, (stride, stride), (pad, pad))
    assert np.max(np.abs(gw - ref_gw)) <= 1e-12 * np.max(np.abs(ref_gw))


@pytest.mark.parametrize("stride", [1, 2])
def test_recorded_conv2d_holds_no_whole_block(monkeypatch, stride):
    # the whole im2col block is 9 (stride 1) or 2.25 (stride 2) times the
    # input here, and a strided backward's column gradient is as large;
    # forward and backward together hold at most two tile budgets beside the
    # input, the output and the gradients, the thread's tile buffer included
    import threading
    import tracemalloc

    B, H, W, C = 128, 16, 16, 16
    rng = np.random.default_rng(25 + stride)
    x = Tensor(rng.standard_normal((B, H, W, C)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, C, 3, 3)), requires_grad=True)
    args = ((stride, stride), (1, 1))
    g = rng.standard_normal(ad.conv2d(x, w, None, *args).shape)   # builds the indices
    monkeypatch.setattr(ad, "_tile_state", threading.local())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, None, *args)
        gx, gw = out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = x.data.nbytes + out.data.nbytes + g.nbytes + gx.nbytes + gw.nbytes
    assert peak < held + 2 * ad.CONV_TILE_BYTES, (peak, held)


def test_unrecorded_conv2d_holds_no_whole_block(monkeypatch):
    # the whole im2col block here is nine times the tile budget; the gather
    # holds at most two budgets beside the padded input and the output,
    # the thread's tile buffer included
    import threading
    import tracemalloc

    B, H, W, C = 128, 16, 16, 16
    assert B * H * W * 9 * C * 8 >= 8 * ad.CONV_TILE_BYTES
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((B, H, W, C)))
    w = Tensor(rng.standard_normal((16, C, 3, 3)))
    ad.conv2d(x, w, padding=(1, 1))                 # builds the cached gather index
    monkeypatch.setattr(ad, "_tile_state", threading.local())
    padded = B * (H + 2) * (W + 2) * C * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, padding=(1, 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < padded + out.data.nbytes + 2 * ad.CONV_TILE_BYTES, peak


def test_unrecorded_padded_conv_holds_no_padded_copy(monkeypatch):
    # each tile is padded in the thread's tile buffer: beside its output the
    # conv holds at most two budgets, far less than a padded copy
    import threading
    import tracemalloc

    B, H, W, C = 512, 16, 16, 8
    padded = B * (H + 2) * (W + 2) * C * 8
    assert padded > 2 * ad.CONV_TILE_BYTES
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((B, H, W, C)))
    w = Tensor(rng.standard_normal((16, C, 3, 3)))
    block, _ = _whole_block(x.data, 3, 3, (1, 1), (1, 1))
    whole = block @ w.data.transpose(0, 2, 3, 1).reshape(16, -1).T
    del block
    ad.conv2d(x, w, padding=(1, 1))                 # builds the cached gather index
    monkeypatch.setattr(ad, "_tile_state", threading.local())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, w, padding=(1, 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < out.data.nbytes + 2 * ad.CONV_TILE_BYTES, peak
    assert out.data.tobytes() == whole.tobytes()


@pytest.mark.parametrize("cells, equal", [(1, False), (ad.CONV_TILE_CELLS, True)])
def test_tile_cell_floor_keeps_the_whole_block_rounding(monkeypatch, cells, equal):
    # the spectrum encoder's second conv1d: 27 positions, K = 1024, N = 32,
    # 864 output cells per image; one image per tile is a product OpenBLAS
    # rounds in its small-matrix kernel, the floored tile of 2 is not
    B, L, C, k, stride = 16, 247, 32, 32, 8
    P, K = (L - k) // stride + 1, k * C
    monkeypatch.setattr(ad, "CONV_TILE_BYTES", P * K * 8)
    monkeypatch.setattr(ad, "CONV_TILE_CELLS", cells)
    assert ad._tile_images(P, K, 32) == (1 if cells == 1 else 2)
    rng = np.random.default_rng(24)
    x = rng.standard_normal((B, L, C))
    w = Tensor(rng.standard_normal((32, C, k)))
    block, _ = _whole_block(x.reshape(B, 1, L, C), 1, k, (1, stride), (0, 0))
    whole = block @ w.data.transpose(0, 2, 1).reshape(32, K).T
    tiled = ad.conv1d(Tensor(x), w, stride=stride)
    assert (tiled.data.tobytes() == whole.tobytes()) is equal


def _first_argmax_pool(x, kernel, stride, padding):
    """Max pooling by loops: each window's value and its first maximal cell in
    window order, -inf outside the input."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    B, H, W, C = x.shape
    h_out, w_out = (H + 2 * ph - kh) // sh + 1, (W + 2 * pw - kw) // sw + 1
    out = np.empty((B, h_out, w_out, C))
    cell = np.empty((B, h_out, w_out, C, 2), dtype=int)
    for b, r, q, c in np.ndindex(B, h_out, w_out, C):
        best, at = -np.inf, None
        for i, j in np.ndindex(kh, kw):
            y, z = r * sh + i - ph, q * sw + j - pw
            if 0 <= y < H and 0 <= z < W and (at is None or x[b, y, z, c] > best):
                best, at = x[b, y, z, c], (y, z)
        out[b, r, q, c], cell[b, r, q, c] = best, at
    return out, cell


def _pair(v):
    return v if isinstance(v, tuple) else (v, v)


@pytest.mark.parametrize("C, k, s, p", [(4, 3, 2, 1), (3, 3, 1, 1), (5, 2, 2, 0),
                                        (1, 3, 2, 1), (8, 4, 4, 0),
                                        pytest.param(6, (9, 8), (9, 8), 0, id="global")])
def test_max_pool_equals_the_first_argmax_loop(C, k, s, p):
    # relu outputs: -0.0 wherever the input was negative, so windows tie
    # between signed zeros. The gradient's bytes pin the add order: each
    # input cell takes its windows' gradients in ascending output order
    kernel, stride, padding = _pair(k), _pair(s), _pair(p)
    rng = np.random.default_rng(C * 100 + kernel[0] * 10 + stride[0])
    raw = rng.standard_normal((3, 9, 8, C))
    raw[rng.random(raw.shape) < 0.2] = 0.0
    values = raw * (raw > 0)
    assert np.signbit(values[values == 0]).any() and (~np.signbit(values[values == 0])).any()
    x = Tensor(values, requires_grad=True)
    recorded = ad.max_pool2d(x, kernel, stride, padding)
    with ad.no_grad():
        unrecorded = ad.max_pool2d(x, kernel, stride, padding)
    assert unrecorded.data.tobytes() == recorded.data.tobytes()
    assert unrecorded._backward is None

    expected, cell = _first_argmax_pool(values, kernel, stride, padding)
    np.testing.assert_array_equal(recorded.data, expected)
    g = rng.standard_normal(recorded.shape)
    (recorded * Tensor(g)).sum().backward()
    gx = np.zeros(values.shape)
    for b, r, q, c in np.ndindex(*g.shape):
        y, z = cell[b, r, q, c]
        gx[b, y, z, c] += g[b, r, q, c]
    assert x.grad.tobytes() == gx.tobytes()


def test_unrecorded_max_pool_holds_no_windows():
    # the windows of a 3x3 stride-1 pool are nine times the input
    import tracemalloc

    x = Tensor(np.random.default_rng(3).standard_normal((32, 16, 16, 8)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.max_pool2d(x, (3, 3), (1, 1), (1, 1))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    padded = 32 * 18 * 18 * 8 * 8
    assert peak < padded + 2 * out.data.nbytes, peak


def test_recorded_max_pool_tape_keeps_no_windows():
    # the backward re-reads the input's shifted views, so the tape holds the
    # output and neither the windows, nine times the output here, nor a
    # padded copy of the input
    import tracemalloc

    x = Tensor(np.random.default_rng(4).standard_normal((32, 16, 16, 8)), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ad.max_pool2d(x, (3, 3), (1, 1), (1, 1))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held < 2 * out.data.nbytes, held
    out.sum().backward()
    assert x.grad.shape == x.shape


# -- fused conv -> norm (-> add) -> relu -------------------------------------------

# x shape (B, C_in, H, W), weight shape, stride, padding, relu, residual:
# None, "leaf" (its own input), "owned" (its own input, handed over with
# owns_residual) or "input" (the conv's input, an identity shortcut). The
# 1x1 and one-channel 3x3 convs gather at most ad.RECOMPUTE_COLUMNS columns
# and rebuild x_hat in backward; the others keep it.
CONV_BN_CASES = {
    "3x3_s1_relu_residual": ((3, 4, 6, 5), (4, 4, 3, 3), (1, 1), (1, 1), True, "leaf"),
    "3x3_s1_relu_identity": ((3, 4, 6, 5), (4, 4, 3, 3), (1, 1), (1, 1), True, "input"),
    "3x3_s2_relu": ((3, 2, 7, 6), (4, 2, 3, 3), (2, 2), (1, 1), True, None),
    "1x1_s2_projection": ((3, 2, 7, 6), (4, 2, 1, 1), (2, 2), (0, 0), False, None),
    "7x7_s2_stem": ((2, 1, 13, 11), (3, 1, 7, 7), (2, 2), (3, 3), True, None),
    "3x3_s1_residual_no_relu": ((3, 4, 6, 5), (4, 4, 3, 3), (1, 1), (1, 1), False, "leaf"),
    "1ch_3x3_s2_relu": ((3, 1, 9, 8), (4, 1, 3, 3), (2, 2), (1, 1), True, None),
    "1ch_1x1_s2_projection": ((3, 1, 9, 8), (4, 1, 1, 1), (2, 2), (0, 0), False, None),
    "3x3_s1_relu_owned_residual": ((3, 4, 6, 5), (4, 4, 3, 3), (1, 1), (1, 1), True, "owned"),
}


def _conv_bn_run(case, fused):
    """(output, gradients of x, weight, gamma, beta and residual, running
    buffers) of one conv_bn case, through the fused node or the op chain."""
    x_shape, w_shape, stride, padding, relu, res_kind = CONV_BN_CASES[case]
    rng = np.random.default_rng(30)
    x = image_leaf(rng, x_shape)
    w = leaf(rng, w_shape, scale=0.5)
    gamma = Tensor(rng.uniform(0.5, 1.5, w_shape[0]), requires_grad=True)
    beta = leaf(rng, (w_shape[0],))
    running_mean, running_var = rng.standard_normal(w_shape[0]), rng.uniform(0.5, 2.0, w_shape[0])
    out_shape = ad.conv2d(x, w, None, stride, padding).shape
    drawn = leaf(rng, out_shape)                       # drawn in every case
    residual = {None: None, "input": x}.get(res_kind, drawn)
    weights = Tensor(rng.standard_normal(out_shape))   # an uneven output gradient
    if fused:
        out = ad.conv_bn(x, w, gamma, beta, running_mean, running_var, stride, padding,
                         relu=relu, residual=residual, owns_residual=res_kind == "owned")
    else:
        out = ad.batch_norm2d(ad.conv2d(x, w, None, stride, padding), gamma, beta,
                              running_mean, running_var)
        if residual is not None:
            out = out + residual
        if relu:
            out = out.relu()
    (out * weights).sum().backward()
    grads = [t.grad for t in (x, w, gamma, beta)]
    if res_kind in ("leaf", "owned"):
        grads.append(residual.grad)
    return out.data, grads, (running_mean, running_var)


@pytest.mark.parametrize("case", list(CONV_BN_CASES))
def test_conv_bn_matches_the_op_chain_bit_for_bit(case):
    out, grads, buffers = _conv_bn_run(case, fused=True)
    expect_out, expect_grads, expect_buffers = _conv_bn_run(case, fused=False)
    assert np.array_equal(out, expect_out)
    assert len(grads) == len(expect_grads)
    for g, expect in zip(grads, expect_grads):
        assert g is not None and np.array_equal(g, expect)
    for buf, expect in zip(buffers, expect_buffers):
        assert np.array_equal(buf, expect)


def test_grad_conv_bn():
    rng = np.random.default_rng(31)
    x = image_leaf(rng, (3, 2, 5, 4))
    w = leaf(rng, (3, 2, 3, 3), scale=0.5)
    gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    beta = leaf(rng, (3,))
    residual = leaf(rng, (3, 5, 4, 3))

    def build():
        out = ad.conv_bn(x, w, gamma, beta, np.zeros(3), np.ones(3), (1, 1), (1, 1),
                         relu=True, residual=residual)
        return (out ** 2).sum()

    check_gradients(build, [x, w, gamma, beta, residual])


def test_conv_bn_refuses_a_residual_of_another_shape():
    rng = np.random.default_rng(32)
    x = image_leaf(rng, (2, 2, 4, 4))
    w = leaf(rng, (3, 2, 3, 3))
    with pytest.raises(ValueError, match="residual"):
        ad.conv_bn(x, w, Tensor(np.ones(3)), Tensor(np.zeros(3)), np.zeros(3), np.ones(3),
                   padding=(1, 1), residual=Tensor(np.zeros((2, 4, 4, 1))))


def _block_tape(c_in, stride):
    """(bytes a training-mode ResBlock2d(c_in, 8, stride) holds after its
    forward on a (16, 16, 16, c_in) input, the input, the output), with
    every parameter's gradient checked after a backward."""
    import tracemalloc

    from soundscan import nn

    rng = np.random.default_rng(33)
    block = nn.ResBlock2d(c_in, 8, stride, rng)
    assert block.proj is not None and block.training
    x = Tensor(rng.standard_normal((16, 16, 16, c_in)))
    block(x).sum().backward()        # builds the cached gather indices and tile buffer

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = block(x)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    out.sum().backward()
    assert all(p.grad is not None for p in block.parameters())
    return held, x, out


def test_res_block_tape_holds_x_hat_and_output_per_conv_bn():
    # A training-mode block with a projection runs three conv_bn chains,
    # each with a (B, H, W, C_out) output. Here conv1 (18 columns) keeps its
    # x_hat and output; the 1x1 projection (2 columns) rebuilds its x_hat
    # and its output array becomes the block's; conv2 keeps its x_hat. That
    # is 4 outputs, plus the block input; the slack of half an output covers
    # the per-channel statistics, closures and tensor objects. Keeping every
    # x_hat and a fresh block output holds 6; keeping each conv and norm
    # output, each relu output and the add output, as an op-by-op chain
    # does, holds 12.
    held, x, out = _block_tape(2, 1)
    bound = 4 * out.data.nbytes + x.data.nbytes + out.data.nbytes // 2
    assert held <= bound, (held, bound)


def test_one_channel_res_block_tape_rebuilds_both_x_hats_of_its_input():
    # conv1 (3x3 on one channel, 9 columns) and the projection (1 column)
    # rebuild x_hat from the block input: 3 outputs held, conv1's and
    # conv2's outputs and conv2's x_hat
    held, x, out = _block_tape(1, 2)
    bound = 3 * out.data.nbytes + x.data.nbytes + out.data.nbytes // 2
    assert held <= bound, (held, bound)


def test_identity_shortcut_block_leaves_its_input_unchanged():
    # the identity shortcut is the block input, which conv1's backward
    # reads: the block adds into a fresh array, not into it
    from soundscan import nn

    rng = np.random.default_rng(35)
    block = nn.ResBlock2d(4, 4, 1, rng)
    assert block.proj is None and block.training
    x = Tensor(rng.standard_normal((3, 6, 5, 4)), requires_grad=True)
    before = x.data.copy()
    out = block(x)
    assert not np.shares_memory(out.data, x.data)
    assert np.array_equal(x.data, before)
    (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
    assert np.array_equal(x.data, before)
    assert x.grad is not None


def test_stats_pool_gradient_is_the_reference_formula_byte_for_byte():
    # backward rebuilds the centred input, which the forward no longer keeps
    rng = np.random.default_rng(34)
    data = rng.standard_normal((3, 5, 4, 6))
    data[1, :, :, 2] = 0.25                  # under eps: its std passes no gradient
    x = Tensor(data, requires_grad=True)
    g = rng.standard_normal((3, 12))
    (ad.stats_pool(x) * Tensor(g)).sum().backward()

    eps, flat = 1e-5, data.reshape(3, -1, 6)
    n = flat.shape[1]
    mean = flat.mean(axis=1)
    centered = flat - mean[:, None, :]
    var = (centered ** 2).mean(axis=1)
    std = np.sqrt(np.maximum(var, eps))
    expect = np.broadcast_to(g[:, None, :6] / n, flat.shape).copy()
    expect += (g[:, 6:] * (var > eps).astype(np.float64) / (n * std))[:, None, :] * centered
    assert np.array_equal(x.grad, expect.reshape(data.shape))


def test_gather_index_cache_safe_across_threads():
    # more distinct shapes than the cache holds, so threads evict entries
    # under each other; every lookup must still return its shape's index
    import sys
    import threading

    failures = []

    def hammer(worker):
        try:
            for i in range(1200):
                H, W = 4 + (i + worker) % 300, 5
                idx, h_out, w_out = ad._conv2d_index(H, W, 3, 3, 1, 2)
                fresh = ad._conv2d_index.__wrapped__(H, W, 3, 3, 1, 2)
                if not (np.array_equal(idx, fresh[0]) and (h_out, w_out) == fresh[1:]):
                    failures.append(f"wrong index for {(H, W)}")
                scatter = ad._conv2d_scatter_index(2, H, W, 3, 3, 1, 2)
                if not np.array_equal(scatter, ad._conv2d_scatter_index.__wrapped__(2, H, W, 3, 3, 1, 2)):
                    failures.append(f"wrong scatter index for {(H, W)}")
        except Exception as exc:  # noqa: BLE001 - reported by the assertion
            failures.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert ad._conv2d_index.cache_info().currsize <= 256


# -- branch node ---------------------------------------------------------------------

def _shared_weight_branches(rng):
    """Three branches through one shared weight, on inputs of unequal size."""
    w = leaf(rng, (3, 4))
    b = leaf(rng, (3,))
    inputs = [Tensor(rng.standard_normal((n, 4)) * scale)
              for n, scale in ((2, 1.0), (7, 3.0), (5, 0.7))]

    def fn(x):
        return ad.linear(x, w, b).relu().sum(axis=0, keepdims=True)

    def loss(outs):
        return (ad.concat(outs, axis=1) ** 2).sum()

    return w, b, inputs, fn, loss


@pytest.mark.parametrize("workers", [1, 2])
def test_grad_branches_sharing_a_parameter(workers, many_cpus):
    rng = np.random.default_rng(40)
    w = leaf(rng, (3, 4))
    x1 = Tensor(rng.standard_normal((2, 4)))
    x2 = Tensor(rng.standard_normal((5, 4)))

    def build():
        y1, y2 = ad.branches([(lambda x: ad.linear(x, w).sigmoid(), x1),
                              (lambda x: ad.linear(x, w) ** 2, x2)])
        return (y1 ** 2).sum() + y2.sum() * 0.5

    with pools.pool(workers):
        check_gradients(build, [w])


def test_branches_match_one_serial_walk_bit_for_bit(many_cpus):
    rng = np.random.default_rng(41)
    w, b, inputs, fn, loss = _shared_weight_branches(rng)
    loss([fn(x) for x in inputs]).backward()
    reference = (w.grad, b.grad)
    for workers in (1, 2, 3):
        w.grad = b.grad = None
        with pools.pool(workers):
            loss(ad.branches([(fn, x) for x in inputs])).backward()
        assert np.array_equal(w.grad, reference[0]) and np.array_equal(b.grad, reference[1])


def test_branch_buffers_update_in_branch_order_and_not_on_failure(many_cpus):
    rng = np.random.default_rng(42)
    inputs = [Tensor(channels_last(rng.standard_normal((2, 3, 4, 5)) * s)) for s in (1, 9, 3)]
    gamma, beta = Tensor(np.ones(3)), Tensor(np.zeros(3))

    def norm(buffers):
        """A branch that normalizes with the running `buffers` every call shares."""
        return lambda x: ad.batch_norm2d(x, gamma, beta, *buffers)

    serial = (np.zeros(3), np.ones(3))
    for x in inputs:
        norm(serial)(x)

    class BranchFailure(Exception):
        pass

    def fail(x):
        raise BranchFailure("one branch failed")

    for workers in (1, 2, 3):
        buffers = (np.zeros(3), np.ones(3))
        bn = norm(buffers)
        with pools.pool(workers):
            with pytest.raises(BranchFailure, match="one branch failed"):
                ad.branches([(bn, inputs[0]), (fail, inputs[1]), (bn, inputs[2])])
            assert np.array_equal(buffers[0], np.zeros(3))
            assert np.array_equal(buffers[1], np.ones(3))
            ad.branches([(bn, x) for x in inputs])
        assert np.array_equal(buffers[0], serial[0])
        assert np.array_equal(buffers[1], serial[1])


def test_second_backward_through_a_branch_node_raises():
    rng = np.random.default_rng(43)
    w, b, inputs, fn, loss = _shared_weight_branches(rng)
    total = loss(ad.branches([(fn, x) for x in inputs]))
    total.backward()
    with pytest.raises(RuntimeError, match="released"):
        total.backward()


def test_branch_reaching_a_recorded_outside_tensor_is_refused():
    rng = np.random.default_rng(44)
    w = leaf(rng, (3, 4))
    hidden = ad.linear(Tensor(rng.standard_normal((2, 4))), w)
    with pytest.raises(ValueError, match="only through leaves"):
        ad.branches([(lambda x: x * hidden, Tensor(np.ones((2, 3))))])


def test_branches_record_no_tape_without_grad_recording(many_cpus):
    rng = np.random.default_rng(45)
    w, b, inputs, fn, _ = _shared_weight_branches(rng)
    with pools.pool(3), ad.no_grad():
        outs = ad.branches([(fn, x) for x in inputs])
    assert all(out._backward is None for out in outs)
    for out, x in zip(outs, inputs):
        assert np.array_equal(out.data, fn(x).data)


def test_nested_branch_nodes_run_inline_inside_a_branch(many_cpus):
    rng = np.random.default_rng(46)
    w = leaf(rng, (3, 4))
    x1 = Tensor(rng.standard_normal((2, 4)))
    x2 = Tensor(rng.standard_normal((5, 4)))

    def inner(x):
        a, b = ad.branches([(lambda t: ad.linear(t, w), x),
                            (lambda t: ad.linear(t, w).sigmoid(), x)])
        return a * b

    def build():
        y1, y2 = ad.branches([(inner, x1), (lambda x: ad.linear(x, w) ** 2, x2)])
        return y1.sum() + (y2 ** 2).sum()

    with pools.pool(2):
        check_gradients(build, [w])


def test_branch_workers_under_thread_switch_stress(many_cpus):
    # more workers than cores and a short switch interval: branches built
    # and walked side by side must still match one serial walk bit for bit
    import sys

    rng = np.random.default_rng(47)
    w = leaf(rng, (6, 6))
    inputs = [Tensor(rng.standard_normal((3, 6)) * (1 + i)) for i in range(8)]

    def fn(x):
        for _ in range(20):
            x = ad.linear(x, w).sigmoid()
        return x.sum(axis=0, keepdims=True)

    (ad.concat([fn(x) for x in inputs], axis=1) ** 2).sum().backward()
    reference, w.grad = w.grad, None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pools.pool(4):
            outs = ad.branches([(fn, x) for x in inputs])
            (ad.concat(outs, axis=1) ** 2).sum().backward()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(w.grad, reference)
