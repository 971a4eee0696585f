"""Engine tests: forward identities, finite-difference gradient checks, Adam."""

import numpy as np
import pytest

from gradcheck import channels_last, check_gradients

from soundscan import autodiff as ad
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
    out = ad.batch_norm2d(t, gamma, beta, np.zeros(2), np.ones(2), training=True)
    np.testing.assert_allclose(out.data, channels_last(x), atol=1e-4)  # within the eps=1e-5 shrink


def test_batch_norm_beta_shifts_mean():
    rng = np.random.default_rng(4)
    x = Tensor(channels_last(rng.standard_normal((4, 3, 2, 2))))
    gamma = Tensor(np.ones(3))
    beta = Tensor(np.array([1.0, -2.0, 0.5]))
    out = ad.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3), training=True)
    np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), beta.data, atol=1e-9)


def test_batch_norm_eval_uses_running_stats():
    x = Tensor(np.full((2, 2, 2, 1), 10.0))
    out = ad.batch_norm2d(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                          np.array([10.0]), np.array([4.0]), training=False)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-9)


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
        return (ad.batch_norm2d(x, gamma, beta, np.zeros(3), np.ones(3),
                                training=True) ** 2).sum()

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


def test_gather_cache_lookup_safe_across_threads():
    # more distinct keys than the cache holds, so threads clear it under
    # each other; a lookup must still return the value built for its key
    import sys
    import threading

    class Key(tuple):
        # hashing in Python lets a thread switch land inside each dict lookup
        def __hash__(self):
            return tuple.__hash__(self)

    failures = []

    def hammer(worker):
        try:
            for i in range(4000):
                key = Key(("stress", worker, i % 300))
                if ad._gather_indices(key, lambda: key) != key:
                    failures.append(f"wrong value for {key}")
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
        ad._GATHER_CACHE.clear()
    assert not any(t.is_alive() for t in threads)
    assert failures == []


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
def test_grad_branches_sharing_a_parameter(workers):
    rng = np.random.default_rng(40)
    w = leaf(rng, (3, 4))
    x1 = Tensor(rng.standard_normal((2, 4)))
    x2 = Tensor(rng.standard_normal((5, 4)))

    def build():
        y1, y2 = ad.branches([(lambda x: ad.linear(x, w).sigmoid(), x1),
                              (lambda x: ad.linear(x, w) ** 2, x2)])
        return (y1 ** 2).sum() + y2.sum() * 0.5

    with ad.branch_workers(workers):
        check_gradients(build, [w])


def test_branches_match_one_serial_walk_bit_for_bit():
    rng = np.random.default_rng(41)
    w, b, inputs, fn, loss = _shared_weight_branches(rng)
    loss([fn(x) for x in inputs]).backward()
    reference = (w.grad, b.grad)
    for workers in (1, 2, 3):
        w.grad = b.grad = None
        with ad.branch_workers(workers):
            loss(ad.branches([(fn, x) for x in inputs])).backward()
        assert np.array_equal(w.grad, reference[0]) and np.array_equal(b.grad, reference[1])


def test_branch_buffers_update_in_branch_order_and_not_on_failure():
    from soundscan import nn

    rng = np.random.default_rng(42)
    inputs = [Tensor(channels_last(rng.standard_normal((2, 3, 4, 5)) * s)) for s in (1, 9, 3)]
    serial = nn.BatchNorm2d(3)
    for x in inputs:
        serial(x)

    class BranchFailure(Exception):
        pass

    def fail(x):
        raise BranchFailure("one branch failed")

    for workers in (1, 2, 3):
        bn = nn.BatchNorm2d(3)
        with ad.branch_workers(workers):
            with pytest.raises(BranchFailure, match="one branch failed"):
                ad.branches([(bn, inputs[0]), (fail, inputs[1]), (bn, inputs[2])])
            assert np.array_equal(bn.running_mean, np.zeros(3))
            assert np.array_equal(bn.running_var, np.ones(3))
            ad.branches([(bn, x) for x in inputs])
        assert np.array_equal(bn.running_mean, serial.running_mean)
        assert np.array_equal(bn.running_var, serial.running_var)


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


def test_branches_run_inline_without_grad_recording():
    import threading

    rng = np.random.default_rng(45)
    w, b, inputs, fn, _ = _shared_weight_branches(rng)
    threads = []

    def recording(x):
        threads.append(threading.get_ident())
        return fn(x)

    with ad.branch_workers(3), ad.no_grad():
        outs = ad.branches([(recording, x) for x in inputs])
    assert set(threads) == {threading.get_ident()}
    assert all(out._backward is None for out in outs)
    for out, x in zip(outs, inputs):
        assert np.array_equal(out.data, fn(x).data)


def test_nested_branch_nodes_run_inline_inside_a_branch():
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

    with ad.branch_workers(2):
        check_gradients(build, [w])


def test_branch_workers_under_thread_switch_stress():
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
        with ad.branch_workers(4):
            outs = ad.branches([(fn, x) for x in inputs])
            (ad.concat(outs, axis=1) ** 2).sum().backward()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(w.grad, reference)
