"""Reverse-mode differentiation over numpy arrays.

Every operation records its parents and a backward closure on the output
tensor; the recorded graph is the gradient tape. ``backward()`` walks the
reachable graph in reverse creation order (a topological order, since
consumers are always created after their inputs), propagating pass-local
gradients and accumulating them into ``.grad`` (+=). Double precision
throughout.

The tape keeps, per op, its input and output tensors plus the arrays its
backward reads that it cannot cheaply rebuild, for example batch norm's
normalized input and max pooling's windows. conv2d keeps no im2col block,
which would be kh*kw times the input's size. A stride-1 conv whose
padding is below its kernel backpropagates through one gather of the
padded output gradient: that block times the flipped kernel is the input
gradient, and the input times it is the weight gradient. Other convs
re-gather the block from the input for the weight gradient and scatter
the column gradient back onto the input; an unpadded 1x1 conv, whose
windows never overlap, slices its input and assigns its input gradient
through the same stride. A backward pass releases the graph it walks: each
node drops its parents and closure as the walk passes it, the branch
node's sub-graphs included, so the tape shrinks as the walk goes. A second
``backward()`` through a released node, or through a new graph built on
one, raises RuntimeError.

Image tensors are channels-last: (B, H, W, C) for the 2-D ops and
(B, L, C) for conv1d, so a conv's (B*P, C_out) matmul output is already
the next layer's input. Conv weights keep the stored (C_out, C_in, kh, kw)
and (C_out, C_in, k) shapes.

Grad mode is one process-wide flag, not one per thread. ``no_grad()``
belongs to the thread that starts workers: it enters the context once
around the whole pool, and the workers never enter it themselves, since
their save and restore of the flag would race. The helper threads that
``branch_workers`` opens run the branches of a ``branches`` node, forward
and backward, through ``workers.run_jobs``, only while recording is on;
they read the flag and never set it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager

import numpy as np

from .workers import helper_threads, run_jobs

_seq_counter = itertools.count()
_grad_enabled = True
_checked = False
_branch_pool = ()                   # the helper threads while branch_workers is open
_branch_state = threading.local()   # .updates: buffer updates queued by a running branch


def set_checked(flag: bool) -> None:
    """When on, any op producing NaN/Inf raises FloatingPointError."""
    global _checked
    _checked = bool(flag)


def checked() -> bool:
    return _checked


@contextmanager
def no_grad():
    """Disable graph recording (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if _checked and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("tensor contains NaN or Inf")
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._seq = next(_seq_counter)

    # -- basic introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    __radd__ = __add__

    def __neg__(self):
        return mul_scalar(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(-self, _as_tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul_scalar(self, 1.0 / float(other))
        return div(self, other)

    def __pow__(self, exponent):
        return power(self, float(exponent))

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape and reductions ------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self, None)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis, keepdims)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)

    def relu(self):
        return relu(self)

    def sigmoid(self):
        return sigmoid(self)

    # -- reverse pass ----------------------------------------------------------
    def backward(self) -> None:
        """Propagate d(self)/d(node) to every reachable node and accumulate
        into the leaves' .grad (+=), releasing the graph on the way."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        walk = _walk(_graph(self), np.ones_like(self.data))
        for leaf, g in _summed([walk]).items():
            leaf.grad = g if leaf.grad is None else leaf.grad + g


class Parameter(Tensor):
    """Trainable leaf tensor with a stable name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True)
        self.name = name


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data, parents, backward) -> Tensor:
    """Wrap op output; attach the tape record only when recording is on and
    some parent participates in differentiation."""
    out = Tensor(data)
    if _grad_enabled and any(_needs(p) for p in parents):
        out.requires_grad = False  # grads accumulate on leaves, flow through here
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape the operand had before broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise ---------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def backward(g):
        return (_unbroadcast(g, a.shape) if _needs(a) else None,
                _unbroadcast(g, b.shape) if _needs(b) else None)

    return _record(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape) if _needs(a) else None,
                _unbroadcast(g * a.data, b.shape) if _needs(b) else None)

    return _record(data, (a, b), backward)


def mul_scalar(a: Tensor, c: float) -> Tensor:
    return _record(a.data * c, (a,), lambda g: (g * c,))


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def backward(g):
        return (_unbroadcast(g / b.data, a.shape) if _needs(a) else None,
                _unbroadcast(-g * data / b.data, b.shape) if _needs(b) else None)

    return _record(data, (a, b), backward)


def power(a: Tensor, exponent: float) -> Tensor:
    data = a.data ** exponent
    return _record(data, (a,), lambda g: (g * exponent * a.data ** (exponent - 1.0),))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _record(data, (a,), lambda g: (g * data,))


def log(a: Tensor) -> Tensor:
    return _record(np.log(a.data), (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)
    return _record(data, (a,), lambda g: (g * 0.5 / data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _record(data, (a,), lambda g: (g * data * (1.0 - data),))


# -- linear algebra and shape ----------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def backward(g):
        ga = g @ b.data.T if _needs(a) else None
        gb = a.data.T @ g if _needs(b) else None
        return (ga, gb)

    return _record(data, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = tuple(np.argsort(axes))
    return _record(data, (a,), lambda g: (np.transpose(g, inverse),))


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape
    return _record(a.data.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if _needs(t) else None for p, t in zip(pieces, tensors))

    return _record(data, tuple(tensors), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.shape).copy(),)

    return _record(data, (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[i] for i in axis]))
    else:
        count = a.shape[axis]
    return mul_scalar(tensor_sum(a, axis, keepdims), 1.0 / count)


# -- neural-network primitives ---------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x: (B, D_in), weight: (D_out, D_in), bias: (D_out,)."""
    data = x.data @ weight.data.T
    if bias is not None:
        data = data + bias.data

    def backward(g):
        gx = g @ weight.data if _needs(x) else None
        gw = g.T @ x.data if _needs(weight) else None
        gb = g.sum(axis=0) if bias is not None and _needs(bias) else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return _record(data, parents, backward)


_GATHER_CACHE: dict = {}


def _gather_indices(key, builder):
    # one lookup, then build and store: between a membership test and a read,
    # another thread may clear the cache
    value = _GATHER_CACHE.get(key)
    if value is None:
        if len(_GATHER_CACHE) > 256:
            _GATHER_CACHE.clear()
        value = _GATHER_CACHE[key] = builder()
    return value


def _scatter_rows(values: np.ndarray, idx: np.ndarray, size: int) -> np.ndarray:
    """Row-wise scatter-add: out[b] = bincount(idx, values[b]).

    The per-row loop beats one flattened bincount because it avoids
    materializing a batch-offset index array as large as the data.
    """
    flat_idx = idx.reshape(-1)
    out = np.empty((values.shape[0], size))
    for b in range(values.shape[0]):
        out[b] = np.bincount(flat_idx, weights=values[b], minlength=size)
    return out


def _channel_sum(a: np.ndarray, C: int) -> np.ndarray:
    """Per-channel sums of a channels-last array, as one matrix-vector product:
    numpy's own reduction over the long leading axis crawls when C is small."""
    flat = a.reshape(-1, C)
    return np.ones(flat.shape[0]) @ flat


def _channel_row(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A per-channel vector tiled to the width of a (B, H*W*C) view, so that
    broadcasting it runs over whole rows instead of C-long runs."""
    return np.tile(v, rows.shape[1] // v.size)


def _conv2d_index(H, W, kh, kw, sh, sw):
    """Flat spatial gather index (positions, kh*kw) into an H*W grid."""
    def build():
        h_out = (H - kh) // sh + 1
        w_out = (W - kw) // sw + 1
        cell = np.repeat(np.arange(kh) * W, kw) + np.tile(np.arange(kw), kh)
        origin = (np.repeat(np.arange(h_out) * sh * W, w_out)
                  + np.tile(np.arange(w_out) * sw, h_out))
        return origin[:, None] + cell[None, :], h_out, w_out

    return _gather_indices(("c2", H, W, kh, kw, sh, sw), build)


def _conv2d_scatter_index(C, H, W, kh, kw, sh, sw):
    """The spatial index widened to (position, channel): (positions, kh*kw*C)
    flat offsets into an (H, W, C) array, in the column order of the gather."""
    def build():
        idx = _conv2d_index(H, W, kh, kw, sh, sw)[0]
        return (idx[:, :, None] * C + np.arange(C)).reshape(idx.shape[0], -1)

    return _gather_indices(("c2s", C, H, W, kh, kw, sh, sw), build)


def _padded(x: np.ndarray, ph: int, pw: int, fill: float) -> np.ndarray:
    """(B, H, W, C) with a fill-valued border of ph rows and pw columns."""
    if not (ph or pw):
        return x
    B, H, W, C = x.shape
    shape = (B, H + 2 * ph, W + 2 * pw, C)
    xp = np.full(shape, fill) if fill else np.zeros(shape)
    xp[:, ph:ph + H, pw:pw + W] = x
    return xp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Batched 2-D cross-correlation, channels-last.

    x: (B, H, W, C_in), weight: (C_out, C_in, kh, kw) -> (B, H', W', C_out)
    with H' = floor((H + 2*ph - kh)/sh) + 1 and likewise for W'.
    """
    B, H, W, C = x.data.shape
    c_out, c_in, kh, kw = weight.data.shape
    if c_in != C:
        raise ValueError(f"conv2d channel mismatch: input {C}, weight {c_in}")
    sh, sw = stride
    ph, pw = padding
    if H + 2 * ph < kh or W + 2 * pw < kw:
        raise ValueError("conv2d kernel larger than padded input")

    Hp, Wp = H + 2 * ph, W + 2 * pw
    idx, h_out, w_out = _conv2d_index(Hp, Wp, kh, kw, sh, sw)
    P, K = h_out * w_out, kh * kw * C

    # an unpadded 1x1 conv's windows are single cells that never overlap
    pointwise = (kh, kw) == (1, 1) and not (ph or pw)

    def im2col():
        if pointwise:
            return x.data[:, ::sh, ::sw].reshape(B * P, K)
        # each spatial index copies one C-long run: columns are (kh, kw, C)
        xp = _padded(x.data, ph, pw, 0.0)
        return np.take(xp.reshape(B, Hp * Wp, C), idx, axis=1).reshape(B * P, K)

    w_mat = weight.data.transpose(0, 2, 3, 1).reshape(c_out, K)
    out = im2col() @ w_mat.T                               # (B*P, C_out)
    if bias is not None:
        rows = out.reshape(B, P * c_out)
        rows += _channel_row(bias.data, rows)
    data = out.reshape(B, h_out, w_out, c_out)

    def backward_gathered(g):
        # stride 1: the input gradient is a stride-1 conv of the gradient,
        # padded by (kh-1-ph, kw-1-pw), with the flipped kernel; the same
        # gathered block gives the weight gradient against the unpadded x
        qh, qw = kh - 1 - ph, kw - 1 - pw
        Hg, Wg = H + kh - 1, W + kw - 1
        g_idx = _conv2d_index(Hg, Wg, kh, kw, 1, 1)[0]
        col = np.take(_padded(g, qh, qw, 0.0).reshape(B, Hg * Wg, c_out), g_idx, axis=1)
        col = col.reshape(B * H * W, kh * kw * c_out)       # columns (kh', kw', C_out)
        gx = gw = None
        if _needs(x):
            w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(C, -1)
            gx = (col @ w_flip.T).reshape(B, H, W, C)
        if _needs(weight):
            gw_flip = (x.data.reshape(B * H * W, C).T @ col).reshape(C, kh, kw, c_out)
            gw = gw_flip[:, ::-1, ::-1].transpose(3, 0, 1, 2)
        return gx, gw

    def backward_scattered(g_mat):
        gw = None
        if _needs(weight):
            # re-gathered, not kept: the block is kh*kw times the input
            gw = (g_mat.T @ im2col()).reshape(c_out, kh, kw, C).transpose(0, 3, 1, 2)
        gx = None
        if _needs(x) and pointwise:
            # each input cell takes at most one value: a strided assignment
            gx = np.zeros(x.data.shape)
            gx[:, ::sh, ::sw] = (g_mat @ w_mat).reshape(B, h_out, w_out, C)
        elif _needs(x):
            g_col = (g_mat @ w_mat).reshape(B, P * K)
            scatter = _conv2d_scatter_index(C, Hp, Wp, kh, kw, sh, sw)
            acc = _scatter_rows(g_col, scatter, Hp * Wp * C).reshape(B, Hp, Wp, C)
            gx = acc[:, ph:Hp - ph or None, pw:Wp - pw or None]
        return gx, gw

    # the gradient's padding, kh-1-ph and kw-1-pw, must not be negative
    gathered = (sh, sw) == (1, 1) and ph < kh and pw < kw

    def backward(g):
        g_mat = g.reshape(B * P, c_out)
        gx, gw = backward_gathered(g) if gathered else backward_scattered(g_mat)
        gb = _channel_sum(g_mat, c_out) if bias is not None and _needs(bias) else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return _record(data, parents, backward)


def conv1d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1) -> Tensor:
    """Batched 1-D cross-correlation, channels-last, no padding.

    x: (B, L, C_in), weight: (C_out, C_in, k) -> (B, L', C_out) with
    L' = floor((L - k)/stride) + 1. Runs as conv2d over a (B, 1, L, C_in)
    view with a (C_out, C_in, 1, k) kernel.
    """
    B, L, C = x.data.shape
    c_out, c_in, k = weight.data.shape
    if c_in != C:
        raise ValueError(f"conv1d channel mismatch: input {C}, weight {c_in}")
    if k > L:
        raise ValueError(f"conv1d kernel {k} longer than input {L}")
    out = conv2d(x.reshape(B, 1, L, C), weight.reshape(c_out, c_in, 1, k), bias,
                 stride=(1, stride))
    return out.reshape(B, out.shape[2], c_out)


def max_pool2d(x: Tensor, kernel, stride=None, padding=(0, 0)) -> Tensor:
    """Max pooling over a (B, H, W, C) tensor; gradients route to the (first)
    argmax of each window.

    Padded cells are -inf and can never win. kernel == spatial extent with
    zero padding gives global pooling.
    """
    kh, kw = kernel
    sh, sw = stride if stride is not None else kernel
    ph, pw = padding
    B, H, W, C = x.data.shape
    if H + 2 * ph < kh or W + 2 * pw < kw:
        raise ValueError("max_pool2d kernel larger than padded input")

    Hp, Wp = H + 2 * ph, W + 2 * pw
    xp = _padded(x.data, ph, pw, -np.inf)
    idx, h_out, w_out = _conv2d_index(Hp, Wp, kh, kw, sh, sw)
    windows = np.take(xp.reshape(B, Hp * Wp, C), idx, axis=1)    # (B, P, kh*kw, C)
    data = windows.max(axis=2).reshape(B, h_out, w_out, C)

    def backward(g):
        if not _needs(x):
            return (None,)
        arg = windows.argmax(axis=2)                               # (B, P, C)
        winner = idx[np.arange(idx.shape[0])[None, :, None], arg]  # spatial cell
        winner = (winner + (np.arange(B) * (Hp * Wp))[:, None, None]) * C + np.arange(C)
        acc = np.bincount(winner.ravel(), weights=g.reshape(-1),
                          minlength=B * Hp * Wp * C).reshape(B, Hp, Wp, C)
        return (acc[:, ph:Hp - ph or None, pw:Wp - pw or None],)

    return _record(data, (x,), backward)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel normalization of a (B, H, W, C) tensor over (B, H, W).

    Training mode normalizes by batch statistics and folds them into the
    running buffers in place (inside a branch, at the branch node's join);
    eval mode normalizes by the running buffers.
    """
    C = x.data.shape[-1]
    rows = x.data.reshape(x.data.shape[0], -1)
    n = rows.size // C
    # x_hat is built in place in the centred buffer and the output buffer
    # first holds the squares for the variance: two full-size arrays, not four
    if training:
        mean = _channel_sum(rows, C) / n
        x_hat = rows - _channel_row(mean, rows)
        out = np.multiply(x_hat, x_hat)
        var = _channel_sum(out, C) / n
        _update_buffers(functools.partial(_fold_statistics, running_mean, running_var,
                                          mean, var, momentum))
        inv_std = 1.0 / np.sqrt(var + eps)
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        x_hat = rows - _channel_row(running_mean, rows)
        out = np.empty_like(x_hat)
    x_hat *= _channel_row(inv_std, rows)
    np.multiply(x_hat, _channel_row(gamma.data, rows), out=out)
    out += _channel_row(beta.data, rows)
    data = out.reshape(x.shape)

    def backward(g):
        g = g.reshape(rows.shape)
        need_g_xhat = _needs(gamma) or (training and _needs(x))
        g_xhat = np.multiply(g, x_hat) if need_g_xhat else None
        gg = _channel_sum(g_xhat, C) if _needs(gamma) else None
        gb = _channel_sum(g, C) if _needs(beta) else None
        gx = None
        if _needs(x):
            coef = _channel_row(gamma.data * inv_std, rows)
            if training:
                sum_g = gb if gb is not None else _channel_sum(g, C)
                sum_g_xhat = gg if gg is not None else _channel_sum(g_xhat, C)
                # gx = ((g - A) - x_hat * B) * coef, with x_hat * B in g_xhat's buffer
                np.multiply(x_hat, _channel_row(sum_g_xhat / n, rows), out=g_xhat)
                gx = g - _channel_row(sum_g / n, rows)
                gx -= g_xhat
                gx *= coef
            else:
                gx = g * coef
            gx = gx.reshape(x.shape)
        return (gx, gg, gb)

    return _record(data, (x, gamma, beta), backward)


def stats_pool(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Channel-wise mean and standard deviation over every axis between the
    first and the last.

    x: (B, ..., C) -> (B, 2C): means first, then stds. The variance is
    floored at eps inside the square root so constant channels stay
    differentiable.
    """
    B, C = x.data.shape[0], x.data.shape[-1]
    flat = x.data.reshape(B, -1, C)
    n = flat.shape[1]
    if n < 1:
        raise ValueError("stats_pool requires at least one pooled position")
    mean = flat.mean(axis=1)
    centered = flat - mean[:, None, :]
    var = (centered ** 2).mean(axis=1)
    clipped = np.maximum(var, eps)
    std = np.sqrt(clipped)
    data = np.concatenate([mean, std], axis=1)

    def backward(g):
        if not _needs(x):
            return (None,)
        g_mean = g[:, :C]
        g_std = g[:, C:]
        gx = np.broadcast_to(g_mean[:, None, :] / n, flat.shape).copy()
        active = (var > eps).astype(np.float64)
        gx += (g_std * active / (n * std))[:, None, :] * centered
        return (gx.reshape(x.shape),)

    return _record(data, (x,), backward)


# -- the reverse walk --------------------------------------------------------------

def _released(g):
    raise RuntimeError("backward() through a released graph: a backward pass "
                       "releases the graph it walks")


def _graph(out: Tensor, start: int = 0) -> list:
    """The nodes `out` is computed from, in creation order; raises when one
    of them is a recorded op created before `start` (a branch's own)."""
    nodes, seen, stack = [], {id(out)}, [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and node._seq < start:
            raise ValueError("a branch may reach tensors from outside its node "
                             "only through leaves")
        nodes.append(node)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    nodes.sort(key=lambda t: t._seq)
    return nodes


def _walk(nodes: list, seed) -> dict:
    """Backpropagate `seed` from the last of `nodes` (a graph in creation
    order, consumed), releasing each node as it passes it.

    Returns {leaf: [gradient contributions in the order they arose]},
    unsummed, so that `_summed` can add several walks in a serial walk's
    order. A released node keeps a backward that raises, so a second pass,
    or a new graph built on it, cannot take it for a leaf.
    """
    leaf_grads = {}
    local = {id(nodes[-1]): seed} if seed is not None else {}
    while nodes:
        node = nodes.pop()
        g = local.pop(id(node), None)
        parents, backward = node._parents, node._backward
        if backward is None:
            if g is not None:       # the walk starts at a leaf
                leaf_grads.setdefault(node, []).append(g)
            continue
        node._parents, node._backward = (), _released
        if g is None:
            continue
        for parent, pg in zip(parents, backward(g)):
            if pg is None:
                continue
            if parent._backward is None:
                leaf_grads.setdefault(parent, []).append(pg)
            else:
                key = id(parent)
                local[key] = pg if key not in local else local[key] + pg
    return leaf_grads


def _summed(walks) -> dict:
    """{leaf: its total gradient} over `walks`, adding the latest walk first
    and within a walk in the order the contributions arose: the order of one
    walk over graphs built one after another."""
    totals = {}
    for walk in reversed(walks):
        for leaf, grads in walk.items():
            for g in grads:
                totals[leaf] = g if leaf not in totals else totals[leaf] + g
    return totals


# -- independent sub-graphs -------------------------------------------------------

def _fold_statistics(running_mean, running_var, mean, var, momentum) -> None:
    running_mean *= (1.0 - momentum)
    running_mean += momentum * mean
    running_var *= (1.0 - momentum)
    running_var += momentum * var


def _update_buffers(update) -> None:
    """Run a running-buffer update now or, inside a branch, queue it for the
    join, which applies the queues in branch order."""
    queue = getattr(_branch_state, "updates", None)
    if queue is None:
        update()
    else:
        queue.append(update)


@contextmanager
def branch_workers(workers: int):
    """Run the branches of each `branches` node on `workers` threads, the
    calling thread among them, while the context is open."""
    global _branch_pool
    with helper_threads(workers - 1) as helpers:
        previous, _branch_pool = _branch_pool, helpers
        try:
            yield
        finally:
            _branch_pool = previous


class _Seeds(dict):
    """Gradients at a branch node's outputs by branch index; the reverse walk
    adds up what each output hands the node."""

    def __add__(self, other):
        merged = _Seeds(self)
        merged.update(other)
        return merged


def _run_branch(fn, x, queue):
    """fn(x), with the running-buffer updates it makes queued on `queue`."""
    outer, _branch_state.updates = getattr(_branch_state, "updates", None), queue
    try:
        return fn(x)
    finally:
        _branch_state.updates = outer


def branches(calls) -> list:
    """[fn(x) for fn, x in calls], each an independent sub-graph, recorded as
    one tape node.

    A branch may reach tensors from outside only through leaves: parameters
    and constant inputs. While `branch_workers` is open and grad recording
    is on, the branches run on its threads through `workers.run_jobs`,
    costed by input size; otherwise, and inside another branch, they run
    inline in order. Running-buffer updates made inside a branch are
    applied at the join in branch order, and none when a branch raises, so
    results do not depend on the thread count. Backward walks each
    branch's graph with the walk that `Tensor.backward` uses, seeded with
    that branch's output gradient, on the thread that ran its forward, as
    the runner splits the same costs the same way: the tape is freed into
    the allocator arena that the backward allocates from, and no thread's
    arena grows to hold another thread's branches. A leaf's gradient
    contributions are added latest branch first, and within a branch
    latest op first: the order of one walk over the branches built one
    after another.
    """
    calls = list(calls)
    start = next(_seq_counter)
    queues = [[] for _ in calls]
    costs = [x.size for _, x in calls]
    outs = run_jobs([functools.partial(_run_branch, fn, x, queue)
                     for (fn, x), queue in zip(calls, queues)],
                    costs, _branch_pool if _grad_enabled else ())
    for queue in queues:
        for update in queue:
            _update_buffers(update)
    if not _grad_enabled or not any(_needs(out) for out in outs):
        return outs

    graphs = [_graph(out, start) for out in outs]
    leaves = dict.fromkeys(node for nodes in graphs for node in nodes
                           if node._backward is None and node.requires_grad)

    def backward(seeds):
        jobs = [functools.partial(_walk, nodes, seeds.get(i)) for i, nodes in enumerate(graphs)]
        totals = _summed(run_jobs(jobs, costs, _branch_pool))
        return tuple(totals.get(leaf) for leaf in leaves)

    node = Tensor(np.zeros(0))
    node._parents, node._backward = tuple(leaves), backward
    results = []
    for i, out in enumerate(outs):
        result = Tensor(out.data)
        if _needs(out):
            result._parents = (node,)
            result._backward = lambda g, i=i: (_Seeds({i: g}),)
        results.append(result)
    return results


# -- optimizer --------------------------------------------------------------------

class Adam:
    """Bias-corrected Adam over a fixed parameter list."""

    def __init__(self, params, lr: float = 0.001, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                g = 0.0
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def state_arrays(self) -> dict:
        """Moments keyed by parameter name, for checkpointing."""
        out = {"adam/t": np.array([float(self.t)])}
        for p, m, v in zip(self.params, self.m, self.v):
            out[f"adam/m/{p.name}"] = m
            out[f"adam/v/{p.name}"] = v
        return out
