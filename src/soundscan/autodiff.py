"""Reverse-mode differentiation over numpy arrays.

Every operation records its parents and a backward closure on the output
tensor; the recorded graph is the gradient tape. ``backward()`` walks the
reachable graph in reverse creation order (a topological order, since
consumers are always created after their inputs), propagating pass-local
gradients and accumulating them into ``.grad`` (+=). Double precision
throughout.

The tape keeps, per op, its input and output tensors plus the arrays its
backward reads that it cannot cheaply rebuild, for example batch norm's
normalized input x_hat. Batch norm is training mode only; in eval mode
`nn.conv_bn` folds it into the conv on plain arrays. A training-mode
conv -> batch norm (-> add) (-> relu) chain is one ``conv_bn`` node: it
keeps its input and its own output, and no conv or norm output, which no
backward reads. A node whose conv is wide keeps x_hat as well. A narrow
one, at most RECOMPUTE_COLUMNS gathered columns per output cell (a 3x3
conv on one channel, a 1x1 conv on up to 9), keeps only the per-channel
mean and inverse std: its backward runs the conv's product on the kept
input again and rebuilds x_hat by the forward's steps, so the bytes do not
change. A node handed its residual's array (a block's projection
shortcut) writes its output there. stats_pool keeps its input and the
per-channel statistics; its backward centres the input again.

conv2d holds no im2col block, which would be kh*kw times the input's
size, on the tape or while it runs, and no padded copy of its input. Its
forward and each direction of its backward work in tiles of whole images
sized for a core's cache: a tile's columns fit CONV_TILE_BYTES, a quarter
of a 2 MiB L2, unless that leaves it under CONV_TILE_CELLS output cells.
Each tile's images are copied into a zero-bordered region of a buffer that
the thread lends to one tile loop at a time, gathered into columns in the
same buffer and multiplied, so that each output row and each input-gradient
row has the bytes of the whole-block product. A stride-1 conv whose padding
is below its kernel backpropagates through tiles of the padded output
gradient: a tile times the flipped kernel is its images' input gradient,
and the input times it is their share of the weight gradient. Other convs
re-gather the input tile by tile for the weight gradient and scatter each
tile's column gradient back onto its images. The weight gradient is summed
over the tiles, so it may round unlike one whole-block product in its last
bits. An unpadded 1x1 conv, whose windows never overlap, slices its input
into one product, and a strided one assigns its input gradient through the
same stride.

max_pool2d, recorded or not, takes a running maximum over the kh*kw
shifted strided views of its padded input, in window order. Its backward
reads the same views of the input, padded again, to find each window's
first maximal cell, so the tape keeps only the pool's input and output.

A backward pass releases the graph it walks: each node drops its parents
and closure as the walk passes it, the branch node's sub-graphs included,
so the tape shrinks as the walk goes. A second ``backward()`` through a
released node, or through a new graph built on one, raises RuntimeError.

Image tensors are channels-last: (B, H, W, C) for the 2-D ops and
(B, L, C) for conv1d, so a conv's (B*P, C_out) matmul output is already
the next layer's input. Conv weights keep the stored (C_out, C_in, kh, kw)
and (C_out, C_in, k) shapes.

Grad mode is one process-wide flag, not one per thread. ``no_grad()``
belongs to the thread that opens a ``workers.pool``: it enters the context
once around the whole pool, and the workers never enter it themselves,
since their save and restore of the flag would race. The branches of a
``branches`` node run, forward and backward, through ``workers.run_jobs``:
on the threads of the pool that the calling thread opened, inline without
one or inside another job; they read the flag and never set it.
"""

from __future__ import annotations

import functools
import itertools
import threading
from contextlib import contextmanager

import numpy as np

from .workers import run_jobs

_seq_counter = itertools.count()
_grad_enabled = True
_checked = False
_branch_state = threading.local()   # .updates: buffer updates queued by a running branch
_tile_state = threading.local()     # .buf: the tile buffer this thread lends its conv tile loops


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
    if recorded(parents):
        out.requires_grad = False  # grads accumulate on leaves, flow through here
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _needs(t: Tensor) -> bool:
    return t.requires_grad or t._backward is not None


def recorded(parents) -> bool:
    """Whether an op on `parents` goes on the tape."""
    return _grad_enabled and any(_needs(p) for p in parents)


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


CONV_TILE_BYTES = 512 << 10   # the column block a conv gathers at a time
# An eval-mode patch pass scans, encodes and pools a tile of whole clips at a
# time whose block1 output fits this many bytes (network.PatchEncoder.clip_tile):
# 5, 10 and 16 clips for the micro preset's 32x16, 32x8 and 16x8 boxes (a
# 16-clip chunk runs the 32x8 pass as one tile: the last takes the remainder).
# On infer_micro (2 vCPUs, medians of 3 seeds) fixed tiles of 2, 4 and 8 clips
# read 64.5, 65.0 and 70.1 MB peak RSS at 163, 150 and 128 ms per embed
# command, this budget 68.9 MB at 137 ms, and whole chunks 88.2 MB: tiles of
# 2 clips cost a fifth more time for 4 MB less.
CLIP_TILE_BYTES = 1 << 20
# OpenBLAS multiplies an (M, K) @ (K, N).T product of at most 1200 output
# cells, M*N, in its small-matrix kernel, which rounds unlike its large one
# (measured for K >= 36): a tile of more cells rounds like the whole block
CONV_TILE_CELLS = 1201
# A training conv_bn whose conv gathers at most this many columns per output
# cell, kh*kw*C_in, rebuilds batch norm's x_hat in backward instead of
# keeping it. In a 16-clip micro training step (2 vCPUs) these convs hold
# 14 of the 34 MB of x_hat and rebuild it at 0.66 ms per MB, 14-22 % of
# each one's forward and backward; the wider convs would take 2.4 ms per MB.
# Rebuilding every x_hat cut train_micro's peak RSS by 32 MB and slowed a
# one-thread step by 13-16 %; rebuilding these cuts it by 21 MB for about 2 %.
RECOMPUTE_COLUMNS = 9
BN_MOMENTUM, BN_EPS = 0.1, 1e-5   # batch norm's running-statistics momentum, variance floor
STATS_POOL_EPS = 1e-5             # the floor on the variance that stats_pool pools


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
    """A per-channel vector tiled to the width of a (B, H*W*C) array, so that
    broadcasting it runs over whole rows instead of C-long runs."""
    return np.tile(v, rows.shape[1] // v.size)


def conv_out(n: int, k: int, s: int, p: int) -> int:
    """Output length of a conv or pool (kernel k, stride s, padding p) on n."""
    return (n + 2 * p - k) // s + 1


@functools.lru_cache(maxsize=256)
def _conv2d_index(H, W, kh, kw, sh, sw):
    """Flat spatial gather index (positions, kh*kw) into an H*W grid."""
    h_out, w_out = conv_out(H, kh, sh, 0), conv_out(W, kw, sw, 0)
    cell = np.repeat(np.arange(kh) * W, kw) + np.tile(np.arange(kw), kh)
    origin = (np.repeat(np.arange(h_out) * sh * W, w_out)
              + np.tile(np.arange(w_out) * sw, h_out))
    return origin[:, None] + cell[None, :], h_out, w_out


@functools.lru_cache(maxsize=256)
def _conv2d_scatter_index(C, H, W, kh, kw, sh, sw):
    """The spatial index widened to (position, channel): (positions, kh*kw*C)
    flat offsets into an (H, W, C) array, in the column order of the gather."""
    idx = _conv2d_index(H, W, kh, kw, sh, sw)[0]
    return (idx[:, :, None] * C + np.arange(C)).reshape(idx.shape[0], -1)


def _padded(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """(B, H, W, C) with a -inf border of ph rows and pw columns."""
    if not (ph or pw):
        return x
    B, H, W, C = x.shape
    xp = np.full((B, H + 2 * ph, W + 2 * pw, C), -np.inf)
    xp[:, ph:ph + H, pw:pw + W] = x
    return xp


@contextmanager
def _tile_buffer(size: int):
    """A flat buffer of `size` doubles for one tile loop, taken from this
    thread and handed back when the loop ends: a fresh one per conv would have
    the allocator hand megabytes back to the system and fault them in again,
    conv after conv. While one loop holds the buffer, another loop on the
    thread gets a buffer of its own."""
    buf = getattr(_tile_state, "buf", None)
    _tile_state.buf = None
    if buf is None or buf.size < size:
        buf = np.empty(size)
    yield buf[:size]
    _tile_state.buf = buf


def _tile_images(P: int, K: int, N: int) -> int:
    """Images per tile of a conv with P positions, K columns and N output
    channels: as many as fit their column blocks in CONV_TILE_BYTES, and at
    least CONV_TILE_CELLS output cells, at least one."""
    return max(1, CONV_TILE_BYTES // (P * K * 8), -(-CONV_TILE_CELLS // (P * N)))


def image_tiles(B: int, per_tile: int) -> list:
    """(b0, b1) bounds of tiles of `per_tile` images (or clips) out of B; the
    last tile also takes the remainder, so no tile is smaller than the
    others, and `per_tile` >= B gives one tile."""
    starts = list(range(0, B - per_tile + 1, per_tile)) or [0]
    return list(zip(starts, starts[1:] + [B]))


def _tiles(x: np.ndarray, ph: int, pw: int, idx: np.ndarray, per_tile: int):
    """(b0, b1, cols) per tile of whole images of x: cols is the tile's
    im2col block of x padded by ph rows and pw columns of zeros,
    ((b1 - b0)*P, kh*kw*C), in the thread's tile buffer until the next tile.

    The buffer holds at most twice a tile. A padded input is copied tile by
    tile into a zero-bordered region of that buffer, never whole.
    `mode="clip"` lets `np.take` write into the buffer directly, where
    "raise" buffers its output; the index is always in range.
    """
    B, H, W, C = x.shape
    Hp, Wp = H + 2 * ph, W + 2 * pw
    P, K = idx.shape[0], idx.shape[1] * C
    bounds = image_tiles(B, per_tile)
    largest = B - bounds[-1][0]
    padded = bool(ph or pw)
    with _tile_buffer(largest * (P * K + padded * Hp * Wp * C)) as buf:
        cols = buf[:largest * P * K]
        if padded:
            region = buf[largest * P * K:].reshape(largest, Hp, Wp, C)
            region.fill(0.0)              # the border; each tile fills the rest
        for b0, b1 in bounds:
            src = x[b0:b1]
            if padded:
                src = region[:b1 - b0]
                src[:, ph:ph + H, pw:pw + W] = x[b0:b1]
            tile = cols[:(b1 - b0) * P * K].reshape(b1 - b0, P, idx.shape[1], C)
            np.take(src.reshape(b1 - b0, Hp * Wp, C), idx, axis=1, out=tile, mode="clip")
            yield b0, b1, tile.reshape(-1, K)


def _tiled_product(x: np.ndarray, ph: int, pw: int, idx: np.ndarray,
                   w_t: np.ndarray) -> np.ndarray:
    """im2col(x padded by ph rows and pw columns of zeros) @ w_t, (B*P, C_out),
    gathered and multiplied in tiles of whole images.

    Each output row is the same row product as in the whole-block product,
    since a tile of at least CONV_TILE_CELLS output cells stays on
    OpenBLAS's large-matrix kernel.
    """
    P, K = idx.shape[0], idx.shape[1] * x.shape[3]
    out = np.empty((x.shape[0] * P, w_t.shape[1]))
    for b0, b1, cols in _tiles(x, ph, pw, idx, _tile_images(P, K, w_t.shape[1])):
        np.matmul(cols, w_t, out=out[b0 * P:b1 * P])
    return out


def _conv_rows(x: np.ndarray, weight: np.ndarray, stride, padding) -> np.ndarray:
    """The (B*P, C_out) product of a bias-free conv of a (B, H, W, C_in)
    array with a (C_out, C_in, kh, kw) weight: the one forward product, which
    conv2d runs and conv_bn runs again when it rebuilds x_hat."""
    B, H, W, C = x.shape
    c_out, _, kh, kw = weight.shape
    (sh, sw), (ph, pw) = stride, padding
    w_t = weight.transpose(0, 2, 3, 1).reshape(c_out, kh * kw * C).T
    if (kh, kw) == (1, 1) and not (ph or pw):
        return x[:, ::sh, ::sw].reshape(-1, C) @ w_t
    idx = _conv2d_index(H + 2 * ph, W + 2 * pw, kh, kw, sh, sw)[0]
    return _tiled_product(x, ph, pw, idx, w_t)


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

    def cells():
        return x.data[:, ::sh, ::sw].reshape(B * P, K)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    w_mat = weight.data.transpose(0, 2, 3, 1).reshape(c_out, K)
    out = _conv_rows(x.data, weight.data, stride, padding)
    if bias is not None:
        rows = out.reshape(B, P * c_out)
        rows += _channel_row(bias.data, rows)
    data = out.reshape(B, h_out, w_out, c_out)

    def backward_gathered(g):
        # stride 1: the input gradient is a stride-1 conv of the gradient,
        # padded by (kh-1-ph, kw-1-pw), with the flipped kernel; the same
        # gathered tiles give the weight gradient against the unpadded x
        HW, Kg = H * W, kh * kw * c_out
        g_idx = _conv2d_index(H + kh - 1, W + kw - 1, kh, kw, 1, 1)[0]
        gx = np.empty((B * HW, C)) if _needs(x) else None
        w_flip = weight.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(C, Kg)
        x_rows = x.data.reshape(B * HW, C)
        gw_flip = None
        for b0, b1, col in _tiles(g, kh - 1 - ph, kw - 1 - pw, g_idx,
                                  _tile_images(HW, Kg, C)):
            rows = slice(b0 * HW, b1 * HW)                 # col: (kh', kw', C_out) columns
            if gx is not None:
                np.matmul(col, w_flip.T, out=gx[rows])
            if _needs(weight):
                part = x_rows[rows].T @ col
                gw_flip = part if gw_flip is None else gw_flip + part
        gw = None
        if gw_flip is not None:
            gw = gw_flip.reshape(C, kh, kw, c_out)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
        return None if gx is None else gx.reshape(B, H, W, C), gw

    def backward_scattered(g_mat):
        gw = gx = None
        if pointwise:
            if _needs(weight):
                gw = (g_mat.T @ cells()).reshape(c_out, 1, 1, C).transpose(0, 3, 1, 2)
            if _needs(x):
                # each input cell takes at most one value: a strided assignment
                gx = np.zeros(x.data.shape)
                gx[:, ::sh, ::sw] = (g_mat @ w_mat).reshape(B, h_out, w_out, C)
            return gx, gw
        per_tile = _tile_images(P, K, c_out)
        if _needs(weight):
            # re-gathered tile by tile, not kept: the block is kh*kw times the input
            for b0, b1, cols in _tiles(x.data, ph, pw, idx, per_tile):
                part = g_mat[b0 * P:b1 * P].T @ cols
                gw = part if gw is None else gw + part
            gw = gw.reshape(c_out, kh, kw, C).transpose(0, 3, 1, 2)
        if _needs(x):
            scatter = _conv2d_scatter_index(C, Hp, Wp, kh, kw, sh, sw)
            acc = np.empty((B, Hp * Wp * C))
            bounds = image_tiles(B, per_tile)
            with _tile_buffer((B - bounds[-1][0]) * P * K) as buf:
                for b0, b1 in bounds:
                    g_col = buf[:(b1 - b0) * P * K].reshape((b1 - b0) * P, K)
                    np.matmul(g_mat[b0 * P:b1 * P], w_mat, out=g_col)
                    acc[b0:b1] = _scatter_rows(g_col.reshape(b1 - b0, P * K), scatter,
                                               Hp * Wp * C)
            gx = acc.reshape(B, Hp, Wp, C)[:, ph:Hp - ph or None, pw:Wp - pw or None]
        return gx, gw

    # the gradient's padding, kh-1-ph and kw-1-pw, must not be negative
    gathered = (sh, sw) == (1, 1) and ph < kh and pw < kw

    def backward(g):
        g_mat = g.reshape(B * P, c_out)
        gx, gw = backward_gathered(g) if gathered else backward_scattered(g_mat)
        gb = _channel_sum(g_mat, c_out) if bias is not None and _needs(bias) else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

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
    h_out, w_out = conv_out(H, kh, sh, ph), conv_out(W, kw, sw, pw)

    def views(a):
        # the kh*kw shifted strided views of a padded array, in window order
        return [a[:, i:i + sh * (h_out - 1) + 1:sh, j:j + sw * (w_out - 1) + 1:sw]
                for i, j in itertools.product(range(kh), range(kw))]

    # a running maximum in window order: the order in which the windows' max
    # meets its signed-zero ties
    data = None
    for view in views(_padded(x.data, ph, pw)):
        data = view.copy() if data is None else np.maximum(data, view, out=data)

    def backward(g):
        # each window's first maximal cell, by its offset in window order
        arg = np.zeros(data.shape, dtype=np.min_scalar_type(kh * kw - 1))
        claimed = np.zeros(data.shape, dtype=bool)
        for n, view in enumerate(views(_padded(x.data, ph, pw))):
            hit = np.equal(view, data) & ~claimed
            np.copyto(arg, n, where=hit)
            claimed |= hit
        # offsets in reverse window order hand each input cell its windows'
        # gradients in ascending output order
        acc = np.zeros((B, H + 2 * ph, W + 2 * pw, C))
        for n, view in reversed(list(enumerate(views(acc)))):
            view += g * (arg == n)
        return (acc[:, ph:ph + H, pw:pw + W],)

    return _record(data, (x,), backward)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, *,
                 rebuild=None) -> Tensor:
    """Per-channel normalization of a (B, H, W, C) tensor over (B, H, W), in
    training mode only: by the batch statistics, which it folds into the
    running buffers in place (inside a branch, at the branch node's join).
    In eval mode `nn.conv_bn` folds the running statistics into the conv.

    Backward holds the normalized input x_hat. Given `rebuild`, a function
    that returns x's values again in a fresh array, it holds the per-channel
    mean and inverse std instead and rebuilds x_hat by the forward's own
    steps, `- mean` and then `* inv_std`, so the bytes do not change."""
    C = x.data.shape[-1]
    rows = x.data.reshape(x.data.shape[0], -1)
    n = rows.size // C
    # x_hat is built in place in the centred buffer and the output buffer
    # first holds the squares for the variance: two full-size arrays, not four
    mean = _channel_sum(rows, C) / n
    x_hat = rows - _channel_row(mean, rows)
    out = np.multiply(x_hat, x_hat)
    var = _channel_sum(out, C) / n
    _update_buffers(functools.partial(_fold_statistics, running_mean, running_var,
                                      mean, var))
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    x_hat *= _channel_row(inv_std, rows)
    np.multiply(x_hat, _channel_row(gamma.data, rows), out=out)
    out += _channel_row(beta.data, rows)
    data = out.reshape(x.shape)
    # backward holds x_hat, or what rebuilds it, and shapes, not the input:
    # a fused conv_bn drops it
    rows_shape, x_shape, needs_x = rows.shape, x.shape, _needs(x)
    kept = x_hat if rebuild is None else None

    def normalized():
        if rebuild is None:
            return kept
        again = rebuild().reshape(rows_shape)
        again -= _channel_row(mean, again)
        again *= _channel_row(inv_std, again)
        return again

    def backward(g):
        g = g.reshape(rows_shape)
        x_hat = normalized()
        g_xhat = np.multiply(g, x_hat) if _needs(gamma) or needs_x else None
        gg = _channel_sum(g_xhat, C) if _needs(gamma) else None
        gb = _channel_sum(g, C) if _needs(beta) else None
        gx = None
        if needs_x:
            coef = _channel_row(gamma.data * inv_std, g)
            sum_g = gb if gb is not None else _channel_sum(g, C)
            sum_g_xhat = gg if gg is not None else _channel_sum(g_xhat, C)
            # gx = ((g - A) - x_hat * B) * coef, with x_hat * B in g_xhat's buffer
            np.multiply(x_hat, _channel_row(sum_g_xhat / n, g), out=g_xhat)
            gx = g - _channel_row(sum_g / n, g)
            gx -= g_xhat
            gx *= coef
            gx = gx.reshape(x_shape)
        return (gx, gg, gb)

    return _record(data, (x, gamma, beta), backward)


def conv_bn(x: Tensor, weight: Tensor, gamma: Tensor, beta: Tensor,
            running_mean: np.ndarray, running_var: np.ndarray, stride=(1, 1),
            padding=(0, 0), relu: bool = False, residual: Tensor | None = None, *,
            owns_residual: bool = False) -> Tensor:
    """relu(batch_norm2d(conv2d(x, weight)) + residual) in training mode,
    recorded as one tape node; the add and the relu are each optional.

    The chain runs through `conv2d` and `batch_norm2d` and their backward
    closures are kept, but not the intermediate tensors, so the tape holds
    this node's input and output and no conv or norm output. A wide conv
    keeps the norm's x_hat too. A narrow one, at most RECOMPUTE_COLUMNS
    columns per output cell, keeps the per-channel mean and inverse std
    instead: its backward runs the conv's product on the input again and
    rebuilds x_hat from it by the forward's steps, the same bytes.
    Backward rebuilds the relu mask as `out > 0`, exact since
    out = pre * (pre > 0), and hands the masked gradient to the residual
    unchanged.

    With `owns_residual` the caller hands over the residual's array, which
    no one reads again: the output is written into it, not into a new array.
    """
    _, c_in, kh, kw = weight.shape
    rebuild = None
    if kh * kw * c_in <= RECOMPUTE_COLUMNS:
        rebuild = functools.partial(_conv_rows, x.data, weight.data, stride, padding)
    conv = conv2d(x, weight, None, stride, padding)
    norm = batch_norm2d(conv, gamma, beta, running_mean, running_var, rebuild=rebuild)
    conv_backward, norm_backward = conv._backward, norm._backward
    data = norm.data
    parents = (x, weight, gamma, beta)
    if residual is not None:
        if residual.shape != data.shape:
            raise ValueError(f"conv_bn residual shape {residual.shape} differs "
                             f"from the output's {data.shape}")
        if owns_residual:
            # addition commutes in IEEE arithmetic: the bytes of data + residual
            residual.data += data
            data = residual.data
        else:
            data += residual.data
        parents += (residual,)
    if relu:
        data *= data > 0

    def backward(g):
        if relu:
            g = g * (data > 0)
        gx = gw = gg = gb = None
        if norm_backward is not None:
            g_conv, gg, gb = norm_backward(g)
            if g_conv is not None:
                gx, gw = conv_backward(g_conv)
        if residual is None:
            return (gx, gw, gg, gb)
        return (gx, gw, gg, gb, g if _needs(residual) else None)

    return _record(data, parents, backward)


def stats_pool(x: Tensor) -> Tensor:
    """Channel-wise mean and standard deviation over every axis between the
    first and the last.

    x: (B, ..., C) -> (B, 2C): means first, then stds. The variance is
    floored at STATS_POOL_EPS inside the square root so constant channels stay
    differentiable. The tape keeps x and the per-channel statistics, not
    the centred input: backward takes `x - mean` again, the forward's op.
    """
    B, C = x.data.shape[0], x.data.shape[-1]
    flat = x.data.reshape(B, -1, C)
    n = flat.shape[1]
    if n < 1:
        raise ValueError("stats_pool requires at least one pooled position")
    mean = flat.mean(axis=1)
    var = ((flat - mean[:, None, :]) ** 2).mean(axis=1)
    clipped = np.maximum(var, STATS_POOL_EPS)
    std = np.sqrt(clipped)
    data = np.concatenate([mean, std], axis=1)

    def backward(g):
        if not _needs(x):
            return (None,)
        g_mean = g[:, :C]
        g_std = g[:, C:]
        flat = x.data.reshape(B, -1, C)
        gx = np.broadcast_to(g_mean[:, None, :] / n, flat.shape).copy()
        active = (var > STATS_POOL_EPS).astype(np.float64)
        centered = flat - mean[:, None, :]            # scaled in place
        centered *= (g_std * active / (n * std))[:, None, :]
        gx += centered
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

def _fold_statistics(running_mean, running_var, mean, var) -> None:
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mean
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * var


def _update_buffers(update) -> None:
    """Run a running-buffer update now or, inside a branch, queue it for the
    join, which applies the queues in branch order."""
    queue = getattr(_branch_state, "updates", None)
    if queue is None:
        update()
    else:
        queue.append(update)


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
    """[fn(x) for fn, x, ... in calls], each an independent sub-graph,
    recorded as one tape node.

    A call is (fn, x), costed by the size of x, or (fn, x, cost). A branch
    may reach tensors from outside only through leaves: parameters and
    constant inputs. The branches run through `workers.run_jobs`, split by
    those costs: on the threads of the `workers.pool` that the calling
    thread opened, and inline in order without one or inside another job
    (another branch, an embedding chunk). Running-buffer
    updates made inside a branch are applied at the join in branch order,
    and none when a branch raises, so results do not depend on the thread
    count. Backward walks each branch's graph with the walk that
    `Tensor.backward` uses, seeded with that branch's output gradient, on
    the thread that ran its forward, as the runner splits the same costs
    the same way: the tape is freed into the allocator arena that the
    backward allocates from, and no thread's arena grows to hold another
    thread's branches. A leaf's gradient contributions are added latest
    branch first, and within a branch latest op first: the order of one
    walk over the branches built one after another.
    """
    calls = [call if len(call) == 3 else (*call, call[1].size) for call in calls]
    start = next(_seq_counter)
    queues = [[] for _ in calls]
    costs = [cost for _, _, cost in calls]
    outs = run_jobs([functools.partial(_run_branch, fn, x, queue)
                     for (fn, x, _), queue in zip(calls, queues)], costs)
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
        totals = _summed(run_jobs(jobs, costs))
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

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
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
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)

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
