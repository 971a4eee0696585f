"""Layer library: modules, initialization, residual blocks, axis gating."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter


class Module:
    """Container tracking parameters, buffers, and child modules by attribute."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array) -> np.ndarray:
        self._buffers[name] = np.asarray(array, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])
        return self._buffers[name]

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            full = f"{prefix}{name}"
            p.name = full
            yield full, p
        for name, child in self._modules.items():
            yield from child.named_parameters(f"{prefix}{name}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield f"{prefix}{name}", b
        for name, child in self._modules.items():
            yield from child.named_buffers(f"{prefix}{name}.")

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def train(self, flag: bool = True):
        object.__setattr__(self, "training", flag)
        for child in self._modules.values():
            child.train(flag)
        return self

    def eval(self):
        return self.train(False)

    def state_dict(self) -> dict:
        state = {f"param/{name}": p.data.copy() for name, p in self.named_parameters()}
        state.update({f"buffer/{name}": b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict) -> None:
        """Copy the "param/<name>" and "buffer/<name>" arrays into the module.

        Raises KeyError for the first missing array and ValueError for the
        first one whose shape differs from the module's.
        """
        def source(key, shape):
            if key not in state:
                raise KeyError(f"no array {key}")
            if state[key].shape != shape:
                raise ValueError(f"shape mismatch for {key}: {state[key].shape} vs {shape}")
            return state[key]

        for name, p in self.named_parameters():
            p.data = source(f"param/{name}", p.data.shape).copy()
        for name, b in self.named_buffers():
            b[...] = source(f"buffer/{name}", b.shape)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"m{i}", layer)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


def he_normal(rng, shape, fan_in) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)


class Linear(Module):
    def __init__(self, d_in, d_out, rng):
        super().__init__()
        self.weight = Parameter(he_normal(rng, (d_out, d_in), d_in))
        self.bias = Parameter(np.zeros(d_out))

    def forward(self, x):
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """The weight and geometry of a bias-free 2-D convolution, which `conv_bn`
    reads: every conv feeds a batch norm, whose shift is the bias."""

    def __init__(self, c_in, c_out, kernel, stride=(1, 1), padding=(0, 0), rng=None):
        super().__init__()
        kh, kw = kernel
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(he_normal(rng, (c_out, c_in, kh, kw), c_in * kh * kw))


class Conv1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, rng=None):
        super().__init__()
        self.stride = stride
        self.weight = Parameter(he_normal(rng, (c_out, c_in, kernel), c_in * kernel))
        self.bias = Parameter(np.zeros(c_out))

    def forward(self, x):
        return ad.conv1d(x, self.weight, self.bias, self.stride)


class BatchNorm2d(Module):
    """The affine parameters and running statistics that `conv_bn` reads."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))


def conv_bn(conv: Conv2d, bn: BatchNorm2d, x, relu: bool = False, residual=None, *,
            owns_residual: bool = False):
    """bn(conv(x)), plus `residual` when given, then a relu when `relu` is
    set.

    Training mode records the whole chain as one `ad.conv_bn` node, which
    normalizes by batch statistics and keeps no conv or norm output on the
    tape; with `owns_residual` it writes its output into the residual's
    array, which the caller hands over. Eval mode is inference only: it
    folds the norm into the conv on plain arrays, weight w·γ/√(var+ε) and
    bias β − mean·γ/√(var+ε), runs one unrecorded conv, and adds and
    applies the relu in place on its output. An eval-mode forward runs under `ad.no_grad()`; a recorded `x`
    or `residual` is a ValueError.
    """
    if bn.training:
        return ad.conv_bn(x, conv.weight, bn.gamma, bn.beta, bn.running_mean,
                          bn.running_var, conv.stride, conv.padding, relu=relu,
                          residual=residual, owns_residual=owns_residual)
    if ad.recorded((x,) if residual is None else (x, residual)):
        raise ValueError("an eval-mode conv_bn records nothing: run it under ad.no_grad()")
    scale = bn.gamma.data * (1.0 / np.sqrt(bn.running_var + ad.BN_EPS))
    weight = conv.weight.data * scale.reshape(-1, 1, 1, 1)
    bias = bn.beta.data - bn.running_mean * scale
    data = ad.conv2d(x, ad.Tensor(weight), ad.Tensor(bias), conv.stride, conv.padding).data
    if residual is not None:
        data += residual.data
    if relu:
        data *= data > 0
    return ad.Tensor(data)   # checks the result as the plain ops would


class ResBlock2d(Module):
    """conv3x3 -> norm -> relu -> conv3x3 -> norm, projection shortcut on
    stride or channel change, relu after the addition."""

    def __init__(self, c_in, c_out, stride, rng):
        super().__init__()
        s = (stride, stride) if isinstance(stride, int) else stride
        self.conv1 = Conv2d(c_in, c_out, (3, 3), s, (1, 1), rng)
        self.bn1 = BatchNorm2d(c_out)
        self.conv2 = Conv2d(c_out, c_out, (3, 3), (1, 1), (1, 1), rng)
        self.bn2 = BatchNorm2d(c_out)
        if s != (1, 1) or c_in != c_out:
            self.proj = Conv2d(c_in, c_out, (1, 1), s, (0, 0), rng)
            self.proj_bn = BatchNorm2d(c_out)
        else:
            self.proj = None

    def forward(self, x):
        h = conv_bn(self.conv1, self.bn1, x, relu=True)
        if self.proj is None:
            # the block input, which conv1's backward reads: never written
            return conv_bn(self.conv2, self.bn2, h, relu=True, residual=x)
        # the projection's fresh output, which no backward reads, becomes the
        # block's output
        shortcut = conv_bn(self.proj, self.proj_bn, x)
        return conv_bn(self.conv2, self.bn2, h, relu=True, residual=shortcut,
                       owns_residual=True)


class AxisGate(Module):
    """Two-layer bottleneck producing a sigmoid gate for one axis.

    Gate inputs are means of non-negative activations, so fc1 starts with
    non-negative weights: the bottleneck is alive from the first step even
    when the reduction floors it at a single hidden unit.
    """

    def __init__(self, width, reduction, rng):
        super().__init__()
        hidden = max(1, width // reduction)
        self.fc1 = Linear(width, hidden, rng)
        self.fc1.weight.data = np.abs(self.fc1.weight.data)
        self.fc2 = Linear(hidden, width, rng)

    def forward(self, pooled):
        return self.fc2(self.fc1(pooled).relu()).sigmoid()


class MultiAxisSE(Module):
    """Squeeze-and-excitation along channel, frequency, and time axes of a
    (B, H, W, C) tensor: the last axis, then the first and second spatial axes.

    Gates are applied sequentially: each one is computed from the tensor the
    previous gate already scaled.
    """

    def __init__(self, channels, height, width, reduction, rng):
        super().__init__()
        self.channel_gate = AxisGate(channels, reduction, rng)
        self.freq_gate = AxisGate(height, reduction, rng)
        self.time_gate = AxisGate(width, reduction, rng)

    def forward(self, x):
        B, H, W, C = x.shape
        g = self.channel_gate(x.mean(axis=(1, 2)))
        x = x * g.reshape(B, 1, 1, C)
        g = self.freq_gate(x.mean(axis=(2, 3)))
        x = x * g.reshape(B, H, 1, 1)
        g = self.time_gate(x.mean(axis=(1, 3)))
        return x * g.reshape(B, 1, W, 1)
