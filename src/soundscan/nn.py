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
    def __init__(self, d_in, d_out, rng, bias=True):
        super().__init__()
        self.weight = Parameter(he_normal(rng, (d_out, d_in), d_in))
        self.bias = Parameter(np.zeros(d_out)) if bias else None

    def forward(self, x):
        return ad.linear(x, self.weight, self.bias)


class Conv2d(Module):
    def __init__(self, c_in, c_out, kernel, stride=(1, 1), padding=(0, 0), rng=None, bias=True):
        super().__init__()
        kh, kw = kernel
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(he_normal(rng, (c_out, c_in, kh, kw), c_in * kh * kw))
        self.bias = Parameter(np.zeros(c_out)) if bias else None

    def forward(self, x):
        return ad.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class Conv1d(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, rng=None, bias=True):
        super().__init__()
        self.stride = stride
        self.weight = Parameter(he_normal(rng, (c_out, c_in, kernel), c_in * kernel))
        self.bias = Parameter(np.zeros(c_out)) if bias else None

    def forward(self, x):
        return ad.conv1d(x, self.weight, self.bias, self.stride)


class BatchNorm2d(Module):
    def __init__(self, channels, momentum=0.1, eps=1e-5):
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def forward(self, x):
        return ad.batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                               self.running_var, self.training, self.momentum, self.eps)


class ResBlock2d(Module):
    """conv3x3 -> norm -> relu -> conv3x3 -> norm, projection shortcut on
    stride or channel change, relu after the addition."""

    def __init__(self, c_in, c_out, stride, rng):
        super().__init__()
        s = (stride, stride) if isinstance(stride, int) else stride
        self.conv1 = Conv2d(c_in, c_out, (3, 3), s, (1, 1), rng, bias=False)
        self.bn1 = BatchNorm2d(c_out)
        self.conv2 = Conv2d(c_out, c_out, (3, 3), (1, 1), (1, 1), rng, bias=False)
        self.bn2 = BatchNorm2d(c_out)
        if s != (1, 1) or c_in != c_out:
            self.proj = Conv2d(c_in, c_out, (1, 1), s, (0, 0), rng, bias=False)
            self.proj_bn = BatchNorm2d(c_out)
        else:
            self.proj = None

    def forward(self, x):
        out = self.bn2(self.conv2(self.bn1(self.conv1(x)).relu()))
        shortcut = self.proj_bn(self.proj(x)) if self.proj is not None else x
        return (out + shortcut).relu()


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
    """Squeeze-and-excitation along channel, frequency, and time axes.

    Gates are applied sequentially: each one is computed from the tensor the
    previous gate already scaled.
    """

    def __init__(self, channels, height, width, reduction, rng):
        super().__init__()
        self.channel_gate = AxisGate(channels, reduction, rng)
        self.freq_gate = AxisGate(height, reduction, rng)
        self.time_gate = AxisGate(width, reduction, rng)

    def forward(self, x):
        B, C, H, W = x.shape
        g = self.channel_gate(x.mean(axis=(2, 3)))
        x = x * g.reshape(B, C, 1, 1)
        g = self.freq_gate(x.mean(axis=(1, 3)))
        x = x * g.reshape(B, 1, H, 1)
        g = self.time_gate(x.mean(axis=(1, 2)))
        return x * g.reshape(B, 1, 1, W)
