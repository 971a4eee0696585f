"""Multi-scale kernel-box scanning over spectrograms.

A kernel box of size (h, w) slides over an F x T spectrogram on a grid of
frequency/time anchors, which a `ScanPlan` holds with its box.
`scan_array` is the one patch gather: it takes a plain (..., F, T) array,
one spectrogram or a whole batch, and a plan's box and anchors, and stacks
the patches row-major over (frequency anchor, time anchor). Anchors either
follow fixed step sizes or step sizes derived from requested scan counts;
in both cases a final anchor at the far edge is appended, so the first and
last rows and columns are always covered. Cells in between are covered only
where the step is at most the kernel size along that axis: a step larger
than the kernel leaves gaps (the default t_step=32 with 16-wide kernels
leaves cells no patch covers; `soundscan scan-analyze` reports them as
min_coverage=0).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class KernelBox:
    """Scanning window: h bins along frequency, w frames along time."""

    h: int
    w: int

    def __post_init__(self):
        if self.h < 1 or self.w < 1:
            raise ConfigError(f"kernel box must be at least 1x1, got {self.h}x{self.w}")

    def __str__(self):
        return f"{self.h}x{self.w}"


@dataclass(frozen=True)
class ScanPlan:
    """One kernel box and the anchor grid it scans over one spectrogram size."""

    box: KernelBox
    f_positions: tuple
    t_positions: tuple

    @property
    def n_f(self) -> int:
        return len(self.f_positions)

    @property
    def n_t(self) -> int:
        return len(self.t_positions)

    @property
    def patch_count(self) -> int:
        return self.n_f * self.n_t

    @property
    def patch_cells(self) -> int:
        """Cells in the plan's patch stack: patch_count * h * w."""
        return self.patch_count * self.box.h * self.box.w


def _check_fits(F: int, T: int, box: KernelBox) -> None:
    if box.h > F or box.w > T:
        raise ConfigError(
            f"kernel {box} does not fit inside a {F}x{T} spectrogram"
        )


def steps_from_counts(F: int, T: int, box: KernelBox, n_f: int, n_t: int):
    """Step sizes that spread n_f x n_t anchors over the spectrogram.

    f_step = max(1, floor((F - h) / (n_f - 1))) for n_f > 1, else F - h;
    t_step analogously from (T, w, n_t).
    """
    _check_fits(F, T, box)
    if n_f < 1 or n_t < 1:
        raise ConfigError("scan counts must be at least 1")
    if n_f > 1:
        f_step = max(1, (F - box.h) // (n_f - 1))
    else:
        f_step = F - box.h
    if n_t > 1:
        t_step = max(1, (T - box.w) // (n_t - 1))
    else:
        t_step = T - box.w
    return f_step, t_step


def _axis_positions(extent: int, size: int, step: int) -> tuple:
    last = extent - size
    step = max(1, step)  # step 0 only occurs when the kernel spans the axis
    pos = list(range(0, last + 1, step))
    if pos[-1] != last:
        pos.append(last)
    return tuple(pos)


def plan_from_steps(F: int, T: int, box: KernelBox, f_step: int, t_step: int) -> ScanPlan:
    """Anchor grid for fixed steps: multiples of the step clipped to the
    valid range, with the far-edge anchor appended when stepping undershoots."""
    _check_fits(F, T, box)
    if f_step < 0 or t_step < 0:
        raise ConfigError("step sizes must be non-negative")
    return ScanPlan(
        box=box,
        f_positions=_axis_positions(F, box.h, f_step),
        t_positions=_axis_positions(T, box.w, t_step),
    )


def plan_from_counts(F: int, T: int, box: KernelBox, n_f: int, n_t: int) -> ScanPlan:
    f_step, t_step = steps_from_counts(F, T, box, n_f, n_t)
    return plan_from_steps(F, T, box, f_step, t_step)


def scan_array(values: np.ndarray, h: int, w: int, fp, tp) -> np.ndarray:
    """Gather (len(fp)*len(tp), h, w) patches from a 2-D array (or a batch
    of them, leading axes preserved), row-major over (fp, tp); fp and tp
    are anchor sequences, such as a plan's f_positions and t_positions."""
    fp = np.asarray(fp, dtype=np.intp)
    tp = np.asarray(tp, dtype=np.intp)
    f_idx = (fp[:, None] + np.arange(h)[None, :]).reshape(-1)     # (n_f*h,)
    t_idx = (tp[:, None] + np.arange(w)[None, :]).reshape(-1)     # (n_t*w,)
    block = values[..., f_idx, :][..., t_idx]                     # (..., n_f*h, n_t*w)
    lead = values.shape[:-2]
    block = block.reshape(lead + (len(fp), h, len(tp), w))
    block = np.moveaxis(block, -2, -3)                            # (..., n_f, n_t, h, w)
    return block.reshape(lead + (len(fp) * len(tp), h, w))


def default_kernel_set():
    """The 12-kernel cross product {32,64,128,256} x {16,32,64}, h-major order."""
    return [KernelBox(h, w) for h in (32, 64, 128, 256) for w in (16, 32, 64)]


def usable_kernels(kernels, F: int, T: int):
    """Drop kernels that do not fit the spectrogram, with a warning per drop."""
    kept = []
    for box in kernels:
        if box.h > F or box.w > T:
            warnings.warn(f"skipping kernel {box}: larger than {F}x{T} spectrogram")
        else:
            kept.append(box)
    return kept


def _span_counts(extent: int, size: int, positions) -> np.ndarray:
    """How many of the spans [p, p + size) cover each of `extent` positions."""
    starts = np.asarray(positions, dtype=np.intp)
    steps = (np.bincount(starts, minlength=extent + 1)
             - np.bincount(starts + size, minlength=extent + 1))
    return np.cumsum(steps[:extent])


def axis_coverage(F: int, T: int, plan: ScanPlan) -> tuple:
    """(F,) and (T,) counts of the frequency anchors covering each bin and
    of the time anchors covering each frame; a cell's coverage is their
    product, since the anchors form a grid."""
    return (_span_counts(F, plan.box.h, plan.f_positions),
            _span_counts(T, plan.box.w, plan.t_positions))


def coverage_map(F: int, T: int, plan: ScanPlan) -> np.ndarray:
    """F x T matrix counting how many patches cover each cell."""
    return np.outer(*axis_coverage(F, T, plan))
