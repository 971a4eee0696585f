#!/usr/bin/env python3
"""Kernel-box scanning geometry on a full-size spectrogram.

Shows how the twelve default kernel boxes tile a 513x311 spectrogram
(10 s @ 16 kHz, window 1024 / hop 512) under the fixed step sizes
F_step=8, T_step=32, and how count-driven planning derives steps instead.
"""

import numpy as np

from soundscan import (coverage_map, default_kernel_set, plan_from_steps,
                       scan_array, steps_from_counts)

F, T = 513, 311
F_STEP, T_STEP = 8, 32

print(f"spectrogram {F}x{T}, steps ({F_STEP}, {T_STEP})")
print(f"{'kernel':>8} {'n_f':>5} {'n_t':>4} {'patches':>8} {'coverage':>9} {'MB':>7}")
total = 0
for box in default_kernel_set():
    plan = plan_from_steps(F, T, box, F_STEP, T_STEP)
    cover = coverage_map(F, T, plan)
    total += plan.patch_count
    mb = plan.patch_cells * 8 / 1e6
    print(f"{str(box):>8} {plan.n_f:>5} {plan.n_t:>4} {plan.patch_count:>8} "
          f"{cover.min():>4}..{cover.max():<4} {mb:>7.1f}")
print(f"total patches per clip: {total}")
print("(a kernel narrower than T_step leaves time gaps, hence min coverage 0;"
      "\n steps at or below the kernel size guarantee full coverage)")

# patches really are sub-rectangles: mark each row with its frequency index
# (scan_array is the gather the model runs, there on a (B, F, T) batch)
marker = np.tile(np.arange(F, dtype=float)[:, None], (1, T))
box = default_kernel_set()[0]
plan = plan_from_steps(F, T, box, F_STEP, T_STEP)
stack = scan_array(marker, box.h, box.w, plan.f_positions, plan.t_positions)
anchor = plan.f_positions[3]
patch = stack[3 * plan.n_t]  # row-major: (f anchor 3, t anchor 0)
print(f"\npatch at frequency anchor {anchor}: rows run "
      f"{patch[0, 0]:.0f}..{patch[-1, 0]:.0f} (= anchor..anchor+h-1)")

# count-driven planning: ask for a 14 x 6 grid instead of fixing steps
f_step, t_step = steps_from_counts(F, T, box, n_f=14, n_t=6)
derived = plan_from_steps(F, T, box, f_step, t_step)
print(f"\ncount-driven: requesting 14x6 anchors for {box} derives steps "
      f"({f_step}, {t_step}) -> grid {derived.n_f}x{derived.n_t}")
