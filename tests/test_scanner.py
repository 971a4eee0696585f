"""Kernel-box scanning: step formulas, coverage guarantees, patch extraction."""

import numpy as np
import pytest

from soundscan import scanning
from soundscan.errors import ConfigError
from soundscan.scanning import KernelBox, coverage_map, default_kernel_set, plan_from_steps, scan_array, steps_from_counts


def patches(values, plan):
    """The plan's patches, gathered as `MultiScaleBranch.passes` gathers them."""
    return scan_array(values, plan.box.h, plan.box.w, plan.f_positions, plan.t_positions)


def test_steps_single_scan_uses_span():
    f_step, _ = steps_from_counts(513, 311, KernelBox(32, 16), n_f=1, n_t=1)
    assert f_step == 481


def test_steps_floor_formula():
    _, t_step = steps_from_counts(513, 313, KernelBox(32, 16), n_f=2, n_t=5)
    assert t_step == (313 - 16) // 4 == 74


def test_steps_clamped_to_one():
    f_step, _ = steps_from_counts(40, 100, KernelBox(32, 16), n_f=20, n_t=1)
    assert f_step == 1


def test_steps_reject_oversized_kernel():
    with pytest.raises(ConfigError):
        steps_from_counts(31, 100, KernelBox(32, 16), 1, 1)


def test_plan_exact_grid():
    plan = plan_from_steps(64, 100, KernelBox(32, 16), f_step=8, t_step=100 - 16)
    assert plan.f_positions == (0, 8, 16, 24, 32)
    assert plan.n_f == 5


def test_plan_edge_anchor_already_present():
    plan = plan_from_steps(100, 48, KernelBox(32, 16), f_step=68, t_step=32)
    assert plan.t_positions == (0, 32)
    assert plan.n_t == 2


def test_plan_appends_boundary_anchor():
    plan = plan_from_steps(70, 48, KernelBox(32, 16), f_step=16, t_step=32)
    assert plan.f_positions == (0, 16, 32, 38)
    assert plan.n_f == 4


def test_scan_full_size_patch_is_identity():
    rng = np.random.default_rng(0)
    values = rng.uniform(0, 1, (20, 12))
    box = KernelBox(20, 12)
    plan = plan_from_steps(20, 12, box, 0, 0)
    stack = patches(values, plan)
    assert stack.shape == (1, 20, 12)
    np.testing.assert_array_equal(stack[0], values)


def test_scan_coordinate_marker():
    # every row of the spectrogram holds its own frequency index, so
    # patch row r must equal anchor + r
    F, T = 64, 48
    values = np.tile(np.arange(F, dtype=float)[:, None], (1, T))
    box = KernelBox(32, 16)
    plan = plan_from_steps(F, T, box, 8, 32)
    stack = patches(values, plan)
    assert len(stack) == plan.n_f * plan.n_t == 10
    for i, f in enumerate(plan.f_positions):
        for j in range(plan.n_t):
            patch = stack[i * plan.n_t + j]
            expect = f + np.arange(box.h, dtype=float)
            np.testing.assert_array_equal(patch[:, 0], expect)


def test_scan_row_major_order():
    F, T = 16, 16
    values = np.arange(F * T, dtype=float).reshape(F, T)
    box = KernelBox(8, 8)
    plan = plan_from_steps(F, T, box, 8, 8)
    stack = patches(values, plan)
    # order: (f0,t0), (f0,t1), (f1,t0), (f1,t1)
    assert stack[0][0, 0] == values[0, 0]
    assert stack[1][0, 0] == values[0, 8]
    assert stack[2][0, 0] == values[8, 0]
    assert stack[3][0, 0] == values[8, 8]


def test_scan_batch_equals_per_clip_gathers_stacked():
    # MultiScaleBranch.passes gathers a whole (B, F, T) batch at once
    rng = np.random.default_rng(11)
    batch = rng.uniform(0, 1, (3, 40, 30))
    for box, f_step, t_step in ((KernelBox(16, 8), 8, 11), (KernelBox(40, 30), 0, 0),
                                (KernelBox(5, 7), 3, 9)):
        plan = plan_from_steps(40, 30, box, f_step, t_step)
        stack = patches(batch, plan)
        assert stack.shape == (3, plan.patch_count, box.h, box.w)
        np.testing.assert_array_equal(stack, np.stack([patches(clip, plan) for clip in batch]))
    # any leading axes are kept
    nested = rng.uniform(0, 1, (2, 2, 40, 30))
    np.testing.assert_array_equal(patches(nested, plan)[1, 0], patches(nested[1, 0], plan))


def test_default_kernel_set():
    kernels = default_kernel_set()
    assert len(kernels) == 12
    assert kernels[0] == KernelBox(32, 16)
    assert kernels.count(KernelBox(256, 64)) == 1
    heights = {k.h for k in kernels}
    widths = {k.w for k in kernels}
    assert heights == {32, 64, 128, 256} and widths == {16, 32, 64}
    # all dimensions are powers of two, and most boxes are taller than wide
    assert all((k.h & (k.h - 1)) == 0 and (k.w & (k.w - 1)) == 0 for k in kernels)
    assert sum(k.h >= k.w for k in kernels) >= 10


def test_coverage_single_full_patch():
    box = KernelBox(10, 6)
    plan = plan_from_steps(10, 6, box, 0, 0)
    cover = coverage_map(10, 6, plan)
    assert np.all(cover == 1)


def test_coverage_boundary_plan_complete():
    # f_step 16 <= h 32, so the appended boundary anchor closes the grid
    box = KernelBox(32, 16)
    plan = plan_from_steps(70, 48, box, 16, 8)
    cover = coverage_map(70, 48, plan)
    assert cover.min() >= 1


def test_coverage_overlap_counts():
    box = KernelBox(32, 8)
    plan = scanning.ScanPlan(box, f_positions=(0, 8), t_positions=(0,))
    cover = coverage_map(40, 8, plan)
    assert np.all(cover[8:32, :] >= 2)
    assert np.all(cover[:8, :] == 1)


def _looped_coverage(F, T, plan):
    """The coverage map as one add per patch."""
    cover = np.zeros((F, T), dtype=np.int64)
    for f in plan.f_positions:
        for t in plan.t_positions:
            cover[f:f + plan.box.h, t:t + plan.box.w] += 1
    return cover


def test_coverage_map_is_the_patch_loop_for_steps_and_counts_plans():
    # steps up to twice the box, so some plans leave gaps
    rng = np.random.default_rng(7)
    for _ in range(200):
        F, T = int(rng.integers(1, 70)), int(rng.integers(1, 70))
        box = KernelBox(int(rng.integers(1, F + 1)), int(rng.integers(1, T + 1)))
        if rng.random() < 0.5:
            plan = plan_from_steps(F, T, box, int(rng.integers(0, 2 * box.h + 1)),
                                   int(rng.integers(0, 2 * box.w + 1)))
        else:
            plan = scanning.plan_from_counts(F, T, box, int(rng.integers(1, 12)),
                                             int(rng.integers(1, 12)))
        cover = coverage_map(F, T, plan)
        assert cover.dtype == np.int64
        np.testing.assert_array_equal(cover, _looped_coverage(F, T, plan))


# scan-analyze's (min_coverage, max_coverage) per default kernel at 513x311,
# as the patch loop gave them
DEFAULT_TABLE_COVERAGE = {
    "steps": [(0, 10), (1, 10), (1, 15), (0, 18), (1, 18), (1, 27),
              (0, 34), (1, 34), (1, 51), (0, 66), (1, 66), (1, 99)],
    "counts": [(0, 1), (0, 2), (0, 3), (0, 3), (0, 6), (1, 9),
               (0, 6), (0, 12), (1, 18), (0, 14), (0, 28), (1, 42)],
}


@pytest.mark.parametrize("mode", ["steps", "counts"])
def test_scan_analyze_default_table_coverage_is_unchanged(capsys, mode):
    from soundscan.cli import main

    sets = ["--set", "scan_mode=counts", "--set", "n_f=14", "--set", "n_t=6"]
    assert main(["scan-analyze", "--F", "513", "--T", "311"]
                + (sets if mode == "counts" else [])) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [(int(r[6]), int(r[7])) for r in rows] == DEFAULT_TABLE_COVERAGE[mode]


def test_usable_kernels_skips_oversized():
    kernels = [KernelBox(32, 16), KernelBox(256, 16), KernelBox(32, 64)]
    with pytest.warns(UserWarning):
        kept = scanning.usable_kernels(kernels, F=129, T=61)
    assert kept == [KernelBox(32, 16)]


def test_randomized_coverage_bounds_and_count_law():
    # coverage is guaranteed whenever steps do not exceed the kernel dims;
    # bounds and the count law hold for arbitrary steps
    rng = np.random.default_rng(42)
    for _ in range(200):
        F = int(rng.integers(4, 90))
        T = int(rng.integers(4, 90))
        h = int(rng.integers(1, F + 1))
        w = int(rng.integers(1, T + 1))
        box = KernelBox(h, w)
        f_step = int(rng.integers(1, h + 1))
        t_step = int(rng.integers(1, w + 1))
        plan = plan_from_steps(F, T, box, f_step, t_step)
        assert all(0 <= f <= F - h for f in plan.f_positions)
        assert all(0 <= t <= T - w for t in plan.t_positions)
        assert list(plan.f_positions) == sorted(set(plan.f_positions))
        assert coverage_map(F, T, plan).min() >= 1
        values = rng.uniform(0, 1, (F, T))
        stack = patches(values, plan)
        assert len(stack) == plan.n_f * plan.n_t
        assert stack.size == plan.patch_cells

        wide = plan_from_steps(F, T, box, int(rng.integers(1, F + 4)), int(rng.integers(1, T + 4)))
        assert all(0 <= f <= F - h for f in wide.f_positions)
        assert all(0 <= t <= T - w for t in wide.t_positions)


def test_counts_round_trip_when_divisible():
    # if (F - h) divides evenly, planning with the derived step restores n_f
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_f = int(rng.integers(2, 9))
        h = int(rng.integers(1, 40))
        span = n_f - 1
        F = h + span * int(rng.integers(1, 12))
        box = KernelBox(h, 1)
        f_step, _ = steps_from_counts(F, 10, box, n_f, 1)
        plan = plan_from_steps(F, 10, box, f_step, 1)
        assert plan.n_f == n_f


def test_scan_deterministic():
    rng = np.random.default_rng(9)
    values = rng.uniform(0, 1, (64, 48))
    box = KernelBox(32, 16)
    plan = plan_from_steps(64, 48, box, 8, 32)
    np.testing.assert_array_equal(patches(values, plan), patches(values, plan))
