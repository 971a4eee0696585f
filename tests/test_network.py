"""Network assembly: axis gating, the three encoders, fusion, weight sharing."""

import contextlib

import numpy as np
import pytest

from gradcheck import channels_last, check_gradients

from soundscan import autodiff as ad
from soundscan import network, nn
from soundscan.autodiff import Tensor
from soundscan.config import ModelConfig, micro_preset
from soundscan.errors import ConfigError
from soundscan.network import (MultiScaleNet, PatchEncoder, SpectrogramEncoder,
                               SpectrumEncoder, features_for_batch)
from soundscan.scanning import KernelBox, scan_array


def tiny_cfg(**overrides):
    """Very small config for fast forwards: 1000 Hz, 40x24 spectrogram."""
    base = dict(
        sample_rate=1000, clip_seconds=0.975, stft_window=78, stft_hop=39,
        kernels=(KernelBox(16, 8), KernelBox(32, 8)), f_step=8, t_step=16,
        stem_channels=2, stage_channels=(2, 4, 4, 8), patch_channels=(2, 4, 4),
        patch_embed_dim=8, patch_hidden_dim=16,
        spectrum_channels=(4, 4), spectrum_kernels=(64, 16), spectrum_strides=(16, 4),
        spectrum_linear_width=8, spectrum_linear_count=2,
        subclusters=2, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


# -- modified squeeze-excitation ---------------------------------------------------

def test_se_saturated_gates_pass_through():
    rng = np.random.default_rng(0)
    se = nn.MultiAxisSE(3, 5, 4, reduction=2, rng=rng)
    for gate in (se.channel_gate, se.freq_gate, se.time_gate):
        gate.fc2.weight.data[:] = 0.0
        gate.fc2.bias.data[:] = 40.0  # sigmoid(40) == 1 to double precision
    x = channels_last(rng.standard_normal((2, 3, 5, 4)))
    out = se(Tensor(x))
    np.testing.assert_allclose(out.data, x, rtol=1e-12)


def test_se_zero_input_zero_output():
    se = nn.MultiAxisSE(2, 4, 4, reduction=8, rng=np.random.default_rng(1))
    out = se(Tensor(np.zeros((1, 4, 4, 2))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_se_gradient_all_three_gates():
    rng = np.random.default_rng(2)
    se = nn.MultiAxisSE(2, 3, 3, reduction=2, rng=rng)
    x = Tensor(channels_last(rng.standard_normal((2, 2, 3, 3))), requires_grad=True)
    leaves = [x] + se.parameters()
    check_gradients(lambda: (se(x) ** 2).sum(), leaves)


def test_se_bottleneck_floors_at_one_unit():
    se = nn.MultiAxisSE(1, 2, 2, reduction=8, rng=np.random.default_rng(3))
    assert se.channel_gate.fc1.weight.shape == (1, 1)
    out = se(Tensor(np.ones((1, 2, 2, 1))))
    assert out.shape == (1, 2, 2, 1)


# -- spectrogram encoder -------------------------------------------------------------

def _gate_hw(se):
    """(height, width) a MultiAxisSE gates, read off its axis gate widths."""
    return se.freq_gate.fc2.weight.shape[0], se.time_gate.fc2.weight.shape[0]


def test_spectrogram_encoder_stage_trace_default_dims():
    enc = SpectrogramEncoder(513, 311, 16, (32, 64, 128, 256), 8,
                             np.random.default_rng(0))
    # the 7x7/2 stem and 3x3/2 max pool, then one stride-2 block per stage
    stages = [m for m in enc.blocks.layers if isinstance(m, nn.MultiAxisSE)]
    assert _gate_hw(enc.se_in) == (513, 311)
    assert _gate_hw(enc.se_stem) == (129, 78)
    assert [_gate_hw(se) for se in stages] == [(129, 78), (65, 39), (33, 20),
                                               (17, 10), (9, 5)]
    assert enc.final_hw == (9, 5)
    assert enc.out_dim == 256


def test_spectrogram_encoder_full_size_forward():
    rng = np.random.default_rng(1)
    enc = SpectrogramEncoder(513, 311, 4, (4, 8, 8, 16), 8, rng)
    out = enc(Tensor(rng.uniform(0, 1, (1, 513, 311, 1))))
    assert out.shape == (1, 16)
    assert np.all(np.isfinite(out.data))


def test_spectrogram_encoder_conv_params_input_invariant():
    # fully convolutional + global pool: every non-gate parameter count is
    # independent of the input size; only the axis-gate widths track F, T
    def census(F, T):
        enc = SpectrogramEncoder(F, T, 4, (8, 16, 32, 64), 8, np.random.default_rng(0))
        return {name: p.size for name, p in enc.named_parameters()
                if "gate" not in name}

    a = census(129, 61)
    b = census(513, 311)
    assert a == b


def _conv_facts(conv):
    """(stored weight shape, stride) of a Conv2d or Conv1d."""
    return conv.weight.shape, conv.stride


def test_default_model_matches_architecture_tables():
    model = MultiScaleNet(ModelConfig())

    spec = model.spectrogram_encoder
    assert isinstance(spec.se_in, nn.MultiAxisSE)
    assert isinstance(spec.se_stem, nn.MultiAxisSE)
    assert _conv_facts(spec.stem) == ((16, 1, 7, 7), (2, 2))
    # 513x311 spectrogram: 7x7/2 stem, then the 3x3/2 max pool
    assert _gate_hw(spec.se_stem) == (129, 78)
    layers = spec.blocks.layers
    # five stages of residual block, gate, residual block
    assert [type(m) for m in layers] == [nn.ResBlock2d, nn.MultiAxisSE, nn.ResBlock2d] * 5
    res = [(m.conv1.weight.shape[0], m.conv1.weight.shape[2:], m.conv1.stride)
           for m in layers if isinstance(m, nn.ResBlock2d)]
    assert res == [(16, (3, 3), (1, 1)), (16, (3, 3), (1, 1)),
                   (32, (3, 3), (2, 2)), (32, (3, 3), (1, 1)),
                   (64, (3, 3), (2, 2)), (64, (3, 3), (1, 1)),
                   (128, (3, 3), (2, 2)), (128, (3, 3), (1, 1)),
                   (256, (3, 3), (2, 2)), (256, (3, 3), (1, 1))]
    # the global max pool spans the last stage's whole map
    gates = [_gate_hw(m) for m in layers if isinstance(m, nn.MultiAxisSE)]
    assert spec.final_hw == gates[-1] == (9, 5)
    assert len(gates) == 5

    patch = model.patch_branch.encoder
    blocks = [patch.block1, patch.block2, patch.block3]
    assert [_conv_facts(b.conv1) for b in blocks] == [
        ((32, 1, 3, 3), (2, 2)), ((64, 32, 3, 3), (2, 2)), ((64, 64, 3, 3), (1, 1))]
    assert patch.fc1.weight.shape == (1024, 128)
    assert patch.fc2.weight.shape == (256, 1024)

    spectrum = model.spectrum_encoder
    assert [_conv_facts(c) for c in spectrum.convs.layers] == [
        ((128, 1, 256), 64), ((128, 128, 64), 32), ((128, 128, 32), 4)]
    linears = spectrum.linears.layers
    assert len(linears) == 5
    assert [lin.weight.shape[0] for lin in linears] == [128] * 5


# -- batch-norm folding ----------------------------------------------------------------

def _give_norms_state(module, rng):
    """Running statistics and affine parameters far from the identity, so
    that folding them into the conv has something to get wrong."""
    if isinstance(module, nn.BatchNorm2d):
        module.gamma.data = rng.uniform(0.5, 1.5, module.gamma.shape)
        module.beta.data = rng.standard_normal(module.beta.shape)
        module.running_mean[:] = rng.standard_normal(module.running_mean.shape)
        module.running_var[:] = rng.uniform(0.5, 2.0, module.running_var.shape)
    for child in module._modules.values():
        _give_norms_state(child, rng)


def _unfused(conv, bn, x, relu=False, residual=None, *, owns_residual=False):
    """The eval-mode chain on arrays: the conv with the raw weight, then the
    norm by its running statistics, the add and the relu. It takes
    `nn.conv_bn`'s signature; the residual's hand-over changes no value."""
    y = ad.conv2d(x, conv.weight, None, conv.stride, conv.padding).data
    out = (y - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) * bn.gamma.data + bn.beta.data
    if residual is not None:
        out = out + residual.data
    return Tensor(out * (out > 0) if relu else out)


@pytest.mark.parametrize("c_in, c_out, stride", [(3, 3, 1), (2, 4, 2)])
def test_folded_res_block_matches_unfused(c_in, c_out, stride):
    rng = np.random.default_rng(20)
    block = nn.ResBlock2d(c_in, c_out, stride, rng)
    assert (block.proj is None) == (c_in == c_out and stride == 1)
    _give_norms_state(block, rng)
    block.eval()
    x = Tensor(channels_last(rng.standard_normal((3, c_in, 7, 6))))
    with ad.no_grad():
        folded = block(x)
        h = _unfused(block.conv1, block.bn1, x, relu=True)
        shortcut = _unfused(block.proj, block.proj_bn, x) if block.proj is not None else x
        expect = _unfused(block.conv2, block.bn2, h, relu=True, residual=shortcut)
    np.testing.assert_allclose(folded.data, expect.data, rtol=0, atol=1e-12)


def test_folded_stem_matches_unfused(monkeypatch):
    # the whole encoder, stem included, against itself with folding swapped out
    rng = np.random.default_rng(21)
    enc = SpectrogramEncoder(40, 24, 2, (2, 4, 4, 8), 8, rng)
    _give_norms_state(enc, rng)
    enc.eval()
    x = Tensor(rng.uniform(0, 1, (2, 40, 24, 1)))
    with ad.no_grad():
        stem = nn.conv_bn(enc.stem, enc.stem_bn, x)
        folded = enc(x)
        monkeypatch.setattr(nn, "conv_bn", _unfused)
        stem_expect = _unfused(enc.stem, enc.stem_bn, x)
        expect = enc(x)
    np.testing.assert_allclose(stem.data, stem_expect.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(folded.data, expect.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("bias", [False, True])
def test_unrecorded_conv_bn_epilogue_is_the_plain_ops(bias, residual, relu):
    # in place on the conv's output, with the bytes of the array ops; relu
    # turns negatives into -0.0, and the residual cancels some outputs
    # exactly, to +0.0, and adds -0.0 to others
    rng = np.random.default_rng(25)
    conv, bn = nn.Conv2d(3, 4, (3, 3), (1, 1), (1, 1), rng), nn.BatchNorm2d(4)
    if bias:
        _give_norms_state(bn, rng)
    bn.eval()
    x = Tensor(channels_last(rng.standard_normal((2, 3, 6, 5))))
    r = None
    with ad.no_grad():
        plain = nn.conv_bn(conv, bn, x).data
        if residual:
            r = np.where(rng.uniform(size=plain.shape) < 0.3, -plain,
                         rng.standard_normal(plain.shape))
            r[rng.uniform(size=plain.shape) < 0.2] = -0.0
            r = Tensor(r)
        out = nn.conv_bn(conv, bn, x, relu=relu, residual=r)
    assert out._backward is None
    expect = plain if r is None else plain + r.data
    if relu:
        expect = expect * (expect > 0)
    assert out.data.tobytes() == expect.tobytes()
    zeros = out.data[out.data == 0]
    assert np.signbit(zeros).any() == relu and (~np.signbit(zeros)).any() == residual


@pytest.mark.parametrize("recorded", ["x", "residual"])
def test_eval_conv_bn_refuses_a_recorded_input(recorded):
    rng = np.random.default_rng(27)
    conv, bn = nn.Conv2d(3, 4, (3, 3), (1, 1), (1, 1), rng), nn.BatchNorm2d(4)
    _give_norms_state(bn, rng)
    bn.eval()
    x = channels_last(rng.standard_normal((2, 3, 6, 5)))
    r = rng.standard_normal((2, 6, 5, 4))
    expect = nn.conv_bn(conv, bn, Tensor(x), relu=True, residual=Tensor(r))
    assert expect._backward is None     # no input needs a gradient: nothing to refuse
    inputs = {name: Tensor(value, requires_grad=name == recorded)
              for name, value in (("x", x), ("residual", r))}
    with pytest.raises(ValueError, match=r"ad\.no_grad\(\)"):
        nn.conv_bn(conv, bn, inputs["x"], relu=True, residual=inputs["residual"])
    with ad.no_grad():
        out = nn.conv_bn(conv, bn, inputs["x"], relu=True, residual=inputs["residual"])
    assert out._backward is None
    assert out.data.tobytes() == expect.data.tobytes()


def test_unrecorded_conv_bn_epilogue_is_checked():
    rng = np.random.default_rng(26)
    conv, bn = nn.Conv2d(1, 2, (1, 1), rng=rng), nn.BatchNorm2d(2).eval()
    x = Tensor(np.full((1, 2, 2, 1), 1e300))
    r = Tensor(np.full((1, 2, 2, 2), np.finfo(float).max))
    conv.weight.data[:] = 1e8
    ad.set_checked(True)
    try:
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError):
                nn.conv_bn(conv, bn, x, residual=r)
            with ad.no_grad(), pytest.raises(FloatingPointError):
                nn.conv_bn(conv, bn, x, residual=r)
    finally:
        ad.set_checked(False)


@pytest.mark.parametrize("rows", [1, 7, 16])
def test_every_unrecorded_conv_of_a_micro_forward_is_the_whole_block_product(monkeypatch,
                                                                             rows):
    calls, tiled_product = [], ad._tiled_product

    def spy(x, ph, pw, idx, w_t):
        out = tiled_product(x, ph, pw, idx, w_t)
        calls.append((x.copy(), ph, pw, idx, w_t, out.copy()))   # bias, add, relu go in place
        return out

    monkeypatch.setattr(ad, "_tiled_product", spy)
    cfg = micro_preset(0).model
    rng = np.random.default_rng(rows)
    waves = rng.standard_normal((rows, int(cfg.sample_rate * cfg.clip_seconds)))
    with ad.no_grad():
        MultiScaleNet(cfg).eval()(*features_for_batch(waves, cfg))
    several = 0
    for x, ph, pw, idx, w_t, out in calls:
        B, C = x.shape[0], x.shape[3]
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        block = np.take(xp.reshape(B, -1, C), idx, axis=1).reshape(B * idx.shape[0], -1)
        assert out.tobytes() == (block @ w_t).tobytes()
        several += ad._tile_images(idx.shape[0], block.shape[1], w_t.shape[1]) * 2 <= B
    assert len(calls) > 20 and several > 0


# -- patch encoder --------------------------------------------------------------------

def test_patch_encoder_output_dim_shape_invariant():
    rng = np.random.default_rng(4)
    enc = PatchEncoder((2, 4, 4), 16, 32, rng).eval()
    for shape in ((1, 3, 16, 8), (2, 7, 32, 16), (1, 1, 8, 8)):
        out = enc(Tensor(rng.uniform(0, 1, shape)))
        assert out.shape == (shape[0], 16)


def test_patch_encoder_identical_patches_match_single():
    rng = np.random.default_rng(5)
    enc = PatchEncoder((2, 4, 4), 16, 32, rng).eval()
    patch = rng.uniform(0, 1, (16, 8))
    single = enc(Tensor(patch[None, None]))
    repeated = enc(Tensor(np.tile(patch[None, None], (1, 5, 1, 1))))
    np.testing.assert_allclose(repeated.data, single.data, atol=1e-12)


def test_patch_encoder_gradient_through_stats_pool():
    rng = np.random.default_rng(6)
    enc = PatchEncoder((2, 2, 2), 4, 8, rng)
    x = Tensor(rng.uniform(0.1, 1, (1, 2, 8, 8)), requires_grad=True)
    leaves = [x] + enc.parameters()
    check_gradients(lambda: (enc(x) ** 2).sum(), leaves, tol=2e-3)


# -- multi-scale branch ---------------------------------------------------------------

def test_single_kernel_branch_is_encoder_plus_linear():
    cfg = tiny_cfg(kernels=(KernelBox(16, 8),))
    model = MultiScaleNet(cfg).eval()
    spec = np.random.default_rng(7).uniform(0, 1, (1, cfg.freq_bins, cfg.frames))
    plans = model.patch_branch.plans
    assert len(plans) == 1
    p = plans[0]
    stack = Tensor(scan_array(spec[0], p.box.h, p.box.w, p.f_positions, p.t_positions)[None])
    with ad.no_grad():
        emb = model.patch_branch.encoder(stack)
        merged = model.patch_branch.merge(emb).relu()
        full = model.patch_branch(spec)
    np.testing.assert_array_equal(full.data, merged.data)


def test_kernel_permutation_equivalence():
    # permuting the kernel list while permuting the merge blocks the same
    # way must leave the branch output unchanged
    cfg_a = tiny_cfg()
    cfg_b = tiny_cfg(kernels=tuple(reversed(cfg_a.kernels)))
    model_a = MultiScaleNet(cfg_a).eval()
    model_b = MultiScaleNet(cfg_b).eval()

    state = model_a.state_dict()
    d = cfg_a.patch_embed_dim
    merge_w = state["param/patch_branch.merge.weight"]
    state["param/patch_branch.merge.weight"] = np.concatenate(
        [merge_w[:, d:], merge_w[:, :d]], axis=1)
    model_b.load_state_dict(state)

    spec = np.random.default_rng(8).uniform(0, 1, (2, cfg_a.freq_bins, cfg_a.frames))
    with ad.no_grad():
        out_a = model_a.patch_branch(spec)
        out_b = model_b.patch_branch(spec)
    np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)


def test_patch_cells_count_the_stacks_the_branch_builds(monkeypatch):
    cfg = micro_preset(seed=2).model
    model = MultiScaleNet(cfg).eval()
    sizes = []

    def spy(*args):
        stack = scan_array(*args)
        sizes.append(stack.size)
        return stack

    monkeypatch.setattr(network, "scan_array", spy)
    B = 3
    waves = np.random.default_rng(9).uniform(-0.5, 0.5, (B, cfg.clip_samples))
    with ad.no_grad():
        model(*features_for_batch(waves, cfg))
    plans = model.patch_branch.plans
    assert sizes == [B * p.patch_cells for p in plans]


def test_patch_encoder_param_count_independent_of_kernel_count():
    counts = {}
    for kernels in [(KernelBox(16, 8),),
                    (KernelBox(16, 8), KernelBox(32, 8), KernelBox(32, 16)),
                    tuple(KernelBox(h, w) for h in (8, 16, 32) for w in (4, 8, 16, 24))]:
        cfg = tiny_cfg(kernels=kernels, stft_window=78, stft_hop=39)
        model = MultiScaleNet(cfg)
        counts[len(model.patch_branch.plans)] = (
            model.patch_branch.encoder.parameter_count(),
            model.patch_branch.merge.weight.size,
        )
    encoder_counts = {v[0] for v in counts.values()}
    merge_sizes = [counts[k][1] for k in sorted(counts)]
    assert len(encoder_counts) == 1
    assert merge_sizes == sorted(merge_sizes) and len(set(merge_sizes)) == len(merge_sizes)


# -- spectrum encoder ------------------------------------------------------------------

def test_spectrum_encoder_default_length_chain():
    enc = SpectrumEncoder(80001, (128, 128, 128), (256, 64, 32), (64, 32, 4),
                          128, 5, np.random.default_rng(9))
    assert enc.flat_dim == 128 * 2  # conv lengths 1247 -> 37 -> 2
    out = enc(Tensor(np.random.default_rng(10).uniform(0, 1, (1, 80001))))
    assert out.shape == (1, 128)


def test_spectrum_encoder_too_short_is_config_error():
    with pytest.raises(ConfigError):
        SpectrumEncoder(256, (128, 128, 128), (256, 64, 32), (64, 32, 4),
                        128, 5, np.random.default_rng(11))


def test_spectrum_encoder_zero_input_deterministic():
    enc = SpectrumEncoder(488, (4, 4), (64, 16), (16, 4), 8, 2,
                          np.random.default_rng(12))
    a = enc(Tensor(np.zeros((1, 488))))
    b = enc(Tensor(np.zeros((1, 488))))
    np.testing.assert_array_equal(a.data, b.data)
    assert np.all(np.isfinite(a.data))


# -- full forward ------------------------------------------------------------------------

def test_default_config_embed_dim_640():
    model = MultiScaleNet(ModelConfig())
    assert model.embed_dim == 256 + 256 + 128 == 640
    assert len(model.patch_branch.plans) == 12


def test_features_for_batch_equal_a_per_clip_fft_reference():
    cfg = micro_preset(seed=2).model
    waves = np.random.default_rng(12).uniform(-0.5, 0.5, (5, cfg.clip_samples))
    specs, spectra = features_for_batch(waves, cfg)
    window, hop, n = cfg.stft_window, cfg.stft_hop, cfg.clip_samples
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    ref_specs, ref_spectra = [], []
    for wave in waves:
        frames = np.stack([wave[s:s + window] * hann for s in range(0, n - window + 1, hop)])
        ref_specs.append(np.abs(np.fft.rfft(frames, axis=1)).T)
        ref_spectra.append(np.abs(np.fft.rfft(wave)) / n)
    ref_specs, ref_spectra = np.stack(ref_specs), np.stack(ref_spectra)
    assert specs.shape == (5, cfg.freq_bins, cfg.frames)
    assert spectra.shape == (5, cfg.spectrum_bins)
    assert np.array_equal(specs, ref_specs)
    assert np.array_equal(spectra, ref_spectra)
    # the memory layout too: the spectrogram encoder's sums depend on it, so
    # equal values in another layout train other bytes
    assert specs.strides == ref_specs.strides


@pytest.mark.parametrize("training", [False, True])
def test_embedding_bytes_do_not_depend_on_the_input_layout(training):
    cfg = micro_preset(seed=2).model
    model = MultiScaleNet(cfg).train(training)
    waves = np.random.default_rng(15).uniform(-0.5, 0.5, (3, cfg.clip_samples))
    specs, spectra = features_for_batch(waves, cfg)
    # a training-mode forward records the tape, as a training step does
    with contextlib.nullcontext() if training else ad.no_grad():
        reference = model(specs, spectra).data
        for order in "CF":
            got = model(np.array(specs, order=order), np.array(spectra, order=order)).data
            assert np.array_equal(got, reference), order


def test_micro_training_forward_tape_stays_under_64_mib():
    # One 16-clip training forward of the micro preset holds 59.7 MB (56.9
    # MiB) of tape, traced with tracemalloc. Keeping every x_hat and the
    # stats pool's centred copy and giving each projection block a fresh
    # output array held 85.4 MB (81.5 MiB); the bound sits between the two.
    import tracemalloc

    cfg = micro_preset(0).model
    model = MultiScaleNet(cfg)
    assert model.training
    waves = np.random.default_rng(0).standard_normal((16, cfg.clip_samples)) * 0.1
    specs, spectra = features_for_batch(waves, cfg)
    model(specs, spectra).sum().backward()    # builds the gather indices and tile buffer

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = model(specs, spectra)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    out.sum().backward()
    assert held < 64 << 20, held / 2 ** 20


def test_forward_unit_norm_and_determinism():
    cfg = micro_preset(seed=2).model
    model = MultiScaleNet(cfg).eval()
    rng = np.random.default_rng(13)
    waves = rng.uniform(-0.5, 0.5, (3, cfg.clip_samples))
    specs, spectra = features_for_batch(waves, cfg)
    with ad.no_grad():
        out1 = model(specs, spectra)
        out2 = model(specs, spectra)
    np.testing.assert_allclose(np.linalg.norm(out1.data, axis=1), 1.0, atol=1e-9)
    np.testing.assert_array_equal(out1.data, out2.data)
    # different clips separate under random init
    assert np.linalg.norm(out1.data[0] - out1.data[1]) > 1e-6


def test_waveform_scaling_never_nan():
    cfg = tiny_cfg()
    model = MultiScaleNet(cfg).eval()
    rng = np.random.default_rng(14)
    base = rng.uniform(-0.5, 0.5, cfg.clip_samples)
    ad.set_checked(True)
    embeddings = []
    try:
        for scale in (1e-3, 1.0, 1e3):
            specs, spectra = features_for_batch((scale * base)[None], cfg)
            with ad.no_grad():
                out = model(specs, spectra)
            assert np.all(np.isfinite(out.data))
            embeddings.append(out.data[0])
    finally:
        ad.set_checked(False)
    assert np.linalg.norm(embeddings[0] - embeddings[2]) > 1e-9


def test_oversized_kernels_are_skipped_with_warning():
    cfg = tiny_cfg(kernels=(KernelBox(16, 8), KernelBox(256, 64)))
    with pytest.warns(UserWarning):
        model = MultiScaleNet(cfg)
    assert [str(p.box) for p in model.patch_branch.plans] == ["16x8"]


def test_end_to_end_micro_gradient_check():
    # spot-check a few entries of every parameter tensor at a 40x24 config
    from soundscan.training import SubClusterHead, adacos_loss

    cfg = tiny_cfg()
    model = MultiScaleNet(cfg)
    model.train()
    head = SubClusterHead(2, cfg.subclusters, model.embed_dim,
                          np.random.default_rng(20))
    rng = np.random.default_rng(21)
    spec = rng.uniform(0, 1, (2, cfg.freq_bins, cfg.frames))
    spectrum = rng.uniform(0, 1, (2, cfg.spectrum_bins))
    targets = np.array([[1.0, 0.0], [0.0, 1.0]])

    params = model.parameters() + head.parameters()

    def build():
        return adacos_loss(model(spec, spectrum), targets, head, update_scale=False)

    loss = build()
    for p in params:
        p.grad = None
    loss.backward()

    def central_diff(flat, i, eps):
        orig = flat[i]
        flat[i] = orig + eps
        hi = build().item()
        flat[i] = orig - eps
        lo = build().item()
        flat[i] = orig
        return (hi - lo) / (2 * eps)

    worst = 0.0
    probe = np.random.default_rng(22)
    for p in params:
        flat = p.data.reshape(-1)
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for i in probe.choice(flat.size, size=min(3, flat.size), replace=False):
            numeric = central_diff(flat, i, 1e-4)
            err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1.0)
            if err >= 1e-3:
                # the 1e-4 stencil straddles a relu/pool kink here; re-probe
                # closer to the point before calling it a mismatch
                numeric = central_diff(flat, i, 1e-6)
                err = abs(gflat[i] - numeric) / max(abs(gflat[i]), abs(numeric), 1.0)
            worst = max(worst, err)
    assert worst < 1e-3, f"end-to-end gradient mismatch: {worst:.2e}"
