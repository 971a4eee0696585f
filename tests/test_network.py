"""Network assembly: axis gating, the three encoders, fusion, weight sharing."""

import numpy as np
import pytest

from gradcheck import channels_last, check_gradients

from soundscan import autodiff as ad
from soundscan import nn
from soundscan.autodiff import Tensor
from soundscan.config import ModelConfig, micro_preset
from soundscan.errors import ConfigError
from soundscan.network import (MultiScaleNet, PatchEncoder, SpectrogramEncoder,
                               SpectrumEncoder, features_for_batch)
from soundscan.scanning import KernelBox


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

def test_spectrogram_encoder_stage_trace_default_dims():
    enc = SpectrogramEncoder(513, 311, 16, (32, 64, 128, 256), 8,
                             np.random.default_rng(0))
    assert enc.spatial_trace == ((257, 156), (129, 78), (65, 39), (33, 20),
                                 (17, 10), (9, 5))
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
    assert spec.spatial_trace[:2] == ((257, 156), (129, 78))
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
    assert spec.final_hw == spec.spatial_trace[-1] == (9, 5)
    assert len(spec.spatial_trace) == 6

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
    for name, child in module._modules.items():
        if isinstance(child, nn.BatchNorm2d):
            child.gamma.data = rng.uniform(0.5, 1.5, child.gamma.shape)
            child.beta.data = rng.standard_normal(child.beta.shape)
            child.running_mean[:] = rng.standard_normal(child.running_mean.shape)
            child.running_var[:] = rng.uniform(0.5, 2.0, child.running_var.shape)
        else:
            _give_norms_state(child, rng)


def _unfused(conv, bn, x):
    return ad.batch_norm2d(ad.conv2d(x, conv.weight, conv.bias, conv.stride, conv.padding),
                           bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                           training=False, eps=bn.eps)


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
        out = _unfused(block.conv2, block.bn2, _unfused(block.conv1, block.bn1, x).relu())
        shortcut = _unfused(block.proj, block.proj_bn, x) if block.proj is not None else x
        expect = (out + shortcut).relu()
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


def test_folded_block_gradients_reach_weight_gamma_beta():
    rng = np.random.default_rng(22)
    block = nn.ResBlock2d(2, 3, 2, rng)
    _give_norms_state(block, rng)
    block.eval()
    x = Tensor(channels_last(rng.standard_normal((2, 2, 5, 5))), requires_grad=True)
    leaves = [x] + block.parameters()
    check_gradients(lambda: (block(x) ** 2).sum(), leaves)
    for name, p in block.named_parameters():
        assert np.any(p.grad != 0), f"no gradient reached {name}"


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
    stacks = model.scan_batch(spec)
    assert len(stacks) == 1
    with ad.no_grad():
        emb = model.patch_branch.encoder(stacks[0])
        merged = model.patch_branch.merge(emb).relu()
        full = model.patch_branch(stacks)
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
        out_a = model_a.patch_branch(model_a.scan_batch(spec))
        out_b = model_b.patch_branch(model_b.scan_batch(spec))
    np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)


def test_patch_encoder_param_count_independent_of_kernel_count():
    counts = {}
    for kernels in [(KernelBox(16, 8),),
                    (KernelBox(16, 8), KernelBox(32, 8), KernelBox(32, 16)),
                    tuple(KernelBox(h, w) for h in (8, 16, 32) for w in (4, 8, 16, 24))]:
        cfg = tiny_cfg(kernels=kernels, stft_window=78, stft_hop=39)
        model = MultiScaleNet(cfg)
        counts[len(model.kernels)] = (
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
    assert len(model.kernels) == 12


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
    assert [str(k) for k in model.kernels] == ["16x8"]


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
