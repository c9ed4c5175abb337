"""Zero-outage feedback scheme: completion algebra and end-to-end runs."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from jacobi_fading import feedback
from jacobi_fading.ensembles import ChannelDims
from jacobi_fading.errors import NumericalError
from jacobi_fading.feedback import (
    SchemeConfig,
    complete_unitary,
    run_feedback_scheme,
)
from jacobi_fading.philox import stream_key, uniforms
from jacobi_fading.simulate import channel_blocks, qpsk_bit_error

DIMS_223 = ChannelDims(2, 2, 3)


def channels(dims, n, seed):
    """n channel blocks H11 of dims, trials [0, n) of stream (seed, "channels")."""
    return channel_blocks(dims, stream_key(seed, "channels"), 0, n)


def test_completion_builds_isometry():
    for h11 in channels(DIMS_223, 1000, 0):
        h21 = complete_unitary(h11, DIMS_223)
        stacked = np.vstack([h11, h21])
        assert np.max(np.abs(stacked.conj().T @ stacked - np.eye(2))) < 1e-10


def test_completion_trace_identity():
    for h11 in channels(DIMS_223, 200, 1):
        h21 = complete_unitary(h11, DIMS_223)
        want = 2.0 - np.sum(np.abs(h11) ** 2)
        assert np.sum(np.abs(h21) ** 2) == pytest.approx(want, abs=1e-10)


def test_completion_is_deterministic():
    h11 = channels(DIMS_223, 1, 2)[0]
    assert np.array_equal(complete_unitary(h11, DIMS_223), complete_unitary(h11, DIMS_223))


def test_completion_degenerate_no_rows():
    # mr = m: the block already has orthonormal columns, completion is empty
    dims = ChannelDims(2, 3, 3)
    h11 = channels(dims, 1, 3)[0]
    h21 = complete_unitary(h11, dims)
    assert h21.shape == (0, 2)


def test_completion_rejects_impossible_input():
    from jacobi_fading.errors import NumericalError

    dims = ChannelDims(2, 2, 3)
    bad = np.zeros((2, 2), dtype=complex)  # residual rank 2 > m - mr = 1
    with pytest.raises(NumericalError):
        complete_unitary(bad, dims)
    with pytest.raises(ValueError):
        complete_unitary(np.zeros((2, 2), dtype=complex), ChannelDims(2, 2, 4))


def test_completion_of_a_stack_matches_single_blocks():
    dims = ChannelDims(3, 3, 4)
    h11 = channels(dims, 50, 4)
    stack = complete_unitary(h11, dims)
    assert stack.shape == (50, 1, 3)
    singles = np.stack([complete_unitary(h, dims) for h in h11])
    assert np.max(np.abs(stack - singles)) < 1e-14
    assert np.array_equal(complete_unitary(h11, dims), stack)
    # each row's largest entry sits on the positive real axis
    pivots = np.take_along_axis(stack, np.argmax(np.abs(stack), axis=2)[:, :, None], axis=2)
    assert np.all(pivots.real > 0.0) and np.all(np.abs(pivots.imag) < 1e-15)


def test_completion_rejects_any_bad_block_in_a_stack():
    h11 = np.repeat(channels(DIMS_223, 1, 5), 3, axis=0)
    h11[1] = 0.0  # residual rank 2 > m - mr = 1
    with pytest.raises(NumericalError):
        complete_unitary(h11, DIMS_223)
    with pytest.raises(ValueError):
        complete_unitary(h11[None], DIMS_223)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dims=ChannelDims(2, 2, 4))  # k = 0
    with pytest.raises(ValueError):
        SchemeConfig(dims=DIMS_223, n_uses=5, delay=5)
    with pytest.raises(ValueError):
        SchemeConfig(dims=DIMS_223, rho=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(dims=DIMS_223, modulation="qam")


@pytest.mark.parametrize(
    "bad",
    [
        {"rho": math.nan},
        {"rho": math.inf},
        {"rho": -math.inf},
        {"rho": "10"},
        {"rho": True},
        {"fresh_channel_each_use": "no"},
        {"fresh_channel_each_use": 1},
        {"n_uses": 20.5},
        {"n_uses": 20.0},
        {"n_uses": True},
        {"delay": True},
        {"delay": 1.5},
        {"master_seed": 1.5},
        {"master_seed": True},
        {"master_seed": "3"},
        {"dims": (2, 2, 3)},
    ],
)
def test_scheme_config_rejects_non_finite_snr_and_non_integer_counts(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        SchemeConfig(**{"dims": DIMS_223, **bad})


def test_scheme_config_accepts_numpy_integers():
    cfg = SchemeConfig(
        dims=DIMS_223, n_uses=np.int64(20), delay=np.int32(2), fresh_channel_each_use=np.False_
    )
    assert run_feedback_scheme(cfg).trace.transmitted.shape == (20, 2)


def test_scheme_delivers_unfaded_streams():
    rep = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=1000, delay=1, rho=10.0))
    assert np.all(np.abs(rep.per_stream_snr - 10.0) < 0.2)
    assert rep.noise_cov_error < 0.05
    assert np.all(np.abs(rep.per_mode_power - 1.0) < 0.03)
    assert rep.overhead_uses == 1 * 2 * 1  # l * mt * (m - mr)
    assert rep.achieved_rate <= math.log2(11.0)
    assert rep.achieved_rate == pytest.approx(math.log2(11.0) * 1000 / 1002, rel=1e-12)
    assert rep.min_closing_gain >= 1.0 - 1e-9


def test_scheme_first_uses_relay_zeros():
    rep = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=50, delay=3, rho=10.0))
    assert np.all(rep.trace.relay_content[:3] == 0.0)
    assert np.any(rep.trace.relay_content[3:] != 0.0)


def test_scheme_ber_matches_scalar_awgn():
    rep = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=4000, delay=1, rho=10.0))
    p = float(qpsk_bit_error(10.0))
    n_bits = 2 * 4000
    assert abs(rep.ber - p) < 3 * math.sqrt(p * (1 - p) / n_bits)


def test_scheme_delay_only_changes_overhead():
    reports = {
        l: run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=1000, delay=l, rho=10.0))
        for l in (1, 2, 4)
    }
    snrs = [reports[l].per_stream_snr[0] for l in (1, 2, 4)]
    assert max(snrs) - min(snrs) < 0.01 * 10.0
    assert [reports[l].overhead_uses for l in (1, 2, 4)] == [2, 4, 8]


def test_scheme_stream_noise_cross_correlation():
    dims = ChannelDims(3, 3, 4)  # k = 2 parallel streams
    rep = run_feedback_scheme(SchemeConfig(dims=dims, n_uses=4000, delay=2, rho=10.0))
    assert rep.stream_noise_max_cross_corr < 0.05
    assert np.all(np.abs(rep.per_stream_snr - 10.0) < 0.2)


def test_scheme_two_streams_high_snr_ber():
    rho = 10.0 ** 1.5  # 15 dB: the unfaded closed form is ~1e-8
    rep = run_feedback_scheme(
        SchemeConfig(dims=ChannelDims(3, 3, 4), n_uses=800, delay=3, rho=rho)
    )
    p = float(qpsk_bit_error(rho))
    n_bits = 2 * 2 * 800
    assert abs(rep.ber - p) < 3 * math.sqrt(p * (1 - p) / n_bits) + 1e-12


def test_scheme_mutual_information_supports_rate():
    for l in (1, 4):
        rep = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=1000, delay=l, rho=10.0))
        floor = 0.95 * math.log2(11.0) * (1 - rep.overhead_uses / 1000)
        assert rep.mutual_information_per_use >= floor
        assert rep.mutual_information_per_use >= rep.achieved_rate - 1e-9


def test_scheme_gaussian_modulation():
    rep = run_feedback_scheme(
        SchemeConfig(dims=DIMS_223, n_uses=500, delay=1, rho=10.0, modulation="gaussian")
    )
    assert rep.ber is None
    assert np.all(np.abs(rep.per_mode_power - 1.0) < 1e-9)
    assert np.all(np.abs(rep.per_stream_snr - 10.0) < 0.2)


def test_scheme_hold_channel_mode():
    rep = run_feedback_scheme(
        SchemeConfig(dims=DIMS_223, n_uses=300, delay=1, rho=10.0, fresh_channel_each_use=False)
    )
    assert np.all(rep.trace.channels[0] == rep.trace.channels[-1])
    assert np.all(np.abs(rep.per_stream_snr - 10.0) < 0.2)


def test_scheme_reproducible():
    cfg = SchemeConfig(dims=DIMS_223, n_uses=200, delay=1, rho=10.0, master_seed=9)
    a = run_feedback_scheme(cfg)
    b = run_feedback_scheme(cfg)
    assert np.array_equal(a.per_stream_snr, b.per_stream_snr)
    assert a.ber == b.ber and a.noise_cov_error == b.noise_cov_error


def test_per_mode_power_report():
    rep = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=1000, delay=1, rho=10.0))
    assert np.all(np.abs(rep.per_mode_power - 1.0) < 1e-12)
    # QPSK new-symbol slots have |x| = 1 exactly, so the realized power of
    # mode 0 is exactly 1 too
    assert rep.per_mode_power_empirical[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.per_mode_power_empirical[1] - 1.0) < 0.15


@pytest.mark.parametrize("dims", [DIMS_223, ChannelDims(4, 4, 6)])
def test_qpsk_symbols_are_k_bit_pairs_per_use(dims):
    # each use reads 2k uniforms of the symbols stream, one bit each
    seed, n = 5, 120
    rep = run_feedback_scheme(SchemeConfig(dims=dims, n_uses=n, delay=2, master_seed=seed))
    bits = uniforms(stream_key(seed, "feedback:symbols"), 0, n, 2 * dims.k) > 0.5
    want = ((2.0 * bits[:, 0::2] - 1.0) + 1j * (2.0 * bits[:, 1::2] - 1.0)) / math.sqrt(2.0)
    assert rep.trace.new_symbols.shape == (n, dims.k)
    assert np.array_equal(rep.trace.new_symbols, want)


def _reference_frame(cfg):
    """The scheme one channel use at a time, fed the batched run's own draws.

    This is the per-use algorithm the batched recurrences replace: each use
    completes its block, relays the l-uses-old vector with its exact
    conditional covariance, pads the relay slots to unit power, and the
    receiver peels backwards one use at a time.
    """
    d = feedback._draw_frame(cfg)
    dims, n, l, rho = cfg.dims, cfg.n_uses, cfg.delay, cfg.rho
    mt, mr, k = dims.mt, dims.mr, dims.k
    s = dims.m - mr
    sqrt_rho = math.sqrt(rho)

    channels = np.empty((n, mr, mt), dtype=complex)
    completions = np.empty((n, s, mt), dtype=complex)
    xs = np.empty((n, mt), dtype=complex)
    ys = np.empty((n, mr), dtype=complex)
    relay_content = np.zeros((n, s), dtype=complex)
    dither = np.zeros((n, s), dtype=complex)
    cond_power = np.empty((n, mt))
    sigmas = np.empty((n, mt, mt), dtype=complex)
    for i in range(n):
        h11 = d.channels[i if cfg.fresh_channel_each_use else 0]
        h21 = complete_unitary(h11, dims)
        channels[i] = h11
        completions[i] = h21
        if i >= l:
            w_rel = completions[i - l] @ xs[i - l]
            c_rel = completions[i - l] @ sigmas[i - l] @ completions[i - l].conj().T
        else:
            w_rel = np.zeros(s, dtype=complex)
            c_rel = np.zeros((s, s), dtype=complex)
        relay_content[i] = w_rel
        pad_var = 1.0 - np.diag(c_rel).real
        pad_var[pad_var < 64 * np.finfo(float).eps] = 0.0  # rounding residue on a unit-norm row
        pad = np.sqrt(pad_var) * d.dither[i]
        dither[i] = pad
        sigma = np.zeros((mt, mt), dtype=complex)
        sigma[:k, :k] = np.eye(k)
        sigma[k:, k:] = c_rel + np.diag(pad_var)
        sigmas[i] = sigma
        cond_power[i] = np.diag(sigma).real
        x = np.concatenate([d.symbols[i], w_rel + pad])
        xs[i] = x
        ys[i] = sqrt_rho * h11 @ x + d.noise[i]

    side_meas = [None] * n
    side_cov = [None] * n
    for j in range(n - l, n):
        w_close = completions[j] @ xs[j]
        meas = np.zeros(s, dtype=complex)
        var = np.zeros(s)
        for e in range(s):
            window = (j - (n - l)) * s + e
            hc = d.closing_channels[window]
            gain = float(np.sum(np.abs(hc) ** 2))
            combined_noise = complex(np.einsum("ij,ji->", hc.conj(), d.closing_noise[window]))
            meas[e] = sqrt_rho * w_close[e] + combined_noise / gain
            var[e] = 1.0 / gain
        side_meas[j] = meas
        side_cov[j] = np.diag(var)

    stream_meas = np.empty((n, k), dtype=complex)
    cond_cov_sum = np.zeros((mt, mt), dtype=complex)
    cond_var_stream = np.empty((n, k))
    for i in range(n - 1, -1, -1):
        v = side_meas[i] if s else np.zeros(0, dtype=complex)
        cov_v = side_cov[i] if s else np.zeros((0, 0))
        h11, h21 = channels[i], completions[i]
        y_tilde = h11.conj().T @ ys[i] + h21.conj().T @ v
        cov_z = h11.conj().T @ h11 + h21.conj().T @ (cov_v @ h21)
        stream_meas[i] = y_tilde[:k]
        cond_var_stream[i] = np.diag(cov_z).real[:k]
        cond_cov_sum += cov_z
        if i >= l:
            side_meas[i - l] = y_tilde[k:] - sqrt_rho * dither[i]
            side_cov[i - l] = cov_z[k:, k:]

    ber = None
    if cfg.modulation == "qpsk":
        sent, meas = d.symbols.ravel(), stream_meas.ravel()
        bit_errs = np.sum(np.sign(meas.real) != np.sign(sent.real))
        bit_errs += np.sum(np.sign(meas.imag) != np.sign(sent.imag))
        ber = float(bit_errs / (2 * len(sent)))
    trace = feedback.FrameTrace(
        channels=channels,
        completions=completions,
        transmitted=xs,
        new_symbols=d.symbols,
        relay_content=relay_content,
        dither=dither,
        cond_mode_power=cond_power,
    )
    return SimpleNamespace(
        per_stream_snr=rho / np.mean(cond_var_stream, axis=0),
        noise_cov_error=float(np.max(np.abs(cond_cov_sum / n - np.eye(mt)))),
        ber=ber,
        trace=trace,
        sigmas=sigmas,
    )


TRACE_FIELDS = (
    "channels", "completions", "transmitted", "new_symbols",
    "relay_content", "dither", "cond_mode_power",
)


REFERENCE_CASES = [
    (DIMS_223, {"delay": 1}),
    (DIMS_223, {"delay": 4}),
    (DIMS_223, {"delay": 1, "fresh_channel_each_use": False}),
    (DIMS_223, {"delay": 4, "fresh_channel_each_use": False}),
    (DIMS_223, {"delay": 1, "modulation": "gaussian"}),
    (ChannelDims(3, 3, 4), {"delay": 4}),  # k = 2
    (ChannelDims(3, 3, 4), {"delay": 1}),
    (ChannelDims(4, 4, 6), {"delay": 2}),  # s = 2 relay slots
    (ChannelDims(3, 2, 4), {"delay": 3}),  # mt != mr, s = 2
    (ChannelDims(2, 3, 3), {"delay": 2}),  # mr = m: no completion rows, no closing
]


@pytest.mark.parametrize("dims, overrides", REFERENCE_CASES)
def test_batched_frame_matches_per_use_reference(dims, overrides):
    # 203 uses: not a multiple of 4, so the last forward and first backward blocks are partial
    cfg = SchemeConfig(dims=dims, n_uses=203, rho=10.0, master_seed=17, **overrides)
    got = run_feedback_scheme(cfg)
    want = _reference_frame(cfg)
    np.testing.assert_allclose(got.per_stream_snr, want.per_stream_snr, rtol=0, atol=1e-12)
    assert abs(got.noise_cov_error - want.noise_cov_error) < 1e-12
    assert got.ber == want.ber
    for name in TRACE_FIELDS:
        np.testing.assert_allclose(
            getattr(got.trace, name), getattr(want.trace, name), rtol=0, atol=1e-12, err_msg=name
        )


@pytest.mark.parametrize("dims, overrides", REFERENCE_CASES)
def test_per_use_covariance_is_identity(dims, overrides):
    # the batched frame takes every use's conditional covariance to be I in
    # closed form; the per-use algorithm carries it through the recurrence
    cfg = SchemeConfig(dims=dims, n_uses=203, rho=10.0, master_seed=17, **overrides)
    sigmas = _reference_frame(cfg).sigmas
    assert np.max(np.abs(sigmas - np.eye(dims.mt))) < 1e-12


@pytest.mark.parametrize("dims", [ChannelDims(3, 2, 4), ChannelDims(4, 2, 4), ChannelDims(5, 4, 6)])
def test_null_space_relay_slots_carry_no_pad(dims):
    # mt > mr: the top mt - mr completion rows span the null space of H11 and
    # have unit norm, so their relay slots need no pad at all
    delay, null = 3, dims.mt - dims.mr
    rep = run_feedback_scheme(SchemeConfig(dims=dims, n_uses=200, delay=delay, master_seed=4))
    dither = rep.trace.dither
    assert np.all(dither[delay:, :null] == 0.0)
    assert np.all(dither[:delay] != 0.0)  # the first uses relay nothing: unit-variance pad
    assert np.all(dither[delay:, null:] != 0.0)
    assert np.all(rep.trace.cond_mode_power == 1.0)


def _sequential_scan(g, vec, l):
    x = np.zeros_like(vec)
    prefix = g.copy()
    for r in range(len(vec)):
        x[r] = vec[r] + (g[r] @ x[r - l] if r >= l else 0.0)
        if r >= l:
            prefix[r] = g[r] @ prefix[r - l]
    return x, prefix


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize(
    "n, l",
    [(l + 1, l) for l in (1, 3, 4, 7)] + [(n, l) for n in (203, 1000) for l in (1, 3, 4, 7, n - 1)],
)
@pytest.mark.parametrize("identity_seeds", [False, True])
def test_affine_scan_matches_sequential_loop(s, n, l, identity_seeds):
    rng = np.random.default_rng(1000 * s + n + l)

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = cn(n, s, s)
    g *= rng.uniform(0.0, 1.0, (n, 1, 1)) / np.linalg.norm(g, ord=2, axis=(1, 2))[:, None, None]
    if identity_seeds:  # the backward peeling's seed rows: prefix products start at I
        g[:l] = np.eye(s)
    vec = cn(n, s)
    before = [g.copy(), vec.copy()]
    got_x, got_prefix = feedback._affine_scan(g, vec, l)
    assert all(np.array_equal(a, b) for a, b in zip((g, vec), before))  # the inputs are left untouched
    want_x, want_prefix = _sequential_scan(g, vec, l)
    assert np.max(np.abs(got_x - want_x)) < 1e-13
    assert np.max(np.abs(got_prefix - want_prefix)) < 1e-13


@pytest.mark.parametrize("delay", [1, 4])
def test_use_variates_depend_on_position_only(delay):
    short = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=100, delay=delay, master_seed=3))
    long = run_feedback_scheme(SchemeConfig(dims=DIMS_223, n_uses=200, delay=delay, master_seed=3))
    for name in ("channels", "completions", "transmitted"):
        assert np.array_equal(getattr(short.trace, name), getattr(long.trace, name)[:100]), name


def test_both_ends_compute_the_same_completion():
    rep = run_feedback_scheme(SchemeConfig(dims=ChannelDims(4, 4, 6), n_uses=300, delay=2))
    # the receiver recomputes the completions from the channel blocks alone
    receiver = complete_unitary(rep.trace.channels, ChannelDims(4, 4, 6))
    assert np.array_equal(receiver, rep.trace.completions)

