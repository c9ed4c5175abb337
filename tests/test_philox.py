"""Counter-based stream: layout on numpy's Philox, batch independence, moments."""

import numpy as np

from jacobi_fading import philox


def test_trial_blocks_are_contiguous_numpy_philox_ranges():
    # trial t owns blocks [t*B, (t+1)*B) of numpy's Philox stream, B = n/4
    key = philox.stream_key(123, "somewhere")
    # a uint64 array: numpy reads a tuple of ints >= 2**63 through float64
    np_key = np.array(key, dtype=np.uint64)
    for lo, hi, n in ((0, 5, 8), (7, 19, 4), (2**40, 2**40 + 3, 12)):
        raw = np.random.Philox(key=np_key, counter=lo * n // 4).random_raw((hi - lo) * n)
        ref = ((raw.reshape(hi - lo, n) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        assert np.array_equal(philox.uniforms(key, lo, hi, n), ref)


def test_trial_padding_words_are_dropped():
    # n = 6 rounds up to B = 2 blocks per trial; the last 2 words are unused
    key = philox.stream_key(5, "pad")
    padded = philox.uniforms(key, 3, 10, 8)
    assert np.array_equal(philox.uniforms(key, 3, 10, 6), padded[:, :6])


def test_stream_key_depends_on_seed_and_tag():
    assert philox.stream_key(0, "a") != philox.stream_key(1, "a")
    assert philox.stream_key(0, "a") != philox.stream_key(0, "b")
    assert philox.stream_key(7, "tag") == philox.stream_key(7, "tag")


def test_trial_streams_independent_of_batch_boundaries():
    key = philox.stream_key(0, "batch")
    whole = philox.complex_normals(key, 0, 100, 6)
    first = philox.complex_normals(key, 0, 37, 6)
    rest = philox.complex_normals(key, 37, 100, 6)
    assert np.array_equal(whole, np.vstack([first, rest]))


def test_uniforms_in_half_open_unit_interval():
    u = philox.uniforms(philox.stream_key(3, "u"), 0, 2000, 16)
    assert u.shape == (2000, 16)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert abs(u.mean() - 0.5) < 0.005


def test_complex_normals_moments():
    z = philox.complex_normals(philox.stream_key(11, "z"), 0, 40000, 4)
    flat = z.ravel()
    n = len(flat)
    assert abs(np.mean(np.abs(flat) ** 2) - 1.0) < 5.0 / np.sqrt(n)
    assert abs(np.mean(flat.real ** 2) - 0.5) < 4.0 / np.sqrt(n)
    assert abs(np.mean(flat.imag ** 2) - 0.5) < 4.0 / np.sqrt(n)
    assert abs(np.mean(flat)) < 4.0 / np.sqrt(n)
    # circular symmetry: E[z^2] = 0
    assert abs(np.mean(flat**2)) < 4.0 / np.sqrt(n)
