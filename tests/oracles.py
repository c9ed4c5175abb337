"""Reference samplers and statistics that only the tests read.

``ks_distance`` is the two-sample Kolmogorov-Smirnov statistic the
distribution tests compare samples with.  ``sample_jacobi_spectra_wishart``
builds Jacobi spectra the textbook way, from a pair of complex Wishart
matrices, as an independent check on the truncated-Haar channel draw
(acceptance criterion 2).  It reads the library's Philox streams
``wishart-jacobi:g1`` and ``wishart-jacobi:g2``, so its samples are a pure
function of (m1, m2, n, trials, master seed).
"""

import numpy as np

from jacobi_fading.ensembles import snap_endpoints
from jacobi_fading.errors import NumericalError
from jacobi_fading.philox import complex_normals, stream_key
from jacobi_fading.simulate import McConfig, _gather, _sorted_sample


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    One merge of the two sorted samples: walking the merged order, each
    a-point steps n_a*n_b*(F_a - F_b) by +n_b and each b-point by -n_a, in
    integers, and only the last point of each run of tied values is read.
    The walk ends at 0, so the last point never sets the supremum.
    """
    n_a, n_b = np.size(a), np.size(b)
    merged = np.concatenate([_sorted_sample(a, "a"), _sorted_sample(b, "b")])
    order = np.argsort(merged, kind="stable")  # two sorted runs: one merge
    merged = merged[order]
    scaled = np.where(order < n_a, n_b, -n_a)
    np.cumsum(scaled, out=scaled)
    last_of_tie = merged[1:] != merged[:-1]
    top = np.max(scaled[:-1], where=last_of_tie, initial=0)
    bottom = np.min(scaled[:-1], where=last_of_tie, initial=0)
    return float(max(top, -bottom)) / (n_a * n_b)


def sample_jacobi_spectra_wishart(m1: int, m2: int, n: int, cfg: McConfig) -> np.ndarray:
    """Spectra of J(m1, m2, n) built from Wishart pairs, shape (trials, n).

    With G1 (m1 x n) and G2 (m2 x n) complex Ginibre, the eigenvalues of
    S^-1/2 A S^-1/2, A = G1^+ G1 and S = A + G2^+ G2, follow J(m1, m2, n).
    """
    if n < 1:
        raise ValueError("n must be >= 1 (empty spectra carry no information)")
    if m1 < n or m2 < n:
        raise ValueError("need m1 >= n and m2 >= n")
    key1 = stream_key(cfg.master_seed, f"wishart-jacobi:g1:{m1},{m2},{n}")
    key2 = stream_key(cfg.master_seed, f"wishart-jacobi:g2:{m1},{m2},{n}")

    def chunk(lo, hi):
        g1 = complex_normals(key1, lo, hi, m1 * n).reshape(hi - lo, m1, n)
        g2 = complex_normals(key2, lo, hi, m2 * n).reshape(hi - lo, m2, n)
        a = np.einsum("bij,bik->bjk", g1.conj(), g1)
        s = a + np.einsum("bij,bik->bjk", g2.conj(), g2)
        w, v = np.linalg.eigh(s)
        if np.min(w) <= 0.0:
            raise NumericalError("Wishart sum numerically singular")
        inv_sqrt = np.einsum("bij,bj,bkj->bik", v, 1.0 / np.sqrt(w), v.conj())
        ratio = np.einsum("bij,bjk,bkl->bil", inv_sqrt, a, inv_sqrt)
        return snap_endpoints(np.linalg.eigvalsh(ratio))

    return _gather(cfg, chunk)
