"""Reference samplers that only the tests read.

``sample_jacobi_spectra_wishart`` builds Jacobi spectra the textbook way,
from a pair of complex Wishart matrices, as an independent check on the
truncated-Haar channel draw (acceptance criterion 2).  It reads the
library's Philox streams ``wishart-jacobi:g1`` and ``wishart-jacobi:g2``,
so its samples are a pure function of (m1, m2, n, trials, master seed).
"""

import numpy as np

from jacobi_fading.ensembles import DEFAULT_UNIT_TOL, snap_endpoints
from jacobi_fading.errors import NumericalError
from jacobi_fading.philox import complex_normals, stream_key
from jacobi_fading.simulate import McConfig, _gather


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
        return snap_endpoints(np.linalg.eigvalsh(ratio), DEFAULT_UNIT_TOL)

    return _gather(cfg, chunk)
