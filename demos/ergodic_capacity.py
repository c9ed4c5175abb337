"""Ergodic capacity of the truncated-unitary channel, two ways.

The channel couples mt of m transmit modes into mr of m receive modes
through a block of a Haar-random unitary.  Whenever mt + mr > m, exactly
k = mt + mr - m singular values are pinned at 1, so k single-mode channels
of SNR rho ride through unfaded and the capacity is at least
k * log2(1 + rho).  This script prints the capacity normalized by the
single-mode capacity log2(1 + rho), which makes that guaranteed floor easy
to see, and cross-checks the closed form against plain Monte Carlo.
"""

import numpy as np

from jacobi_fading import ChannelDims, McConfig, ergodic_capacity, mc_ergodic_capacity

RHO_DB = np.arange(0.0, 31.0, 5.0)

RHOS = [10 ** (db / 10) for db in RHO_DB]
NORMS = [np.log2(1 + rho) for rho in RHOS]


def print_normalized(channels):
    """One row per SNR of each channel's capacity over log2(1 + rho), one call per channel."""
    columns = [ergodic_capacity(dims, RHOS) for dims in channels]
    for db, norm, row in zip(RHO_DB, NORMS, zip(*columns)):
        print(f"{db:8.0f} " + "".join(f" {v / norm:7.3f}" for v in row))


print("normalized ergodic capacity, m = 4, all (mt, mr) combinations")
shapes = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 4)]
print("rho [dB] " + "".join(f"  ({mt},{mr})" for mt, mr in shapes))
print_normalized([ChannelDims(mt, mr, 4) for mt, mr in shapes])
print()
print("note the floor at k = mt + mr - 4 for the oversubscribed pairs;")
print("(4,4) is the fully addressed, perfectly unitary channel.")
print()

print("fixed mt = mr = 2, growing total mode count m (power leaks away)")
print("rho [dB] " + "".join(f"   m={m:<3d}" for m in (2, 3, 4, 6, 8, 16)))
print_normalized([ChannelDims(2, 2, m) for m in (2, 3, 4, 6, 8, 16)])
print()

print("Monte-Carlo cross-check at 10 dB (100k fresh channel draws per point)")
cfg = McConfig(trials=100_000, master_seed=0)
for mt, mr, m in [(2, 2, 4), (1, 2, 4), (2, 2, 6), (3, 3, 4)]:
    dims = ChannelDims(mt, mr, m)
    ana = ergodic_capacity(dims, 10.0)
    est = mc_ergodic_capacity(dims, 10.0, cfg)
    sigmas = abs(est.value - ana) / est.stderr if est.stderr else 0.0
    print(f"  ({mt},{mr},{m}): closed form {ana:8.5f}  MC {est.value:8.5f} ± {est.stderr:.5f}"
          f"  ({sigmas:.2f} sigma apart)")
