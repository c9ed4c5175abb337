"""Outage probability and the normalized-SNR link budget.

In the quasi-static regime the channel holds for a whole codeword and the
outage probability at rate R = r * log2(1 + rho) is the chance that the
realized mutual information falls below R.  Because k = mt + mr - m
singular values are pinned at 1, the outage drops to exactly zero (not just
small) the moment r goes below k: every realization carries r streams.

For a single transmit mode the outage has a closed form through the
regularized incomplete beta function, and inverting it gives rho_norm, the
extra power (over an unfaded single-mode link) that guarantees a target
outage epsilon.
"""

import numpy as np

from jacobi_fading import ChannelDims, McConfig, mc_outage, outage_single_mode, rho_norm

RHO_DB = 20.0
RHO = 10 ** (RHO_DB / 10)

print(f"outage vs normalized rate r at {RHO_DB:.0f} dB, m = 4 (100k draws per point)")
cfg = McConfig(trials=100_000, master_seed=0)
r_grid = np.arange(0.25, 2.01, 0.25)
channels = [ChannelDims(mt, mr, 4) for mt, mr in [(1, 1), (2, 2), (2, 3), (3, 3)]]
# one call per channel: its 100k draws serve every r of the column
columns = [mc_outage(dims, RHO, cfg, r=r_grid) for dims in channels]
print("   r    " + "".join(f"  ({dims.mt},{dims.mr})   " for dims in channels))
for i, r in enumerate(r_grid):
    cells = []
    for dims, column in zip(channels, columns):
        if dims.k > 0 and r < dims.k:
            cells.append("    0 (exact)")
            continue
        est = column[i]
        cells.append(f" {est.value:11.5f}" if est.value else "    0/100000 ")
    print(f"  {r:4.2f} " + "".join(cells))
print()
print("the (2,3) and (3,3) columns drop to an exact 0 below r = 1 and r = 2:")
print("that is the pinned subspace at work, a per-realization guarantee.")
print()

print("single-transmit-mode closed form vs Monte Carlo at 10 dB")
for mr, m, rate in [(1, 2, 1.0), (2, 4, 1.0), (2, 4, 2.0)]:
    est = mc_outage(ChannelDims(1, mr, m), 10.0, cfg, rate_bits=rate)
    exact = outage_single_mode(mr, m, rate, 10.0)
    print(f"  (1,{mr},{m}) R={rate:.1f} bits: beta formula {exact:.5f}  MC {est.value:.5f} ± {est.stderr:.5f}")
print()

print("rho_norm [dB]: power needed over an unfaded link to hold outage <= eps")
print("   m   mr/m   eps=1e-3  eps=1e-4  eps=1e-5")
for m in (4, 16, 64):
    for frac in (0.25, 0.5, 0.75, 1.0):
        mr = int(round(frac * m))
        vals = [10 * np.log10(rho_norm(mr, m, eps)) for eps in (1e-3, 1e-4, 1e-5)]
        print(f"  {m:3d}  {frac:5.2f} " + "".join(f" {v:9.3f}" for v in vals))
print()
print("addressing a larger fraction of the modes (and more total modes at a")
print("fixed fraction) buys the same outage with less transmit power.")
