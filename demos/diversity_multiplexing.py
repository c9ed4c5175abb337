"""Diversity-multiplexing frontier and scheme-level error decay.

The optimal frontier d*(r) is piecewise linear through the integer points
(j, (mt-j)(mr-j)) when mt + mr <= m, independent of m.  Once mt + mr > m,
every rate below k = mt + mr - m is outage-free, so the error probability
turns exponentially decaying in SNR and the diversity gain below r = k is
effectively infinite; the finite branch is the complementary channel's
frontier shifted right by k.

The second half of the script measures the repetition scheme (one QPSK
symbol across the mt transmit slots, maximum-ratio combined): its error
decays like rho^-(mt*mr) in the polynomial regime and falls off a cliff
once the channel carries a pinned subspace.
"""

import numpy as np

from jacobi_fading import (
    ChannelDims,
    McConfig,
    dmt_optimal_curve,
    estimate_diversity_slope,
    mc_alamouti_outage,
    mc_repetition_error,
    repetition_error_tail,
)

print("optimal frontier for mt = mr = 4 and various total mode counts")
for m in (8, 7, 6, 5, 4):
    curve = dmt_optimal_curve(ChannelDims(4, 4, m))
    verts = ", ".join(f"({r:g},{d:g})" for r, d in curve.vertices)
    inf_note = f"; infinite diversity below r = {curve.infinite_below:g}" if curve.infinite_below else ""
    print(f"  m={m}: {verts}{inf_note}")
print()

print("repetition-scheme QPSK error decay (deterministic tail evaluation)")
db_grid = (10.0, 20.0, 30.0, 40.0)
rhos = [10 ** (db / 10) for db in db_grid]
for mt, mr, m in [(1, 1, 2), (1, 2, 3), (1, 3, 4)]:
    pts = list(zip(rhos, repetition_error_tail(ChannelDims(mt, mr, m), rhos)))  # one quadrature pass
    slope = estimate_diversity_slope(pts)
    vals = "  ".join(f"{p:.2e}" for _, p in pts)
    print(f"  ({mt},{mr},{m}): {vals}   slope {slope:.2f} (mt*mr = {mt * mr})")
print()

print("the pinned-subspace cliff: (2,2,4) is polynomial, (2,2,3) exponential")
cfg = McConfig(trials=200_000, master_seed=0)
cliff_db = (0.0, 5.0, 10.0, 15.0, 20.0)
rhos = [10 ** (db / 10) for db in cliff_db]
# one call per channel: each draws its 200k gains once for every SNR
open_ests = mc_repetition_error(ChannelDims(2, 2, 4), rhos, cfg)
pinned_ests = mc_repetition_error(ChannelDims(2, 2, 3), rhos, cfg)
for db, open_est, pinned in zip(cliff_db, open_ests, pinned_ests):
    print(f"  {db:4.0f} dB: (2,2,4) {open_est.value:.3e}   (2,2,3) {pinned.value:.3e}")
print()

print("2x2 orthogonal block scheme outage at r = 0.5 (rate 0.5*log2(rho))")
for m in (2, 3, 4, 6):
    est = mc_alamouti_outage(m, 100.0, 0.5, cfg)
    label = f"{est.value:.2e}" if est.value else "exactly 0"
    print(f"  m={m}: {label}")
print()
print("m = 2 and m = 3 keep ||H11||_F^2 >= 1 on every draw, so the scheme's")
print("equivalent scalar channel never fades below the rate; from m = 4 on")
print("an outage event always has positive probability.")
