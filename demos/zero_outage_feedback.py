"""The zero-outage scheme: k unfaded single-mode channels from stale feedback.

Each use carries k = mt + mr - m new symbols plus a relay of the l-uses-old
transmit vector projected through the completion of the old channel block.
The receiver peels backwards and recovers sqrt(rho) * x + white unit noise
exactly, i.e. k parallel AWGN channels at SNR rho, for every channel
realization.  The feedback can be arbitrarily stale: only the overhead of
closing the last l relays grows with the delay.
"""

import math

import numpy as np

from jacobi_fading import ChannelDims, SchemeConfig, qpsk_bit_error, run_feedback_scheme

dims = ChannelDims(2, 2, 3)
rho_db = 10.0
rho = 10 ** (rho_db / 10)

print(f"dims (mt, mr, m) = (2, 2, 3): k = {dims.k} guaranteed stream(s), SNR {rho_db:.0f} dB")
print()
report = run_feedback_scheme(SchemeConfig(dims=dims, n_uses=1000, delay=1, rho=rho))
print("one frame, 1000 uses, delay 1:")
print(f"  per-stream SNR          {report.per_stream_snr.round(4)}  (target {rho})")
print(f"  combined-noise cov dev  {report.noise_cov_error:.2e} from identity")
print(f"  per-mode transmit power {report.per_mode_power.round(6)}")
print(f"  overhead                {report.overhead_uses} channel uses to close the relay chain")
print(f"  achieved rate           {report.achieved_rate:.4f} bits/use "
      f"(ceiling k*log2(1+rho) = {dims.k * math.log2(1 + rho):.4f})")
p_awgn = float(qpsk_bit_error(rho))
print(f"  QPSK bit error rate     {report.ber:.2e} vs unfaded AWGN {p_awgn:.2e}")
print()

print("staleness sweep: the streams do not care how old the feedback is")
for delay in (1, 2, 4, 8):
    rep = run_feedback_scheme(SchemeConfig(dims=dims, n_uses=1000, delay=delay, rho=rho))
    print(f"  delay {delay}: per-stream SNR {rep.per_stream_snr[0]:.4f}, "
          f"overhead {rep.overhead_uses} uses, rate {rep.achieved_rate:.4f} bits/use")
print()

print("per-mode power audit (the relay slots are dither-padded to unit power)")
print(f"  conditional per-mode power {report.per_mode_power.round(9)}")
print(f"  realized per-mode power    {report.per_mode_power_empirical.round(4)}")
print()

print("two pinned streams: dims (3, 3, 4), delay 3")
rep = run_feedback_scheme(SchemeConfig(dims=ChannelDims(3, 3, 4), n_uses=1000, delay=3, rho=rho))
print(f"  per-stream SNR {rep.per_stream_snr.round(4)}, "
      f"stream-noise cross-correlation {rep.stream_noise_max_cross_corr:.3f}")
print(f"  rate {rep.achieved_rate:.4f} bits/use vs ceiling {2 * math.log2(1 + rho):.4f}")
