#!/usr/bin/env python3
"""The conventional modulation-domain Kalman baseline, two ways.

First a single amplitude track with known statistics, showing the filter
beating the raw observations; then the full per-bin pipeline on a synthetic
utterance (Wiener prefilter, segmented LP, per-bin recursion, noisy-phase
resynthesis) with the oracle noise variance from the mixing metadata.
"""

import numpy as np

from nkf import data_io
from nkf.config import RunConfig
from nkf.kalman import enhance_kf_baseline, run_kf
from nkf.metrics import segsnr
from nkf.signal_core import Waveform

# -- scalar track -------------------------------------------------------------

rng = np.random.default_rng(2)
a, q = 0.95, 0.01
n = 3000
x = np.zeros(n)
for t in range(1, n):
    x[t] = a * x[t - 1] + np.sqrt(q) * rng.standard_normal()
y = x + rng.standard_normal(n)  # 10*log10(var/1) dB observation noise

est = run_kf(y, [a], q, np.ones(n))
print("single track with oracle statistics:")
print(f"  observation MSE {np.mean((y - x) ** 2):.4f}")
print(f"  filtered MSE    {np.mean((est - x) ** 2):.4f}")

# -- full utterance -----------------------------------------------------------

cfg = RunConfig(utterance_seconds=2.0)
rng = np.random.default_rng(3)
speech = Waveform(data_io._synth_speech(rng, 32000, cfg.sample_rate))
noise = Waveform(data_io._synth_noise(rng, "pink", 48000, cfg.sample_rate))
noisy, scaled = data_io.mix_at_snr(speech, noise, 0.0, rng)

grid = data_io.oracle_noise_variance(scaled, cfg)
result = enhance_kf_baseline(noisy, cfg, sigma_v2_grid=grid)

print("\nfull baseline at 0 dB input SNR (pink noise, oracle variance):")
print(f"  segmental SNR noisy:    {segsnr(speech, noisy):6.2f} dB")
print(f"  segmental SNR enhanced: {segsnr(speech, result.waveform):6.2f} dB")
print(f"  mean first gain component: {result.grids.gain.mean():.3f} "
      f"(0 = trust prediction, 1 = trust observation)")
