#!/usr/bin/env python3
"""Instantaneous Wiener filtering on a time-frequency grid.

Tracks the running noisy variance over a causal 20-frame window, forms the
clamped gain, and shows how the suppression scales with the local SNR.
"""

import numpy as np

from nkf import data_io
from nkf.config import RunConfig
from nkf.metrics import segsnr
from nkf.signal_core import Waveform, istft, recombine, stft
from nkf.wiener import VarianceTracks, apply_wiener, track_sigma_y, wiener_gain

print("gain as a function of noise share of the observed variance:")
for share in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5):
    print(f"  sigma_v2 = {share:4.2f} * sigma_y2  ->  gain "
          f"{wiener_gain(share * 4.0, 4.0):.2f}")

cfg = RunConfig(utterance_seconds=2.0)
rng = np.random.default_rng(4)
speech = Waveform(data_io._synth_speech(rng, 32000, cfg.sample_rate))
noise = Waveform(data_io._synth_noise(rng, "white", 48000, cfg.sample_rate))
noisy, scaled = data_io.mix_at_snr(speech, noise, 5.0, rng)

spec = stft(noisy, cfg.window, cfg.hop)
tracks = VarianceTracks(
    sigma_y2=track_sigma_y(spec.amplitude, cfg.variance_span),
    sigma_v2=data_io.oracle_noise_variance(scaled, cfg),
)
filtered = apply_wiener(spec.amplitude, tracks)
out = istft(recombine(spec, filtered), len(noisy))

print(f"\nutterance at 5 dB input SNR with the oracle noise variance:")
print(f"  segmental SNR noisy:    {segsnr(speech, noisy):6.2f} dB")
print(f"  segmental SNR filtered: {segsnr(speech, out):6.2f} dB")
gain_grid = np.divide(filtered, spec.amplitude,
                      out=np.zeros_like(filtered), where=spec.amplitude > 0)
print(f"  mean applied gain: {gain_grid.mean():.3f} "
      f"(never amplifies: max {gain_grid.max():.3f})")
