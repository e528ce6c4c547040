#!/usr/bin/env python3
"""End-to-end: synthesize a corpus, train briefly, enhance, and score.

Uses a reduced configuration (smaller windows and networks, short
utterances) so the whole loop, 600 training steps included, finishes in
about 20 seconds on two cores; the margin over the noisy input grows
substantially at the desk scale the acceptance suite exercises. The corpus
and checkpoint live in a temporary directory that is removed on exit.
Scale up via RunConfig or the CLI.
"""

import tempfile

import numpy as np

from nkf import data_io, enhancer, metrics
from nkf.config import RunConfig
from nkf.networks import build_model_from, load_checkpoint, save_checkpoint

cfg = RunConfig(window=128, hop=32, lstm_units=32, lstm_layers=1,
                fnn_hidden=48, context=8, variance_span=12,
                train_count=24, dev_count=2, test_count=6,
                utterance_seconds=1.0, batch=4, seq_len=128, epochs=100,
                test_snrs=(5.0,), seed=0)

with tempfile.TemporaryDirectory(prefix="nkf_demo_") as workdir:
    print(f"working in {workdir}")
    manifest = data_io.synth_corpus(cfg, workdir)
    print(f"corpus: {len(manifest.split_entries('train'))} train / "
          f"{len(manifest.split_entries('test'))} test utterances "
          f"of {cfg.utterance_seconds:.0f}s")

    model = build_model_from(cfg)
    model, history = enhancer.train(model, manifest, cfg, max_steps=600)
    print(f"trained {len(history)} steps: loss {history[0]:.4f} "
          f"-> {np.mean(history[-10:]):.4f}")

    ckpt = f"{workdir}/model.nkf"
    save_checkpoint(model, ckpt)
    model = load_checkpoint(ckpt)  # checkpoints round-trip bit-exactly

    rows = {"noisy": [], "wiener": [], "lstm": [], "nkf": []}
    for e in manifest.split_entries("test"):
        clean = data_io.read_wav(e.clean_path)
        noisy = data_io.read_wav(e.noisy_path)
        rows["noisy"].append(metrics.fwsegsnr(clean, noisy))
        for method in ("wiener", "lstm", "nkf"):
            out = enhancer.enhance(model, noisy, method=method).waveform
            rows[method].append(metrics.fwsegsnr(clean, out))

    print(f"\nFwSegSNR on the held-out test split at {cfg.test_snrs[0]:g} dB:")
    for method, scores in rows.items():
        print(f"  {method:7s} {np.mean(scores):6.2f} dB")

    first = manifest.split_entries("test")[0]
    best = enhancer.enhance(model, data_io.read_wav(first.noisy_path))
print(f"\ninspection grids for one utterance: gain in "
      f"[{best.grids.gain.min():.3f}, {best.grids.gain.max():.3f}], "
      f"mean noise variance {best.grids.sigma_v2.mean():.4f}")
