"""Command-line entry point wiring all modules.

Subcommands: ``synth`` (generate the synthetic corpus), ``train`` (fit the
model, writing per-epoch checkpoints and a loss history), ``enhance``
(apply one of the nkf/kf/wiener/lstm pipelines), ``eval`` (per-utterance
metric rows plus per-condition aggregates), and ``gradcheck`` (full
finite-difference verification of the training gradients).

Exit codes: 0 success, 1 usage/config error, 2 data error or a file that
cannot be read or written, 3 numerical divergence. Every command echoes its
fully-resolved configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
import time

import numpy as np

from . import data_io, enhancer, metrics, signal_core
from .config import load_config, parse_assignments, save_config
from .errors import ConfigError, DataError, NkfError, NumericsError
from .networks import build_model, load_checkpoint

GRADCHECK_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nkf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", choices=("desk", "full"),
                        help="configuration preset (default desk)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True, help="corpus output directory")

    p = sub.add_parser("train", help="train the enhancement model")
    p.add_argument("--corpus", required=True, help="corpus directory (with manifest.csv)")
    p.add_argument("--out", required=True, help="checkpoint/output directory")
    p.add_argument("--max-steps", type=int, default=None,
                   help="stop after this many optimizer steps")

    p = sub.add_parser("enhance", help="enhance utterances")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--wav", help="single noisy wav to enhance")
    p.add_argument("--manifest", help="corpus manifest to read utterances from")
    p.add_argument("--split", default="test", choices=data_io.SPLITS)
    p.add_argument("--method", default="nkf", choices=tuple(enhancer.METHODS))
    p.add_argument("--oracle-noise", action="store_true",
                   help="use the manifest's scaled-noise files for the noise variance")
    p.add_argument("--dump-grids", action="store_true",
                   help="also write per-utterance inspection grids (.npz)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="score enhanced utterances against clean")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=data_io.SPLITS)
    p.add_argument("--enhanced", required=True, help="directory of enhanced wavs")
    p.add_argument("--out", required=True, help="report csv path")

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _model_from_cfg(cfg):
    return build_model(
        cfg.n_bins, lstm_units=cfg.lstm_unit_list, fnn_hidden=cfg.fnn_hidden,
        context=cfg.context, window=cfg.window, hop=cfg.hop,
        variance_span=cfg.variance_span, sample_rate=cfg.sample_rate,
        log_features=cfg.log_features, seed=cfg.seed)


def cmd_synth(cfg, args) -> int:
    resolved = os.path.join(args.out, "resolved.cfg")
    _refuse_replacing([resolved], [args.config])
    _refuse_foreign(args.out, ["model.nkf"])
    manifest = data_io.synth_corpus(cfg, args.out)
    save_config(cfg, resolved)
    counts = {s: len(manifest.split_entries(s)) for s in data_io.SPLITS}
    print(f"wrote corpus to {args.out}: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0


def cmd_train(cfg, args) -> int:
    if args.max_steps is not None and args.max_steps < 1:
        raise ConfigError("--max-steps must be at least 1")
    resolved = os.path.join(args.out, "resolved.cfg")
    _refuse_replacing([resolved], [args.config])
    _refuse_foreign(args.out, ["manifest.csv"])
    manifest = data_io.load_manifest(os.path.join(args.corpus, "manifest.csv"))
    entries = manifest.split_entries("train")
    if not entries:   # the train split is checked before --out is made
        raise DataError("manifest has no train entries")
    for entry in entries:
        enhancer.read_train_pair(entry, cfg)
    model = _model_from_cfg(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_config(cfg, resolved)
    model, history = enhancer.train(model, manifest, cfg, out_dir=args.out,
                                    max_steps=args.max_steps)
    print(f"trained {len(history)} steps; "
          f"loss {history[0]:.6f} -> {history[-1]:.6f}; "
          f"checkpoint {os.path.join(args.out, 'model.nkf')}")
    return 0


def _refuse_replacing(outputs, inputs):
    """``ConfigError`` if an output path is, by ``realpath``, an input's;
    an input of None (an option not given) is skipped."""
    read = {os.path.realpath(p) for p in inputs if p is not None}
    for path in outputs:
        if os.path.realpath(path) in read:
            raise ConfigError(f"--out would replace input {path}")


def _refuse_foreign(out, marks):
    """``ConfigError`` if ``out`` holds one of ``marks``, files that only
    another command writes: its ``resolved.cfg`` would be replaced by this
    run's, beside outputs that it did not produce."""
    for mark in marks:
        if os.path.exists(os.path.join(out, mark)):
            raise ConfigError(f"--out {out} holds {mark}, another command's output")


def _enhance_inputs(cfg, args):
    """(utt_id, noisy waveform, entry or None) per utterance, read as iterated;
    ``ConfigError`` first if an output, a WAV or ``resolved.cfg``, would
    replace a file the run reads, or ``--out`` is a training run's or a
    corpus's folder."""
    if args.wav:
        utts = [(os.path.splitext(os.path.basename(args.wav))[0], args.wav, None)]
        read = [args.wav]
    else:
        manifest = data_io.load_manifest(args.manifest)
        utts = [(e.utt_id, e.noisy_path, e) for e in manifest.split_entries(args.split)]
        read = [p for e in manifest.entries for p in (e.clean_path, e.noisy_path, e.noise_path)]
    _refuse_replacing([os.path.join(args.out, f"{u}.wav") for u, _, _ in utts]
                      + [os.path.join(args.out, "resolved.cfg")], read + [args.config])
    _refuse_foreign(args.out, ["model.nkf", "manifest.csv"])
    return ((utt_id, data_io.read_wav(path, cfg.sample_rate), e)
            for utt_id, path, e in utts)


def cmd_enhance(cfg, args) -> int:
    run, oracle_ok = enhancer.METHODS[args.method]
    if args.oracle_noise and not oracle_ok:
        raise ConfigError(f"--method {args.method} cannot use --oracle-noise")
    if not (args.checkpoint or args.oracle_noise):
        raise ConfigError(f"--method {args.method} requires --checkpoint"
                          + (" or --oracle-noise" if oracle_ok else ""))
    if bool(args.wav) == bool(args.manifest):
        raise ConfigError("enhance needs exactly one of --wav and --manifest")
    if args.oracle_noise and not args.manifest:
        raise ConfigError("--oracle-noise needs --manifest")
    model = load_checkpoint(args.checkpoint) if args.checkpoint else None
    if model is not None:
        enhancer.check_framing(cfg, model)
    # the manifest and the first input are read before --out is made, so an
    # input rejected there leaves no output directory
    inputs = _enhance_inputs(cfg, args)
    first = next(inputs, None)
    if first is None:
        raise DataError("no utterances to enhance")
    os.makedirs(args.out, exist_ok=True)
    save_config(cfg, os.path.join(args.out, "resolved.cfg"))
    count, audio_s, run_s = 0, 0.0, 0.0
    for utt_id, noisy, entry in itertools.chain([first], inputs):
        grid = None
        if args.oracle_noise:
            noise = data_io.read_wav(entry.noise_path, cfg.sample_rate)
            grid = data_io.oracle_noise_variance(noise, cfg)
        start = time.perf_counter()
        result = run(model, noisy, cfg, grid)
        elapsed = time.perf_counter() - start
        print(f"{utt_id}: {_timing(noisy.duration, elapsed)}")
        audio_s, run_s = audio_s + noisy.duration, run_s + elapsed
        data_io.write_wav(result.waveform, os.path.join(args.out, f"{utt_id}.wav"))
        if args.dump_grids:
            grids = {k: v for k, v in vars(result.grids).items() if v is not None}
            with data_io.replacing(os.path.join(args.out, f"{utt_id}_grids.npz")) as fh:
                np.savez(fh, **grids)
        count += 1
    print(f"enhanced {count} utterance(s) with method {args.method} into {args.out}: "
          f"{_timing(audio_s, run_s)}")
    return 0


def _timing(audio_s: float, run_s: float) -> str:
    """Seconds of audio, seconds spent enhancing it and their ratio, the
    real-time factor (RTF)."""
    return f"{audio_s:.2f} s of audio in {run_s:.3f} s, RTF {run_s / audio_s:.4f}"


def cmd_eval(cfg, args) -> int:
    if os.path.splitext(args.out)[1] == ".cfg":   # the resolved config goes there
        raise ConfigError(f"--out {args.out}: the resolved config would replace the report")
    manifest = data_io.load_manifest(args.manifest)
    entries = manifest.split_entries(args.split)
    enhanced = [os.path.join(args.enhanced, f"{e.utt_id}.wav") for e in entries]
    config_out = os.path.splitext(args.out)[0] + ".cfg"
    read = [p for e in manifest.entries for p in (e.clean_path, e.noisy_path, e.noise_path)]
    _refuse_replacing([args.out, config_out], [args.manifest, *read, *enhanced, args.config])
    rows = []
    for e, enhanced_path in zip(entries, enhanced):
        if not os.path.exists(enhanced_path):
            continue
        clean = data_io.read_wav(e.clean_path, cfg.sample_rate)
        noisy = data_io.read_wav(e.noisy_path, cfg.sample_rate)
        enhanced = data_io.read_wav(enhanced_path, cfg.sample_rate)
        clean_spec = signal_core.stft(clean, cfg.window, cfg.hop)
        row = {"utt_id": e.utt_id, "snr_db": e.mix.snr_db}
        row.update(metrics.evaluate_pair(clean, enhanced, cfg.window, cfg.hop, clean_spec))
        noisy_scores = metrics.evaluate_pair(clean, noisy, cfg.window, cfg.hop, clean_spec)
        row.update({f"{k}_noisy": v for k, v in noisy_scores.items()})
        rows.append(row)
    if not rows:
        raise DataError("no enhanced utterances found to evaluate")
    per_snr = metrics.summarize_rows(rows)
    fields = ["utt_id", "snr_db", "fwsegsnr", "segsnr", "amp_mse",
              "fwsegsnr_noisy", "segsnr_noisy", "amp_mse_noisy"]
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with data_io.replacing(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        for snr, agg in per_snr.items():
            summary = {"utt_id": f"MEAN@{snr:g}dB", "snr_db": snr}
            summary.update(agg)
            writer.writerow(summary)
    save_config(cfg, config_out)
    for snr, agg in per_snr.items():
        print(f"condition {snr:g} dB: fwsegsnr {agg['fwsegsnr']:.2f} dB, "
              f"segsnr {agg['segsnr']:.2f} dB, amp_mse {agg['amp_mse']:.5f}")
    return 0


def cmd_gradcheck(cfg, args) -> int:
    if args.seed < 0:
        raise ConfigError("--seed must be nonnegative")
    err = enhancer.gradient_check(seed=args.seed)
    print(f"max relative gradient error: {err:.3e}")
    if not err < GRADCHECK_TOLERANCE:
        raise NumericsError(f"gradient check failed: {err:.3e} >= {GRADCHECK_TOLERANCE}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, parse_assignments(args.set),
                          preset=args.preset)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (NkfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
