import csv
import os
import re
import shutil

import numpy as np
import pytest

from nkf import data_io, metrics, signal_core
from nkf.cli import main
from nkf.config import RunConfig
from nkf.signal_core import Waveform

from test_data_io import fail_writes

TINY = ["--set", "window=64", "--set", "hop=16", "--set", "lstm_units=8",
        "--set", "lstm_layers=1", "--set", "fnn_hidden=16",
        "--set", "context=5", "--set", "variance_span=8",
        "--set", "train_count=4", "--set", "dev_count=1",
        "--set", "test_count=2", "--set", "utterance_seconds=0.5",
        "--set", "batch=2", "--set", "seq_len=48", "--set", "epochs=1",
        "--set", "seed=3"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus a briefly trained checkpoint, shared module-wide."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    ckpt_dir = root / "run"
    assert main(TINY + ["synth", "--out", str(corpus)]) == 0
    assert main(TINY + ["train", "--corpus", str(corpus),
                        "--out", str(ckpt_dir), "--max-steps", "2"]) == 0
    return root, corpus, ckpt_dir / "model.nkf"


def _assert_config_file_kept(tmp_path, capsys, command):
    """``nkf --config D/resolved.cfg COMMAND --out D``, whose echo of the
    resolved settings would replace the file it reads, exits 1 before
    anything is written."""
    out = tmp_path / "found"
    out.mkdir()
    config = out / "resolved.cfg"
    config.write_text("# the settings of an earlier run\nseed = 3\n", encoding="utf-8")

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    assert main(TINY + ["--config", str(config), *command, "--out", str(out)]) == 1
    assert f"--out would replace input {config}" in capsys.readouterr().err
    assert files() == before


def _assert_foreign_out_kept(workspace, tmp_path, capsys, command, folder, mark):
    """``nkf COMMAND --out D`` on a copy D of the workspace's ``folder``
    ("corpus" or "run"), another command's output holding ``mark``, exits 1
    before anything is written; D's ``resolved.cfg`` is left as it was.
    ``command`` may name D as ``{out}``."""
    _, corpus, ckpt = workspace
    out = tmp_path / folder
    shutil.copytree({"corpus": corpus, "run": ckpt.parent}[folder], out)
    assert (out / mark).is_file() and (out / "resolved.cfg").is_file()

    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    before = files()
    argv = [str(out) if a == "{out}" else a for a in command]
    assert main(TINY + ["--set", "seed=9", *argv, "--out", str(out)]) == 1
    assert f"--out {out} holds {mark}, another command's output" in capsys.readouterr().err
    assert files() == before


class TestSynth:
    def test_writes_corpus_and_config_echo(self, workspace):
        root, corpus, _ = workspace
        assert (corpus / "manifest.csv").exists()
        assert (corpus / "resolved.cfg").exists()
        manifest = data_io.load_manifest(corpus / "manifest.csv")
        assert len(manifest.entries) == 7

    def test_unwritable_output_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # a directory inside a regular file cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(TINY + ["synth", "--out", str(blocker / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_file_as_resolved_cfg_is_usage_error(self, tmp_path, capsys):
        _assert_config_file_kept(tmp_path, capsys, ["synth"])

    def test_training_run_as_out_is_usage_error(self, workspace, tmp_path, capsys):
        _assert_foreign_out_kept(workspace, tmp_path, capsys, ["synth"], "run", "model.nkf")


class TestTrain:
    def test_outputs(self, workspace):
        root, _, ckpt = workspace
        assert ckpt.exists()
        assert (ckpt.parent / "loss_history.csv").exists()
        assert (ckpt.parent / "resolved.cfg").exists()

    def test_manifest_without_train_rows_is_data_error(self, workspace, tmp_path,
                                                       capsys):
        root, corpus, _ = workspace
        manifest = data_io.load_manifest(corpus / "manifest.csv")
        (tmp_path / "corpus").mkdir()
        data_io.write_manifest(
            data_io.CorpusManifest([e for e in manifest.entries if e.split != "train"]),
            tmp_path / "corpus" / "manifest.csv")
        rc = main(TINY + ["train", "--corpus", str(tmp_path / "corpus"),
                          "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "manifest has no train entries" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fault", ["noisy_cut_to_100_bytes",
                                       "pair_shorter_than_a_window"])
    def test_bad_train_row_is_data_error_before_out(self, workspace, tmp_path,
                                                    capsys, fault):
        # every train row is read and checked before --out is made, the
        # last one too
        _, corpus, _ = workspace
        shutil.copytree(corpus, tmp_path / "corpus")
        manifest = data_io.load_manifest(tmp_path / "corpus" / "manifest.csv")
        last = manifest.split_entries("train")[-1]
        if fault == "noisy_cut_to_100_bytes":
            with open(last.noisy_path, "rb") as fh:
                head = fh.read(100)
            with open(last.noisy_path, "wb") as fh:
                fh.write(head)
            expected = f"malformed header in {last.noisy_path}"
        else:
            for path in (last.noisy_path, last.clean_path):
                data_io.write_wav(Waveform(np.zeros(10)), path)
            expected = f"train utterance {last.utt_id}: utterance too short"
        rc = main(TINY + ["train", "--corpus", str(tmp_path / "corpus"),
                          "--out", str(tmp_path / "run")])
        assert rc == 2
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_file_as_resolved_cfg_is_usage_error(self, workspace, tmp_path, capsys):
        _, corpus, _ = workspace
        _assert_config_file_kept(tmp_path, capsys, ["train", "--corpus", str(corpus),
                                                    "--max-steps", "1"])

    def test_corpus_as_out_is_usage_error(self, workspace, tmp_path, capsys):
        # train --corpus D --out D would replace the corpus's resolved.cfg
        _assert_foreign_out_kept(workspace, tmp_path, capsys,
                                 ["train", "--corpus", "{out}", "--max-steps", "1"],
                                 "corpus", "manifest.csv")

    def test_retraining_into_its_own_run_is_allowed(self, workspace, tmp_path):
        _, corpus, ckpt = workspace
        shutil.copytree(ckpt.parent, tmp_path / "run")
        assert main(TINY + ["train", "--corpus", str(corpus), "--out",
                            str(tmp_path / "run"), "--max-steps", "1"]) == 0
        assert (tmp_path / "run" / "model.nkf").read_bytes() != ckpt.read_bytes()


class TestEnhance:
    def test_manifest_methods(self, workspace, tmp_path):
        root, corpus, ckpt = workspace
        for method in ("nkf", "wiener", "lstm"):
            out = tmp_path / method
            rc = main(TINY + ["enhance", "--checkpoint", str(ckpt),
                              "--manifest", str(corpus / "manifest.csv"),
                              "--split", "test", "--method", method,
                              "--out", str(out)])
            assert rc == 0
            assert (out / "test_0000.wav").exists()
            assert (out / "test_0001.wav").exists()

    def test_prints_audio_seconds_and_rtf(self, workspace, tmp_path, capsys):
        # one line per utterance, in manifest order, then the total
        root, corpus, ckpt = workspace
        out = tmp_path / "timed"
        capsys.readouterr()
        assert main(TINY + ["enhance", "--checkpoint", str(ckpt),
                            "--manifest", str(corpus / "manifest.csv"),
                            "--method", "lstm", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        entries = data_io.load_manifest(corpus / "manifest.csv").split_entries("test")
        assert len(lines) == len(entries) + 1
        timing = r"(\d+\.\d\d) s of audio in (\d+\.\d{3}) s, RTF (\d+\.\d{4})"
        total_audio = total_s = 0.0
        for line, e in zip(lines, entries):
            match = re.fullmatch(rf"{e.utt_id}: {timing}", line)
            assert match, line
            audio, run_s, rtf = map(float, match.groups())
            assert audio == round(data_io.read_wav(e.noisy_path).duration, 2)
            assert rtf == pytest.approx(run_s / audio, abs=2e-3)
            total_audio, total_s = total_audio + audio, total_s + run_s
        match = re.fullmatch(rf"enhanced {len(entries)} utterance\(s\) with method "
                             rf"lstm into {re.escape(str(out))}: {timing}", lines[-1])
        assert match, lines[-1]
        assert float(match[1]) == pytest.approx(total_audio, abs=0.01 * len(entries))
        assert float(match[2]) == pytest.approx(total_s, abs=1e-3 * len(entries))

    def test_kf_with_oracle_noise(self, workspace, tmp_path):
        root, corpus, ckpt = workspace
        out = tmp_path / "kf"
        rc = main(TINY + ["enhance", "--manifest", str(corpus / "manifest.csv"),
                          "--method", "kf", "--oracle-noise",
                          "--out", str(out)])
        assert rc == 0
        assert (out / "test_0000.wav").exists()

    def test_wiener_with_oracle_noise_needs_no_checkpoint(self, workspace,
                                                          tmp_path):
        root, corpus, ckpt = workspace
        out = tmp_path / "wnr"
        rc = main(TINY + ["enhance", "--manifest", str(corpus / "manifest.csv"),
                          "--method", "wiener", "--oracle-noise",
                          "--out", str(out)])
        assert rc == 0
        assert (out / "test_0000.wav").exists()

    def test_single_wav_with_grid_dump(self, workspace, tmp_path):
        root, corpus, ckpt = workspace
        wav = tmp_path / "input.wav"
        rng = np.random.default_rng(0)
        data_io.write_wav(Waveform(0.1 * rng.standard_normal(8000)), wav)
        out = tmp_path / "single"
        rc = main(TINY + ["enhance", "--checkpoint", str(ckpt), "--wav",
                          str(wav), "--dump-grids", "--out", str(out)])
        assert rc == 0
        assert (out / "input.wav").exists()
        grids = np.load(out / "input_grids.npz")
        assert set(grids.files) >= {"amp_out", "gain", "sigma_v2"}
        assert np.all(grids["gain"] >= 0) and np.all(grids["gain"] <= 1)

    def test_wiener_with_zero_oracle_noise_roundtrips(self, workspace, tmp_path):
        # a zero noise estimate makes the Wiener path an identity up to
        # synthesis tolerance; route it through the kf method's oracle grid
        root, corpus, ckpt = workspace
        cfg = RunConfig(window=64, hop=16, lstm_units=8, lstm_layers=1,
                        fnn_hidden=16, context=5, variance_span=8,
                        train_count=4, dev_count=1, test_count=2,
                        utterance_seconds=0.5, batch=2, seq_len=48, epochs=1,
                        seed=3)
        entry = data_io.load_manifest(corpus / "manifest.csv").split_entries("test")[0]
        clean = data_io.read_wav(entry.clean_path)
        from nkf.kalman import enhance_kf_baseline
        from nkf.wiener import track_sigma_y
        from nkf.signal_core import stft
        spec = stft(clean, cfg.window, cfg.hop)
        result = enhance_kf_baseline(clean, cfg,
                                     sigma_v2_grid=np.zeros_like(spec.amplitude))
        interior = slice(cfg.window, len(clean) - cfg.window)
        err = np.max(np.abs(result.waveform.samples[interior]
                            - clean.samples[interior]))
        assert err < 1e-6

    def test_usage_errors(self, workspace, tmp_path):
        root, corpus, ckpt = workspace
        manifest = str(corpus / "manifest.csv")
        wav = data_io.load_manifest(manifest).split_entries("test")[0].noisy_path
        enhance = ["enhance", "--checkpoint", str(ckpt), "--manifest", manifest]
        cases = {
            # no input source, and both of them
            "x": ["enhance", "--checkpoint", str(ckpt)],
            "both": enhance + ["--wav", wav],
            # neural methods need a checkpoint
            "y": ["enhance", "--manifest", manifest, "--method", "nkf"],
            # the neural methods have no use for an oracle noise grid
            "nkf": enhance + ["--method", "nkf", "--oracle-noise"],
            "lstm": enhance + ["--method", "lstm", "--oracle-noise"],
            # a single wav has no noise file to take the oracle grid from
            "wav": ["enhance", "--wav", wav, "--method", "wiener", "--oracle-noise"],
            # framing other than the checkpoint's (trained with hop 16)
            "hop-nkf": ["--set", "hop=32"] + enhance + ["--method", "nkf"],
            "hop-kf": ["--set", "hop=32"] + enhance + ["--method", "kf"],
            "span-kf": ["--set", "variance_span=4"] + enhance + ["--method", "kf"],
            # training takes at least one step
            "steps0": ["train", "--corpus", str(corpus), "--max-steps", "0"],
            "steps-5": ["train", "--corpus", str(corpus), "--max-steps", "-5"],
            # numpy's generators take only nonnegative seeds
            "seed-1": ["--set", "seed=-1", "synth"],
        }
        for name, argv in cases.items():
            out = tmp_path / name
            assert main(TINY + argv + ["--out", str(out)]) == 1, name
            # rejected before anything is written
            assert not out.exists(), name

    @pytest.mark.parametrize("folder", [None, "test/noisy", "test/clean"])
    def test_out_that_would_replace_an_input_is_usage_error(self, workspace,
                                                            tmp_path, capsys, folder):
        # --wav D/x.wav --out D, or a manifest's own folder as --out: refused
        # before anything is written, every input left as it was
        _, corpus, ckpt = workspace
        shutil.copytree(corpus, tmp_path / "corpus")
        if folder is None:
            shutil.copy(corpus / "test" / "noisy" / "test_0001.wav", tmp_path / "in.wav")
            source, out = ["--wav", str(tmp_path / "in.wav")], tmp_path
        else:
            source = ["--manifest", str(tmp_path / "corpus" / "manifest.csv")]
            out = tmp_path / "corpus" / folder

        def files():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        before = files()
        rc = main(TINY + ["enhance", "--checkpoint", str(ckpt), *source,
                          "--out", str(out)])
        assert rc == 1
        assert "would replace input" in capsys.readouterr().err
        assert files() == before

    def test_config_file_as_resolved_cfg_is_usage_error(self, workspace, tmp_path, capsys):
        _, corpus, ckpt = workspace
        _assert_config_file_kept(tmp_path, capsys, [
            "enhance", "--checkpoint", str(ckpt), "--manifest", str(corpus / "manifest.csv")])

    @pytest.mark.parametrize("folder, mark", [("run", "model.nkf"),
                                              ("corpus", "manifest.csv")])
    def test_another_commands_output_as_out_is_usage_error(self, workspace, tmp_path,
                                                          capsys, folder, mark):
        _, corpus, ckpt = workspace
        _assert_foreign_out_kept(workspace, tmp_path, capsys, [
            "enhance", "--checkpoint", str(ckpt), "--wav",
            str(corpus / "test" / "noisy" / "test_0000.wav")], folder, mark)

    def test_failed_grid_write_keeps_the_earlier_grids(self, workspace, tmp_path,
                                                       monkeypatch):
        # the --dump-grids .npz goes through data_io.replacing; the run's other
        # files are rewritten with the same bytes before the failing write
        _, corpus, ckpt = workspace
        out = tmp_path / "grids"
        argv = TINY + ["enhance", "--checkpoint", str(ckpt), "--dump-grids",
                       "--manifest", str(corpus / "manifest.csv"), "--out", str(out)]
        assert main(argv) == 0

        def files():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        before = files()
        assert "test_0000_grids.npz" in before
        fail_writes(monkeypatch, "test_0000_grids.npz.tmp")
        assert main(argv) == 2
        assert files() == before

    def test_missing_file_is_data_error(self, workspace, tmp_path):
        root, corpus, ckpt = workspace
        rc = main(TINY + ["enhance", "--checkpoint", str(ckpt), "--wav",
                          str(tmp_path / "missing.wav"),
                          "--out", str(tmp_path / "z")])
        assert rc == 2
        assert not (tmp_path / "z").exists()

    def test_missing_checkpoint_is_data_error(self, workspace, tmp_path, capsys):
        root, corpus, _ = workspace
        missing = tmp_path / "missing.nkf"
        rc = main(TINY + ["enhance", "--checkpoint", str(missing), "--manifest",
                          str(corpus / "manifest.csv"), "--out", str(tmp_path / "z")])
        assert rc == 2
        assert f"data error: cannot read checkpoint {missing}" in capsys.readouterr().err


class TestEval:
    def test_report_rows_and_ceiling(self, workspace, tmp_path):
        root, corpus, _ = workspace
        manifest = data_io.load_manifest(corpus / "manifest.csv")
        enhanced = tmp_path / "perfect"
        os.makedirs(enhanced)
        for e in manifest.split_entries("test"):
            data_io.write_wav(data_io.read_wav(e.clean_path),
                              enhanced / f"{e.utt_id}.wav")
        report = tmp_path / "report.csv"
        rc = main(TINY + ["eval", "--manifest", str(corpus / "manifest.csv"),
                          "--enhanced", str(enhanced), "--out", str(report)])
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["utt_id", "snr_db", "fwsegsnr", "segsnr",
                              "amp_mse"]
        data_rows = [l.split(",") for l in lines[1:] if not l.startswith("MEAN")]
        for row in data_rows:
            assert float(row[2]) == pytest.approx(35.0)
        assert any(l.startswith("MEAN@") for l in lines[1:])

    def test_one_stft_per_signal_and_scores_unchanged(self, workspace, tmp_path,
                                                      monkeypatch):
        root, corpus, _ = workspace
        entries = data_io.load_manifest(corpus / "manifest.csv").split_entries("test")
        enhanced = tmp_path / "scaled"
        os.makedirs(enhanced)
        for e in entries:
            w = data_io.read_wav(e.noisy_path)
            data_io.write_wav(Waveform(0.5 * w.samples, w.sample_rate),
                              enhanced / f"{e.utt_id}.wav")
        calls = []
        real_stft = signal_core.stft
        monkeypatch.setattr(signal_core, "stft",
                            lambda *a, **k: calls.append(1) or real_stft(*a, **k))
        report = tmp_path / "report.csv"
        rc = main(TINY + ["eval", "--manifest", str(corpus / "manifest.csv"),
                          "--enhanced", str(enhanced), "--out", str(report)])
        assert rc == 0
        assert len(calls) == 3 * len(entries)   # clean, enhanced, noisy
        monkeypatch.undo()

        # bit-identical to the three public metrics, each running its own STFTs
        with open(report, newline="", encoding="utf-8") as fh:
            rows = {r["utt_id"]: r for r in csv.DictReader(fh)}
        for e in entries:
            clean = data_io.read_wav(e.clean_path)
            for suffix, test in (("", data_io.read_wav(enhanced / f"{e.utt_id}.wav")),
                                 ("_noisy", data_io.read_wav(e.noisy_path))):
                want = {"fwsegsnr": metrics.fwsegsnr(clean, test, 64, 16),
                        "segsnr": metrics.segsnr(clean, test),
                        "amp_mse": metrics.amplitude_mse(clean, test, 64, 16)}
                for key, value in want.items():
                    assert float(rows[e.utt_id][key + suffix]) == value, key + suffix

    def test_cfg_report_is_usage_error(self, workspace, tmp_path, capsys):
        # the resolved config goes beside the report with a .cfg suffix, so a
        # report named *.cfg would be replaced by it
        root, corpus, _ = workspace
        enhanced = tmp_path / "perfect"
        os.makedirs(enhanced)
        for e in data_io.load_manifest(corpus / "manifest.csv").split_entries("test"):
            shutil.copy(e.clean_path, enhanced / f"{e.utt_id}.wav")
        rc = main(TINY + ["eval", "--manifest", str(corpus / "manifest.csv"),
                          "--enhanced", str(enhanced), "--out", str(tmp_path / "r.cfg")])
        assert rc == 1
        assert "the resolved config would replace the report" in capsys.readouterr().err
        assert not (tmp_path / "r.cfg").exists()

    @pytest.mark.parametrize("target", ["manifest", "clean", "noise", "enhanced", "config"])
    def test_out_that_would_replace_an_input_is_usage_error(self, workspace, tmp_path,
                                                            capsys, target):
        # --out, or the .cfg beside it, is the manifest, a file the manifest
        # names, an enhanced WAV or the --config file: refused before any
        # file is written, every file left as it was
        _, corpus, _ = workspace
        shutil.copytree(corpus, tmp_path / "corpus")
        manifest = tmp_path / "corpus" / "manifest.csv"
        entry = data_io.load_manifest(manifest).split_entries("test")[0]
        enhanced = tmp_path / "enhanced"
        os.makedirs(enhanced)
        shutil.copy(entry.clean_path, enhanced / f"{entry.utt_id}.wav")
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\n", encoding="utf-8")
        out = {"manifest": manifest, "clean": entry.clean_path,
               "noise": tmp_path / "corpus" / "train" / "noise" / "train_0000.wav",
               "enhanced": enhanced / f"{entry.utt_id}.wav",
               "config": tmp_path / "run.csv"}[target]   # the report's .cfg is run.cfg

        def files():
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

        before = files()
        rc = main(TINY + ["--config", str(config), "eval", "--manifest", str(manifest),
                          "--enhanced", str(enhanced), "--out", str(out)])
        assert rc == 1
        assert "would replace input" in capsys.readouterr().err
        assert files() == before

    def test_failed_report_write_keeps_the_earlier_report(self, workspace, tmp_path,
                                                          monkeypatch):
        _, corpus, _ = workspace
        enhanced = tmp_path / "perfect"
        os.makedirs(enhanced)
        for e in data_io.load_manifest(corpus / "manifest.csv").split_entries("test"):
            shutil.copy(e.clean_path, enhanced / f"{e.utt_id}.wav")
        argv = TINY + ["eval", "--manifest", str(corpus / "manifest.csv"),
                       "--enhanced", str(enhanced), "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0

        def files():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

        before = files()
        assert set(before) == {"r.csv", "r.cfg"}
        fail_writes(monkeypatch, "r.csv.tmp")
        assert main(argv) == 2
        assert files() == before

    def test_empty_eval_is_data_error(self, workspace, tmp_path):
        root, corpus, _ = workspace
        empty = tmp_path / "none"
        os.makedirs(empty)
        rc = main(TINY + ["eval", "--manifest", str(corpus / "manifest.csv"),
                          "--enhanced", str(empty),
                          "--out", str(tmp_path / "r.csv")])
        assert rc == 2


    def test_malformed_manifest_is_data_error(self, workspace, tmp_path, capsys):
        # a row cut short is a data error naming its line, not a traceback
        root, corpus, ckpt = workspace
        lines = (corpus / "manifest.csv").read_text(encoding="utf-8").splitlines()
        bad = tmp_path / "short_row.csv"
        bad.write_text("\n".join(lines[:1] + [lines[1].rsplit(",", 1)[0]]) + "\n",
                       encoding="utf-8")
        for command in (["eval", "--enhanced", str(tmp_path)],
                        ["enhance", "--checkpoint", str(ckpt)],
                        ["enhance", "--method", "kf", "--oracle-noise"]):
            rc = main(TINY + command + ["--manifest", str(bad),
                                        "--out", str(tmp_path / "sub" / "out")])
            assert rc == 2
            assert "line 2: expected 9 fields" in capsys.readouterr().err
            assert not (tmp_path / "sub").exists()


class TestGradcheckAndUsage:
    def test_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out

    def test_gradcheck_negative_seed_is_usage_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        assert "--seed must be nonnegative" in capsys.readouterr().err

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_config_value(self, tmp_path):
        assert main(["--set", "window=13", "synth",
                     "--out", str(tmp_path / "c")]) == 1

    def test_non_finite_config_is_usage_error(self, tmp_path):
        out = tmp_path / "c"
        assert main(TINY + ["--set", "utterance_seconds=nan", "synth",
                            "--out", str(out)]) == 1
        assert not out.exists()
