import os
import re
import struct
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import nkf
from nkf import data_io
from nkf.config import RunConfig, save_config
from nkf.errors import DataError
from nkf.signal_core import Waveform, stft


def _measured_snr(speech: Waveform, noise: Waveform) -> float:
    return 10.0 * np.log10(np.mean(speech.samples ** 2)
                           / np.mean(noise.samples ** 2))


def fail_writes(monkeypatch, suffix: str):
    """From now on, a file that ``data_io`` opens at a path ending in
    ``suffix`` raises ``OSError("disk full")`` at its second write, once the
    first has reached it."""
    real_open = open

    class Failing:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

    def opening(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return Failing(fh) if os.fspath(path).endswith(suffix) else fh

    monkeypatch.setattr(data_io, "open", opening, raising=False)


class TestAtomicWriters:
    """``write_wav``, ``write_manifest`` and ``save_config`` write through
    ``data_io.replacing``: a write that raises partway leaves the earlier
    file byte-identical and no ``.tmp`` file."""

    @staticmethod
    def _manifest(tmp_path, n):
        return data_io.CorpusManifest([data_io.ManifestEntry(
            f"utt{i}", "train", *(os.fspath(tmp_path / f"{kind}{i}.wav")
                                  for kind in ("clean", "noisy", "noise")),
            data_io.MixSpec(snr_db=0.0, seed=i, speech_id=f"s{i}", noise_id=f"n{i}"))
            for i in range(n)])

    @pytest.mark.parametrize("writer", ["write_wav", "write_manifest", "save_config"])
    def test_failed_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        write = {
            "write_wav": lambda n: data_io.write_wav(Waveform(np.full(64, n / 4)), path),
            "write_manifest": lambda n: data_io.write_manifest(
                self._manifest(tmp_path, n), path),
            "save_config": lambda n: save_config(RunConfig(seed=n), path),
        }[writer]
        write(1)
        before = path.read_bytes()
        fail_writes(monkeypatch, "out.tmp")
        with pytest.raises(OSError, match="disk full"):
            write(2)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out"]


class TestWavIo:
    def test_pcm16_roundtrip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(0)
        w = Waveform(rng.uniform(-0.99, 0.99, 4000))
        path = tmp_path / "x.wav"
        data_io.write_wav(w, path, encoding="pcm16")
        back = data_io.read_wav(path)
        assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15

    def test_float32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-1, 1, 4000))
        path = tmp_path / "x.wav"
        data_io.write_wav(w, path, encoding="float32")
        back = data_io.read_wav(path)
        np.testing.assert_array_equal(back.samples,
                                      w.samples.astype(np.float32))

    def test_truncated_file_is_malformed(self, tmp_path):
        path = tmp_path / "x.wav"
        data_io.write_wav(Waveform(np.zeros(1000)), path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(DataError, match="malformed"):
            data_io.read_wav(path)

    @pytest.mark.parametrize("cut", [1, 100])
    def test_truncated_data_chunk_is_malformed(self, tmp_path, cut):
        path = tmp_path / "x.wav"
        data_io.write_wav(Waveform(np.zeros(1000)), path, encoding="pcm16")
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DataError, match="malformed header"):
            data_io.read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_float32_sample_names_the_file(self, tmp_path, bad):
        path = tmp_path / "x.wav"
        samples = np.array([0.0, 0.5, bad, -0.5], dtype="<f4")
        path.write_bytes(_riff(_fmt(3, 32), _chunk(b"data", samples.tobytes())))
        with pytest.raises(DataError, match=re.escape(f"{path}: waveform contains "
                                                      "non-finite samples")):
            data_io.read_wav(path)

    def test_data_before_fmt_is_malformed(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_riff(_chunk(b"data", b"\0\0"), _fmt(1, 16)))
        with pytest.raises(DataError, match="malformed header"):
            data_io.read_wav(path)

    @pytest.mark.parametrize("rate,encoding", [(16000.5, "float32"),
                                               (2 ** 32, "pcm16"),
                                               (2 ** 30, "float32")])
    def test_rate_a_header_cannot_hold_rejected(self, tmp_path, rate, encoding):
        path = tmp_path / "x.wav"
        with pytest.raises(DataError, match=f"sample rate {rate}"):
            data_io.write_wav(Waveform(np.zeros(10), sample_rate=rate), path,
                              encoding=encoding)
        assert not path.exists()

    def test_rate_fitting_pcm16_byte_rate_roundtrips(self, tmp_path):
        # 2**30 fits as a PCM16 byte rate (2**31) but not as float32's (2**32)
        path = tmp_path / "x.wav"
        data_io.write_wav(Waveform(np.zeros(10), sample_rate=2 ** 30), path,
                          encoding="pcm16")
        assert data_io.read_wav(path, 2 ** 30).sample_rate == 2 ** 30

    def test_not_a_wav_is_malformed(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"this is not audio at all, not even close")
        with pytest.raises(DataError, match="malformed"):
            data_io.read_wav(path)

    def test_wrong_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        data_io.write_wav(Waveform(np.zeros(1000), sample_rate=8000), path)
        with pytest.raises(DataError, match="sample rate"):
            data_io.read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(DataError, match="mono"):
            data_io.read_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        from scipy.io import wavfile
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(DataError, match="encoding"):
            data_io.read_wav(path)


def _chunk(chunk_id: bytes, payload: bytes) -> bytes:
    pad = b"\0" if len(payload) % 2 else b""
    return chunk_id + struct.pack("<I", len(payload)) + payload + pad


def _riff(*chunks, trailing=b""):
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body + trailing


def _fmt(tag, bits, extensible=False, rate=16000):
    width = bits // 8
    head = (0xFFFE if extensible else tag, 1, rate, rate * width, width, bits)
    body = struct.pack("<HHIIHH", *head)
    if extensible:  # cbSize, valid bits, channel mask, SubFormat GUID
        body += struct.pack("<HHII", 22, bits, 4, tag) \
            + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return _chunk(b"fmt ", body)


def _scipy_read(path):
    from scipy.io import wavfile
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # WavFileWarning on unknown chunks
        rate, data = wavfile.read(path)
    assert data.dtype in (np.int16, np.float32) and data.ndim == 1
    scale = 32768.0 if data.dtype == np.int16 else 1.0
    return rate, data.astype(np.float64) / scale


class TestWavAgainstScipy:
    """scipy.io.wavfile is the oracle for the numpy-only reader and writer."""

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    @pytest.mark.parametrize("rate", [8000, 16000])
    @pytest.mark.parametrize("n", [0, 1, 3, 40001])
    def test_write_bytes_equal_scipy(self, tmp_path, encoding, rate, n):
        from scipy.io import wavfile
        w = Waveform(np.random.default_rng(n).uniform(-1.2, 1.2, n), rate)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        data_io.write_wav(w, ours, encoding=encoding)
        if encoding == "pcm16":
            data = np.clip(np.rint(w.samples * 32768.0), -32768, 32767) \
                .astype(np.int16)
        else:
            data = w.samples.astype(np.float32)
        wavfile.write(theirs, rate, data)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize("case", ["list_before_fmt", "odd_chunk_pad",
                                      "extensible_pcm16", "extensible_float32",
                                      "trailing_bytes"])
    def test_read_equals_scipy_on_hand_built_files(self, tmp_path, case):
        rng = np.random.default_rng(12)
        pcm = rng.integers(-32768, 32768, 301).astype("<i2").tobytes()
        flt = rng.uniform(-1, 1, 301).astype("<f4").tobytes()
        info = _chunk(b"LIST", b"INFO" + _chunk(b"ISFT", b"nkf\0"))
        files = {
            "list_before_fmt": _riff(info, _fmt(1, 16), _chunk(b"data", pcm)),
            "odd_chunk_pad": _riff(_fmt(3, 32), _chunk(b"abcd", b"xyz"),
                                   _chunk(b"data", flt)),
            "extensible_pcm16": _riff(_fmt(1, 16, extensible=True),
                                      _chunk(b"data", pcm)),
            "extensible_float32": _riff(_fmt(3, 32, extensible=True), info,
                                        _chunk(b"data", flt)),
            "trailing_bytes": _riff(_fmt(1, 16), _chunk(b"data", pcm),
                                    trailing=b"\x01\x02\x03"),
        }
        path = tmp_path / "x.wav"
        path.write_bytes(files[case])
        rate, want = _scipy_read(path)
        got = data_io.read_wav(path)
        assert got.sample_rate == rate == 16000
        np.testing.assert_array_equal(got.samples, want)

    def test_import_loads_no_scipy(self):
        code = ("import sys, nkf, nkf.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cli_runs_without_scipy(self, tmp_path):
        code = textwrap.dedent("""
            import sys
            sys.modules["scipy"] = None
            from nkf.cli import main
            out, tiny = sys.argv[1], ["--set", "window=64", "--set", "hop=16",
                "--set", "variance_span=8", "--set", "train_count=1",
                "--set", "dev_count=1", "--set", "test_count=2",
                "--set", "utterance_seconds=0.5"]
            manifest = out + "/c/manifest.csv"
            print(main(tiny + ["synth", "--out", out + "/c"]),
                  main(tiny + ["enhance", "--manifest", manifest,
                               "--method", "wiener", "--oracle-noise",
                               "--out", out + "/e"]),
                  main(tiny + ["eval", "--manifest", manifest,
                               "--enhanced", out + "/e", "--out", out + "/r.csv"]))
            """)
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                             env=_child_env(), capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 0 0", out.stderr
        assert (tmp_path / "r.csv").exists()


def _child_env():
    src = os.path.dirname(os.path.dirname(nkf.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class TestMixAtSnr:
    def _pair(self, rng, n=8000):
        speech = Waveform(0.2 * np.sin(2 * np.pi * 300 * np.arange(n) / 16000))
        noise = Waveform(0.2 * np.sin(2 * np.pi * 777 * np.arange(2 * n) / 16000
                                      + rng.uniform(0, 1)))
        return speech, noise

    def test_equal_power_zero_db_scale_one(self):
        rng = np.random.default_rng(2)
        n = 8000
        speech = Waveform(0.1 * np.sin(2 * np.pi * 250 * np.arange(n) / 16000))
        noise = Waveform(np.roll(speech.samples, 17))
        noisy, scaled = data_io.mix_at_snr(speech, noise, 0.0, rng)
        np.testing.assert_allclose(np.mean(scaled.samples ** 2),
                                   np.mean(speech.samples ** 2), rtol=1e-9)

    def test_ten_db_scale(self):
        # solving the power ratio: scaled rms = speech rms * 10^(-1/2)
        rng = np.random.default_rng(3)
        speech, noise = self._pair(rng)
        _, scaled = data_io.mix_at_snr(speech, noise, 10.0, rng)
        got = np.sqrt(np.mean(scaled.samples ** 2))
        want = np.sqrt(np.mean(speech.samples ** 2)) * 10 ** (-0.5)
        assert got == pytest.approx(want, rel=1e-9)

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(4)
        for snr in (-20.0, -5.0, 0.0, 7.5, 30.0):
            speech = Waveform(0.1 * rng.standard_normal(8000))
            noise = Waveform(0.3 * rng.standard_normal(20000))
            noisy, scaled = data_io.mix_at_snr(speech, noise, snr, rng)
            assert _measured_snr(speech, scaled) == pytest.approx(snr, abs=1e-6)
            np.testing.assert_allclose(noisy.samples,
                                       speech.samples + scaled.samples)

    def test_noise_shorter_than_speech_rejected(self):
        with pytest.raises(DataError):
            data_io.mix_at_snr(Waveform(np.ones(100) * 0.1),
                               Waveform(np.ones(50) * 0.1), 0.0, 0)

    def test_silent_inputs_rejected(self):
        with pytest.raises(DataError, match="silent"):
            data_io.mix_at_snr(Waveform(np.zeros(100)),
                               Waveform(np.ones(200) * 0.1), 0.0, 0)

    def test_segment_cut_is_seeded(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        speech = Waveform(0.1 * np.sin(np.arange(4000) * 0.2))
        noise = Waveform(0.1 * np.random.default_rng(6).standard_normal(9000))
        _, s1 = data_io.mix_at_snr(speech, noise, 3.0, rng_a)
        _, s2 = data_io.mix_at_snr(speech, noise, 3.0, rng_b)
        np.testing.assert_array_equal(s1.samples, s2.samples)


class TestOracleNoiseVariance:
    def _cfg(self):
        return RunConfig(utterance_seconds=1.0)

    def test_zero_noise_zero_grid(self):
        cfg = self._cfg()
        grid = data_io.oracle_noise_variance(
            Waveform(np.zeros(16000)), cfg)
        assert np.all(grid == 0)

    def test_white_noise_grid_roughly_flat(self):
        cfg = self._cfg()
        rng = np.random.default_rng(7)
        grid = data_io.oracle_noise_variance(
            Waveform(0.1 * rng.standard_normal(64000)), cfg)
        profile = grid[40:].mean(axis=0)[1:-1]  # skip DC/Nyquist, settle-in
        assert np.std(profile) / np.mean(profile) < 0.2

    def test_variance_grids_agree_both_ways_at_zero_db(self):
        # the additive amplitude model says |Y| - |X| behaves like |V|;
        # variance grids computed from either side must agree. Structured
        # noise is used so the grids have shape to correlate (a flat white
        # spectrum leaves only estimator fluctuation on both sides).
        cfg = self._cfg()
        from nkf.wiener import track_sigma_y
        for kind in ("pink", "amnoise"):
            rng = np.random.default_rng(8)
            speech = Waveform(data_io._synth_speech(rng, 32000, 16000))
            noise = Waveform(data_io._synth_noise(rng, kind, 64000, 16000))
            noisy, scaled = data_io.mix_at_snr(speech, noise, 0.0, rng)
            amp_y = stft(noisy, cfg.window, cfg.hop).amplitude
            amp_x = stft(speech, cfg.window, cfg.hop).amplitude
            amp_v = stft(scaled, cfg.window, cfg.hop).amplitude
            from_residual = track_sigma_y(np.abs(amp_y - amp_x),
                                          cfg.variance_span)
            from_noise = track_sigma_y(amp_v, cfg.variance_span)
            corr = np.corrcoef(from_residual.ravel(), from_noise.ravel())[0, 1]
            assert corr > 0.9


class TestSynthCorpus:
    def _cfg(self):
        return RunConfig(train_count=3, dev_count=2, test_count=2,
                         utterance_seconds=0.5, seed=11)

    def test_counts_and_layout(self, tmp_path):
        cfg = self._cfg()
        manifest = data_io.synth_corpus(cfg, tmp_path)
        assert len(manifest.split_entries("train")) == 3
        assert len(manifest.split_entries("dev")) == 2
        assert len(manifest.split_entries("test")) == 2
        assert (tmp_path / "manifest.csv").exists()
        assert (tmp_path / "train" / "clean" / "train_0000.wav").exists()
        assert (tmp_path / "test" / "noise" / "test_0001.wav").exists()

    def test_same_seed_bit_identical(self, tmp_path):
        cfg = self._cfg()
        data_io.synth_corpus(cfg, tmp_path / "a")
        data_io.synth_corpus(cfg, tmp_path / "b")
        for sub in ("manifest.csv", "train/noisy/train_0002.wav",
                    "test/clean/test_0000.wav", "dev/noise/dev_0001.wav"):
            assert (tmp_path / "a" / sub).read_bytes() \
                == (tmp_path / "b" / sub).read_bytes()

    def test_manifest_snrs_remeasure(self, tmp_path):
        cfg = self._cfg()
        manifest = data_io.synth_corpus(cfg, tmp_path)
        for e in manifest.entries:
            clean = data_io.read_wav(e.clean_path)
            noise = data_io.read_wav(e.noise_path)
            assert _measured_snr(clean, noise) == pytest.approx(
                e.mix.snr_db, abs=1e-6)

    def test_test_split_uses_test_grid(self, tmp_path):
        cfg = self._cfg()
        manifest = data_io.synth_corpus(cfg, tmp_path)
        for e in manifest.split_entries("test"):
            assert e.mix.snr_db in cfg.test_snrs
        for e in manifest.split_entries("train"):
            assert e.mix.snr_db in cfg.train_snrs

    def test_manifest_roundtrip(self, tmp_path):
        cfg = self._cfg()
        manifest = data_io.synth_corpus(cfg, tmp_path)
        loaded = data_io.load_manifest(tmp_path / "manifest.csv")
        assert loaded.entries == manifest.entries

    @staticmethod
    def _fail_on_write(monkeypatch, n):
        real, calls = data_io.write_wav, []

        def write_wav(wave, path):
            calls.append(path)
            if len(calls) == n:
                raise DataError("disk full")
            real(wave, path)

        monkeypatch.setattr(data_io, "write_wav", write_wav)

    def test_failed_call_removes_the_directories_it_made(self, tmp_path,
                                                          monkeypatch):
        # the 11th write is the first dev file, after the whole train split
        self._fail_on_write(monkeypatch, 11)
        out = tmp_path / "new" / "corpus"
        with pytest.raises(DataError, match="disk full"):
            data_io.synth_corpus(self._cfg(), out)
        assert list(tmp_path.iterdir()) == []

    def test_failed_call_keeps_directories_that_were_there(self, tmp_path,
                                                           monkeypatch):
        (tmp_path / "train").mkdir()
        (tmp_path / "train" / "notes.txt").write_text("keep")
        self._fail_on_write(monkeypatch, 2)
        with pytest.raises(DataError, match="disk full"):
            data_io.synth_corpus(self._cfg(), tmp_path)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["notes.txt", "train"]

    # each edits the fields of the manifest's line 3, its second utterance
    @pytest.mark.parametrize("edit,match", [
        (lambda f: f[:-1], "line 3: expected 9 fields"),
        (lambda f: f + ["extra"], "line 3: expected 9 fields"),
        (lambda f: f[:2] + ["loud"] + f[3:], "line 3: could not convert"),
        (lambda f: f[:2] + ["nan"] + f[3:], "line 3: snr_db 'nan' is not finite"),
        (lambda f: f[:2] + ["inf"] + f[3:], "line 3: snr_db 'inf' is not finite"),
        (lambda f: f[:3] + ["1.5"] + f[4:], "line 3: invalid literal"),
        (lambda f: f[:1] + ["trian"] + f[2:], "line 3: split 'trian' is not one of"),
        (lambda f: ["../escaped"] + f[1:], "line 3: utt_id '../escaped' is not a file name"),
        (lambda f: ["."] + f[1:], "line 3: utt_id '.' is not a file name"),
        (lambda f: [""] + f[1:], "line 3: utt_id '' is not a file name"),
    ], ids=["too-few-fields", "extra-field", "non-numeric-snr", "nan-snr", "inf-snr",
            "non-integer-seed", "unknown-split", "id-with-directory", "dot-id", "empty-id"])
    def test_malformed_manifest_row_rejected(self, tmp_path, edit, match):
        data_io.synth_corpus(self._cfg(), tmp_path)
        path = tmp_path / "manifest.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=match):
            data_io.load_manifest(path)

    def test_manifest_missing_file_rejected(self, tmp_path):
        cfg = self._cfg()
        data_io.synth_corpus(cfg, tmp_path)
        (tmp_path / "train" / "clean" / "train_0000.wav").unlink()
        with pytest.raises(DataError, match="missing"):
            data_io.load_manifest(tmp_path / "manifest.csv")
