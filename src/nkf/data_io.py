"""WAV ingestion/emission, SNR-controlled mixing, and the synthetic corpus.

The corpus generator replaces large speech/noise databases at desk scale:
"speech" is a harmonic tone complex with wandering pitch, a slowly varying
amplitude envelope and smooth pauses; "noise" cycles through white, pink,
and amplitude-modulated band-limited flavors. Everything is derived from
integer seeds, so a corpus regenerates bit-identically.

Corpus layout under the output directory:

    manifest.csv
    {train,dev,test}/clean/<utt>.wav
    {train,dev,test}/noisy/<utt>.wav
    {train,dev,test}/noise/<utt>.wav      (the scaled noise actually added)

WAV files are mono 16 kHz, PCM 16-bit or IEEE float32; the corpus is written
as float32 so re-measured mix SNRs stay within micro-dB of the request. The
reader takes little-endian RIFF/WAVE with format tag 1 (16-bit) or 3 (32-bit),
plain or inside WAVE_FORMAT_EXTENSIBLE, skips other chunks and ignores what
follows the data chunk. The writer emits the bytes scipy.io.wavfile.write
does: a 16-byte ``fmt `` chunk for PCM16; an 18-byte one and a ``fact`` chunk
for float32.
"""

from __future__ import annotations

import contextlib
import csv
import os
import shutil
import struct
from dataclasses import dataclass

import numpy as np

from . import signal_core, wiener
from .errors import DataError

_SILENT_POWER = 1e-20

SPLITS = ("train", "dev", "test")
NOISE_KINDS = ("white", "pink", "amnoise")


@dataclass(frozen=True)
class MixSpec:
    snr_db: float
    seed: int
    speech_id: str
    noise_id: str


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    split: str
    clean_path: str
    noisy_path: str
    noise_path: str
    mix: MixSpec


@dataclass
class CorpusManifest:
    entries: list

    def split_entries(self, split: str) -> list:
        return [e for e in self.entries if e.split == split]


# -- WAV ---------------------------------------------------------------------

_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
#: Bytes 4-15 of the KSDATAFORMAT_SUBTYPE GUIDs that carry a format tag.
_SUBTYPE_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
#: (format tag, bits per sample, block align) -> sample type: all that is read.
_SAMPLE_TYPES = {(_PCM, 16, 2): np.dtype("<i2"), (_FLOAT, 32, 4): np.dtype("<f4")}


def _parse_wav(buf: memoryview):
    """(tag, channels, rate, block align, bits) and a view of the data chunk."""
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a little-endian RIFF/WAVE file")
    fmt, pos = None, 12
    while pos + 8 <= len(buf):
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        body = buf[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{chunk_id!r} chunk holds {len(body)} of {size} bytes")
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValueError(f"fmt chunk of {size} bytes")
            tag, channels, rate, _, align, bits = struct.unpack_from("<HHIIHH", body)
            if tag == _EXTENSIBLE and size >= 40 and body[28:40] == _SUBTYPE_TAIL:
                (tag,) = struct.unpack_from("<I", body, 24)
            fmt = (tag, channels, rate, align, bits)
        elif chunk_id == b"data":
            if fmt is None:
                raise ValueError("data chunk before fmt chunk")
            return fmt, body
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    raise ValueError("no data chunk")


def read_wav(path, expected_rate: int = 16000) -> signal_core.Waveform:
    """Read a mono PCM16 or float32 WAV at the expected sample rate."""
    try:
        with open(path, "rb") as fh:
            buf = memoryview(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        (tag, channels, rate, align, bits), data = _parse_wav(buf)
    except ValueError as exc:
        raise DataError(f"malformed header in {path}: {exc}") from exc
    if channels != 1:
        raise DataError(f"{path}: only mono audio is supported")
    if rate != expected_rate:
        raise DataError(f"{path}: unsupported sample rate {rate}")
    dtype = _SAMPLE_TYPES.get((tag, bits, align))
    if dtype is None:
        raise DataError(f"{path}: unsupported encoding: format {tag:#x}, {bits}-bit")
    samples = np.frombuffer(data, dtype, len(data) // dtype.itemsize).astype(np.float64)
    if dtype.kind == "i":
        samples /= 32768.0
    try:
        return signal_core.Waveform(samples, rate)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **kwargs):
    """A file opened beside ``path`` and moved over it when the block ends: a
    write that fails partway leaves an earlier file intact and no temporary file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_wav(w: signal_core.Waveform, path, encoding: str = "float32"):
    """Write PCM 16-bit (within one LSB of the input) or exact float32."""
    if encoding == "pcm16":
        data = np.clip(np.rint(w.samples * 32768.0), -32768, 32767).astype("<i2")
    elif encoding == "float32":
        data = w.samples.astype("<f4")
    else:
        raise DataError(f"unsupported encoding {encoding!r}")
    rate, width = w.sample_rate, data.itemsize
    if not (float(rate).is_integer() and rate * width <= 0xFFFFFFFF):
        raise DataError(f"sample rate {rate} does not fit a {encoding} WAV header")
    tag = _PCM if width == 2 else _FLOAT
    chunks = struct.pack("<4sIHHIIHH", b"fmt ", 14 + width, tag, 1, int(rate),
                         int(rate) * width, width, 8 * width)
    if width == 4:  # float32: cbSize 0 ends its 18-byte fmt chunk; then fact
        chunks += struct.pack("<H4sII", 0, b"fact", 4, len(data))
    with replacing(path) as fh:
        fh.write(b"RIFF" + struct.pack("<I", 12 + len(chunks) + data.nbytes) + b"WAVE"
                 + chunks + b"data" + struct.pack("<I", data.nbytes))
        fh.write(data)


# -- mixing -------------------------------------------------------------------


def mix_at_snr(speech: signal_core.Waveform, noise: signal_core.Waveform,
               snr_db: float, rng=None):
    """Scale a random contiguous noise segment so the mix hits ``snr_db``.

    Returns the noisy mixture and the scaled noise segment (for oracle
    noise-variance computation). Power is measured over the full utterance.
    """
    if not np.isfinite(snr_db):
        raise DataError("target SNR must be finite")
    if speech.sample_rate != noise.sample_rate:
        raise DataError("speech and noise sample rates differ")
    if len(noise) < len(speech):
        raise DataError("noise must be at least as long as the speech")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    start = int(rng.integers(0, len(noise) - len(speech) + 1))
    segment = noise.samples[start:start + len(speech)]
    p_speech = float(np.mean(speech.samples ** 2))
    p_noise = float(np.mean(segment ** 2))
    if p_speech <= _SILENT_POWER or p_noise <= _SILENT_POWER:
        raise DataError("silent speech or noise")
    scale = np.sqrt(p_speech / (p_noise * 10.0 ** (snr_db / 10.0)))
    scaled = segment * scale
    noisy = signal_core.Waveform(speech.samples + scaled, speech.sample_rate)
    return noisy, signal_core.Waveform(scaled, speech.sample_rate)


def oracle_noise_variance(scaled_noise: signal_core.Waveform, cfg) -> np.ndarray:
    """Ground-truth noise variance grid under the pipeline's framing."""
    spec = signal_core.stft(scaled_noise, cfg.window, cfg.hop)
    return wiener.track_sigma_y(spec.amplitude, cfg.variance_span)


# -- synthetic signals ---------------------------------------------------------


def _synth_speech(rng, n_samples: int, sample_rate: int) -> np.ndarray:
    """Harmonic tone complex with moving pitch, envelope, and pauses."""
    t = np.arange(n_samples) / sample_rate
    duration = n_samples / sample_rate
    f0_base = rng.uniform(90.0, 220.0)
    f0 = f0_base * (
        1.0
        + 0.06 * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t + rng.uniform(0, 2 * np.pi))
        + 0.10 * np.sin(2 * np.pi * rng.uniform(0.1, 0.4) * t + rng.uniform(0, 2 * np.pi))
    )
    phase = 2 * np.pi * np.cumsum(f0) / sample_rate
    n_harm = min(int(4000.0 / f0_base), 24)
    sig = np.zeros(n_samples)
    for h in range(1, n_harm + 1):
        sig += (1.0 / h) * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
    # slowly varying envelope, ~8 control points per second
    n_ctrl = max(int(duration * 8), 2)
    ctrl_t = np.linspace(0.0, duration, n_ctrl)
    env = np.interp(t, ctrl_t, rng.uniform(0.3, 1.0, n_ctrl))
    # smooth pauses
    for _ in range(int(rng.integers(1, 3))):
        center = rng.uniform(0.15, 0.85) * duration
        half = 0.5 * rng.uniform(0.2, 0.5)
        env *= 1.0 / (1.0 + np.exp(-(np.abs(t - center) - half) / 0.01))
    sig *= env
    peak = np.max(np.abs(sig))
    if peak > 0:
        sig *= rng.uniform(0.15, 0.3) / peak
    return sig


def _synth_noise(rng, kind: str, n_samples: int, sample_rate: int) -> np.ndarray:
    """White, pink, or amplitude-modulated band-limited noise at rms 0.1."""
    white = rng.standard_normal(n_samples)
    if kind == "white":
        sig = white
    elif kind == "pink":
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        spectrum[1:] /= np.sqrt(freqs[1:] / freqs[1])
        sig = np.fft.irfft(spectrum, n=n_samples)
    elif kind == "amnoise":
        lo = rng.uniform(200.0, 2000.0)
        hi = min(lo * rng.uniform(2.0, 6.0), 0.45 * sample_rate)
        spectrum = np.fft.rfft(white)
        freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
        spectrum[(freqs < lo) | (freqs > hi)] = 0.0
        band = np.fft.irfft(spectrum, n=n_samples)
        t = np.arange(n_samples) / sample_rate
        rate = rng.uniform(0.5, 4.0)
        sig = band * (0.55 + 0.45 * np.sin(2 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    else:
        raise DataError(f"unknown noise kind {kind!r}")
    rms = np.sqrt(np.mean(sig ** 2))
    return sig * (0.1 / rms)


# -- corpus -------------------------------------------------------------------


def _utterance_seed(master_seed: int, split_index: int, index: int) -> int:
    seq = np.random.SeedSequence([int(master_seed), split_index, index])
    return int(seq.generate_state(1)[0])


def synth_corpus(cfg, out_dir, seed: int | None = None) -> CorpusManifest:
    """Generate the deterministic synthetic corpus and write its manifest.

    A call that fails removes the directories it created, with what it
    wrote in them; directories that existed before are left in place.
    """
    created = []
    try:
        return _synth_corpus(cfg, out_dir, seed, created)
    except BaseException:
        for path in created:   # outermost first: one rmtree takes the rest
            shutil.rmtree(path, ignore_errors=True)
        raise


def _makedirs(path, created: list):
    """``os.makedirs`` that appends each directory it makes to ``created``,
    outermost first."""
    missing = []
    head = os.path.abspath(path)
    while not os.path.isdir(head):
        missing.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    created.extend(reversed(missing))


def _synth_corpus(cfg, out_dir, seed, created) -> CorpusManifest:
    seed = cfg.seed if seed is None else seed
    counts = {"train": cfg.train_count, "dev": cfg.dev_count, "test": cfg.test_count}
    grids = {"train": cfg.train_snrs, "dev": cfg.train_snrs, "test": cfg.test_snrs}
    n_samples = int(round(cfg.utterance_seconds * cfg.sample_rate))
    entries = []
    for split_index, split in enumerate(SPLITS):
        for sub in ("clean", "noisy", "noise"):
            _makedirs(os.path.join(out_dir, split, sub), created)
        for i in range(counts[split]):
            useed = _utterance_seed(seed, split_index, i)
            rng = np.random.default_rng(useed)
            speech = signal_core.Waveform(
                _synth_speech(rng, n_samples, cfg.sample_rate), cfg.sample_rate)
            kind = NOISE_KINDS[i % len(NOISE_KINDS)]
            noise = signal_core.Waveform(
                _synth_noise(rng, kind, int(1.5 * n_samples), cfg.sample_rate),
                cfg.sample_rate)
            grid = grids[split]
            snr_db = float(grid[int(rng.integers(len(grid)))])
            noisy, scaled = mix_at_snr(speech, noise, snr_db, rng)
            utt_id = f"{split}_{i:04d}"
            paths = {sub: os.path.join(split, sub, f"{utt_id}.wav")
                     for sub in ("clean", "noisy", "noise")}
            write_wav(speech, os.path.join(out_dir, paths["clean"]))
            write_wav(noisy, os.path.join(out_dir, paths["noisy"]))
            write_wav(scaled, os.path.join(out_dir, paths["noise"]))
            entries.append(ManifestEntry(
                utt_id=utt_id, split=split,
                clean_path=os.path.join(out_dir, paths["clean"]),
                noisy_path=os.path.join(out_dir, paths["noisy"]),
                noise_path=os.path.join(out_dir, paths["noise"]),
                mix=MixSpec(snr_db=snr_db, seed=useed,
                            speech_id=f"harmonic_{split}_{i:04d}",
                            noise_id=f"{kind}_{split}_{i:04d}"),
            ))
    manifest = CorpusManifest(entries=entries)
    write_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest


_MANIFEST_FIELDS = ("utt_id", "split", "snr_db", "seed", "speech_id",
                    "noise_id", "clean", "noisy", "noise")


def write_manifest(manifest: CorpusManifest, path):
    root = os.path.dirname(os.path.abspath(path))
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_FIELDS)
        for e in manifest.entries:
            writer.writerow([
                e.utt_id, e.split, repr(e.mix.snr_db), e.mix.seed,
                e.mix.speech_id, e.mix.noise_id,
                os.path.relpath(e.clean_path, root),
                os.path.relpath(e.noisy_path, root),
                os.path.relpath(e.noise_path, root),
            ])


def load_manifest(path) -> CorpusManifest:
    """Read a manifest; splits must be in ``SPLITS``, SNRs finite, paths must
    exist and utterance ids be unique file names without a directory part."""
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or \
                    tuple(reader.fieldnames) != _MANIFEST_FIELDS:
                raise DataError(f"{path}: unexpected manifest header")
            for row in reader:
                where = f"{path}, line {reader.line_num}"
                # DictReader files extra fields under None, missing ones as None
                if None in row or None in row.values():
                    raise DataError(f"{where}: expected {len(_MANIFEST_FIELDS)} fields")
                if row["utt_id"] in ("", ".", "..") or \
                        os.path.basename(row["utt_id"]) != row["utt_id"]:
                    raise DataError(f"{where}: utt_id {row['utt_id']!r} is not a file name")
                if row["split"] not in SPLITS:
                    raise DataError(f"{where}: split {row['split']!r} "
                                    f"is not one of {SPLITS}")
                paths = {key: os.path.join(root, row[key])
                         for key in ("clean", "noisy", "noise")}
                for p in paths.values():
                    if not os.path.exists(p):
                        raise DataError(f"manifest references missing file {p}")
                try:
                    mix = MixSpec(snr_db=float(row["snr_db"]), seed=int(row["seed"]),
                                  speech_id=row["speech_id"], noise_id=row["noise_id"])
                except ValueError as exc:
                    raise DataError(f"{where}: {exc}") from exc
                if not np.isfinite(mix.snr_db):   # mix_at_snr refuses it too
                    raise DataError(f"{where}: snr_db {row['snr_db']!r} is not finite")
                entries.append(ManifestEntry(
                    utt_id=row["utt_id"], split=row["split"],
                    clean_path=paths["clean"], noisy_path=paths["noisy"],
                    noise_path=paths["noise"], mix=mix))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    ids = [e.utt_id for e in entries]
    if len(set(ids)) != len(ids):
        raise DataError("manifest contains duplicate utterance ids")
    return CorpusManifest(entries=entries)
