"""WAV decoding, labelled text tables, and analysis framing.

Decoded audio is always mono float64, scaled by the integer full-scale
value and then peak-normalized so max |sample| = 1 (all-zero signals are
left as is).  Amplitude-scale features downstream are therefore relative
to the recording's own peak.
"""

from __future__ import annotations

import os
import wave
import logging
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AudioDecodeError, ConfigError, DataError

log = logging.getLogger(__name__)

# the text of each class label in a manifest or feature CSV
_LABELS = {"0": 0, "1": 1, "2": 2}

# full-scale values per sample width in bytes
_FULL_SCALE = {2: 32768.0, 3: 8388608.0}


@dataclass
class AudioSignal:
    """Normalized mono waveform."""

    samples: np.ndarray
    sample_rate: int
    source_path: str = ""

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise AudioDecodeError(f"zero-length audio: {self.source_path!r}")
        if not np.all(np.isfinite(self.samples)):
            raise AudioDecodeError(f"non-finite samples: {self.source_path!r}")
        if self.sample_rate <= 0:
            raise AudioDecodeError(f"sample_rate must be positive, got {self.sample_rate}")
        if _peak(self.samples) > 1.0 + 1e-9:
            raise AudioDecodeError(f"samples exceed [-1, 1]: {self.source_path!r}")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: int


def _peak(samples: np.ndarray) -> float:
    """max |sample| without an |x| copy; equal to np.max(np.abs(x)) for finite x."""
    return max(samples.max(), -samples.min())


def peak_normalize(samples: np.ndarray) -> np.ndarray:
    """Scale so max |sample| = 1; identity for all-zero input. Idempotent."""
    peak = _peak(samples)
    if peak == 0.0:
        return samples
    return samples / peak


def load_wav(path: str) -> AudioSignal:
    """Decode a PCM 16/24-bit mono or stereo WAV into an AudioSignal.

    Stereo is downmixed by per-sample channel average before normalization.
    Both scalings divide in place rather than copying the samples.
    """
    if not os.path.isfile(path):
        raise AudioDecodeError(f"file not found: {path!r}")
    try:
        with wave.open(path, "rb") as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            sample_rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        raise AudioDecodeError(f"not a decodable PCM WAV file: {path!r} ({exc})") from exc
    except EOFError as exc:
        raise AudioDecodeError(f"truncated WAV file: {path!r}") from exc
    except RuntimeError as exc:
        # Python 3.11's `wave` raises a bare RuntimeError when a chunk's size
        # runs past the end of the file
        raise AudioDecodeError(f"chunk size runs past the end of WAV file: {path!r}") from exc

    if sampwidth not in _FULL_SCALE:
        raise AudioDecodeError(
            f"unsupported bit depth {8 * sampwidth} in {path!r} (need 16 or 24)"
        )
    if n_channels not in (1, 2):
        raise AudioDecodeError(f"unsupported channel count {n_channels} in {path!r}")
    if n_frames == 0:
        raise AudioDecodeError(f"zero-length audio: {path!r}")
    if len(raw) < n_frames * n_channels * sampwidth:
        raise AudioDecodeError(f"truncated data chunk in {path!r}")

    if sampwidth == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    else:
        # each 3-byte sample goes into the top of a little-endian int32; the
        # arithmetic shift back down sign-extends it
        wide = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = wide.view("<i4").reshape(-1)
        ints >>= 8
        samples = ints.astype(np.float64)
    samples /= _FULL_SCALE[sampwidth]
    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    peak = _peak(samples)
    if peak != 0.0:
        samples /= peak
    return AudioSignal(samples=samples, sample_rate=sample_rate, source_path=path)


def save_wav(signal: AudioSignal, path: str) -> None:
    """Write a signal as 16-bit PCM mono WAV; a path that cannot be created is a DataError."""
    clipped = np.clip(signal.samples, -1.0, 1.0)
    ints = np.round(clipped * 32767.0).astype("<i2")
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise DataError(f"cannot write {path!r}: {exc.strerror}") from None
    with fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate)
        wf.writeframes(ints.tobytes())


def read_table(path: str, what: str, header_required: bool):
    """(header, rows) of a manifest or feature CSV, decoded whole before any row is split.

    The header is the first non-blank line's stripped fields when the last is `label`,
    else None.  `rows` yields (line number, fields) of each other non-blank line.  A file
    that cannot be read or decoded, or lacks a required header, is a DataError naming `what`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, line.strip()) for no, line in enumerate(fh, start=1) if line.strip()]
    except OSError as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path!r} is not UTF-8 text: {exc}") from None
    first = [name.strip() for name in lines[0][1].split(",")] if lines else [""]
    header = first if first[-1] == "label" else None
    if header is None and header_required:
        raise DataError(f"{what} {path!r} must end with a `label` column" if lines
                        else f"empty {what}: {path!r}")
    return header, ((no, line.split(",")) for no, line in (lines[1:] if header else lines))


def parse_label(text: str, path: str, lineno: int) -> int:
    """The class of a label field: exactly 0, 1 or 2 once stripped."""
    label = _LABELS.get(text.strip())
    if label is None:
        raise DataError(f"{path!r} line {lineno}: label {text.strip()!r} is not one of 0, 1, 2")
    return label


def load_manifest(path: str) -> list[ManifestEntry]:
    """Read a `path,label` manifest; a first line such as `path,label` is a header."""
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    _, rows = read_table(path, "manifest", header_required=False)
    for lineno, fields in rows:
        if len(fields) != 2:
            raise DataError(f"{path!r} line {lineno}: expected `path,label`, "
                            f"got {','.join(fields)!r}")
        wav_path, label = fields[0].strip(), parse_label(fields[1], path, lineno)
        if wav_path in seen:
            log.warning("manifest %s line %d: duplicate path %r (kept)", path, lineno, wav_path)
        seen.add(wav_path)
        entries.append(ManifestEntry(path=wav_path, label=label))
    return entries


def frame_geometry(sample_rate: int, frame_ms: float, hop_ms: float) -> tuple[int, int]:
    """Frame length and hop in samples, each at least 1.

    Raises ConfigError for a frame longer than any array dimension and for
    a hop that overflows float64.
    """
    if frame_ms <= 0 or hop_ms <= 0:
        raise ValueError("frame_ms and hop_ms must be positive")
    length = frame_ms * sample_rate / 1000.0
    hop = hop_ms * sample_rate / 1000.0
    if not length <= np.iinfo(np.intp).max:  # inf included
        raise ConfigError(f"frame_ms {frame_ms} gives {length:g} samples at {sample_rate} Hz, "
                          "more than an array can hold")
    if not np.isfinite(hop):
        raise ConfigError(f"hop_ms {hop_ms} gives {hop:g} samples at {sample_rate} Hz, "
                          "beyond float64")
    return max(int(round(length)), 1), max(int(round(hop)), 1)


def frame_signal(samples: np.ndarray, sample_rate: int,
                 frame_ms: float, hop_ms: float) -> np.ndarray:
    """Tile samples with fixed-size frames; a short trailing frame is dropped.

    Returns a read-only strided (n_frames, frame_len) view: row i starts at
    sample i * hop.  Nothing is copied.  A signal shorter than one frame
    gives zero rows.
    """
    length, hop = frame_geometry(sample_rate, frame_ms, hop_ms)
    if length > len(samples):
        return np.empty((0, length))
    return sliding_window_view(samples, length)[::hop]
