"""Acoustic perturbations: speed, pitch, low-pass filtering and noise mixing.

Every function takes and returns AudioBuffer, preserves the sample rate
(speed changes duration instead), and is deterministic given its inputs and,
where one is accepted, its random generator.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ._numpy import np
from .audio import AudioBuffer, _resample_ratio, load_wav, resample
from .errors import (
    CutoffAboveNyquist,
    EmptyNoiseBank,
    FactorOutOfRange,
    LengthMismatch,
    MalformedManifest,
    ZeroNoisePower,
)

SPEED_FACTOR_MIN = 0.5
SPEED_FACTOR_MAX = 2.0

# Pole qualities of the two biquad sections of a 4th-order Butterworth
# low-pass: 1/(2*cos(pi/8)) and 1/(2*cos(3*pi/8)).
_BUTTER4_Q = (0.5411961001461970, 1.3065629648763764)

# Samples per block of the block low-pass. The zero-state product costs L
# multiply-adds per sample and the state scan one Python step per block;
# on 0.5-3 s inputs 64 ran as fast as 48 and faster than 96 or 128.
_LOWPASS_BLOCK = 64


def _check_factor(factor: float) -> None:
    if not (SPEED_FACTOR_MIN <= factor <= SPEED_FACTOR_MAX):
        raise FactorOutOfRange(
            f"factor {factor} outside [{SPEED_FACTOR_MIN}, {SPEED_FACTOR_MAX}]"
        )


def apply_speed(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Play the signal ``factor`` times faster.

    Plain resampling semantics: duration shrinks to len/factor and the pitch
    moves up by the same factor. The sample rate label is unchanged.
    """
    _check_factor(factor)
    if factor == 1.0:
        return AudioBuffer(buffer.samples, buffer.sample_rate)
    y = _resample_ratio(buffer.samples.astype(np.float64), 1.0 / factor)
    return AudioBuffer(y, buffer.sample_rate)


def _wsola_frame_length(sample_rate: int) -> int:
    # ~32 ms, rounded to a power of two so the 50%-overlap Hann windows
    # sum to exactly one in steady state
    raw = max(64, int(sample_rate * 0.032))
    return 1 << int(round(math.log2(raw)))


def _stretch_to_length(x: np.ndarray, target_len: int, sample_rate: int) -> np.ndarray:
    """Time-scale ``x`` to ``target_len`` samples without moving its pitch.

    Waveform-similarity overlap-add: output frames advance on a fixed
    synthesis grid while their source positions slide along the input; each
    source position is searched within a tolerance for the lag that best
    continues the previously copied frame, which keeps periodic content
    phase-coherent across frame joins. Inputs shorter than one frame fall
    back to linear interpolation.
    """
    n = len(x)
    if target_len <= 0:
        return np.zeros(0, dtype=np.float64)
    if n == target_len:
        return x.copy()
    frame = _wsola_frame_length(sample_rate)
    if n < frame or target_len < frame:
        if n == 1:
            return np.full(target_len, x[0], dtype=np.float64)
        return np.interp(
            np.linspace(0.0, n - 1.0, target_len), np.arange(n, dtype=np.float64), x
        )

    hop = frame // 2
    overlap = hop
    tolerance = frame // 4
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame) / frame)
    starts = range(0, target_len, hop)
    last_start = max(1, (len(starts) - 1) * hop)
    span = n - frame

    out = np.zeros(target_len + frame, dtype=np.float64)
    weight = np.zeros(target_len + frame, dtype=np.float64)
    prev = -1
    for p in starts:
        nominal = int(round(p * span / last_start))
        lo = max(0, nominal - tolerance)
        hi = min(span, nominal + tolerance)
        if prev < 0 or hi <= lo:
            a = min(max(nominal, 0), span)
        else:
            ideal = min(prev + hop, n - overlap)
            # scores[k] is the dot product of x[lo + k :] and x[ideal :] over the overlap
            scores = np.correlate(x[lo : hi + overlap], x[ideal : ideal + overlap])
            a = lo + int(np.argmax(scores))
        out[p : p + frame] += x[a : a + frame] * window
        weight[p : p + frame] += window
        prev = a
    return out[:target_len] / np.maximum(weight[:target_len], 1e-8)


def apply_pitch(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Shift the pitch by ``factor`` while keeping the duration.

    Implemented as resampling (which moves pitch and duration together)
    followed by a time-stretch back to the original length.
    """
    _check_factor(factor)
    if factor == 1.0:
        return AudioBuffer(buffer.samples, buffer.sample_rate)
    shifted = _resample_ratio(buffer.samples.astype(np.float64), 1.0 / factor)
    y = _stretch_to_length(shifted, len(buffer), buffer.sample_rate)
    return AudioBuffer(y, buffer.sample_rate)


def _butter4_system(
    cutoff_hz: float, sample_rate: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The 4th-order Butterworth low-pass as one 4-state system (A, B, C, D):
    s' = A s + B x, y = C s + D x.

    Each biquad (bilinear transform, prewarped) is in direct form II
    transposed, y = b0 u + z1 and z' = [[-a1, 1], [-a2, 0]] z +
    (b1 - a1 b0, b2 - a2 b0) u, and takes the previous output as its u.
    """
    k = math.tan(math.pi * cutoff_hz / sample_rate)
    k2 = k * k
    a, b, c, d = np.zeros((4, 4)), np.zeros(4), np.zeros(4), 1.0
    for i, q in enumerate(_BUTTER4_Q):
        norm = 1.0 / (1.0 + k / q + k2)
        b0 = k2 * norm
        a1 = 2.0 * (k2 - 1.0) * norm
        a2 = (1.0 - k / q + k2) * norm
        bz = np.array([2.0 * b0 - a1 * b0, b0 - a2 * b0])
        z = slice(2 * i, 2 * i + 2)
        # this section's input is the previous output C s + D x
        a[z] = np.outer(bz, c)
        a[z, z] = [[-a1, 1.0], [-a2, 0.0]]
        b[z] = bz * d
        c = b0 * c + np.eye(4)[2 * i]
        d *= b0
    return a, b, c, d


def _lowpass_samples(x: np.ndarray, cutoff_hz: float, sample_rate: int) -> np.ndarray:
    """4th-order Butterworth low-pass of a float64 array, from a zero state.

    Burrus's block realization ("Block realization of digital filters",
    IEEE Trans. Audio Electroacoust. AU-20(4), 1972) of ``_butter4_system``
    over blocks of L samples. Every block matrix is read off the powers
    A^0 .. A^L, each A times the one before:

    - the Toeplitz of the impulse response (D, CB, CAB, ...) gives every
      block's zero-state output, and the input-to-state map (column m is
      A^(L-1-m) B) every block's end state from a zero start;
    - a scan carries the 4-vector state from block to block through A^L;
    - the zero-input rows C A^i add each block's response to its start.

    The products over the signal are ``np.einsum`` calls without
    ``optimize``, run in numpy's own single-threaded loops; the 4 x 4
    set-up products are too small for BLAS to split across threads.
    """
    size = _LOWPASS_BLOCK
    a, b, c, d = _butter4_system(cutoff_hz, sample_rate)
    powers = [np.eye(4)]
    for _ in range(size):
        powers.append(a @ powers[-1])
    powers = np.array(powers)
    # 4 x L and contiguous, which keeps the einsum products below fast
    zero_input = (c @ powers[:size]).T.copy()
    to_state = (powers[size - 1 :: -1] @ b).T.copy()
    h = np.concatenate([[d], b @ zero_input[:, : size - 1]])

    # row m of the upper-triangular Toeplitz holds h[i - m] at column i >= m
    padded = np.concatenate([np.zeros(size - 1), h])
    toeplitz = np.ascontiguousarray(
        np.lib.stride_tricks.sliding_window_view(padded, size)[::-1]
    )
    blocks = -(-len(x) // size)
    xb = np.zeros(blocks * size)
    xb[: len(x)] = x
    xb = xb.reshape(blocks, size)
    y = np.einsum("bm,mi->bi", xb, toeplitz)
    ends = np.einsum("bm,km->bk", xb, to_state).tolist()

    # A is block lower triangular, so the upper-right 2 x 2 of A^L is exactly zero
    (r00, r01, _, _), (r10, r11, _, _), (r20, r21, r22, r23), (r30, r31, r32, r33) = (
        powers[size].tolist()
    )
    s0 = s1 = s2 = s3 = 0.0
    starts = []
    for e0, e1, e2, e3 in ends:
        starts.append((s0, s1, s2, s3))
        s0, s1, s2, s3 = (
            r00 * s0 + r01 * s1 + e0,
            r10 * s0 + r11 * s1 + e1,
            r20 * s0 + r21 * s1 + r22 * s2 + r23 * s3 + e2,
            r30 * s0 + r31 * s1 + r32 * s2 + r33 * s3 + e3,
        )
    y += np.einsum("bk,ki->bi", np.array(starts).reshape(blocks, 4), zero_input)
    return y.reshape(-1)[: len(x)]


def apply_lowpass(buffer: AudioBuffer, cutoff_hz: float) -> AudioBuffer:
    """4th-order Butterworth low-pass at ``cutoff_hz``. Length is preserved.

    Two biquads from the bilinear transform with frequency prewarping, so the
    -3 dB point lands exactly on ``cutoff_hz``, written as one 4-state system
    (``_butter4_system``) and run from a zero state in Burrus's block
    realization (``_lowpass_samples``). That is exact in real arithmetic; in
    float64 it stays within 1e-9 of the per-sample direct form II transposed
    recursion on unit-scale input, from 1 Hz to just below Nyquist.
    """
    if not (0.0 < cutoff_hz < buffer.sample_rate / 2.0):
        raise CutoffAboveNyquist(
            f"cutoff {cutoff_hz} Hz outside (0, {buffer.sample_rate / 2}) Hz"
        )
    y = _lowpass_samples(buffer.samples.astype(np.float64), cutoff_hz, buffer.sample_rate)
    return AudioBuffer(y, buffer.sample_rate)


def _samples_of(signal: AudioBuffer | np.ndarray) -> np.ndarray:
    if isinstance(signal, AudioBuffer):
        return signal.samples.astype(np.float64)
    return np.asarray(signal, dtype=np.float64)


def compute_snr(signal: AudioBuffer | np.ndarray, noise: AudioBuffer | np.ndarray) -> float:
    """Signal-to-noise ratio in dB: 10*log10(sum(s^2)/sum(n^2)).

    Both arguments must have the same length. A silent signal over non-silent
    noise gives -inf.
    """
    s = _samples_of(signal)
    n = _samples_of(noise)
    if len(s) != len(n):
        raise LengthMismatch(f"signal has {len(s)} samples, noise has {len(n)}")
    p_noise = float(np.sum(n * n))
    if p_noise == 0.0:
        raise ZeroNoisePower("noise track carries no energy")
    p_signal = float(np.sum(s * s))
    if p_signal == 0.0:
        return float("-inf")
    return 10.0 * math.log10(p_signal / p_noise)


@dataclass(frozen=True)
class NoiseEntry:
    id: str
    buffer: AudioBuffer
    category: str | None = None


class NoiseBank:
    """A pool of noise recordings addressable by id.

    Entries keep whatever sample rate they were loaded at; call
    :meth:`at_rate` to get a bank aligned with the signal about to be mixed.
    """

    def __init__(self, entries: Sequence[NoiseEntry]):
        self._entries = tuple(entries)
        self._by_id = {e.id: e for e in self._entries}
        if len(self._by_id) != len(self._entries):
            raise ValueError("noise entry ids must be unique")
        self._at_rate: dict[int, NoiseBank] = {}
        self._at_rate_lock = threading.Lock()

    @property
    def entries(self) -> tuple[NoiseEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, entry_id: str) -> NoiseEntry:
        try:
            return self._by_id[entry_id]
        except KeyError:
            raise KeyError(f"no noise entry named {entry_id!r}") from None

    def at_rate(self, sample_rate: int) -> "NoiseBank":
        """Return a bank whose entries all sit at ``sample_rate``.

        That is this bank when it already does. Otherwise the bank is
        converted once per rate and the result cached; threads asking for
        the same rate at once wait for the one conversion.
        """
        if all(e.buffer.sample_rate == sample_rate for e in self._entries):
            return self
        with self._at_rate_lock:
            if sample_rate not in self._at_rate:
                self._at_rate[sample_rate] = NoiseBank(
                    [
                        NoiseEntry(e.id, resample(e.buffer, sample_rate), e.category)
                        for e in self._entries
                    ]
                )
            return self._at_rate[sample_rate]

    @classmethod
    def from_dir(cls, path: str | Path) -> "NoiseBank":
        """Load every ``*.wav`` under ``path`` (sorted by name, ids are stems)."""
        files = sorted(Path(path).glob("*.wav"))
        return cls([NoiseEntry(f.stem, load_wav(f)) for f in files])

    @classmethod
    def from_manifest(cls, path: str | Path) -> "NoiseBank":
        """Load entries from a listing of ``wav_path<TAB>category`` lines.

        The category column is optional; relative paths are resolved against
        the manifest's directory. Blank lines and ``#`` comments are ignored.
        """
        manifest = Path(path)
        entries = []
        for line_no, raw in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) > 2:
                raise MalformedManifest(line_no, f"expected 'path[<TAB>category]', got {raw!r}")
            wav = Path(parts[0])
            if not wav.is_absolute():
                wav = manifest.parent / wav
            category = parts[1] if len(parts) == 2 else None
            entries.append(NoiseEntry(wav.stem, load_wav(wav), category))
        return cls(entries)


@dataclass(frozen=True)
class MixReport:
    """What a noise mix actually did.

    ``noise_track`` is the gain-scaled aggregate noise before any peak
    rescue, aligned sample-for-sample with the input signal, so the achieved
    SNR can be measured directly against the clean input. ``peak_scale`` is
    the factor the whole mix was multiplied by to stay inside [-1, 1].
    """

    entry_ids: tuple[str, ...]
    offsets: tuple[int, ...]
    snr_db: float
    gain: float
    peak_scale: float
    degenerate: bool
    noise_track: np.ndarray


def mix_picks(
    buffer: AudioBuffer,
    picks: Sequence[tuple[NoiseEntry, int]],
    snr_db: float,
) -> tuple[AudioBuffer, MixReport]:
    """Mix already chosen bank entries into the signal at ``snr_db``.

    The one noise mixer, behind mix_noise and the chain's noise stage. Each
    (entry, offset) pick drops the entry in at that start offset, truncated
    at the signal's end; the picks sum into one aggregate track, which is
    scaled so the mixed SNR equals ``snr_db`` exactly, and the whole output
    is rescaled by 1/peak if the sum leaves [-1, 1]. A silent aggregate is
    flagged degenerate and returns the input unchanged. Entries must
    already sit at the signal's sample rate; an offset outside
    [0, len(buffer)) raises ValueError.
    """
    signal = buffer.samples.astype(np.float64)
    n = len(signal)
    aggregate = np.zeros(n, dtype=np.float64)
    for entry, offset in picks:
        if not 0 <= offset < n:
            raise ValueError(f"noise entry {entry.id!r} offset {offset} outside [0, {n})")
        take = min(len(entry.buffer), n - offset)
        aggregate[offset : offset + take] += entry.buffer.samples[:take].astype(np.float64)
    ids = tuple(entry.id for entry, _ in picks)
    offsets = tuple(offset for _, offset in picks)
    p_noise = float(np.sum(aggregate * aggregate))
    if p_noise == 0.0:
        report = MixReport(ids, offsets, snr_db, 0.0, 1.0, True, np.zeros(n))
        return AudioBuffer(buffer.samples, buffer.sample_rate), report
    p_signal = float(np.sum(signal * signal))
    gain = math.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    track = gain * aggregate
    out = signal + track
    peak = float(np.max(np.abs(out))) if n else 0.0
    scale = 1.0 / peak if peak > 1.0 else 1.0
    report = MixReport(ids, offsets, snr_db, gain, scale, False, track)
    return AudioBuffer(out * scale, buffer.sample_rate), report


def mix_noise(
    buffer: AudioBuffer,
    bank: NoiseBank,
    n_segments: int,
    snr_db: float,
    rng: np.random.Generator,
) -> tuple[AudioBuffer, MixReport]:
    """Mix ``n_segments`` bank entries into the signal at ``snr_db``.

    Entries are drawn uniformly with replacement and each is dropped in at a
    uniform start offset, truncated at the signal's end. One gain is applied
    to the aggregate track so the requested SNR holds for the mix as a
    whole. A silent signal forces the gain to zero (output equals input);
    a silent aggregate track is flagged degenerate and also returns the
    input unchanged.
    """
    if not 1 <= n_segments <= 4:
        raise ValueError(f"n_segments must be in 1..4, got {n_segments}")
    if len(bank) == 0:
        raise EmptyNoiseBank("the noise bank has no entries")
    n = len(buffer)
    if n == 0:
        raise ValueError("cannot mix noise into an empty buffer")
    for entry in bank.entries:
        if entry.buffer.sample_rate != buffer.sample_rate:
            raise ValueError(
                f"noise entry {entry.id!r} is at {entry.buffer.sample_rate} Hz, "
                f"signal is at {buffer.sample_rate} Hz; use bank.at_rate() first"
            )

    picks = []
    for _ in range(n_segments):
        entry = bank.entries[int(rng.integers(0, len(bank)))]
        picks.append((entry, int(rng.integers(0, n))))
    return mix_picks(buffer, picks, snr_db)
