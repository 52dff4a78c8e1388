"""Mono audio container, WAV file I/O and sample-rate conversion.

Audio is held as float32 samples in [-1, 1] at an explicit sample rate.
Files are read and written as RIFF/WAVE with either 16-bit PCM or 32-bit
IEEE float payloads; everything else is refused with a typed error rather
than decoded approximately.

Sample-rate conversion, and the speed and pitch effects built on it, go
through one kernel: a 64-tap Hann-windowed sinc (Smith's bandlimited
interpolation) whose taps are evaluated as short Chebyshev series in the
fractional read position, a Farrow structure; no table is built or cached.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ._numpy import np
from .errors import EmptyAudio, IoFailure, MalformedWav, UnsupportedEncoding

PCM16_SCALE = 32768.0

# Windowed-sinc kernel length. 64 taps keeps the resampler deterministic and
# dependency-free while holding aliasing well below the tolerances of the
# speed/pitch effects built on top of it.
RESAMPLE_TAPS = 64

# Chebyshev series terms per tap: the fewest that keep the output within
# 1e-9 of the kernel evaluated exactly (each tap is within 1e-11).
_RESAMPLE_TERMS = 12

# Output samples per block: a block reads at most block / ratio + 2 input
# windows, copied at once as that many rows of 64 float64 (0.5 MB at ratio 1).
_RESAMPLE_BLOCK = 1024

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Immutable mono audio: float32 samples plus a sample rate.

    The constructor rejects NaN/inf and clamps samples into [-1, 1], so a
    buffer that came out of any operation in this package is always safe to
    hand to the next one. ``sample_rate`` must be a positive integer; an
    integral float or numpy integer is taken as that int.

    It allocates one float32 array of the signal's length, which it owns and
    marks read-only; the caller's array is never written or shared. Only an
    input neither float32 nor float64 is first converted to float64.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        rate = self.sample_rate
        try:
            integral = int(rate) == rate
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral or int(rate) <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {rate!r}")
        object.__setattr__(self, "sample_rate", int(rate))
        samples = np.asarray(self.samples)
        # float32 is checked and clipped as it is, which is exact; float64
        # is clipped before the cast so it cannot overflow; any other dtype
        # goes through float64
        if samples.dtype not in (np.float32, np.float64):
            samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional (mono)")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or infinity")
        clipped = np.empty(samples.shape, dtype=np.float32)
        np.clip(samples, -1.0, 1.0, out=clipped)
        clipped.setflags(write=False)
        object.__setattr__(self, "samples", clipped)

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AudioBuffer):
            return NotImplemented
        return self.sample_rate == other.sample_rate and np.array_equal(
            self.samples, other.samples
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # rebuilt through the constructor, so a copy that crossed a pipe to a
        # worker owns its samples and marks them read-only, as every buffer does
        return AudioBuffer, (self.samples, self.sample_rate)

    @property
    def duration_seconds(self) -> float:
        return len(self) / self.sample_rate


def _decode_pcm16(payload: memoryview) -> np.ndarray:
    codes = np.frombuffer(payload, dtype="<i2")
    return codes.astype(np.float32) / PCM16_SCALE


def _decode_float32(payload: memoryview) -> np.ndarray:
    # a read-only view of the file's bytes; AudioBuffer makes the one copy
    return np.frombuffer(payload, dtype="<f4")


def load_wav(path: str | Path) -> AudioBuffer:
    """Read a RIFF/WAVE file into an AudioBuffer.

    Accepts 16-bit PCM and 32-bit IEEE float payloads, mono or stereo
    (stereo is downmixed by averaging the channels). Chunks other than
    ``fmt `` and ``data`` are skipped. PCM16 samples are scaled by 1/32768.

    Raises IoFailure when the file cannot be read, MalformedWav for
    container damage or a NaN or infinite float sample, UnsupportedEncoding
    for valid containers in encodings we do not decode, and EmptyAudio for a
    zero-length data payload.
    """
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as err:  # ValueError: a path holding NUL
        raise IoFailure(f"could not read {path}: {err}") from err
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWav(f"{path}: missing RIFF/WAVE header")

    fmt_fields: tuple[int, int, int, int] | None = None
    payload: memoryview | None = None
    offset = 12
    while offset + 8 <= len(data):
        chunk_id = data[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", data, offset + 4)
        body_start = offset + 8
        if body_start + chunk_size > len(data):
            raise MalformedWav(f"{path}: chunk {chunk_id!r} overruns the file")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedWav(f"{path}: fmt chunk too short")
            tag, channels, rate, _byte_rate, _block, bits = struct.unpack_from(
                "<HHIIHH", data, body_start
            )
            fmt_fields = (tag, channels, rate, bits)
        elif chunk_id == b"data":
            if fmt_fields is None:
                raise MalformedWav(f"{path}: data chunk before fmt chunk")
            payload = memoryview(data)[body_start : body_start + chunk_size]
            break
        # any other chunk is skipped; chunk bodies are word-aligned
        offset = body_start + chunk_size + (chunk_size & 1)

    if fmt_fields is None:
        raise MalformedWav(f"{path}: no fmt chunk")
    if payload is None:
        raise MalformedWav(f"{path}: no data chunk")

    tag, channels, rate, bits = fmt_fields
    if rate <= 0:
        raise MalformedWav(f"{path}: invalid sample rate {rate}")
    if channels not in (1, 2):
        raise UnsupportedEncoding(f"{path}: {channels} channels (mono or stereo only)")
    if tag == _WAVE_FORMAT_PCM and bits == 16:
        decode, sample_bytes = _decode_pcm16, 2
    elif tag == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        decode, sample_bytes = _decode_float32, 4
    else:
        raise UnsupportedEncoding(
            f"{path}: format tag {tag} with {bits}-bit samples is not supported"
        )

    frame_bytes = sample_bytes * channels
    if len(payload) % frame_bytes:
        raise MalformedWav(f"{path}: data chunk holds a partial frame")
    if not payload:
        raise EmptyAudio(f"{path}: data chunk is empty")

    samples = decode(payload)
    if channels == 2:
        # a frame of +inf and -inf averages to NaN, refused below
        with np.errstate(invalid="ignore"):
            samples = samples.reshape(-1, 2).mean(axis=1, dtype=np.float64)
    try:
        return AudioBuffer(samples, rate)
    except ValueError as err:
        # the checks above leave a NaN or infinite sample as the one cause
        raise MalformedWav(f"{path}: {err}") from err


def save_wav(buffer: AudioBuffer, path: str | Path, encoding: str = "float32") -> None:
    """Write a buffer as a RIFF/WAVE file.

    ``encoding`` is "pcm16" or "float32". PCM16 conversion rounds and then
    clamps to the int16 range, so a sample of exactly 1.0 is stored as the
    largest positive code instead of wrapping around.
    """
    if len(buffer) == 0:
        raise EmptyAudio("refusing to write a WAV with no samples")
    if encoding == "pcm16":
        codes = buffer.samples.astype(np.float64)
        codes *= PCM16_SCALE
        np.round(codes, out=codes)
        payload = np.clip(codes, -32768, 32767, out=codes).astype("<i2")
        tag, bits = _WAVE_FORMAT_PCM, 16
    elif encoding == "float32":
        # the samples themselves where they are little-endian already
        payload = buffer.samples.astype("<f4", copy=False)
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown encoding {encoding!r}")

    block = bits // 8
    rate = buffer.sample_rate
    header = b"WAVEfmt " + struct.pack("<IHHIIHH", 16, tag, 1, rate, rate * block, block, bits)
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        # non-PCM encodings carry a fact chunk with the frame count
        header += b"fact" + struct.pack("<II", 4, len(buffer))
    header += b"data" + struct.pack("<I", payload.nbytes)
    riff = b"RIFF" + struct.pack("<I", len(header) + payload.nbytes)
    # the file's bytes are the one copy of the payload
    _write_file(path, b"".join((riff, header, payload.data)))


def _write_file(path: str | Path, content: bytes | Iterable[str]) -> None:
    """Write bytes, or str chunks as UTF-8, to ``path`` through ``.NAME.partial``.

    ``content`` may be a generator. The rename follows the last chunk, so
    ``path`` is never seen partly written; on any exception the partial file
    is removed. No fsync: this guards against a failed or killed process,
    not a power loss.

    An ``OSError`` of the file itself (its open, a write, its rename) raises
    ``IoFailure`` naming ``path``; what ``content`` raises passes as it is.
    """
    path = Path(path)
    partial = path.with_name(f".{path.name}.partial")
    binary = isinstance(content, bytes)
    from_content = False

    def chunks() -> Iterator[bytes | str]:
        nonlocal from_content
        try:
            yield from [content] if binary else content  # type: ignore[misc]
        except OSError:
            from_content = True
            raise

    try:
        with open(partial, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            fh.writelines(chunks())
        os.replace(partial, path)
    except BaseException as err:
        partial.unlink(missing_ok=True)
        if isinstance(err, OSError) and not from_content:
            raise IoFailure(f"could not write {path}: {err}") from err
        raise


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _chebyshev_basis(t: np.ndarray) -> np.ndarray:
    """Rows T_0(t) .. T_(M-1)(t), M = ``_RESAMPLE_TERMS``, by T_(m+1) = 2t T_m - T_(m-1)."""
    basis = np.empty((_RESAMPLE_TERMS, len(t)), dtype=np.float64)
    basis[0], basis[1] = 1.0, t
    t2 = 2.0 * t
    for m in range(2, _RESAMPLE_TERMS):
        np.multiply(t2, basis[m - 1], out=basis[m])
        basis[m] -= basis[m - 2]
    return basis


def _kernel_series(cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev coefficients (taps x terms) of the kernel, and their sum over the taps.

    Tap ``o`` (-31 .. 32) weighs h(phi - o) for a read position phi in
    [0, 1) past an input sample: an entire function of t = 2 phi - 1, so
    its series, interpolated at ``_RESAMPLE_TERMS`` Chebyshev nodes,
    reproduces it (Farrow, "A continuously variable digital delay element",
    ISCAS 1988).
    """
    half = RESAMPLE_TAPS // 2
    nodes = np.cos(np.pi * (np.arange(_RESAMPLE_TERMS) + 0.5) / _RESAMPLE_TERMS)
    delta = 0.5 * (nodes[:, None] + 1.0) - np.arange(1 - half, half + 1, dtype=np.float64)
    kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * delta)
    kernel *= 0.5 + 0.5 * np.cos((np.pi / half) * delta)
    # discrete orthogonality of T_0 .. T_(M-1) over the M nodes
    coef = kernel.T @ _chebyshev_basis(nodes).T * (2.0 / _RESAMPLE_TERMS)
    coef[:, 0] *= 0.5
    return coef, coef.sum(axis=0)


def _resample_ratio(x: np.ndarray, ratio: float) -> np.ndarray:
    """Resample a float array by an arbitrary rate ratio (out/in), into a new
    float64 array; ``x`` is only read.

    Bandlimited interpolation after Smith
    (https://ccrma.stanford.edu/~jos/resample/): output sample ``j`` reads
    the input at ``j / ratio`` through a 64-tap Hann-windowed sinc. When
    downsampling the sinc cutoff is lowered to the output Nyquist so the
    kernel doubles as the anti-aliasing filter. Each output sample is
    normalized by its kernel sum, which pins the passband gain at 1.

    Per block, one product filters every input window the block reads
    through all the terms of ``_kernel_series``, and each output sums its
    window's row weighted by T_m(t), with t its read position.
    """
    n = len(x)
    n_out = _round_half_up(n * ratio)
    if n_out <= 0 or n == 0:
        return np.zeros(max(n_out, 0), dtype=np.float64)

    coef, coef_sum = _kernel_series(0.5 * min(1.0, ratio))
    # window w starts at input sample w - 31; zeros stand in for samples
    # before the start and past the end. The padding keeps x's dtype: a
    # float32 input is widened, exactly, only as each block is copied
    padded = np.zeros(n + RESAMPLE_TAPS - 1, dtype=x.dtype)
    padded[RESAMPLE_TAPS // 2 - 1 : RESAMPLE_TAPS // 2 - 1 + n] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, RESAMPLE_TAPS)
    # one contiguous copy of a block's windows, for the BLAS product; it is
    # reused because a fresh array per block costs more in page faults than
    # the copy itself
    block_windows = np.empty((min(n, int(_RESAMPLE_BLOCK / ratio) + 2), RESAMPLE_TAPS))
    out = np.empty(n_out, dtype=np.float64)
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        stop = min(start + _RESAMPLE_BLOCK, n_out)
        pos = np.arange(start, stop, dtype=np.float64) / ratio
        row = np.floor(pos).astype(np.int64)
        basis = _chebyshev_basis(2.0 * (pos - row) - 1.0)
        lo, hi = row[0], row[-1] + 1
        np.copyto(block_windows[: hi - lo], windows[lo:hi])
        filtered = block_windows[: hi - lo] @ coef
        num = np.einsum("jm,mj->j", filtered[row - lo], basis)
        out[start:stop] = num / np.maximum(coef_sum @ basis, 1e-12)
    return out


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Convert a buffer to ``target_rate``.

    Output length is round(len * target_rate / source_rate). Resampling to
    the current rate returns the buffer itself, which is immutable.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return buffer
    y = _resample_ratio(buffer.samples, target_rate / buffer.sample_rate)
    return AudioBuffer(y, target_rate)
