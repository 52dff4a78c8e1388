"""Shared fixtures and measurement helpers.

The helpers here are deliberately independent of the library's internals:
frequencies are read off a windowed FFT, levels off steady-state RMS, and
SNRs off direct float64 summation, so tests measure behaviour rather than
echo the implementation.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from speechaug import AudioBuffer, NoiseBank, NoiseEntry


def tree_bytes(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``, by relative path, with its bytes."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def make_sine(freq: float, duration: float, sample_rate: int, amplitude: float = 0.5) -> AudioBuffer:
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return AudioBuffer(amplitude * np.sin(2.0 * math.pi * freq * t), sample_rate)


def fft_peak_hz(buffer: AudioBuffer) -> float:
    """Dominant frequency via a Hann-windowed FFT magnitude peak."""
    x = buffer.samples.astype(np.float64)
    spectrum = np.abs(np.fft.rfft(x * np.hanning(len(x))))
    return float(np.argmax(spectrum) * buffer.sample_rate / len(x))


def steady_rms(x: np.ndarray) -> float:
    """RMS over the middle half of a signal, excluding filter transients."""
    arr = np.asarray(x, dtype=np.float64)
    mid = arr[len(arr) // 4 : -len(arr) // 4 or None]
    return math.sqrt(float(np.mean(mid * mid)))


def db_ratio(out: np.ndarray, ref: np.ndarray) -> float:
    return 20.0 * math.log10(steady_rms(out) / steady_rms(ref))


def direct_snr_db(signal: np.ndarray, noise: np.ndarray) -> float:
    """SNR oracle by direct summation, separate from compute_snr."""
    s = np.asarray(signal, dtype=np.float64)
    n = np.asarray(noise, dtype=np.float64)
    return 10.0 * math.log10(float(np.sum(s * s)) / float(np.sum(n * n)))


def make_noise_bank(
    n_entries: int, sample_rate: int, rng: np.random.Generator, level: float = 0.1
) -> NoiseBank:
    entries = []
    for i in range(n_entries):
        length = int(rng.integers(sample_rate // 4, sample_rate))
        entries.append(
            NoiseEntry(f"n{i}", AudioBuffer(rng.normal(0.0, level, length), sample_rate))
        )
    return NoiseBank(entries)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
