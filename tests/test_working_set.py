"""What each DSP stage allocates, and what it leaves alone.

Every stage reads its input and computes in arrays it allocated itself: the
input's bytes never change, and the output shares memory with neither the
input, nor the noise bank, nor a mix's ``noise_track``. The working set of
each stage is bounded by tracemalloc on a 6 s, 16 kHz buffer, in units of
that buffer's float64 size; the bounds sit a little above what the stages
measure (listed in README's "Memory" note).
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from speechaug import AudioBuffer, NoiseEntry, load_wav, resample, save_wav
from speechaug.effects import apply_lowpass, apply_pitch, apply_speed, mix_picks
from speechaug.ports import MockSynthesizer, MockUnitizer

RATE = 16000
SECONDS = 6
N = SECONDS * RATE
# the float64 size of the 6 s buffer: the unit of every bound below
UNIT = 8 * N


def signal() -> AudioBuffer:
    t = np.arange(N) / RATE
    noise = np.random.default_rng(5).standard_normal(N)
    return AudioBuffer(0.3 * np.sin(2.0 * math.pi * 220.0 * t) + 0.05 * noise, RATE)


def bank() -> list[NoiseEntry]:
    gen = np.random.default_rng(6)
    return [
        NoiseEntry(f"n{i}", AudioBuffer(0.2 * gen.standard_normal(3 * RATE + 1000 * i), RATE))
        for i in range(3)
    ]


def picks(entries: list[NoiseEntry]) -> list[tuple[NoiseEntry, int]]:
    return [(entries[0], 100), (entries[1], N // 2), (entries[2], N - 6000)]


# a 103-character sentence: 5.15 s of mock speech
SENTENCE = "the quick brown fox jumps over the lazy dog, again and again, until six seconds of speech are spoken"


class Inputs:
    """A stage's inputs, made before tracing starts: the signal, the same
    samples as a writable float64 array, a bank and a scratch directory."""

    def __init__(self, tmp_path):
        self.buf = signal()
        self.x64 = self.buf.samples.astype(np.float64)
        self.entries = bank()
        self.tmp = tmp_path

    def arrays(self) -> list[np.ndarray]:
        return [self.buf.samples, self.x64, *(e.buffer.samples for e in self.entries)]


# stage -> (its call on the inputs, its bound in float64 signals)
STAGES = {
    "AudioBuffer": (lambda inp: AudioBuffer(inp.x64, RATE), 0.75),
    "resample_up": (lambda inp: resample(inp.buf, 22050), 3.0),
    "resample_down": (lambda inp: resample(inp.buf, 8000), 3.3),
    "apply_speed": (lambda inp: apply_speed(inp.buf, 0.9), 2.9),
    "apply_pitch": (lambda inp: apply_pitch(inp.buf, 0.9), 2.9),
    "apply_lowpass": (lambda inp: apply_lowpass(inp.buf, 3000.0), 2.5),
    "mix_picks": (lambda inp: mix_picks(inp.buf, picks(inp.entries), 10.0), 2.85),
    "synthesize": (lambda inp: MockSynthesizer(RATE).synthesize(SENTENCE, "en"), 1.6),
    "unitize": (lambda inp: MockUnitizer(50).unitize(inp.buf), 1.3),
    "save_wav": (lambda inp: save_wav(inp.buf, inp.tmp / "x.wav"), 0.65),
    "save_wav_pcm16": (lambda inp: save_wav(inp.buf, inp.tmp / "p.wav", encoding="pcm16"), 1.75),
}


def traced_peak(fn) -> int:
    """Bytes allocated above the start at the peak of ``fn()``. The result
    is kept until the peak is read, so an output counts in the working set."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_working_set(tmp_path, name):
    stage, bound = STAGES[name]
    inp = Inputs(tmp_path)
    stage(inp)  # the first call may set up numpy's own state
    peak = traced_peak(lambda: stage(inp))
    assert peak <= bound * UNIT, f"{name} peaked at {peak / UNIT:.2f} x the float64 signal"


def test_load_wav_working_set(tmp_path):
    # the file's bytes, the decoded samples and the buffer's own copy
    path = tmp_path / "x.wav"
    save_wav(signal(), path)
    load_wav(path)
    assert traced_peak(lambda: load_wav(path)) <= 1.1 * UNIT
    save_wav(signal(), path, encoding="pcm16")
    assert traced_peak(lambda: load_wav(path)) <= 1.4 * UNIT


def outputs_of(result) -> list[np.ndarray]:
    """The arrays a stage hands out: a buffer's samples, and a mix's noise track."""
    if isinstance(result, tuple):
        buffer, report = result
        return [buffer.samples, report.noise_track]
    if isinstance(result, AudioBuffer):
        return [result.samples]
    return []


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_reads_its_inputs_and_owns_its_outputs(tmp_path, name):
    stage, _ = STAGES[name]
    inp = Inputs(tmp_path)
    before = [a.tobytes() for a in inp.arrays()]
    outputs = outputs_of(stage(inp))
    assert [a.tobytes() for a in inp.arrays()] == before
    assert inp.x64.flags.writeable
    for i, out in enumerate(outputs):
        for other in [*inp.arrays(), *outputs[i + 1 :]]:
            assert not np.shares_memory(out, other)
    if outputs:
        # an in-place write on the output fails loudly
        assert not outputs[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            outputs[0][0] = 0.0


@pytest.mark.parametrize("factor_stage", [apply_speed, apply_pitch])
def test_unit_factor_returns_the_buffer_itself(factor_stage):
    # buffers are immutable, so a stage that does nothing copies nothing
    buf = signal()
    assert factor_stage(buf, 1.0) is buf
    assert resample(buf, RATE) is buf


def test_degenerate_mix_returns_the_buffer_and_a_fresh_zero_track():
    buf = signal()
    silent = NoiseEntry("silent", AudioBuffer(np.zeros(RATE), RATE))
    out, report = mix_picks(buf, [(silent, 0)], 10.0)
    assert report.degenerate
    assert out is buf
    assert not np.shares_memory(report.noise_track, buf.samples)
    assert not report.noise_track.any()
