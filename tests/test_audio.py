"""WAV container I/O and resampling."""

from __future__ import annotations

import math
import os
import struct
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    AudioBuffer,
    ChainConfig,
    EffectSpec,
    EmptyAudio,
    IoFailure,
    MalformedWav,
    PortError,
    TextPair,
    UnsupportedEncoding,
    default_chain,
    load_wav,
    resample,
    save_chain,
    save_wav,
    write_manifest,
    write_pairs_tsv,
)
from speechaug import audio
from speechaug.cli import main
from speechaug.effects import apply_speed

from conftest import fft_peak_hz, make_sine
from test_manifest import record


def wav_bytes(
    payload: bytes,
    fmt_tag: int = 1,
    channels: int = 1,
    rate: int = 16000,
    bits: int = 16,
    extra_chunks: bytes = b"",
) -> bytes:
    """Hand-assembled RIFF bytes, independent of save_wav."""
    block = max(1, bits // 8) * channels
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += extra_chunks
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        # 16384 / 32768 must come back as exactly 0.5
        payload = struct.pack("<4h", 16384, -16384, 32767, -32768)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_bytes(payload))
        buf = load_wav(path)
        assert buf.sample_rate == 16000
        assert buf.samples[0] == pytest.approx(0.5, abs=0)
        assert buf.samples[1] == pytest.approx(-0.5, abs=0)
        assert buf.samples[2] == pytest.approx(32767 / 32768, abs=0)
        assert buf.samples[3] == -1.0

    def test_stereo_downmix_averages(self, tmp_path):
        left, right = 0.4, 0.8
        payload = struct.pack("<2h", round(left * 32768), round(right * 32768))
        path = tmp_path / "st.wav"
        path.write_bytes(wav_bytes(payload, channels=2))
        buf = load_wav(path)
        assert len(buf) == 1
        assert buf.samples[0] == pytest.approx(0.6, abs=1e-4)

    def test_float32_payload(self, tmp_path):
        values = np.array([0.25, -0.75, 1.0], dtype="<f4")
        path = tmp_path / "f.wav"
        path.write_bytes(wav_bytes(values.tobytes(), fmt_tag=3, bits=32))
        buf = load_wav(path)
        assert np.array_equal(buf.samples, values.astype(np.float32))

    def test_unknown_chunks_are_skipped(self, tmp_path):
        junk = b"LIST" + struct.pack("<I", 5) + b"hello" + b"\x00"  # odd size + pad
        payload = struct.pack("<h", 100)
        path = tmp_path / "c.wav"
        path.write_bytes(wav_bytes(payload, extra_chunks=junk))
        buf = load_wav(path)
        assert len(buf) == 1

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedWav):
            load_wav(path)

    @pytest.mark.parametrize("name", ["missing.wav", "directory.wav"])
    def test_unreadable_path(self, tmp_path, name):
        (tmp_path / "directory.wav").mkdir()
        with pytest.raises(IoFailure, match=f"could not read .*{name}"):
            load_wav(tmp_path / name)

    def test_path_holding_nul(self, tmp_path):
        with pytest.raises(IoFailure, match="could not read .*embedded null byte"):
            load_wav(f"{tmp_path}/a\x00b.wav")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(b"RIFF\x04\x00")
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "nodata.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_data_before_fmt(self, tmp_path):
        payload = struct.pack("<h", 1)
        body = b"WAVE" + b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path / "order.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_chunk_overrun(self, tmp_path):
        path = tmp_path / "overrun.wav"
        raw = wav_bytes(struct.pack("<h", 1))
        path.write_bytes(raw[:-1])  # data chunk now claims more than the file holds
        with pytest.raises(MalformedWav):
            load_wav(path)

    def test_zero_sample_rate(self, tmp_path):
        path = tmp_path / "rate0.wav"
        path.write_bytes(wav_bytes(struct.pack("<h", 1), rate=0))
        with pytest.raises(MalformedWav, match="invalid sample rate 0"):
            load_wav(path)

    def test_mulaw_rejected(self, tmp_path):
        path = tmp_path / "mu.wav"
        path.write_bytes(wav_bytes(b"\x00\x00", fmt_tag=7, bits=8))
        with pytest.raises(UnsupportedEncoding):
            load_wav(path)

    def test_pcm24_rejected(self, tmp_path):
        path = tmp_path / "p24.wav"
        path.write_bytes(wav_bytes(b"\x00" * 6, fmt_tag=1, bits=24))
        with pytest.raises(UnsupportedEncoding):
            load_wav(path)

    def test_too_many_channels_rejected(self, tmp_path):
        path = tmp_path / "quad.wav"
        path.write_bytes(wav_bytes(b"\x00" * 8, channels=4))
        with pytest.raises(UnsupportedEncoding):
            load_wav(path)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(wav_bytes(b""))
        with pytest.raises(EmptyAudio):
            load_wav(path)

    @pytest.mark.parametrize(
        "values, channels",
        [
            pytest.param([0.25, math.nan, -0.5], 1, id="nan"),
            pytest.param([math.inf], 1, id="inf"),
            pytest.param([0.25, -math.inf], 1, id="minus-inf"),
            pytest.param([0.1, math.nan, 0.2, 0.3], 2, id="stereo-nan"),
            # the one frame averages to NaN
            pytest.param([0.1, 0.2, math.inf, -math.inf], 2, id="stereo-inf-and-minus-inf"),
        ],
    )
    def test_non_finite_float_sample_is_malformed(self, tmp_path, values, channels):
        path = tmp_path / "nonfinite.wav"
        payload = np.array(values, dtype="<f4").tobytes()
        path.write_bytes(wav_bytes(payload, fmt_tag=3, channels=channels, bits=32))
        with warnings.catch_warnings():
            # nor does the downmix warn of the invalid sum
            warnings.simplefilter("error")
            with pytest.raises(MalformedWav) as caught:
                load_wav(path)
        assert str(caught.value) == f"{path}: samples contain NaN or infinity"


class TestSaveWav:
    def test_pcm16_full_scale_does_not_wrap(self, tmp_path):
        path = tmp_path / "full.wav"
        save_wav(AudioBuffer(np.array([1.0, -1.0]), 16000), path, encoding="pcm16")
        raw = path.read_bytes()
        # read the stored codes straight out of the data chunk
        codes = struct.unpack("<2h", raw[-4:])
        assert codes == (32767, -32768)

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(EmptyAudio):
            save_wav(AudioBuffer(np.zeros(0), 16000), tmp_path / "e.wav")

    def test_refuses_an_unknown_encoding(self, tmp_path):
        with pytest.raises(ValueError, match="unknown encoding 'alaw'"):
            save_wav(AudioBuffer(np.zeros(4), 16000), tmp_path / "a.wav", encoding="alaw")
        assert list(tmp_path.iterdir()) == []

    def test_silence_roundtrip(self, tmp_path):
        buf = AudioBuffer(np.zeros(16000), 16000)
        path = tmp_path / "s.wav"
        save_wav(buf, path, encoding="pcm16")
        back = load_wav(path)
        assert back.sample_rate == 16000
        assert len(back) == 16000
        assert np.all(back.samples == 0)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1.0, max_value=1.0, width=32), min_size=1, max_size=400
        ),
        rate=st.sampled_from([8000, 16000, 44100]),
    )
    def test_float32_roundtrip_is_exact(self, tmp_path_factory, values, rate):
        path = tmp_path_factory.mktemp("rt") / "f.wav"
        buf = AudioBuffer(np.array(values, dtype=np.float32), rate)
        save_wav(buf, path, encoding="float32")
        back = load_wav(path)
        assert back.sample_rate == rate
        assert np.array_equal(back.samples, buf.samples)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1.0, max_value=1.0, width=32), min_size=1, max_size=400
        )
    )
    def test_pcm16_roundtrip_within_one_step(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rt") / "p.wav"
        buf = AudioBuffer(np.array(values, dtype=np.float32), 16000)
        save_wav(buf, path, encoding="pcm16")
        back = load_wav(path)
        assert np.max(np.abs(back.samples - buf.samples)) <= 1.0 / 32768


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.0, float("nan")]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    @pytest.mark.parametrize(
        "rate", [16000.5, 0.5, -16000, -1.0, math.nan, math.inf, np.float32(8000.25), "16000", None]
    )
    def test_rejects_a_rate_that_is_not_a_positive_integer(self, rate):
        # 16000.5 used to become 16000 without a word
        with pytest.raises(ValueError, match="positive integer"):
            AudioBuffer(np.zeros(4), rate)

    @pytest.mark.parametrize(
        "rate", [16000, 16000.0, np.int64(16000), np.int16(16000), np.uint32(16000), np.float64(16000.0)]
    )
    def test_integral_rate_becomes_an_int(self, rate):
        buf = AudioBuffer(np.zeros(4), rate)
        assert buf.sample_rate == 16000
        assert type(buf.sample_rate) is int

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 2)), 16000)

    def test_clamps_into_range(self):
        buf = AudioBuffer(np.array([2.0, -3.0, 0.5]), 16000)
        assert buf.samples.tolist() == [1.0, -1.0, 0.5]

    def test_duration(self):
        assert AudioBuffer(np.zeros(8000), 16000).duration_seconds == 0.5

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=300
        )
    )
    def test_float32_input_is_clipped_as_in_float64(self, values):
        # a float32 input is checked and clipped without leaving float32;
        # the bits are those of the float64 round trip, -0.0 included
        x = np.array(values + [-0.0, 1.0, -1.0, 3.4e38, -1e-45], dtype=np.float32)
        before = x.copy()
        buf = AudioBuffer(x, 16000)
        expected = np.clip(x.astype(np.float64), -1.0, 1.0).astype(np.float32)
        assert buf.samples.dtype == np.float32
        assert np.array_equal(buf.samples.view(np.uint32), expected.view(np.uint32))
        # the caller's array is neither changed nor shared
        assert np.array_equal(x.view(np.uint32), before.view(np.uint32))
        assert not np.shares_memory(buf.samples, x)
        assert not buf.samples.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_float32_input_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="NaN or infinity"):
            AudioBuffer(np.array([0.0, bad], dtype=np.float32), 16000)

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int16, np.int64, ">f4"])
    def test_other_dtypes_clip_before_the_cast(self, dtype):
        # a huge finite float64 is clipped before it meets float32, so no
        # overflow warning is raised; other dtypes go the same way
        big = np.finfo(np.dtype(dtype)).max if np.dtype(dtype).kind == "f" else np.iinfo(dtype).max
        x = np.array([big, -big, 0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            buf = AudioBuffer(x, 16000)
        assert buf.samples.dtype == np.float32
        assert buf.samples.tolist() == [1.0, -1.0, 0.0]


class TestResample:
    def test_same_rate_is_identity(self):
        buf = make_sine(440.0, 0.5, 16000)
        out = resample(buf, 16000)
        assert out == buf

    def test_downsample_length(self):
        buf = make_sine(440.0, 1.0, 16000)
        out = resample(buf, 8000)
        assert abs(len(out) - 8000) <= 1
        assert out.sample_rate == 8000

    def test_downsample_preserves_tone(self):
        out = resample(make_sine(440.0, 1.0, 16000), 8000)
        assert abs(fft_peak_hz(out) - 440.0) <= 2.0

    def test_up_down_roundtrip(self):
        buf = make_sine(440.0, 1.0, 16000)
        back = resample(resample(buf, 32000), 16000)
        assert abs(len(back) - len(buf)) <= 2
        n = min(len(back), len(buf))
        corr = np.corrcoef(
            buf.samples[:n].astype(np.float64), back.samples[:n].astype(np.float64)
        )[0, 1]
        assert corr >= 0.99

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            resample(make_sine(440.0, 0.1, 16000), 0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=20, max_value=2000),
        st.sampled_from([(16000, 8000), (8000, 16000), (16000, 22050), (44100, 16000)]),
    )
    def test_length_formula_and_finiteness(self, n, rates):
        src, dst = rates
        gen = np.random.default_rng(n)
        buf = AudioBuffer(gen.uniform(-1, 1, n), src)
        out = resample(buf, dst)
        assert abs(len(out) - round(n * dst / src)) <= 1
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0


def reference_resample(x: np.ndarray, ratio: float) -> np.ndarray:
    """The resampling kernel evaluated exactly, one output sample at a time.

    Output j reads the input at j / ratio. Tap offsets run from -31 to 32
    around floor(j / ratio); a tap at distance delta weighs
    2c*sinc(2c*delta) * (0.5 + 0.5*cos(pi*delta/32)) with c = 0.5*min(1, ratio).
    Samples outside the input are zero, and each output is divided by its
    kernel sum.
    """
    n = len(x)
    n_out = int(math.floor(n * ratio + 0.5))
    c = 0.5 * min(1.0, ratio)
    out = np.empty(n_out)
    for j in range(n_out):
        pos = j / ratio
        idx = math.floor(pos) + np.arange(-31, 33)
        delta = pos - idx
        kernel = 2 * c * np.sinc(2 * c * delta) * (0.5 + 0.5 * np.cos(np.pi * delta / 32))
        taps = np.where((idx >= 0) & (idx < n), x[np.clip(idx, 0, n - 1)], 0.0)
        out[j] = np.dot(taps, kernel) / kernel.sum()
    return out


class TestResampleKernel:
    @pytest.mark.parametrize(
        "ratio",
        [1 / 0.95, 1 / 1.05, 0.5, 2.0, 22050 / 16000, 16000 / 22050, 16000 / 44100],
        ids=["speed0.95", "speed1.05", "half", "double", "16k-22k", "22k-16k", "44k-16k"],
    )
    @pytest.mark.parametrize(
        "n",
        [1, 63, 64, 65, audio._RESAMPLE_BLOCK - 1, audio._RESAMPLE_BLOCK, audio._RESAMPLE_BLOCK + 1],
    )
    def test_matches_exact_kernel(self, n, ratio):
        # full-scale white noise: every phase and every tap counts
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = audio._resample_ratio(x, ratio)
        want = reference_resample(x, ratio)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize(
        "ratio",
        [1 / 0.95, 1 / 1.05, 0.5, 2.0, 22050 / 16000, 16000 / 22050, 16000 / 44100],
        ids=["speed0.95", "speed1.05", "half", "double", "16k-22k", "22k-16k", "44k-16k"],
    )
    @pytest.mark.parametrize(
        "n",
        [1, 63, 64, 65, audio._RESAMPLE_BLOCK - 1, audio._RESAMPLE_BLOCK, audio._RESAMPLE_BLOCK + 1],
    )
    def test_matches_exact_kernel_to_1e9(self, n, ratio):
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        got = audio._resample_ratio(x, ratio)
        want = reference_resample(x, ratio)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize(
        "cutoff",
        [0.5, 0.5 / 1.05, 0.5 * 16000 / 22050, 0.5 * 16000 / 44100],
        ids=["up", "speed1.05", "22k-16k", "44k-16k"],
    )
    def test_series_reproduces_kernel(self, cutoff):
        # every tap at 4097 read positions, the series summed with
        # T_m(t) = cos(m * arccos(t)) rather than the kernel's recurrence;
        # at 12 terms the largest error is 9.3e-12 (cutoff 0.5)
        half = audio.RESAMPLE_TAPS // 2
        offsets = np.arange(1 - half, half + 1, dtype=np.float64)
        phases = np.arange(4097, dtype=np.float64) / 4096
        delta = phases[:, None] - offsets[None, :]
        kernel = 2.0 * cutoff * np.sinc(2.0 * cutoff * delta)
        kernel *= 0.5 + 0.5 * np.cos((np.pi / half) * delta)
        coef, coef_sum = audio._kernel_series(cutoff)
        assert coef.shape == (audio.RESAMPLE_TAPS, audio._RESAMPLE_TERMS)
        degrees = np.arange(audio._RESAMPLE_TERMS)
        basis = np.cos(np.outer(np.arccos(2.0 * phases - 1.0), degrees))
        np.testing.assert_allclose(basis @ coef.T, kernel, rtol=0, atol=1e-11)
        np.testing.assert_allclose(basis @ coef_sum, kernel.sum(axis=1), rtol=0, atol=1e-10)

    def test_rejects_alias_when_downsampling(self):
        # 5.5 kHz lies above the 4 kHz Nyquist of the 8 kHz output, so the
        # kernel must filter it out instead of folding it down to 2.5 kHz
        tone = make_sine(5500.0, 1.0, 16000)
        out = resample(tone, 8000).samples.astype(np.float64)[200:-200]
        x = tone.samples.astype(np.float64)
        power_db = 10.0 * math.log10(np.mean(out * out) / np.mean(x * x))
        assert power_db <= -60.0

    def test_cold_table_cache_under_threads(self):
        buf = AudioBuffer(np.random.default_rng(7).uniform(-0.5, 0.5, 5000), 16000)
        # upsampling and downsampling mixed
        calls = [
            lambda: apply_speed(buf, 0.9),
            lambda: apply_speed(buf, 1.1),
            lambda: resample(buf, 22050),
            lambda: resample(buf, 8000),
        ]
        serial = [call().samples.tobytes() for call in calls]

        results: dict[tuple[int, int], bytes] = {}
        barrier = threading.Barrier(4)

        def worker(t: int) -> None:
            barrier.wait(timeout=30)
            for k in range(len(calls)):
                i = (t + k) % len(calls)
                results[t, i] = calls[i]().samples.tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 16
        for (_t, i), got in results.items():
            assert got == serial[i]


class CliFailed(Exception):
    """``main`` returned a non-zero exit code."""


def run_cli(argv: list[str]) -> None:
    # main reports a failed run-level write as one error line and exit 1
    if main(argv) != 0:
        raise CliFailed(argv[0])


# Each writes one output file, whose bytes depend on ``version``, and returns
# its path.
def write_wav(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "out.wav"
    save_wav(make_sine(300.0 + 100.0 * version, 0.1, 16000), path)
    return path


def write_manifest_file(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "manifest.jsonl"
    write_manifest([record(f"r{version}")], path)
    return path


def write_chain_file(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "chain.json"
    save_chain(default_chain(version), path)
    return path


def write_pairs_file(tmp_path: Path, version: int) -> Path:
    path = tmp_path / "pairs.tsv"
    write_pairs_tsv([TextPair(id=f"p{version}", source="a", target="b")], path)
    return path


def write_traces_file(tmp_path: Path, version: int) -> Path:
    in_dir = tmp_path / f"in{version}"
    in_dir.mkdir()
    save_wav(make_sine(300.0, 0.1, 16000), in_dir / f"u{version}.wav")
    config = ChainConfig((EffectSpec("lowpass", 0.0, (300.0, 1000.0)),))
    save_chain(config, tmp_path / "identity.json")
    out_dir = tmp_path / "out"
    argv = ["augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "1"]
    run_cli(argv + ["--config", str(tmp_path / "identity.json")])
    return out_dir / "traces.jsonl"


def write_stats_file(tmp_path: Path, version: int) -> Path:
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("good morning\n" * (version + 1), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["textaug", "--in", str(corpus), "--out", str(out_dir), "--language", "de"]
    run_cli(argv + ["--to", "en"])
    return out_dir / "stats.json"


class TestWriteFile:
    @pytest.mark.parametrize(
        "write, error",
        [
            (write_wav, IoFailure),
            (write_manifest_file, IoFailure),
            (write_chain_file, IoFailure),
            (write_pairs_file, IoFailure),
            (write_traces_file, CliFailed),
            (write_stats_file, CliFailed),
        ],
    )
    def test_failed_write_leaves_the_old_file_and_no_partial(
        self, tmp_path, monkeypatch, capsys, write, error
    ):
        path = write(tmp_path, 0)
        before = path.read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst) == path:
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(error):
            write(tmp_path, 1)
        assert path.read_bytes() == before
        assert not list(tmp_path.rglob("*.partial"))

    def test_failure_mid_stream_leaves_the_old_file_and_no_partial(self, tmp_path):
        path = write_pairs_file(tmp_path, 0)
        before = path.read_bytes()

        def pairs():
            yield TextPair(id="p1", source="x", target="y")
            raise PortError("engine died")

        with pytest.raises(PortError):
            write_pairs_tsv(pairs(), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]

    def test_an_os_error_of_the_content_is_not_named_a_failed_write(self, tmp_path):
        # an input that cannot be read, say; only the file's own errors are
        # raised as IoFailure
        def lines():
            yield "one\n"
            raise OSError(5, "Input/output error")

        with pytest.raises(OSError) as info:
            audio._write_file(tmp_path / "out.txt", lines())
        assert type(info.value) is OSError
        assert list(tmp_path.iterdir()) == []
