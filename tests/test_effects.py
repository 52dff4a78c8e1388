"""Speed, pitch, low-pass and noise-mixing behaviour."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    AudioBuffer,
    CutoffAboveNyquist,
    EmptyNoiseBank,
    FactorOutOfRange,
    IoFailure,
    MalformedManifest,
    MalformedText,
    NoiseBank,
    NoiseEntry,
    apply_lowpass,
    apply_pitch,
    apply_speed,
    mix_noise,
)
from speechaug import effects

from conftest import db_ratio, direct_snr_db, fft_peak_hz, make_noise_bank, make_sine


class TestSpeed:
    def test_identity_factor(self):
        buf = make_sine(440.0, 0.5, 16000)
        assert apply_speed(buf, 1.0) == buf

    def test_length_shrinks_by_factor(self):
        buf = make_sine(440.0, 1.0, 16000)
        out = apply_speed(buf, 1.05)
        assert abs(len(out) - 15238) <= 1  # round(16000 / 1.05)
        assert out.sample_rate == 16000

    def test_pitch_moves_with_speed(self):
        out = apply_speed(make_sine(440.0, 1.0, 16000), 1.05)
        assert abs(fft_peak_hz(out) - 462.0) <= 5.0

    def test_slowdown_lengthens(self):
        buf = make_sine(440.0, 1.0, 16000)
        out = apply_speed(buf, 0.95)
        assert abs(len(out) - round(16000 / 0.95)) <= 1
        assert abs(fft_peak_hz(out) - 418.0) <= 5.0

    def test_roundtrip_length(self):
        buf = make_sine(300.0, 1.0, 16000)
        back = apply_speed(apply_speed(buf, 1.3), 1.0 / 1.3)
        assert abs(len(back) - len(buf)) <= 2

    @pytest.mark.parametrize("factor", [0.49, 2.01, 0.0, -1.0])
    def test_rejects_out_of_range(self, factor):
        with pytest.raises(FactorOutOfRange):
            apply_speed(make_sine(440.0, 0.1, 16000), factor)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=2.0),
        st.integers(min_value=100, max_value=5000),
    )
    def test_length_formula_holds_everywhere(self, factor, n):
        gen = np.random.default_rng(n)
        buf = AudioBuffer(gen.uniform(-0.8, 0.8, n), 16000)
        out = apply_speed(buf, factor)
        assert abs(len(out) - round(n / factor)) <= 1
        assert out.sample_rate == buf.sample_rate
        assert np.all(np.isfinite(out.samples))


def accumulated_weight_stretch(x: np.ndarray, target_len: int, sample_rate: int) -> np.ndarray:
    """WSOLA as it normalized before: every frame adds its window to a
    signal-length weight array, and the whole output is divided by it."""
    n = len(x)
    if target_len <= 0:
        return np.zeros(0, dtype=np.float64)
    if n == target_len:
        return x.copy()
    frame = effects._wsola_frame_length(sample_rate)
    if n < frame or target_len < frame:
        if n == 1:
            return np.full(target_len, x[0], dtype=np.float64)
        return np.interp(
            np.linspace(0.0, n - 1.0, target_len), np.arange(n, dtype=np.float64), x
        )
    hop = frame // 2
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
            ideal = min(prev + hop, n - hop)
            scores = np.correlate(x[lo : hi + hop], x[ideal : ideal + hop])
            a = lo + int(np.argmax(scores))
        out[p : p + frame] += x[a : a + frame] * window
        weight[p : p + frame] += window
        prev = a
    return out[:target_len] / np.maximum(weight[:target_len], 1e-8)


class TestPitch:
    def test_identity_factor(self):
        buf = make_sine(440.0, 0.5, 16000)
        out = apply_pitch(buf, 1.0)
        assert out == buf

    @pytest.mark.parametrize("factor,expected", [(1.05, 462.0), (0.95, 418.0)])
    def test_peak_scales_duration_does_not(self, factor, expected):
        buf = make_sine(440.0, 1.0, 16000)
        out = apply_pitch(buf, factor)
        assert abs(len(out) - len(buf)) <= 0.02 * len(buf)
        assert abs(fft_peak_hz(out) - expected) <= 5.0
        assert out.sample_rate == 16000

    def test_rejects_out_of_range(self):
        with pytest.raises(FactorOutOfRange):
            apply_pitch(make_sine(440.0, 0.1, 16000), 2.5)

    def test_short_buffer_still_works(self):
        buf = AudioBuffer(np.linspace(-0.5, 0.5, 50), 16000)
        out = apply_pitch(buf, 1.05)
        assert abs(len(out) - 50) <= 1
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    def test_matches_accumulated_weight_reference(self, rate):
        gen = np.random.default_rng(rate)
        frame = effects._wsola_frame_length(rate)
        for n in (1, 2, 37, frame - 1, frame, frame + 3, rate // 3, rate + 11):
            t = np.arange(n) / rate
            x = 0.4 * np.sin(2.0 * math.pi * gen.uniform(80.0, 900.0) * t)
            x += 0.1 * gen.standard_normal(n)
            for factor in (0.5, gen.uniform(0.5, 1.0), gen.uniform(1.0, 2.0), 2.0):
                shifted = effects._resample_ratio(AudioBuffer(x, rate).samples, 1.0 / factor)
                expected = accumulated_weight_stretch(shifted, n, rate)
                got = effects._stretch_to_length(shifted, n, rate)
                # the windows sum to one within 4.4e-16, so only the last
                # float64 bits may move, and no float32 output byte
                np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(np.float64).eps, atol=0)
                out = apply_pitch(AudioBuffer(x, rate), factor)
                assert out.samples.tobytes() == AudioBuffer(expected, rate).samples.tobytes()


def direct_form_lowpass(x: np.ndarray, cutoff_hz: float, rate: int) -> np.ndarray:
    """The 4th-order Butterworth as two biquads run one sample at a time.

    Bilinear transform with prewarping; each section in direct form II
    transposed from a zero state, in float64.
    """
    k = math.tan(math.pi * cutoff_hz / rate)
    k2 = k * k
    out = [float(v) for v in x]
    for q in (1.0 / (2.0 * math.cos(math.pi / 8)), 1.0 / (2.0 * math.cos(3 * math.pi / 8))):
        norm = 1.0 / (1.0 + k / q + k2)
        b0 = b2 = k2 * norm
        b1 = 2.0 * b0
        a1 = 2.0 * (k2 - 1.0) * norm
        a2 = (1.0 - k / q + k2) * norm
        z1 = z2 = 0.0
        for i, v in enumerate(out):
            y = b0 * v + z1
            z1 = b1 * v - a1 * y + z2
            z2 = b2 * v - a2 * y
            out[i] = y
    return np.array(out, dtype=np.float64)


class TestLowpass:
    def test_passband_flat(self):
        buf = make_sine(250.0, 1.0, 16000)
        out = apply_lowpass(buf, 1000.0)
        assert abs(db_ratio(out.samples, buf.samples)) <= 1.0

    def test_cutoff_half_power(self):
        buf = make_sine(1000.0, 1.0, 16000)
        out = apply_lowpass(buf, 1000.0)
        assert db_ratio(out.samples, buf.samples) == pytest.approx(-3.0, abs=1.0)

    def test_stopband_attenuation(self):
        buf = make_sine(2000.0, 1.0, 16000)
        out = apply_lowpass(buf, 1000.0)
        assert db_ratio(out.samples, buf.samples) <= -20.0

    def test_length_preserved(self):
        buf = make_sine(500.0, 0.33, 16000)
        assert len(apply_lowpass(buf, 800.0)) == len(buf)

    def test_zero_in_zero_out(self):
        out = apply_lowpass(AudioBuffer(np.zeros(1000), 16000), 500.0)
        assert np.all(out.samples == 0)

    @pytest.mark.parametrize("cutoff", [0.0, -100.0, 8000.0, 9000.0])
    def test_rejects_bad_cutoff(self, cutoff):
        with pytest.raises(CutoffAboveNyquist):
            apply_lowpass(make_sine(440.0, 0.1, 16000), cutoff)

    def test_linearity(self):
        gen = np.random.default_rng(3)
        x = gen.uniform(-0.4, 0.4, 4000)
        a = 0.5
        lhs = apply_lowpass(AudioBuffer(a * x, 16000), 700.0).samples
        rhs = a * apply_lowpass(AudioBuffer(x, 16000), 700.0).samples
        assert np.max(np.abs(lhs.astype(np.float64) - rhs.astype(np.float64))) <= 1e-6

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    def test_matches_scipy_reference(self, rate):
        signal = pytest.importorskip("scipy.signal")
        gen = np.random.default_rng(rate)
        for cutoff in (1.0, 0.01 * rate, 0.1 * rate, 0.3 * rate, 0.499 * rate):
            sos = signal.butter(4, cutoff, fs=rate, output="sos")
            for n in (1, 2, 999, 96000):
                buf = AudioBuffer(gen.uniform(-0.5, 0.5, n), rate)
                # buffers hold float32 clamped to [-1, 1]
                ref = np.clip(signal.sosfilt(sos, buf.samples.astype(np.float64)), -1.0, 1.0)
                out = apply_lowpass(buf, cutoff).samples
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 48000])
    def test_matches_direct_form_reference(self, rate):
        block = effects._LOWPASS_BLOCK
        gen = np.random.default_rng(rate)
        for cutoff in (1.0, 0.01 * rate, 300.0, 1000.0, 0.3 * rate, 0.499 * rate):
            for n in (0, 1, block - 1, block, block + 1, 2 * block + 1, 48000):
                x = gen.uniform(-1.0, 1.0, n)
                got = effects._lowpass_samples(x, cutoff, rate)
                want = direct_form_lowpass(x, cutoff, rate)
                assert got.shape == (n,)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=50.0, max_value=3900.0), st.integers(min_value=10, max_value=3000))
    def test_never_emits_nan_or_overrange(self, cutoff, n):
        gen = np.random.default_rng(n)
        out = apply_lowpass(AudioBuffer(gen.uniform(-1, 1, n), 8000), min(cutoff, 3999.0))
        assert len(out) == n
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0


class TestMixNoise:
    def test_requested_snr_is_achieved(self, rng):
        sig = make_sine(300.0, 0.8, 16000, amplitude=0.4)
        bank = make_noise_bank(3, 16000, rng)
        out, report = mix_noise(sig, bank, 3, 30.0, rng)
        assert not report.degenerate
        measured = direct_snr_db(sig.samples, report.noise_track)
        assert measured == pytest.approx(30.0, abs=0.1)
        assert len(out) == len(sig)
        assert out.sample_rate == sig.sample_rate

    def test_closed_form_gain(self):
        # one-sample signal and noise of equal power at 20 dB: g = 0.1 exactly
        sig = AudioBuffer(np.array([0.1]), 16000)
        bank = NoiseBank([NoiseEntry("c", AudioBuffer(np.array([0.1]), 16000))])
        _, report = mix_noise(sig, bank, 1, 20.0, np.random.default_rng(0))
        assert report.gain == pytest.approx(0.1, abs=1e-15)

    def test_gain_matches_reconstruction_oracle(self, rng):
        sig = AudioBuffer(rng.uniform(-0.5, 0.5, 8000), 16000)
        bank = make_noise_bank(4, 16000, rng)
        snr = 18.0
        _, report = mix_noise(sig, bank, 4, snr, rng)
        # rebuild the aggregate from the report and apply the closed form
        agg = np.zeros(len(sig))
        for eid, off in zip(report.entry_ids, report.offsets):
            seg = bank.entry(eid).buffer.samples.astype(np.float64)
            take = min(len(seg), len(sig) - off)
            agg[off : off + take] += seg[:take]
        expected = math.sqrt(
            float(np.sum(sig.samples.astype(np.float64) ** 2))
            / (float(np.sum(agg * agg)) * 10 ** (snr / 10))
        )
        assert report.gain == pytest.approx(expected, rel=1e-12)

    def test_silent_signal_passes_through(self, rng):
        sig = AudioBuffer(np.zeros(4000), 16000)
        bank = make_noise_bank(2, 16000, rng)
        out, report = mix_noise(sig, bank, 2, 30.0, rng)
        assert not report.degenerate
        assert report.gain == 0.0
        assert out == sig

    def test_silent_bank_is_degenerate(self, rng):
        sig = make_sine(300.0, 0.25, 16000)
        bank = NoiseBank([NoiseEntry("z", AudioBuffer(np.zeros(2000), 16000))])
        out, report = mix_noise(sig, bank, 1, 30.0, rng)
        assert report.degenerate
        assert out == sig

    def test_peak_rescale_keeps_snr(self, rng):
        sig = AudioBuffer(0.99 * np.sin(2 * math.pi * 200 * np.arange(8000) / 16000), 16000)
        loud = NoiseBank([NoiseEntry("l", AudioBuffer(rng.uniform(-0.9, 0.9, 8000), 16000))])
        out, report = mix_noise(sig, loud, 1, 0.0, rng)
        assert report.peak_scale < 1.0
        assert np.max(np.abs(out.samples)) <= 1.0
        # the rescue scales signal and noise together, so the SNR is untouched
        assert direct_snr_db(sig.samples, report.noise_track) == pytest.approx(0.0, abs=0.1)

    def test_deterministic_under_seed(self):
        sig = make_sine(250.0, 0.5, 16000)
        bank = make_noise_bank(3, 16000, np.random.default_rng(1))
        out1, rep1 = mix_noise(sig, bank, 2, 28.0, np.random.default_rng(77))
        out2, rep2 = mix_noise(sig, bank, 2, 28.0, np.random.default_rng(77))
        assert out1 == out2
        assert rep1.entry_ids == rep2.entry_ids
        assert rep1.offsets == rep2.offsets

    def test_empty_bank(self, rng):
        with pytest.raises(EmptyNoiseBank):
            mix_noise(make_sine(440.0, 0.1, 16000), NoiseBank([]), 1, 30.0, rng)

    def test_empty_signal_is_refused(self, rng):
        bank = make_noise_bank(1, 16000, rng)
        with pytest.raises(ValueError, match="empty buffer"):
            mix_noise(AudioBuffer(np.zeros(0), 16000), bank, 1, 30.0, rng)

    def test_segment_count_bounds(self, rng):
        bank = make_noise_bank(1, 16000, rng)
        with pytest.raises(ValueError):
            mix_noise(make_sine(440.0, 0.1, 16000), bank, 5, 30.0, rng)
        with pytest.raises(ValueError):
            mix_noise(make_sine(440.0, 0.1, 16000), bank, 0, 30.0, rng)

    def test_rate_mismatch_is_refused(self, rng):
        bank = make_noise_bank(1, 8000, rng)
        with pytest.raises(ValueError):
            mix_noise(make_sine(440.0, 0.1, 16000), bank, 1, 30.0, rng)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-5.0, max_value=45.0),
        st.integers(min_value=1, max_value=4),
    )
    def test_snr_property_over_random_draws(self, seed, snr, n_segments):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1000, 8000))
        sig = AudioBuffer(gen.uniform(-0.5, 0.5, n), 16000)
        bank = make_noise_bank(int(gen.integers(1, 5)), 16000, gen)
        out, report = mix_noise(sig, bank, n_segments, snr, gen)
        assert np.all(np.isfinite(out.samples))
        assert np.max(np.abs(out.samples)) <= 1.0
        if not report.degenerate and report.gain > 0:
            assert direct_snr_db(sig.samples, report.noise_track) == pytest.approx(snr, abs=0.1)


class TestNoiseBank:
    def test_from_dir_sorted_and_ids(self, tmp_path, rng):
        from speechaug import save_wav

        for name in ("b.wav", "a.wav", "c.wav"):
            save_wav(AudioBuffer(rng.normal(0, 0.1, 1000), 16000), tmp_path / name)
        bank = NoiseBank.from_dir(tmp_path)
        assert [e.id for e in bank.entries] == ["a", "b", "c"]

    def test_from_manifest_with_categories(self, tmp_path, rng):
        from speechaug import save_wav

        save_wav(AudioBuffer(rng.normal(0, 0.1, 500), 16000), tmp_path / "hum.wav")
        save_wav(AudioBuffer(rng.normal(0, 0.1, 500), 16000), tmp_path / "talk.wav")
        listing = tmp_path / "noise.tsv"
        listing.write_text("hum.wav\tnoise\ntalk.wav\tspeech\n# comment\n\n")
        bank = NoiseBank.from_manifest(listing)
        assert len(bank) == 2
        assert bank.entry("hum").category == "noise"
        assert bank.entry("talk").category == "speech"

    @pytest.fixture
    def noise_files(self, tmp_path, rng):
        from speechaug import save_wav

        for name in ("a/hum.wav", "b/hum.wav", "talk.wav"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            save_wav(AudioBuffer(rng.normal(0, 0.1, 500), 16000), tmp_path / name)
        return tmp_path

    def test_from_manifest_takes_absolute_paths(self, noise_files):
        listing = noise_files / "sub" / "noise.tsv"
        listing.parent.mkdir()
        listing.write_text(f"{noise_files / 'talk.wav'}\n../a/hum.wav\n")
        assert [e.id for e in NoiseBank.from_manifest(listing).entries] == ["talk", "hum"]

    def test_from_manifest_refuses_a_third_field(self, noise_files):
        listing = noise_files / "noise.tsv"
        listing.write_text("talk.wav\tspeech\n\na/hum.wav\tnoise\textra\n")
        with pytest.raises(MalformedManifest, match="^line 3: expected 'path") as info:
            NoiseBank.from_manifest(listing)
        assert info.value.line_number == 3

    def test_from_manifest_refuses_bytes_that_are_not_utf8(self, noise_files):
        listing = noise_files / "noise.tsv"
        listing.write_bytes(b"talk.wav\tspeech\na/hum.wav\tno\xffise\n")
        with pytest.raises(MalformedText) as info:
            NoiseBank.from_manifest(listing)
        assert str(info.value) == f"{listing}:2: not valid UTF-8 (invalid start byte)"

    def test_from_manifest_refuses_a_path_holding_nul(self, noise_files):
        listing = noise_files / "noise.tsv"
        listing.write_text("talk.wav\nhum\x00.wav\n")
        with pytest.raises(IoFailure, match="embedded null byte"):
            NoiseBank.from_manifest(listing)

    def test_from_manifest_refuses_a_repeated_stem(self, noise_files):
        listing = noise_files / "noise.tsv"
        listing.write_text("a/hum.wav\tnoise\n# the same id\nb/hum.wav\tmusic\n")
        with pytest.raises(MalformedManifest) as info:
            NoiseBank.from_manifest(listing)
        assert str(info.value) == "line 3: stem 'hum' already used on line 1"

    def test_at_rate_resamples_everything(self, rng):
        bank = make_noise_bank(2, 16000, rng)
        bank8 = bank.at_rate(8000)
        assert all(e.buffer.sample_rate == 8000 for e in bank8.entries)
        assert bank.at_rate(16000) is bank

    def test_at_rate_converts_once_per_rate(self, rng, monkeypatch):
        import speechaug.effects as effects_module

        calls = []
        real_resample = effects_module.resample

        def counting_resample(buffer, rate):
            calls.append(rate)
            return real_resample(buffer, rate)

        monkeypatch.setattr(effects_module, "resample", counting_resample)
        bank = make_noise_bank(3, 16000, rng)
        start = threading.Barrier(4)
        got = []

        def ask():
            start.wait(timeout=10)
            got.append(bank.at_rate(22050))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 4 and all(b is got[0] for b in got)
        assert calls == [22050] * len(bank)
        assert bank.at_rate(22050) is got[0]
        assert len(calls) == len(bank)

    def test_duplicate_ids_rejected(self, rng):
        e = NoiseEntry("x", AudioBuffer(rng.normal(0, 0.1, 100), 16000))
        with pytest.raises(ValueError):
            NoiseBank([e, e])
