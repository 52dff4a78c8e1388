"""Manifest records, builds, weighted sampling and corpus statistics."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import textwrap
import time
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    BuildOutcome,
    ChainConfig,
    EffectSpec,
    EmptyCorpus,
    MalformedManifest,
    ManifestRecord,
    MockSynthesizer,
    MockUnitizer,
    PortError,
    SamplerConfig,
    SubprocessSynthesizer,
    TextPair,
    UnitSequence,
    apply_speed,
    build_manifest,
    corpus_stats,
    default_chain,
    iter_manifest,
    load_wav,
    read_manifest,
    reduce_units,
    sample_stream,
    write_manifest,
)

from speechaug import manifest, textpipe

from conftest import make_noise_bank, tree_bytes


def record(
    id: str = "r1",
    duration_s: float = 1.0,
    units: tuple[int, ...] = (1, 2, 3),
    origin: str = "real",
) -> ManifestRecord:
    return ManifestRecord(
        id=id,
        source_audio=f"audio/{id}.wav",
        duration_s=duration_s,
        target_units=UnitSequence(units, reduced=True),
        origin=origin,
        src_lang="src",
        tgt_lang="tgt",
    )


class TestManifestRecord:
    def test_json_roundtrip(self):
        original = record(units=(4, 0, 9))
        parsed = ManifestRecord.from_dict(json.loads(original.to_json()))
        assert parsed == original

    def test_units_serialize_space_separated(self):
        data = json.loads(record(units=(10, 2, 10)).to_json())
        assert data["target_units"] == "10 2 10"

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            record(id="")

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            record(duration_s=0.0)
        with pytest.raises(ValueError):
            record(duration_s=-1.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_duration(self, duration):
        with pytest.raises(ValueError, match="finite"):
            record(duration_s=duration)

    def test_rejects_unreduced_units(self):
        with pytest.raises(ValueError):
            ManifestRecord(
                id="r1",
                source_audio="audio/r1.wav",
                duration_s=1.0,
                target_units=UnitSequence((1, 1, 2)),
                origin="real",
                src_lang="src",
                tgt_lang="tgt",
            )

    def test_rejects_unknown_origin(self):
        with pytest.raises(ValueError):
            record(origin="synthetic")

    def test_from_dict_reports_missing_fields(self):
        with pytest.raises(ValueError, match="origin"):
            ManifestRecord.from_dict({"id": "x"})

    @pytest.mark.parametrize("wrap", [dict, MappingProxyType], ids=["exact", "mapping"])
    def test_from_dict_ignores_keys_it_does_not_know(self, wrap):
        data = {**json.loads(record().to_json()), "speaker": 3, "notes": ["x"]}
        assert ManifestRecord.from_dict(wrap(data)) == record()

    def test_from_dict_rejects_non_string_units(self):
        data = json.loads(record().to_json())
        data["target_units"] = [1, 2, 3]
        with pytest.raises(ValueError):
            ManifestRecord.from_dict(data)

    @pytest.mark.parametrize(
        "wrap",
        [MappingProxyType, lambda data: OrderedDict(data), lambda data: {**data, "duration_s": 2}],
        ids=["mapping", "dict-subclass", "int-duration"],
    )
    def test_from_dict_takes_what_json_does_not_build(self, wrap):
        data = json.loads(record(duration_s=2.0, units=(7, 3, 7)).to_json())
        parsed = ManifestRecord.from_dict(wrap(data))
        assert parsed == ManifestRecord.from_dict(data) == record(duration_s=2.0, units=(7, 3, 7))
        assert type(parsed.duration_s) is float
        assert parsed.target_units.units == (7, 3, 7)

    @pytest.mark.parametrize(
        "units, message",
        [("1 1 2", "equal neighbours"), ("3 -1", "non-negative"), ("1 x", "invalid literal")],
    )
    def test_from_dict_checks_the_units(self, units, message):
        data = {**json.loads(record().to_json()), "target_units": units}
        with pytest.raises(ValueError, match=message):
            ManifestRecord.from_dict(data)


class TestManifestFile:
    def test_roundtrip(self, tmp_path):
        records = [record("a", 0.5, (1, 2)), record("b", 1.5, (3,), origin="text_aug")]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert read_manifest(path) == records

    def test_roundtrip_with_line_separators_and_non_ascii_in_ids(self, tmp_path):
        # str.splitlines() splits at \x85, \u2028 and \u2029, so they must
        # be escaped inside a JSON line
        records = [record(f"a{char}b") for char in ("\x85", "\u2028", "\u2029", "ü")]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert path.read_bytes().isascii()
        assert read_manifest(path) == records

    def test_header_line_comes_first(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest([record()], path)
        first = path.read_text().splitlines()[0]
        assert json.loads(first) == {"schema": "speechaug-manifest-v1"}

    def test_empty_build_is_header_only(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest([], path)
        assert len(path.read_text().splitlines()) == 1
        assert read_manifest(path) == []

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("")
        with pytest.raises(MalformedManifest) as exc:
            read_manifest(path)
        assert exc.value.line_number == 1

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(MalformedManifest) as exc:
            read_manifest(path)
        assert exc.value.line_number == 1

    def test_bad_record_json_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"schema": "speechaug-manifest-v1"}\n'
            + record("ok").to_json()
            + "\n{not json\n"
        )
        with pytest.raises(MalformedManifest) as exc:
            read_manifest(path)
        assert exc.value.line_number == 3

    def test_invalid_record_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"schema": "speechaug-manifest-v1"}\n{"id": "x"}\n')
        with pytest.raises(MalformedManifest) as exc:
            read_manifest(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_duration_line_number(self, tmp_path, literal):
        bad = record("bad").to_json().replace('"duration_s": 1.0', f'"duration_s": {literal}')
        path = tmp_path / "m.jsonl"
        path.write_text('{"schema": "speechaug-manifest-v1"}\n' + record("ok").to_json() + "\n" + bad + "\n")
        with pytest.raises(MalformedManifest, match="finite") as exc:
            read_manifest(path)
        assert exc.value.line_number == 3

    def test_non_utf8_line_number(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(
            b'{"schema": "speechaug-manifest-v1"}\n'
            + record("ok").to_json().encode()
            + b"\n"
            + record("bad").to_json().encode().replace(b"audio/", b"audio/\xff")
            + b"\n"
        )
        with pytest.raises(MalformedManifest, match="not valid UTF-8") as exc:
            read_manifest(path)
        assert exc.value.line_number == 3

    def test_iter_manifest_streams_the_records_read_manifest_returns(self, tmp_path):
        records = [record(f"r{i}", 0.5 + i) for i in range(5)]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert list(iter_manifest(path)) == read_manifest(path) == records

    def test_breaking_out_early_leaves_no_open_file(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(textpipe, "open", recording_open, raising=False)
        path = tmp_path / "m.jsonl"
        write_manifest([record(f"r{i}") for i in range(5)], path)
        for _ in iter_manifest(path):
            break
        records = iter_manifest(path)
        next(records)
        records.close()
        assert len(opened) == 2
        assert all(fh.closed for fh in opened)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"schema": "speechaug-manifest-v1"}\n\n' + record("a").to_json() + "\n\n"
        )
        assert [r.id for r in read_manifest(path)] == ["a"]


def some_pairs() -> list[TextPair]:
    return [
        TextPair(id="p00000000", source="hello world", target="welt hallo"),
        TextPair(id="p00000001", source="short one", target="kurz eins"),
        TextPair(id="p00000002", source="a third sentence", target="ein dritter satz"),
    ]


class FailingSynthesizer(MockSynthesizer):
    """Refuses any sentence containing a marker word."""

    def synthesize(self, sentence, language):
        if "boom" in sentence:
            raise PortError("refused by test double")
        return super().synthesize(sentence, language)


# Writes one fresh 16 kHz PCM16 file per request, a 10 ms tone per
# character, so each sentence has audio of its own.
TONE_ENGINE = """
    import math, os, struct, sys

    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    for count, line in enumerate(sys.stdin):
        sentence = line.rstrip("\\n").split("\\t")[1]
        frames = b"".join(
            struct.pack("<h", round(9000 * math.sin(2 * math.pi * (200 + ord(ch)) * i / 16000)))
            for ch in sentence
            for i in range(160)
        )
        path = f"{out_dir}/utt{count}.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
        print(path, flush=True)
"""


class TestBuildManifest:
    def test_records_follow_pair_order(self, tmp_path):
        pairs = some_pairs()
        outcome = build_manifest(
            pairs, MockSynthesizer(), MockUnitizer(50), tmp_path, chain=None
        )
        assert [r.id for r in outcome.records] == [p.id for p in pairs]
        assert outcome.failures == []
        assert read_manifest(outcome.manifest_path) == outcome.records

    def test_audio_lands_next_to_manifest(self, tmp_path):
        outcome = build_manifest(
            some_pairs(), MockSynthesizer(), MockUnitizer(50), tmp_path, chain=None
        )
        for rec in outcome.records:
            assert rec.source_audio == f"audio/{rec.id}.wav"
            assert (tmp_path / rec.source_audio).exists()

    def test_duration_matches_saved_audio(self, tmp_path):
        outcome = build_manifest(
            some_pairs(), MockSynthesizer(), MockUnitizer(50), tmp_path, chain=None
        )
        for rec in outcome.records:
            loaded = load_wav(tmp_path / rec.source_audio)
            assert rec.duration_s == pytest.approx(len(loaded.samples) / loaded.sample_rate)

    def test_unaugmented_duration_is_synthesizer_output(self, tmp_path):
        outcome = build_manifest(
            some_pairs()[:1], MockSynthesizer(), MockUnitizer(50), tmp_path, chain=None
        )
        # "hello world" is 11 characters at 50 ms each
        assert outcome.records[0].duration_s == pytest.approx(0.55)

    def test_source_augmentation_changes_saved_audio(self, tmp_path):
        chain = ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),), global_seed=3)
        outcome = build_manifest(
            some_pairs()[:1],
            MockSynthesizer(),
            MockUnitizer(50),
            tmp_path,
            chain=chain,
        )
        expected = round(11 * 800 / 0.9)
        loaded = load_wav(tmp_path / outcome.records[0].source_audio)
        assert len(loaded.samples) == expected
        assert outcome.records[0].duration_s == pytest.approx(expected / 16000.0)

    def test_target_units_come_from_clean_target_by_default(self, tmp_path):
        chain = ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),), global_seed=3)
        with_chain = build_manifest(
            some_pairs(), MockSynthesizer(), MockUnitizer(50), tmp_path / "a", chain=chain
        )
        without = build_manifest(
            some_pairs(), MockSynthesizer(), MockUnitizer(50), tmp_path / "b", chain=None
        )
        assert [r.target_units for r in with_chain.records] == [
            r.target_units for r in without.records
        ]

    def test_target_augmentation_feeds_the_unitizer(self, tmp_path):
        chain = ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),), global_seed=3)
        synth = MockSynthesizer()
        unitizer = MockUnitizer(50)
        outcome = build_manifest(
            some_pairs()[:1],
            synth,
            unitizer,
            tmp_path,
            chain=chain,
            augment_source=False,
            augment_target=True,
        )
        spoken = synth.synthesize("welt hallo", "tgt")
        expected = reduce_units(unitizer.unitize(apply_speed(spoken, 0.9)))
        assert outcome.records[0].target_units == expected

    def test_rebuild_is_byte_identical(self, tmp_path):
        chain = default_chain(global_seed=11)
        bank = make_noise_bank(3, 16000, np.random.default_rng(5))
        outcomes: list[BuildOutcome] = []
        for name in ("first", "second"):
            outcomes.append(
                build_manifest(
                    some_pairs(),
                    MockSynthesizer(),
                    MockUnitizer(50),
                    tmp_path / name,
                    chain=chain,
                    bank=bank,
                )
            )
        a, b = outcomes
        assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
        for rec in a.records:
            first = (tmp_path / "first" / rec.source_audio).read_bytes()
            second = (tmp_path / "second" / rec.source_audio).read_bytes()
            assert hashlib.sha256(first).digest() == hashlib.sha256(second).digest()

    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        # four forked workers even on a two-CPU box
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        chain = default_chain(global_seed=11)
        bank = make_noise_bank(3, 16000, np.random.default_rng(5))
        pairs = [
            TextPair(id=f"p{i:08d}", source=f"sentence number {i}", target=f"{i} number sentence")
            for i in range(12)
        ]
        trees = []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            outcome = build_manifest(
                pairs, MockSynthesizer(), MockUnitizer(50), out,
                chain=chain, bank=bank, augment_target=True, workers=workers,
            )
            assert [r.id for r in outcome.records] == [p.id for p in pairs]
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1] == trees[2]

    def test_worker_count_does_not_change_subprocess_output(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        engine = tmp_path / "tts.py"
        engine.write_text(textwrap.dedent(TONE_ENGINE))
        chain = default_chain(global_seed=11)
        bank = make_noise_bank(3, 16000, np.random.default_rng(5))
        pairs = [
            TextPair(id=f"p{i:08d}", source=f"sentence number {i}", target=f"{i} number sentence")
            for i in range(12)
        ]
        outcomes, trees = [], []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            with SubprocessSynthesizer([sys.executable, str(engine), str(tmp_path / "engine")]) as synth:
                outcomes.append(
                    build_manifest(
                        pairs, synth, MockUnitizer(50), out,
                        chain=chain, bank=bank, augment_target=True, workers=workers,
                    )
                )
            trees.append(tree_bytes(out))
        assert outcomes[0].failures == outcomes[1].failures == outcomes[2].failures == []
        assert outcomes[0].records == outcomes[1].records == outcomes[2].records
        assert len(trees[0]) == 1 + len(pairs)
        assert trees[0] == trees[1] == trees[2]

    def test_port_failures_are_skipped_and_reported(self, tmp_path):
        pairs = some_pairs()
        pairs[1] = TextPair(id=pairs[1].id, source="boom here", target="kaboom")
        outcome = build_manifest(
            pairs, FailingSynthesizer(), MockUnitizer(50), tmp_path, chain=None
        )
        assert [r.id for r in outcome.records] == [pairs[0].id, pairs[2].id]
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0] == pairs[1].id
        assert not (tmp_path / "audio" / f"{pairs[1].id}.wav").exists()
        assert len(read_manifest(outcome.manifest_path)) == 2

    def test_failures_come_out_in_pair_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        class SlowRefusal(MockUnitizer):
            # runs in the workers: pair 0 sleeps longest, so they finish in
            # reverse pair order, and every even pair is refused
            def unitize(self, buffer):
                number = round(buffer.duration_seconds / 0.05) - 1
                time.sleep(0.05 * (6 - number))
                if number % 2 == 0:
                    raise PortError(f"unit {number} refused by test double")
                return super().unitize(buffer)

        # the synthesizer, in this process, refuses pair 3
        pairs = [TextPair(id=f"p{i}", source=f"line {i}", target=f"{i:0{i + 1}d}") for i in range(6)]
        pairs[3] = TextPair(id="p3", source="boom", target="0003")
        outcome = build_manifest(
            pairs, FailingSynthesizer(), SlowRefusal(50), tmp_path,
            chain=ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),)), workers=4,
        )
        assert [(pair_id, str(err)) for pair_id, err in outcome.failures] == [
            ("p0", "unit 0 refused by test double"),
            ("p2", "unit 2 refused by test double"),
            ("p3", "refused by test double"),
            ("p4", "unit 4 refused by test double"),
        ]
        assert [r.id for r in outcome.records] == ["p1", "p5"]
        assert [r.id for r in read_manifest(outcome.manifest_path)] == ["p1", "p5"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_program_fault_leaves_no_manifest(self, tmp_path, workers):
        class Faulty(MockSynthesizer):
            def synthesize(self, sentence, language):
                if sentence == "short one":
                    raise ZeroDivisionError("a fault in the program")
                return super().synthesize(sentence, language)

        with pytest.raises(ZeroDivisionError, match="a fault in the program"):
            build_manifest(some_pairs(), Faulty(), MockUnitizer(50), tmp_path, workers=workers)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audio"]

    @pytest.mark.parametrize("where", ["synthesizer", "unitizer"])
    def test_a_program_fault_with_a_chain_leaves_no_manifest(self, tmp_path, monkeypatch, where):
        # the synthesizer runs in this process, the unitizer in the workers
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        class Faulty(MockSynthesizer):
            def synthesize(self, sentence, language):
                if sentence == "kurz eins":
                    raise ZeroDivisionError("a fault in the program")
                return super().synthesize(sentence, language)

        class FaultyUnitizer(MockUnitizer):
            def unitize(self, buffer):
                if len(buffer) == 9 * 800:  # "kurz eins"
                    raise ZeroDivisionError("a fault in the program")
                return super().unitize(buffer)

        synth, unitizer = (Faulty(), MockUnitizer(50)) if where == "synthesizer" else (
            MockSynthesizer(), FaultyUnitizer(50)
        )
        with pytest.raises(ZeroDivisionError, match="a fault in the program"):
            build_manifest(
                some_pairs(), synth, unitizer, tmp_path,
                chain=ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),)), workers=2,
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["audio"]

    def test_no_worker_converts_the_bank(self, tmp_path, monkeypatch):
        # the bank is converted to the synthesizer's rate once, before the fork
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        import speechaug.effects as effects_module

        real_resample = effects_module.resample

        def logged_resample(buffer, rate):
            with open(tmp_path / "conversions", "a") as log:
                log.write(f"{os.getpid()}\n")
            return real_resample(buffer, rate)

        monkeypatch.setattr(effects_module, "resample", logged_resample)
        bank = make_noise_bank(3, 16000, np.random.default_rng(5))
        chain = ChainConfig((EffectSpec("noise_mix", 1.0, (5.0, 20.0)),))
        outcome = build_manifest(
            some_pairs(), MockSynthesizer(8000), MockUnitizer(50), tmp_path / "out",
            chain=chain, bank=bank, workers=2,
        )
        assert outcome.failures == []
        assert (tmp_path / "conversions").read_text().split() == [str(os.getpid())] * len(bank)

    def test_a_buffer_is_read_only_in_a_worker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        class Writing(MockUnitizer):
            # the target is not augmented, so it arrives here as spoken
            def unitize(self, buffer):
                if buffer.samples.flags.writeable or not buffer.samples.flags.owndata:
                    raise PortError("the buffer's samples are not its own read-only array")
                with pytest.raises(ValueError, match="read-only"):
                    buffer.samples[0] = 1.0
                return super().unitize(buffer)

        outcome = build_manifest(
            some_pairs(), MockSynthesizer(), Writing(50), tmp_path,
            chain=ChainConfig((EffectSpec("speed", 1.0, (0.9, 0.9)),)), workers=2,
        )
        assert outcome.failures == []
        assert len(outcome.records) == 3

    def test_origin_is_recorded(self, tmp_path):
        outcome = build_manifest(
            some_pairs()[:1], MockSynthesizer(), MockUnitizer(50), tmp_path,
            chain=None, origin="real",
        )
        assert outcome.records[0].origin == "real"

    @pytest.mark.parametrize("pair_id", ["../escaped", "a\x00b"])
    def test_a_pair_id_that_is_no_plain_file_name_writes_nothing(self, tmp_path, pair_id):
        with pytest.raises(ValueError, match="is not a plain file name"):
            build_manifest(
                [TextPair(pair_id, "hello there", "good day")], MockSynthesizer(), MockUnitizer(8),
                tmp_path / "out",
            )
        assert list(tmp_path.iterdir()) == []


class TestSamplerConfig:
    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError):
            SamplerConfig(weights={}, seed=0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SamplerConfig(weights={"real": -1.0}, seed=0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            SamplerConfig(weights={"real": 0.0, "text_aug": 0.0}, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_weight_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="'real' must be non-negative and finite"):
            SamplerConfig(weights={"real": bad, "text_aug": 1.0}, seed=0)

    def test_rejects_a_total_that_is_not_finite(self):
        with pytest.raises(ValueError, match="finite total"):
            SamplerConfig(weights={"real": 1e308, "text_aug": 1e308}, seed=0)


def reference_stream(manifests, config):
    """The per-draw np.searchsorted loop sample_stream used to run."""
    pools = {}
    for records, origin in manifests:
        pools.setdefault(origin, []).extend(records)
    active = [(origin, w) for origin, w in sorted(config.weights.items()) if w > 0]
    names = [origin for origin, _ in active]
    weights = np.array([w for _, w in active], dtype=np.float64)
    cumulative = np.cumsum(weights / weights.sum())
    rng = np.random.Generator(np.random.PCG64(config.seed))
    while True:
        u = rng.random()
        pick = min(int(np.searchsorted(cumulative, u, side="right")), len(names) - 1)
        pool = pools[names[pick]]
        yield pool[int(rng.integers(0, len(pool)))]


PINNED_IDS = "a7 a5 a9 a6 x2 r5 a3 x2 r3 x1 r7 r9 a7 x0 a0 a4 r2 a6 a2 a6".split()


class TestSampleStream:
    def pools(self):
        real = [record(f"r{i}", origin="real") for i in range(10)]
        aug = [record(f"a{i}", origin="text_aug") for i in range(10)]
        return [(real, "real"), (aug, "text_aug")]

    @pytest.mark.parametrize("weights", [
        {"real": 1.0, "text_aug": 1.0},
        {"real": 0.1, "text_aug": 0.7, "extra": 0.2},
        {"real": 1e-9, "text_aug": 3.0, "extra": 0.0, "more": 1 / 3},
    ])
    def test_draws_match_the_searchsorted_reference(self, weights):
        pools = self.pools() + [([record("x0"), record("x1")], "extra"), ([record("m0")], "more")]
        config = SamplerConfig(weights=weights, seed=31)
        drawn = [r.id for r in itertools.islice(sample_stream(pools, config), 5000)]
        expected = [r.id for r in itertools.islice(reference_stream(pools, config), 5000)]
        assert drawn == expected

    def test_pools_of_ids_draw_what_pools_of_records_draw(self):
        config = SamplerConfig(weights={"real": 0.3, "text_aug": 0.7}, seed=4)
        ids = [([r.id for r in records], origin) for records, origin in self.pools()]
        from_records = [r.id for r in itertools.islice(sample_stream(self.pools(), config), 500)]
        assert list(itertools.islice(sample_stream(ids, config), 500)) == from_records

    def test_deterministic_for_a_seed(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=7)
        first = [r.id for r in itertools.islice(sample_stream(self.pools(), config), 60)]
        second = [r.id for r in itertools.islice(sample_stream(self.pools(), config), 60)]
        assert first == second

    def test_different_seeds_differ(self):
        a = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=1)
        b = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=2)
        ids_a = [r.id for r in itertools.islice(sample_stream(self.pools(), a), 60)]
        ids_b = [r.id for r in itertools.islice(sample_stream(self.pools(), b), 60)]
        assert ids_a != ids_b

    def test_zero_weight_origin_never_appears(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 0.0}, seed=3)
        drawn = list(itertools.islice(sample_stream(self.pools(), config), 500))
        assert all(r.origin == "real" for r in drawn)

    def test_positive_weight_with_no_records_fails_fast(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=0)
        with pytest.raises(EmptyCorpus):
            next(sample_stream([(self.pools()[0][0], "real")], config))

    def test_empty_pool_is_refused_before_the_first_draw(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=0)
        with pytest.raises(EmptyCorpus):
            sample_stream([(self.pools()[0][0], "real")], config)

    def test_refuses_the_seeds_numpy_refuses_when_called(self):
        weights = {"real": 1.0, "text_aug": 1.0}
        with pytest.raises(ValueError, match="non-negative"):
            sample_stream(self.pools(), SamplerConfig(weights=weights, seed=-1))
        with pytest.raises(TypeError):
            sample_stream(self.pools(), SamplerConfig(weights=weights, seed=1.5))

    def test_first_ids_of_a_three_origin_draw_are_pinned(self):
        # a literal, not a numpy run: the stream stays what it is whatever
        # numpy version is installed, or none
        pools = self.pools() + [([record("x0"), record("x1"), record("x2")], "extra")]
        config = SamplerConfig(weights={"real": 0.2, "text_aug": 0.5, "extra": 0.3}, seed=99)
        assert [r.id for r in itertools.islice(sample_stream(pools, config), 20)] == PINNED_IDS

    def test_rough_balance(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=21)
        drawn = list(itertools.islice(sample_stream(self.pools(), config), 4000))
        share = sum(r.origin == "real" for r in drawn) / len(drawn)
        assert 0.45 <= share <= 0.55

    def test_all_records_reachable(self):
        config = SamplerConfig(weights={"real": 1.0, "text_aug": 1.0}, seed=5)
        seen = {r.id for r in itertools.islice(sample_stream(self.pools(), config), 2000)}
        assert len(seen) == 20


class TestCorpusStats:
    def test_totals_match_direct_summation(self, tmp_path):
        durations = [0.5 + 0.01 * i for i in range(100)]
        records = [
            record(f"r{i}", durations[i], origin="real" if i < 60 else "text_aug")
            for i in range(100)
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        stats = corpus_stats(path)
        reparsed = read_manifest(path)
        expected_total = math.fsum(r.duration_s for r in reparsed)
        assert stats["records"] == 100
        assert stats["total_duration_s"] == pytest.approx(expected_total, rel=1e-12)
        assert stats["total_hours"] == pytest.approx(expected_total / 3600.0, rel=1e-12)
        assert stats["origins"]["real"]["records"] == 60
        assert stats["origins"]["text_aug"]["records"] == 40
        per_origin = math.fsum(r.duration_s for r in reparsed if r.origin == "real")
        assert stats["origins"]["real"]["duration_s"] == pytest.approx(per_origin, rel=1e-12)

    def test_total_is_exactly_sum_of_the_durations(self, tmp_path):
        gen = np.random.default_rng(8)
        records = [record(f"r{i}", float(d)) for i, d in enumerate(gen.uniform(0.1, 9.9, 500))]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        assert corpus_stats(path)["total_duration_s"] == math.fsum(r.duration_s for r in records)

    def test_unit_length_histogram(self, tmp_path):
        records = [
            record("a", units=(1, 2)),
            record("b", units=(3, 4)),
            record("c", units=(5, 6, 7)),
        ]
        path = tmp_path / "m.jsonl"
        write_manifest(records, path)
        stats = corpus_stats(path)
        assert stats["unit_length_histogram"] == {"2": 2, "3": 1}

    def test_stats_are_json_serializable(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_manifest([record()], path)
        json.dumps(corpus_stats(path))


def outcome(parse, value):
    """What ``parse(value)`` returns, or the type and text of its error."""
    try:
        return "ok", parse(value)
    except (ValueError, OverflowError) as err:
        return type(err), str(err)


def summary_of_record(data):
    r = ManifestRecord.from_dict(data)
    return r.id, r.duration_s, len(r.target_units), r.origin


# Units as the writer writes them, and as it never would: signs, "_",
# non-ASCII digits, leading zeros, doubled spaces and numbers past 18 digits.
unit_tokens = st.tuples(
    st.sampled_from(["", "", "", "0", "00", "+", "-", "٣"]),
    st.integers(0, 40) | st.sampled_from([10**17, 10**18 - 1, 10**18, 10**19]),
).map(lambda t: f"{t[0]}{t[1]}")
units_text = st.text(alphabet="0123456789 +-_٣", max_size=24) | st.tuples(
    st.lists(unit_tokens, max_size=8), st.sampled_from([" ", " ", " ", "  ", "_", "\t"])
).map(lambda t: t[1].join(t[0]))
any_json = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.just([1])
VALID_FIELDS = {
    "id": st.sampled_from(["r1", "", "a b", "ü"]),
    "source_audio": st.sampled_from(["audio/r1.wav", ""]),
    "duration_s": st.floats() | st.integers(-2, 10**400) | st.sampled_from([0.5, 1e-300, 1e308]),
    "target_units": units_text,
    "origin": st.sampled_from(["real", "text_aug", "text_aug", "other", ""]),
    "src_lang": st.sampled_from(["en", ""]),
    "tgt_lang": st.sampled_from(["de", ""]),
}


@st.composite
def record_values(draw):
    """A JSON value for one manifest line: mostly a record dict, with up to
    two fields of another type or missing, and now and then no dict at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(any_json)
    data = {key: draw(strategy) for key, strategy in VALID_FIELDS.items()}
    for key in draw(st.sets(st.sampled_from(sorted(data)), max_size=2)):
        if draw(st.booleans()):
            del data[key]
        else:
            data[key] = draw(any_json)
    if draw(st.booleans()):
        data["extra"] = draw(any_json)
    return data


def canonical_reduced(units: str) -> bool:
    """Units written as the writer writes them, with no two neighbours equal."""
    tokens = units.split(" ")
    canonical = all(t.isascii() and t.isdigit() and len(t) <= 18 and str(int(t)) == t for t in tokens)
    return canonical and not any(a == b for a, b in zip(tokens, tokens[1:]))


class TestRecordSummary:
    """``_summarize`` is what corpus_stats and sample read a record through."""

    @settings(max_examples=600, deadline=None)
    @given(data=record_values())
    def test_agrees_with_from_dict(self, data):
        expected = outcome(summary_of_record, data)
        got = outcome(manifest._summarize, data)
        assert got == expected
        if got[0] == "ok":
            assert type(got[1][1]) is float

    @settings(max_examples=600, deadline=None)
    @given(units=units_text)
    def test_canonical_units_are_exactly_the_writers_reduced_units(self, units):
        accepted = manifest._CANONICAL_UNITS.fullmatch(units) is not None
        assert accepted == canonical_reduced(units)
        if accepted:
            assert len(UnitSequence(units.split(), reduced=True)) == units.count(" ") + 1

    @pytest.mark.parametrize("units", [(0,), (1, 0, 1), (5, 55, 5), (10**17, 3), tuple(range(60))])
    def test_a_written_record_builds_no_record(self, monkeypatch, units):
        data = json.loads(record("w", 2.25, units, "text_aug").to_json())

        def refuse(cls, value):
            raise AssertionError("from_dict called")

        monkeypatch.setattr(ManifestRecord, "from_dict", classmethod(refuse))
        assert manifest._summarize(data) == ("w", 2.25, len(units), "text_aug")

    def test_a_unit_past_the_int_digit_limit_is_refused_as_from_dict_refuses_it(self):
        data = json.loads(record().to_json())
        data["target_units"] = "1 " + "7" * 5000
        expected = outcome(summary_of_record, data)
        assert outcome(manifest._summarize, data) == expected

    @pytest.mark.parametrize("units", ["1 1", "01 1", "1 01", "3 4 4", "+2 2", "-1 2", "x"])
    def test_corpus_stats_fails_as_iter_manifest_does(self, tmp_path, units):
        path = tmp_path / "m.jsonl"
        write_manifest([record("a"), record("b")], path)
        bad = record("c").to_json().replace('"1 2 3"', json.dumps(units))
        path.write_text(path.read_text() + "\n" + bad + "\n")
        with pytest.raises(MalformedManifest) as by_records:
            list(iter_manifest(path))
        with pytest.raises(MalformedManifest) as by_stats:
            corpus_stats(path)
        assert by_stats.value.line_number == by_records.value.line_number == 5
        assert str(by_stats.value) == str(by_records.value)


LOADS_LINES = [
    '{"a": 1}', ' {"a": 1}', '{"a": 1} ', '{"a": 1}\t', '\ufeff{"a": 1}', '{"a": 1} x',
    '{"a": 1}{"b": 2}', "", " ", "nope", "NaN", "-Infinity", "[1, 2", '"\\ud800"', "1e400",
    '{"a": [1, {"b": null}]}', '{"a": 1, "a": 2}', "{" * 50 + "}" * 50,
]


class TestLoads:
    @pytest.mark.parametrize("line", LOADS_LINES)
    def test_is_json_loads(self, line):
        assert outcome(manifest._loads, line) == outcome(json.loads, line)

    @settings(max_examples=300, deadline=None)
    @given(line=st.text(alphabet='{}[]":,0123456789.eE+- \tabnultrsfNIaiy\ufeff', max_size=30))
    def test_is_json_loads_on_any_text(self, line):
        expected = outcome(json.loads, line)
        got = outcome(manifest._loads, line)
        # NaN is the one value not equal to itself
        assert got == expected or repr(got) == repr(expected)
