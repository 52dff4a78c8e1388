"""Probabilistic chain composition, traces, replay and determinism."""

from __future__ import annotations

import json
from dataclasses import replace
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    AppliedTrace,
    AudioBuffer,
    ChainConfig,
    ChainStageError,
    EffectSpec,
    EmptyNoiseBank,
    NoiseBank,
    NoiseEntry,
    StageTrace,
    apply_chain,
    apply_lowpass,
    apply_pitch,
    apply_speed,
    default_chain,
    load_chain,
    replay_trace,
    save_chain,
    utterance_seed,
)
from speechaug.chain import EFFECTS, MAX_SEGMENTS

from conftest import make_noise_bank, make_sine


def zero_probability(config: ChainConfig) -> ChainConfig:
    return ChainConfig(
        tuple(EffectSpec(s.kind, 0.0, s.param_range, s.max_segments) for s in config.specs),
        config.global_seed,
    )


def certain(config: ChainConfig) -> ChainConfig:
    return ChainConfig(
        tuple(EffectSpec(s.kind, 1.0, s.param_range, s.max_segments) for s in config.specs),
        config.global_seed,
    )


@pytest.fixture
def bank():
    return make_noise_bank(3, 16000, np.random.default_rng(8))


@pytest.fixture
def buffer():
    return make_sine(440.0, 0.6, 16000, amplitude=0.4)


class TestEffectSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            EffectSpec("reverb", 0.5, (0.0, 1.0))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            EffectSpec("speed", 1.5, (0.9, 1.1))

    def test_rejects_unordered_range(self):
        with pytest.raises(ValueError):
            EffectSpec("speed", 0.5, (1.1, 0.9))

    def test_rejects_zero_segments(self):
        with pytest.raises(ValueError):
            EffectSpec("noise_mix", 0.5, (25.0, 35.0), max_segments=0)


class TestDefaultChain:
    def test_recipe(self):
        config = default_chain()
        kinds = [s.kind for s in config.specs]
        assert kinds == ["speed", "pitch", "lowpass", "noise_mix"]
        assert all(s.probability == 0.5 for s in config.specs)
        speed, pitch, lowpass, noise = config.specs
        assert speed.param_range == (0.95, 1.05)
        assert pitch.param_range == (0.95, 1.05)
        assert lowpass.param_range == (300.0, 1000.0)
        assert noise.param_range == (25.0, 35.0)
        assert noise.max_segments == 4

    def test_seed_override(self):
        assert default_chain(99).global_seed == 99
        assert default_chain().with_seed(7).global_seed == 7


class TestApplyChain:
    def test_zero_probability_is_bit_identity(self, buffer):
        config = zero_probability(default_chain(1))
        out, trace = apply_chain(config, buffer, "u1")
        assert out == buffer
        assert not any(s.applied for s in trace.stages)

    def test_certain_chain_applies_everything(self, buffer, bank):
        config = certain(default_chain(2))
        gen = np.random.default_rng(0)
        for i in range(25):
            probe = AudioBuffer(gen.uniform(-0.5, 0.5, int(gen.integers(9000, 12000))), 16000)
            _, trace = apply_chain(config, probe, f"u{i}", bank)
            assert all(s.applied for s in trace.stages)

    def test_deterministic_per_utterance(self, buffer, bank):
        config = default_chain(42)
        out1, tr1 = apply_chain(config, buffer, "stable-id", bank)
        out2, tr2 = apply_chain(config, buffer, "stable-id", bank)
        assert out1 == out2
        assert tr1 == tr2

    def test_different_utterances_draw_differently(self, buffer, bank):
        config = certain(default_chain(42))
        _, tr1 = apply_chain(config, buffer, "a", bank)
        _, tr2 = apply_chain(config, buffer, "b", bank)
        assert tr1.stages != tr2.stages

    def test_different_seeds_draw_differently(self, buffer, bank):
        _, tr1 = apply_chain(certain(default_chain(1)), buffer, "a", bank)
        _, tr2 = apply_chain(certain(default_chain(2)), buffer, "a", bank)
        assert tr1.stages != tr2.stages

    def test_probability_change_does_not_shift_other_draws(self, buffer, bank):
        # silencing the noise stage must not move what speed/pitch/lowpass drew
        base = certain(default_chain(5))
        specs = list(base.specs)
        specs[3] = EffectSpec("noise_mix", 0.0, specs[3].param_range, specs[3].max_segments)
        muted = ChainConfig(tuple(specs), 5)
        _, tr_full = apply_chain(base, buffer, "u", bank)
        _, tr_muted = apply_chain(muted, buffer, "u", bank)
        for full, muted_stage in zip(tr_full.stages[:3], tr_muted.stages[:3]):
            assert full.params == muted_stage.params

    def test_single_spec_equals_direct_call(self, buffer):
        for kind, func in (
            ("speed", apply_speed),
            ("pitch", apply_pitch),
            ("lowpass", apply_lowpass),
        ):
            rng_range = (300.0, 1000.0) if kind == "lowpass" else (0.95, 1.05)
            config = ChainConfig((EffectSpec(kind, 1.0, rng_range),), 3)
            out, trace = apply_chain(config, buffer, "solo")
            param = next(iter(trace.stages[0].params.values()))
            assert out == func(buffer, param)

    def test_noise_chain_requires_bank(self, buffer):
        config = certain(default_chain(0))
        with pytest.raises(EmptyNoiseBank):
            apply_chain(config, buffer, "u", None)

    def test_bank_not_needed_when_noise_silenced(self, buffer):
        config = zero_probability(default_chain(0))
        out, _ = apply_chain(config, buffer, "u", None)
        assert out == buffer

    def test_empty_buffer_rejected(self, bank):
        with pytest.raises(ValueError):
            apply_chain(default_chain(0), AudioBuffer(np.zeros(0), 16000), "u", bank)

    def test_stage_error_carries_index(self, bank):
        # a cutoff range above Nyquist for an 800 Hz signal cannot be applied
        config = ChainConfig(
            (
                EffectSpec("speed", 1.0, (0.95, 1.05)),
                EffectSpec("lowpass", 1.0, (600.0, 700.0)),
            ),
            0,
        )
        tiny = AudioBuffer(np.sin(np.linspace(0, 60, 400)), 800)
        with pytest.raises(ChainStageError) as excinfo:
            apply_chain(config, tiny, "u")
        assert excinfo.value.index == 2
        assert excinfo.value.kind == "lowpass"

    def test_applies_last_spec_first(self, buffer):
        # speed-then-lowpass vs lowpass-then-speed differ; the chain must
        # match composing by hand from the end of the list
        config = ChainConfig(
            (
                EffectSpec("lowpass", 1.0, (500.0, 500.0)),
                EffectSpec("speed", 1.0, (1.2, 1.2)),
            ),
            0,
        )
        out, _ = apply_chain(config, buffer, "u")
        by_hand = apply_lowpass(apply_speed(buffer, 1.2), 500.0)
        assert out == by_hand

    def test_rate_convergence_small(self, bank):
        config = default_chain(123)
        gen = np.random.default_rng(9)
        small = AudioBuffer(gen.uniform(-0.5, 0.5, 800), 16000)
        counts = {s.kind: 0 for s in config.specs}
        n = 1200
        for i in range(n):
            _, trace = apply_chain(config, small, f"u{i}", bank)
            for stage in trace.stages:
                counts[stage.kind] += stage.applied
        for kind, hits in counts.items():
            assert 0.45 <= hits / n <= 0.55, f"{kind} fired at {hits / n}"


class TestTraceAndReplay:
    def test_trace_json_roundtrip(self, buffer, bank):
        _, trace = apply_chain(certain(default_chain(11)), buffer, "u-7", bank)
        back = AppliedTrace.from_json(trace.to_json())
        assert back == trace

    def test_trace_json_is_one_ascii_line(self, buffer, bank):
        utterance_id = "a\x85b\u2028c\u2029dü"
        _, trace = apply_chain(certain(default_chain(11)), buffer, utterance_id, bank)
        line = trace.to_json()
        assert line.isascii()
        assert line.splitlines() == [line]
        assert AppliedTrace.from_json(line) == trace

    def test_replay_is_bit_exact(self, buffer, bank):
        config = default_chain(21)
        for i in range(10):
            out, trace = apply_chain(config, buffer, f"u{i}", bank)
            assert replay_trace(config, buffer, trace, bank) == out

    def test_replay_after_json_roundtrip(self, buffer, bank):
        config = certain(default_chain(31))
        out, trace = apply_chain(config, buffer, "u", bank)
        revived = AppliedTrace.from_json(trace.to_json())
        assert replay_trace(config, buffer, revived, bank) == out

    def test_replay_checks_shape(self, buffer, bank):
        config = default_chain(0)
        bad = AppliedTrace("u", ())
        with pytest.raises(ValueError):
            replay_trace(config, buffer, bad)

        every = certain(config)
        _, trace = apply_chain(every, buffer, "u", bank)
        speed, pitch, lowpass, noise = trace.stages
        entries, offsets = noise.params["entries"], noise.params["offsets"]

        def noise_with(**params):
            return StageTrace(4, "noise_mix", True, {**noise.params, **params})

        for stages in (
            (speed, pitch, lowpass, replace(noise, index=0)),
            (speed, pitch, lowpass, replace(noise, index=5)),
            (speed, pitch, lowpass, lowpass),
            (speed, pitch, lowpass, noise_with(entries=["nope"] * len(entries))),
            (speed, pitch, lowpass, noise_with(offsets=[-100] + offsets[1:])),
            (speed, pitch, lowpass, noise_with(offsets=[len(buffer) + 5] + offsets[1:])),
            (speed, pitch, lowpass, noise_with(offsets=offsets[:-1])),
            (speed, pitch, lowpass, noise_with(entries=entries + [entries[0]])),
            (speed, pitch, lowpass, noise_with(degenerate=True, entries=["nope"], offsets=[-5])),
        ):
            with pytest.raises(ValueError):
                replay_trace(every, buffer, AppliedTrace("u", stages), bank)

    def test_degenerate_mix_replays_with_its_bank(self, buffer):
        # an all-zero entry leaves the aggregate silent, so the mix is a no-op
        silent = NoiseBank([NoiseEntry("zeros", AudioBuffer(np.zeros(4000), 16000))])
        config = ChainConfig((EffectSpec("noise_mix", 1.0, (5.0, 15.0)),), 3)
        out, trace = apply_chain(config, buffer, "u", silent)
        assert trace.stages[0].params["degenerate"] is True
        assert out == buffer
        revived = AppliedTrace.from_json(trace.to_json())
        assert replay_trace(config, buffer, revived, silent) == out

    def test_every_kind_replays_through_the_table(self):
        # a 22.05 kHz signal and a 16 kHz bank, so the noise stage also
        # exercises the bank's rate conversion
        signal = make_sine(440.0, 0.6, 22050, amplitude=0.4)
        bank16 = make_noise_bank(3, 16000, np.random.default_rng(8))
        ranges = {
            "speed": (0.95, 1.05),
            "pitch": (0.95, 1.05),
            "lowpass": (300.0, 1000.0),
            "noise_mix": (25.0, 35.0),
        }
        for kind in EFFECTS:
            config = ChainConfig((EffectSpec(kind, 1.0, ranges[kind]),), 6)
            out, trace = apply_chain(config, signal, "solo", bank16)
            assert trace.stages[0].applied
            revived = AppliedTrace.from_json(trace.to_json())
            assert replay_trace(config, signal, revived, bank16) == out, kind


def first_stage(**fields):
    """An edit of a parsed trace that sets ``fields`` of its first stage."""

    def edit(data):
        data["stages"][0].update(fields)
        return data

    return edit


def without(key, stage=False):
    """An edit of a parsed trace that removes ``key``, from its first stage
    with ``stage``."""

    def edit(data):
        del (data["stages"][0] if stage else data)[key]
        return data

    return edit


# An edit of a parsed trace line, and the error from_json gives for it.
BAD_TRACE_EDITS = [
    pytest.param(lambda data: [data], "the value must be an object, not list", id="list"),
    pytest.param(lambda data: {**data, "utterance_id": 7}, "utterance_id must be a string, not int", id="id-int"),
    pytest.param(without("utterance_id"), "missing fields: utterance_id", id="id-missing"),
    pytest.param(lambda data: {**data, "stages": {}}, "stages must be a list, not dict", id="stages-object"),
    pytest.param(lambda data: {**data, "stages": ["x"]}, "stages[0] must be an object, not str", id="stage-str"),
    pytest.param(first_stage(applied="no"), "stages[0].applied must be a boolean, not str", id="applied-str"),
    pytest.param(first_stage(applied=1), "stages[0].applied must be a boolean, not int", id="applied-int"),
    pytest.param(first_stage(index=True), "stages[0].index must be an integer, not bool", id="index-bool"),
    pytest.param(first_stage(index=1.0), "stages[0].index must be an integer, not float", id="index-float"),
    pytest.param(first_stage(kind=None), "stages[0].kind must be a string, not NoneType", id="kind-null"),
    pytest.param(first_stage(params=[]), "stages[0].params must be an object, not list", id="params-list"),
    pytest.param(without("params", stage=True), "missing fields: stages[0].params", id="params-missing"),
]


class TestTraceFromJson:
    @pytest.mark.parametrize("edit, reason", BAD_TRACE_EDITS)
    def test_malformed_line_is_a_value_error_naming_the_field(self, buffer, bank, edit, reason):
        _, trace = apply_chain(certain(default_chain(11)), buffer, "u-7", bank)
        line = json.dumps(edit(json.loads(trace.to_json())))
        with pytest.raises(ValueError) as caught:
            AppliedTrace.from_json(line)
        assert str(caught.value) == reason

    def test_line_that_is_not_json(self):
        with pytest.raises(ValueError):
            AppliedTrace.from_json('{"utterance_id": "u", "stages": [')


def spec(i, **fields):
    """An edit of a parsed chain config that sets ``fields`` of spec ``i``."""

    def edit(data):
        data["specs"][i].update(fields)
        return data

    return edit


def without_probability(data):
    del data["specs"][0]["probability"]
    return data


# An edit of the default chain's config, and the error load_chain gives for it.
BAD_CONFIG_EDITS = [
    pytest.param(lambda data: [data], "the value must be an object, not list", id="list"),
    pytest.param(lambda data: {}, "missing fields: specs", id="no-specs"),
    pytest.param(lambda data: {**data, "specs": {}}, "specs must be a list, not dict", id="specs-object"),
    pytest.param(lambda data: {**data, "specs": [1]}, "specs[0] must be an object, not int", id="spec-int"),
    pytest.param(spec(0, probability=True), "specs[0].probability must be a number, not bool", id="p-bool"),
    pytest.param(spec(0, probability="0.5"), "specs[0].probability must be a number, not str", id="p-str"),
    pytest.param(without_probability, "missing fields: specs[0].probability", id="p-missing"),
    pytest.param(spec(2, probability=1.5), "specs[2]: probability 1.5 outside [0, 1]", id="p-above-one"),
    pytest.param(spec(1, kind=["pitch"]), "specs[1].kind must be a string, not list", id="kind-list"),
    pytest.param(spec(1, kind="echo"), "specs[1]: unknown effect kind 'echo'", id="kind-unknown"),
    pytest.param(
        spec(3, param_range=["25", 35]), "specs[3].param_range[0] must be a number, not str",
        id="range-str",
    ),
    pytest.param(
        spec(0, param_range=[0.95, True]), "specs[0].param_range[1] must be a number, not bool",
        id="range-bool",
    ),
    pytest.param(spec(0, param_range=[0.95]), "specs[0].param_range must hold two numbers, not 1", id="range-one"),
    pytest.param(
        spec(0, param_range=[0.9, 1.0, 1.1]), "specs[0].param_range must hold two numbers, not 3", id="range-three",
    ),
    pytest.param(spec(0, param_range=0.95), "specs[0].param_range must be a list, not float", id="range-float"),
    pytest.param(
        spec(0, param_range=[1.05, 0.95]), "specs[0]: param_range (1.05, 0.95) is not ordered", id="range-unordered",
    ),
    pytest.param(spec(3, max_segments=2.9), "specs[3].max_segments must be an integer, not float", id="segments-float"),
    pytest.param(spec(3, max_segments=True), "specs[3].max_segments must be an integer, not bool", id="segments-bool"),
    pytest.param(lambda data: {**data, "global_seed": 1.5}, "global_seed must be an integer, not float", id="seed-float"),
    pytest.param(lambda data: {**data, "global_seed": "1"}, "global_seed must be an integer, not str", id="seed-str"),
    pytest.param(spec(3, max_segments=65), "specs[3]: max_segments must be in 1..64, got 65", id="segments-above-bound"),
    pytest.param(lambda data: {**data, "global_sed": 7}, "unknown fields: global_sed", id="top-key-unknown"),
    pytest.param(spec(3, max_segmnets=1), "unknown fields: specs[3].max_segmnets", id="spec-key-unknown"),
    pytest.param(
        lambda data: {"specs": [{"kind": "speed", "probabilty": 0.5, "param_range": [0.9, 1.1]}]},
        "unknown fields: specs[0].probabilty", id="misspelled-required-key",
    ),
]


effect_specs = st.builds(
    EffectSpec,
    kind=st.sampled_from(sorted(EFFECTS)),
    probability=st.one_of(st.floats(0.0, 1.0), st.integers(0, 1)),
    param_range=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted).map(tuple),
    max_segments=st.integers(1, MAX_SEGMENTS),
)


class TestConfigFile:
    @pytest.mark.parametrize("edit, reason", BAD_CONFIG_EDITS)
    def test_malformed_config_is_a_value_error_naming_the_field(self, tmp_path, edit, reason):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(edit(default_chain(5).to_dict())))
        with pytest.raises(ValueError) as caught:
            load_chain(path)
        assert str(caught.value) == reason

    def test_tuples_are_lists_and_mappings_are_objects(self):
        data = MappingProxyType(
            {"specs": (MappingProxyType({"kind": "noise_mix", "probability": 0.5, "param_range": (25, 35)}),)}
        )
        config = ChainConfig.from_dict(data)
        assert config == ChainConfig((EffectSpec("noise_mix", 0.5, (25.0, 35.0), 4),), 0)

    def test_json_integers_are_numbers(self):
        data = {"specs": [{"kind": "lowpass", "probability": 1, "param_range": [300, 1000]}]}
        config = ChainConfig.from_dict(data)
        assert config == ChainConfig((EffectSpec("lowpass", 1.0, (300.0, 1000.0), 4),), 0)
        assert type(config.specs[0].probability) is float

    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(effect_specs, max_size=5), seed=st.integers(-(2**70), 2**70))
    def test_everything_save_chain_writes_loads(self, tmp_path_factory, specs, seed):
        config = ChainConfig(tuple(specs), seed)
        path = tmp_path_factory.mktemp("chain") / "chain.json"
        save_chain(config, path)
        # to_dict leaves out max_segments for the kinds that ignore it
        assert load_chain(path).to_dict() == config.to_dict()

    def test_roundtrip(self, tmp_path):
        config = default_chain(1234)
        path = tmp_path / "chain.json"
        save_chain(config, path)
        assert load_chain(path) == config

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_chain(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"specs": [{"kind": "speed"}]}')
        with pytest.raises(ValueError):
            load_chain(path)


class TestUtteranceSeed:
    def test_stable_values(self):
        # frozen: blake2b is stable across platforms and processes
        assert utterance_seed(0, "a") == utterance_seed(0, "a")
        assert utterance_seed(0, "a") != utterance_seed(1, "a")
        assert utterance_seed(0, "a") != utterance_seed(0, "b")

    @pytest.mark.parametrize(
        "global_seed, utterance_id, seed",
        [
            (0, "a", 6539243125055167529),
            (1, "p00000001:src", 9975640914076521055),
            (13, "u042.wav", 11472337144803759582),
            (2**40, "\u00e9", 10132264126324515082),
        ],
    )
    def test_pinned_values(self, global_seed, utterance_id, seed):
        # every seed, and so every output byte, depends on these
        assert utterance_seed(global_seed, utterance_id) == seed

    def test_no_separator_collision(self):
        assert utterance_seed(12, "3x") != utterance_seed(1, "23x")


class TestDrawsMatchNumpy:
    def test_traces_follow_numpys_generator(self, bank):
        # the reference is the draw apply_chain made with numpy: per spec,
        # last to first, Generator(PCG64(seed)).random(1 + k), the gate first
        config = default_chain(global_seed=7)
        buffer = make_sine(440.0, 0.1, 16000, amplitude=0.4)
        fired = 0
        for i in range(200):
            utterance_id = f"utt{i:03d}"
            _, trace = apply_chain(config, buffer, utterance_id, bank)
            gen = np.random.Generator(np.random.PCG64(utterance_seed(7, utterance_id)))
            for spec, stage in reversed(list(zip(config.specs, trace.stages))):
                effect = EFFECTS[spec.kind]
                u_gate, *u = gen.random(1 + effect.uniforms(spec)).tolist()
                assert stage.applied == (u_gate < spec.probability)
                if stage.applied:
                    fired += 1
                    # the noise stage comes last, so it is applied first,
                    # to the input; the other kinds resolve without it
                    expected = effect.resolve(spec, u, buffer, bank)
                    assert {key: stage.params[key] for key in expected} == expected
        assert 300 < fired < 500
