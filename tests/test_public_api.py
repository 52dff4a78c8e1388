"""The package's public names, as ``__all__`` states them."""

from __future__ import annotations

import types

import speechaug

PUBLIC = """
AppliedTrace AudioBuffer BuildOutcome ChainConfig ChainStageError CleanResult
CutoffAboveNyquist EffectSpec EmptyAudio EmptyCorpus EmptyNoiseBank EmptyText
FactorOutOfRange FilterPolicy IoFailure MalformedManifest MalformedText
MalformedWav ManifestRecord MixReport MockRejected MockSynthesizer
MockTranslator MockUnitizer NoiseBank NoiseEntry PortError RejectReason
RejectionStats SamplerConfig SpeechAugError StageTrace SubprocessSynthesizer
SubprocessTranslator SynthesizerPort TextCorpus TextPair TranslatorPort
UnitSequence UnitizerPort UnsupportedEncoding WorkerDied apply_chain
apply_lowpass apply_pitch apply_speed build_manifest clean_sentence corpus_stats
default_chain filter_pair iter_lines iter_manifest iter_text_stage load_chain
load_wav mix_noise read_manifest read_pairs_tsv reduce_units replay_trace
resample reservoir_take run_text_stage sample_stream save_chain save_wav
utterance_seed write_manifest write_pairs_tsv
""".split()


def test_all_holds_every_public_name_and_no_module():
    assert len(PUBLIC) == 70
    assert sorted(speechaug.__all__) == PUBLIC
    for name in speechaug.__all__:
        assert not isinstance(getattr(speechaug, name), types.ModuleType), name
