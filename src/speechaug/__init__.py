"""Speech-translation data synthesis toolkit.

Two halves that meet in a training manifest: an acoustic side (WAV I/O,
resampling, and a probabilistic chain of speed, pitch, low-pass and
SNR-controlled noise perturbations) and a text side (corpus cleaning,
translation through pluggable ports, pair filtering, speech synthesis and
discrete-unit reduction).
"""

from types import ModuleType as _Module

from .audio import AudioBuffer, load_wav, resample, save_wav
from .chain import (
    AppliedTrace,
    ChainConfig,
    EffectSpec,
    StageTrace,
    apply_chain,
    default_chain,
    load_chain,
    replay_trace,
    save_chain,
    utterance_seed,
)
from .effects import (
    MixReport,
    NoiseBank,
    NoiseEntry,
    apply_lowpass,
    apply_pitch,
    apply_speed,
    mix_noise,
)
from .errors import (
    ChainStageError,
    CutoffAboveNyquist,
    EmptyAudio,
    EmptyCorpus,
    EmptyNoiseBank,
    EmptyText,
    FactorOutOfRange,
    IoFailure,
    MalformedManifest,
    MalformedText,
    MalformedWav,
    MockRejected,
    PortError,
    SpeechAugError,
    UnsupportedEncoding,
    WorkerDied,
)
from .manifest import (
    BuildOutcome,
    ManifestRecord,
    SamplerConfig,
    build_manifest,
    corpus_stats,
    iter_manifest,
    read_manifest,
    sample_stream,
    write_manifest,
)
from .ports import (
    MockSynthesizer,
    MockTranslator,
    MockUnitizer,
    SubprocessSynthesizer,
    SubprocessTranslator,
    SynthesizerPort,
    TranslatorPort,
    UnitizerPort,
    UnitSequence,
    reduce_units,
)
from .textpipe import (
    CleanResult,
    FilterPolicy,
    RejectionStats,
    RejectReason,
    TextCorpus,
    TextPair,
    clean_sentence,
    filter_pair,
    iter_lines,
    iter_text_stage,
    read_pairs_tsv,
    reservoir_take,
    run_text_stage,
    write_pairs_tsv,
)

__version__ = "0.1.0"

# every public name imported above; the submodules those imports bind are not
__all__ = sorted(
    name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _Module)
)
