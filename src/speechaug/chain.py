"""Probabilistic effect chains.

A chain is an ordered list of effect specs. Applying the chain walks the
specs from the last to the first: each one fires independently with its
configured probability, drawing its parameters uniformly from the
configured ranges. All randomness comes from one generator seeded by a
stable hash of (global_seed, utterance_id), so results do not depend on
processing order, worker count, or the process hash seed.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ._numpy import np
from .audio import AudioBuffer, _write_file
from .effects import NoiseBank, apply_lowpass, apply_pitch, apply_speed, mix_picks
from .errors import ChainStageError, EmptyNoiseBank, SpeechAugError

KIND_SPEED = "speed"
KIND_PITCH = "pitch"
KIND_LOWPASS = "lowpass"
KIND_NOISE_MIX = "noise_mix"


@dataclass(frozen=True)
class EffectSpec:
    """One slot in a chain: an effect kind, a firing probability and the
    closed range its parameter is drawn from.

    For noise_mix the range is the SNR window in dB and ``max_segments``
    bounds how many bank entries are layered per application (the count is
    drawn uniformly from 1..max_segments). Other kinds ignore
    ``max_segments``.
    """

    kind: str
    probability: float
    param_range: tuple[float, float]
    max_segments: int = 4

    def __post_init__(self) -> None:
        if self.kind not in EFFECTS:
            raise ValueError(f"unknown effect kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} outside [0, 1]")
        low, high = self.param_range
        if not (low <= high):
            raise ValueError(f"param_range {self.param_range} is not ordered")
        object.__setattr__(self, "param_range", (float(low), float(high)))
        if self.max_segments < 1:
            raise ValueError(f"max_segments must be at least 1, got {self.max_segments}")


@dataclass(frozen=True)
class ChainConfig:
    """An immutable chain description plus the seed all utterances derive from."""

    specs: tuple[EffectSpec, ...]
    global_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def with_seed(self, global_seed: int) -> "ChainConfig":
        return replace(self, global_seed=global_seed)

    def to_dict(self) -> dict[str, Any]:
        specs = []
        for s in self.specs:
            entry: dict[str, Any] = {
                "kind": s.kind,
                "probability": s.probability,
                "param_range": [s.param_range[0], s.param_range[1]],
            }
            if s.kind == KIND_NOISE_MIX:
                entry["max_segments"] = s.max_segments
            specs.append(entry)
        return {"global_seed": self.global_seed, "specs": specs}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChainConfig":
        try:
            specs = tuple(
                EffectSpec(
                    kind=entry["kind"],
                    probability=float(entry["probability"]),
                    param_range=(
                        float(entry["param_range"][0]),
                        float(entry["param_range"][1]),
                    ),
                    max_segments=int(entry.get("max_segments", 4)),
                )
                for entry in data["specs"]
            )
            seed = int(data.get("global_seed", 0))
        except (KeyError, TypeError, IndexError) as err:
            raise ValueError(f"malformed chain config: {err}") from err
        return cls(specs=specs, global_seed=seed)


def save_chain(config: ChainConfig, path: str | Path) -> None:
    _write_file(path, [json.dumps(config.to_dict(), indent=2) + "\n"])


def load_chain(path: str | Path) -> ChainConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err
    return ChainConfig.from_dict(data)


def default_chain(global_seed: int = 0) -> ChainConfig:
    """The standard four-effect recipe.

    Every effect fires at probability 0.5. Speed and pitch draw their factor
    from [0.95, 1.05], the low-pass draws its cutoff from [300, 1000] Hz,
    and noise mixing layers up to 4 bank entries at an SNR drawn from
    [25, 35] dB. The noise stage sits last in the list, so it is applied
    first and the others perturb the already-noisy signal.
    """
    return ChainConfig(
        specs=(
            EffectSpec(KIND_SPEED, 0.5, (0.95, 1.05)),
            EffectSpec(KIND_PITCH, 0.5, (0.95, 1.05)),
            EffectSpec(KIND_LOWPASS, 0.5, (300.0, 1000.0)),
            EffectSpec(KIND_NOISE_MIX, 0.5, (25.0, 35.0), max_segments=4),
        ),
        global_seed=global_seed,
    )


@dataclass(frozen=True)
class StageTrace:
    """What one spec did to one utterance: fired or not, and with what."""

    index: int
    kind: str
    applied: bool
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AppliedTrace:
    """Full per-utterance record, sufficient to replay the output bit-exactly."""

    utterance_id: str
    stages: tuple[StageTrace, ...]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "AppliedTrace":
        data = json.loads(line)
        stages = tuple(
            StageTrace(
                index=int(s["index"]),
                kind=s["kind"],
                applied=bool(s["applied"]),
                params=dict(s["params"]),
            )
            for s in data["stages"]
        )
        return cls(utterance_id=data["utterance_id"], stages=stages)


def utterance_seed(global_seed: int, utterance_id: str) -> int:
    """Stable 64-bit seed for one utterance.

    Uses blake2b rather than Python's hash(), which is salted per process
    and would wreck cross-run reproducibility.
    """
    digest = hashlib.blake2b(
        f"{global_seed}\x1f{utterance_id}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _uniform(u: float, low: float, high: float) -> float:
    return low + u * (high - low)


def needs_bank(config: ChainConfig) -> bool:
    """Whether the chain can fire a noise mix, and so needs a noise bank."""
    return any(s.kind == KIND_NOISE_MIX and s.probability > 0.0 for s in config.specs)


Params = dict[str, Any]


@dataclass(frozen=True)
class _Effect:
    """How one effect kind turns uniforms into params and params into audio.

    ``uniforms(spec)`` is how many uniforms a spec draws after its gate.
    ``resolve(spec, u, buffer, bank)`` maps them to the params the trace
    records. ``apply(buffer, params, bank)`` performs the params and returns
    the output with the params as applied: the noise mix adds the gain, peak
    scale and degenerate flag it measured, the other kinds add nothing.
    apply_chain and replay_trace both go through ``apply``.
    """

    uniforms: Callable[[EffectSpec], int]
    resolve: Callable[[EffectSpec, list[float], AudioBuffer, NoiseBank | None], Params]
    apply: Callable[[AudioBuffer, Params, NoiseBank | None], tuple[AudioBuffer, Params]]


def _resolve_noise(
    spec: EffectSpec, u: list[float], buffer: AudioBuffer, bank: NoiseBank | None
) -> Params:
    u_snr, u_count, *u_pairs = u
    count = min(spec.max_segments, 1 + int(u_count * spec.max_segments))
    n = len(buffer)
    return {
        "snr_db": _uniform(u_snr, *spec.param_range),
        "entries": [
            bank.entries[min(len(bank) - 1, int(x * len(bank)))].id
            for x in u_pairs[0 : 2 * count : 2]
        ],
        "offsets": [min(n - 1, int(x * n)) for x in u_pairs[1 : 2 * count : 2]],
    }


def _apply_noise(
    buffer: AudioBuffer, params: Params, bank: NoiseBank | None
) -> tuple[AudioBuffer, Params]:
    if bank is None or len(bank) == 0:
        raise EmptyNoiseBank("a noise stage needs the bank its entries came from")
    aligned = bank.at_rate(buffer.sample_rate)
    try:
        picks = [
            (aligned.entry(eid), int(offset))
            for eid, offset in zip(params["entries"], params["offsets"], strict=True)
        ]
    except KeyError as err:
        raise ValueError(err.args[0]) from None
    out, report = mix_picks(buffer, picks, float(params["snr_db"]))
    return out, {
        **params,
        "gain": report.gain,
        "peak_scale": report.peak_scale,
        "degenerate": report.degenerate,
    }


# The appliers name apply_speed, apply_pitch and apply_lowpass as module
# globals, looked up on every call, so that wrapping those attributes (for
# tracing or in tests) reaches the calls the chain makes.
EFFECTS: dict[str, _Effect] = {
    KIND_SPEED: _Effect(
        lambda spec: 1,
        lambda spec, u, buffer, bank: {"factor": _uniform(u[0], *spec.param_range)},
        lambda buffer, p, bank: (apply_speed(buffer, float(p["factor"])), p),
    ),
    KIND_PITCH: _Effect(
        lambda spec: 1,
        lambda spec, u, buffer, bank: {"factor": _uniform(u[0], *spec.param_range)},
        lambda buffer, p, bank: (apply_pitch(buffer, float(p["factor"])), p),
    ),
    KIND_LOWPASS: _Effect(
        lambda spec: 1,
        lambda spec, u, buffer, bank: {"cutoff_hz": _uniform(u[0], *spec.param_range)},
        lambda buffer, p, bank: (apply_lowpass(buffer, float(p["cutoff_hz"])), p),
    ),
    KIND_NOISE_MIX: _Effect(
        lambda spec: 2 + 2 * spec.max_segments,
        _resolve_noise,
        _apply_noise,
    ),
}


@contextmanager
def _stage(index: int, kind: str) -> Iterator[None]:
    try:
        yield
    except SpeechAugError as err:
        raise ChainStageError(index, kind, err) from err


def apply_chain(
    config: ChainConfig,
    buffer: AudioBuffer,
    utterance_id: str,
    bank: NoiseBank | None = None,
) -> tuple[AudioBuffer, AppliedTrace]:
    """Run one utterance through the chain.

    Specs are applied from the last to the first. Per spec, one uniform
    draw gates the effect against its probability and further draws pick
    its parameters; the draws happen whether or not the effect fires, so
    changing one spec's probability never shifts the random values any
    other spec sees. A spec that fires resolves its draws into params and
    runs the same applier replay_trace runs. Returns the output and a trace
    of what fired.
    """
    if len(buffer) == 0:
        raise ValueError("cannot augment an empty buffer")
    if needs_bank(config) and (bank is None or len(bank) == 0):
        raise EmptyNoiseBank("this chain mixes noise but no bank entries were given")

    rng = np.random.Generator(np.random.PCG64(utterance_seed(config.global_seed, utterance_id)))
    current = buffer
    stages: list[StageTrace | None] = [None] * len(config.specs)
    for pos in range(len(config.specs) - 1, -1, -1):
        spec = config.specs[pos]
        effect = EFFECTS[spec.kind]
        u_gate, *u = rng.random(1 + effect.uniforms(spec)).tolist()
        applied = u_gate < spec.probability
        params: Params = {}
        if applied:
            with _stage(pos + 1, spec.kind):
                current, params = effect.apply(
                    current, effect.resolve(spec, u, current, bank), bank
                )
        stages[pos] = StageTrace(index=pos + 1, kind=spec.kind, applied=applied, params=params)

    trace = AppliedTrace(utterance_id=utterance_id, stages=tuple(stages))  # type: ignore[arg-type]
    return AudioBuffer(current.samples, current.sample_rate), trace


def replay_trace(
    config: ChainConfig,
    buffer: AudioBuffer,
    trace: AppliedTrace,
    bank: NoiseBank | None = None,
) -> AudioBuffer:
    """Re-apply exactly what a trace records, bypassing all randomness.

    Given the same input buffer, the same chain and the bank the trace's
    noise entries came from, the result is bit-identical to the original
    apply_chain output. A trace whose stage indexes are not exactly 1..n
    for an n-spec chain, or that names a noise entry the bank lacks, raises
    ValueError.
    """
    n = len(config.specs)
    if sorted(s.index for s in trace.stages) != list(range(1, n + 1)):
        raise ValueError(f"trace stage indexes must be exactly 1..{n}, one per chain spec")
    current = buffer
    for stage in sorted(trace.stages, key=lambda s: -s.index):
        if not stage.applied:
            continue
        spec = config.specs[stage.index - 1]
        if stage.kind != spec.kind:
            raise ValueError(
                f"trace stage {stage.index} is {stage.kind!r}, chain has {spec.kind!r}"
            )
        with _stage(stage.index, stage.kind):
            current, _ = EFFECTS[stage.kind].apply(current, stage.params, bank)
    return AudioBuffer(current.samples, current.sample_rate)
