"""Training manifests: building, parsing, weighted sampling and statistics.

A manifest is a JSON-lines file. The first line is a fixed header object
identifying the schema; every following line is one record that points at a
WAV file on disk and carries the reduced target units, the data origin
("real" or "text_aug") and the language pair.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence, TypeVar

from ._numpy import np
from .audio import _write_file, save_wav
from .chain import ChainConfig, apply_chain
from .effects import NoiseBank
from .errors import EmptyCorpus, MalformedManifest, MalformedText, SpeechAugError
from .ports import SynthesizerPort, UnitizerPort, UnitSequence, ordered_map, reduce_units
from .textpipe import TextPair, iter_lines

MANIFEST_SCHEMA = "speechaug-manifest-v1"

ORIGINS = ("real", "text_aug")

_RECORD_KEYS = ("id", "source_audio", "duration_s", "target_units", "origin", "src_lang", "tgt_lang")
_record_fields = operator.itemgetter(*_RECORD_KEYS)
# the exact types json.loads gives the fields of a line the writer wrote
_FIELD_TYPES = (str, str, float, str, str, str, str)


@dataclass(frozen=True)
class ManifestRecord:
    """One training example: source audio on disk plus reduced target units."""

    id: str
    source_audio: str
    duration_s: float
    target_units: UnitSequence
    origin: str
    src_lang: str
    tgt_lang: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("record id must not be empty")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"record {self.id!r}: duration must be positive and finite")
        if not self.target_units.reduced:
            raise ValueError(f"record {self.id!r}: target units must be reduced")
        if self.origin not in ORIGINS:
            raise ValueError(f"record {self.id!r}: origin must be one of {ORIGINS}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "source_audio": self.source_audio,
                "duration_s": self.duration_s,
                "target_units": " ".join(str(u) for u in self.target_units.units),
                "origin": self.origin,
                "src_lang": self.src_lang,
                "tgt_lang": self.tgt_lang,
            }
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ManifestRecord":
        try:
            fields = _record_fields(data) if type(data) is dict else None
        except KeyError:
            fields = None
        # json.loads builds exact dicts, strs and floats, so a line the
        # writer wrote passes on its field types alone; anything else is
        # checked field by field, and refused with the reason
        if fields is None or tuple(map(type, fields)) != _FIELD_TYPES:
            if not isinstance(data, Mapping):
                raise ValueError(f"record must be a JSON object, not {type(data).__name__}")
            missing = [k for k in _RECORD_KEYS if k not in data]
            if missing:
                raise ValueError(f"missing fields: {', '.join(missing)}")
            duration_s = data["duration_s"]
            # bool is an int subclass; the writer only ever writes numbers
            if isinstance(duration_s, bool) or not isinstance(duration_s, (int, float)):
                raise ValueError(f"duration_s must be a number, not {type(duration_s).__name__}")
            for key in _RECORD_KEYS:
                if key != "duration_s" and not isinstance(data[key], str):
                    raise ValueError(f"{key} must be a string, not {type(data[key]).__name__}")
            fields = _record_fields(data)
        id_, source_audio, duration_s, units, origin, src_lang, tgt_lang = fields
        # a manifest repeats a handful of origins and languages on every
        # line; interned, each record shares one string per value. The
        # fields come in the class's order; UnitSequence makes each unit an int
        return cls(
            id_, source_audio, float(duration_s), UnitSequence(units.split(), reduced=True),
            sys.intern(origin), sys.intern(src_lang), sys.intern(tgt_lang),
        )


def write_manifest(records: Sequence[ManifestRecord], path: str | Path) -> None:
    """Write the header line followed by one JSON line per record."""
    lines = (record.to_json() + "\n" for record in records)
    _write_file(path, itertools.chain([json.dumps({"schema": MANIFEST_SCHEMA}) + "\n"], lines))


def iter_manifest(path: str | Path) -> Iterator[ManifestRecord]:
    """Parse a manifest one line at a time, raising MalformedManifest with
    the offending line number when a line is reached that does not parse.

    Lines are split as ``iter_lines`` splits them, and only one block of
    the file is held at a time.
    """
    lines = iter_lines(path)
    try:
        first = next(lines, None)
        if first is None:
            raise MalformedManifest(1, "file is empty, expected a schema header")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as err:
            raise MalformedManifest(1, f"header is not valid JSON: {err}") from err
        if not isinstance(header, dict) or header.get("schema") != MANIFEST_SCHEMA:
            raise MalformedManifest(1, f"expected schema header {MANIFEST_SCHEMA!r}")
        for line_no, raw in enumerate(lines, 2):
            if not raw.strip():
                continue
            try:
                record = ManifestRecord.from_dict(json.loads(raw))
            # an integer duration too large for a float raises OverflowError
            except (json.JSONDecodeError, ValueError, OverflowError) as err:
                raise MalformedManifest(line_no, str(err)) from err
            yield record
    except MalformedText as err:
        raise MalformedManifest(err.line_number, f"not valid UTF-8 ({err.reason})") from err
    finally:
        lines.close()


def read_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse a whole manifest, raising MalformedManifest with the offending
    line number."""
    return list(iter_manifest(path))


@dataclass
class BuildOutcome:
    manifest_path: Path
    records: list[ManifestRecord]
    failures: list[tuple[str, SpeechAugError]]


def build_manifest(
    pairs: Sequence[TextPair],
    synthesizer: SynthesizerPort,
    unitizer: UnitizerPort,
    out_dir: str | Path,
    *,
    chain: ChainConfig | None = None,
    bank: NoiseBank | None = None,
    src_lang: str = "src",
    tgt_lang: str = "tgt",
    origin: str = "text_aug",
    augment_source: bool = True,
    augment_target: bool = False,
    workers: int = 1,
) -> BuildOutcome:
    """Synthesize, optionally perturb, unitize and index a pair list.

    For each pair the source sentence is spoken, run through the chain
    (when one is given; the chain is seeded per record id, so worker count
    and ordering cannot change any output), and written to
    ``out_dir/audio/<id>.wav``; the target sentence is spoken and collapsed
    into reduced units. Records land in the manifest in pair order.

    Any ``SpeechAugError`` raised while one pair is processed (a port
    failure, an effect failure, a write failure) makes that pair a failure:
    it is reported in the outcome as ``(pair id, error)``, in pair order,
    and left out of the manifest. Nothing is logged here; reporting is the
    caller's.
    """
    out_path = Path(out_dir)
    audio_dir = out_path / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)

    def build_one(pair: TextPair) -> ManifestRecord:
        source_audio = synthesizer.synthesize(pair.source, src_lang)
        target_audio = synthesizer.synthesize(pair.target, tgt_lang)
        if chain is not None and augment_source:
            source_audio, _ = apply_chain(chain, source_audio, f"{pair.id}:src", bank)
        if chain is not None and augment_target:
            # target perturbation happens before unitization so the units
            # describe the audio the model will actually hear
            target_audio, _ = apply_chain(chain, target_audio, f"{pair.id}:tgt", bank)
        units = reduce_units(unitizer.unitize(target_audio))
        save_wav(source_audio, audio_dir / f"{pair.id}.wav", encoding="float32")
        return ManifestRecord(
            id=pair.id,
            source_audio=f"audio/{pair.id}.wav",
            duration_s=source_audio.duration_seconds,
            target_units=units,
            origin=origin,
            src_lang=src_lang,
            tgt_lang=tgt_lang,
        )

    outcomes = list(ordered_map(build_one, pairs, workers))
    records = [o for o in outcomes if not isinstance(o, SpeechAugError)]
    failures = [(p.id, o) for p, o in zip(pairs, outcomes) if isinstance(o, SpeechAugError)]
    manifest_path = out_path / "manifest.jsonl"
    write_manifest(records, manifest_path)
    return BuildOutcome(manifest_path=manifest_path, records=records, failures=failures)


@dataclass(frozen=True)
class SamplerConfig:
    """Origin weights plus the seed that makes the stream reproducible."""

    weights: Mapping[str, float]
    seed: int

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weights must not be empty")
        if any(w < 0 for w in self.weights.values()):
            raise ValueError("weights must be non-negative")
        if sum(self.weights.values()) <= 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", dict(self.weights))


P = TypeVar("P")


def sample_stream(
    manifests: Sequence[tuple[Sequence[P], str]],
    config: SamplerConfig,
) -> Iterator[P]:
    """Yield pool elements forever: pick an origin by weight, then an
    element uniformly within its pool.

    An element is usually a record, or just its id when that is all the
    caller needs; the draws are the same either way. Origins with weight
    zero are never drawn. An origin with positive weight but no elements
    raises EmptyCorpus up front.
    """
    pools: dict[str, list[P]] = {}
    for records, origin in manifests:
        pools.setdefault(origin, []).extend(records)

    active = [(origin, w) for origin, w in sorted(config.weights.items()) if w > 0]
    for origin, _ in active:
        if not pools.get(origin):
            raise EmptyCorpus(f"origin {origin!r} has positive weight but no records")

    names = [origin for origin, _ in active]
    weights = np.array([w for _, w in active], dtype=np.float64)
    # bisect_right on the exact float64 values picks what
    # np.searchsorted(side="right") picks, without a numpy call per draw
    cumulative = np.cumsum(weights / weights.sum()).tolist()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    while True:
        u = rng.random()
        pick = min(bisect_right(cumulative, u), len(names) - 1)
        pool = pools[names[pick]]
        yield pool[int(rng.integers(0, len(pool)))]


def corpus_stats(path: str | Path) -> dict[str, Any]:
    """Summarize a manifest: totals, per-origin breakdown and a histogram
    of reduced-unit sequence lengths.

    The manifest is read one record at a time and no record is kept.
    """
    origins: dict[str, dict[str, Any]] = {}
    histogram: dict[int, int] = {}

    def durations() -> Iterator[float]:
        for r in iter_manifest(path):
            bucket = origins.setdefault(r.origin, {"records": 0, "duration_s": 0.0})
            bucket["records"] += 1
            bucket["duration_s"] += r.duration_s
            histogram[len(r.target_units)] = histogram.get(len(r.target_units), 0) + 1
            yield r.duration_s

    # sum() itself consumes the stream: its float algorithm is not a running
    # "+=" (Python 3.12 compensates it), and the total must stay sum()'s
    total_s = float(sum(durations()))
    return {
        "records": sum(bucket["records"] for bucket in origins.values()),
        "total_duration_s": total_s,
        "total_hours": total_s / 3600.0,
        "origins": {k: origins[k] for k in sorted(origins)},
        "unit_length_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
