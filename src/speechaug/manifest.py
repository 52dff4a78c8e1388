"""Training manifests: building, parsing, weighted sampling and statistics.

A manifest is a JSON-lines file. The first line is a fixed header object
identifying the schema; every following line is one record that points at a
WAV file on disk and carries the reduced target units, the data origin
("real" or "text_aug") and the language pair.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from ._jsonfields import fields as json_fields
from ._pcg64 import PCG64
from .audio import AudioBuffer, _write_file, save_wav
from .chain import ChainConfig, apply_chain, needs_bank
from .effects import NoiseBank
from .errors import EmptyCorpus, MalformedManifest, MalformedText, SpeechAugError
from .ports import SynthesizerPort, UnitizerPort, UnitSequence, map_to_index, reduce_units
from .textpipe import TextPair, iter_lines

MANIFEST_SCHEMA = "speechaug-manifest-v1"

ORIGINS = ("real", "text_aug")

# the JSON kind of each record field, in the order the writer writes them
_RECORD_KINDS = {
    "id": "a string", "source_audio": "a string", "duration_s": "a number", "target_units": "a string",
    "origin": "a string", "src_lang": "a string", "tgt_lang": "a string",
}
_RECORD_KEYS = tuple(_RECORD_KINDS)
_record_fields = operator.itemgetter(*_RECORD_KEYS)
# the exact types json.loads gives the fields of a line the writer wrote
_FIELD_TYPES = (str, str, float, str, str, str, str)


def _exact_fields(data: Any) -> tuple | None:
    """The record fields of a JSON value, in ``_RECORD_KEYS`` order, when it
    is a dict holding each with the type the writer gives it; else None."""
    if type(data) is not dict:
        return None
    try:
        fields = _record_fields(data)
    except KeyError:
        return None
    return fields if tuple(map(type, fields)) == _FIELD_TYPES else None


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
        # json.loads builds exact dicts, strs and floats, so a line the
        # writer wrote passes on its field types alone; anything else is
        # checked field by field, and refused with the reason. Keys the
        # record does not know are ignored.
        fields = _exact_fields(data)
        if fields is None:
            fields = _record_fields(json_fields(data, _RECORD_KINDS, what="record"))
        id_, source_audio, duration_s, units, origin, src_lang, tgt_lang = fields
        # a manifest repeats a handful of origins and languages on every
        # line; interned, each record shares one string per value. The
        # fields come in the class's order; UnitSequence makes each unit an int
        return cls(
            id_, source_audio, float(duration_s), UnitSequence(units.split(), reduced=True),
            sys.intern(origin), sys.intern(src_lang), sys.intern(tgt_lang),
        )


# The first line of every manifest.
_HEADER = json.dumps({"schema": MANIFEST_SCHEMA}) + "\n"


def write_manifest(records: Sequence[ManifestRecord], path: str | Path) -> None:
    """Write the header line followed by one JSON line per record."""
    lines = (record.to_json() + "\n" for record in records)
    _write_file(path, itertools.chain([_HEADER], lines))


T = TypeVar("T")

_scan_once = json.JSONDecoder().scan_once


def _loads(line: str) -> Any:
    """``json.loads(line)``. A line that is one JSON value and nothing else
    is scanned without its wrappers; any other line goes through it, so
    every error is its own."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        end = -1
    return value if end == len(line) else json.loads(line)


def _parse_lines(path: str | Path, parse: Callable[[Any], T]) -> Iterator[T]:
    """``parse`` of the JSON value of each record line, as ``iter_manifest``
    reads them, with its errors: a ValueError of ``parse`` names the line."""
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
            if not raw or raw.isspace():
                continue
            try:
                parsed = parse(_loads(raw))
            # an integer duration too large for a float raises OverflowError
            except (json.JSONDecodeError, ValueError, OverflowError) as err:
                raise MalformedManifest(line_no, str(err)) from err
            yield parsed
    except MalformedText as err:
        raise MalformedManifest(err.line_number, f"not valid UTF-8 ({err.reason})") from err
    finally:
        lines.close()


def iter_manifest(path: str | Path) -> Iterator[ManifestRecord]:
    """Parse a manifest one line at a time, raising MalformedManifest with
    the offending line number when a line is reached that does not parse.

    Lines are split as ``iter_lines`` splits them, and only one block of
    the file is held at a time.
    """
    return _parse_lines(path, ManifestRecord.from_dict)


# Units as the writer writes them: ASCII digits with no leading zero, one
# space apart, so two units are equal exactly when their strings are, and
# each unit is followed by a different one. Longer numbers are left to
# int(), whose digit limit may refuse them.
_CANONICAL_UNITS = re.compile(r"(?:(0|[1-9][0-9]{0,17})(?! \1(?![0-9])) )*(?:0|[1-9][0-9]{0,17})")


def _summarize(data: Any) -> tuple[str, float, int, str]:
    """(id, duration_s, unit count, origin) of a record's JSON value, as
    ``from_dict`` gives them; a line the writer wrote passes without a
    record being built, and any other value goes through ``from_dict``."""
    fields = _exact_fields(data)
    if fields is not None:
        id_, _, duration_s, units, origin, _, _ = fields
        if id_ and 0 < duration_s < math.inf and origin in ORIGINS and _CANONICAL_UNITS.fullmatch(units):
            return id_, duration_s, units.count(" ") + 1, origin
    record = ManifestRecord.from_dict(data)
    return record.id, record.duration_s, len(record.target_units), record.origin


def _iter_summaries(path: str | Path) -> Iterator[tuple[str, float, int, str]]:
    """``_summarize`` of each record of a manifest, with ``iter_manifest``'s errors."""
    return _parse_lines(path, _summarize)


def read_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse a whole manifest, raising MalformedManifest with the offending
    line number."""
    return list(iter_manifest(path))


@dataclass
class BuildOutcome:
    manifest_path: Path
    records: list[ManifestRecord]
    failures: list[tuple[str, SpeechAugError]]


# A pair and its spoken source and target, or the error that speaking it raised.
_Spoken = tuple[TextPair, "list[AudioBuffer] | SpeechAugError"]


def build_manifest(
    pairs: Iterable[TextPair],
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
    """Synthesize, optionally perturb, unitize and index pairs.

    Both sentences of each pair are spoken here, in pair order. The source
    is run through the chain (when one is given; it is seeded per record
    id, so worker count and ordering cannot change any output) and written
    to ``out_dir/audio/<id>.wav``; the target, perturbed too with
    ``augment_target``, is collapsed into reduced units. Records are
    written to the manifest in pair order, as they are done.

    When a chain runs, all but the speaking runs in up to ``workers``
    forked processes while later pairs are spoken, with the bank converted
    to the synthesizer's rate before the fork. A build with no chain runs
    here alone: a pair's unitizing and write cost less than its trip to a
    worker.

    Any ``SpeechAugError`` raised while one pair is processed (a port
    failure, an effect failure, a write failure) makes that pair a failure:
    it is reported in the outcome as ``(pair id, error)``, in pair order,
    and left out of the manifest. Any other exception propagates, and
    leaves no manifest. Nothing is logged here; reporting is the caller's.
    """
    out_path = Path(out_dir)
    audio_dir = out_path / "audio"
    audio_dir.mkdir(parents=True, exist_ok=True)
    source_chain = chain if augment_source else None
    # target perturbation happens before unitization so the units describe
    # the audio the model will actually hear
    target_chain = chain if augment_target else None
    if source_chain is None and target_chain is None:
        workers = 1
    elif bank is not None and needs_bank(chain):
        # the workers inherit the converted bank, and none converts it again
        bank.at_rate(synthesizer.sample_rate)

    def speak(pair: TextPair) -> _Spoken:
        try:
            return pair, [
                synthesizer.synthesize(pair.source, src_lang),
                synthesizer.synthesize(pair.target, tgt_lang),
            ]
        except SpeechAugError as err:
            # the pair's failure, which build_one raises in its turn
            return pair, err

    def build_one(job: _Spoken) -> ManifestRecord:
        pair, audio = job
        if isinstance(audio, SpeechAugError):
            raise audio
        source_audio, target_audio = audio
        # the caller holds the job until this returns: emptied, it lets the
        # spoken source go once the chain has run on it
        audio.clear()
        if source_chain is not None:
            source_audio, _ = apply_chain(source_chain, source_audio, f"{pair.id}:src", bank)
        if target_chain is not None:
            target_audio, _ = apply_chain(target_chain, target_audio, f"{pair.id}:tgt", bank)
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

    manifest_path = out_path / "manifest.jsonl"
    records, failures = map_to_index(
        # map keeps no pair's audio once it has passed it on
        build_one, map(speak, pairs), workers, manifest_path,
        name=lambda job: job[0].id, header=_HEADER,
    )
    return BuildOutcome(manifest_path, records, failures)


def _float64_sum(values: Sequence[float]) -> float:
    """``np.sum`` of a float64 array, as numpy adds it: pairwise, with a
    sequential sum below 8 values and 8 interleaved ones up to 128."""
    n = len(values)
    if n < 8:
        return functools.reduce(operator.add, values, -0.0)
    if n <= 128:
        k = n - n % 8
        r = [functools.reduce(operator.add, values[j:k:8]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return functools.reduce(operator.add, values[k:], head)
    half = n // 2 - n // 2 % 8
    return _float64_sum(values[:half]) + _float64_sum(values[half:])


@dataclass(frozen=True)
class SamplerConfig:
    """Origin weights plus the seed that makes the stream reproducible."""

    weights: Mapping[str, float]
    seed: int

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("weights must not be empty")
        for origin, w in self.weights.items():
            if not 0 <= w < math.inf:  # NaN fails both comparisons
                raise ValueError(f"weight of {origin!r} must be non-negative and finite, got {w}")
        drawn = [w for _, w in sorted(self.weights.items()) if w > 0]
        if not drawn:
            raise ValueError("at least one weight must be positive")
        # the total sample_stream divides by
        if _float64_sum(drawn) == math.inf:
            raise ValueError("the weights must have a finite total")
        object.__setattr__(self, "weights", dict(self.weights))


def sample_stream(
    manifests: Sequence[tuple[Sequence[T], str]],
    config: SamplerConfig,
) -> Iterator[T]:
    """Yield pool elements forever: pick an origin by weight, then an
    element uniformly within its pool.

    An element is usually a record, or just its id when that is all the
    caller needs; the draws are the same either way. Origins with weight
    zero are never drawn. An origin with positive weight but no elements
    raises EmptyCorpus when this is called, before any draw.

    The draws are those of numpy's ``Generator(PCG64(config.seed))`` over
    ``np.cumsum(weights / np.sum(weights))``, replayed without numpy.
    """
    pools: dict[str, list[T]] = {}
    for records, origin in manifests:
        pools.setdefault(origin, []).extend(records)

    active = [(origin, w) for origin, w in sorted(config.weights.items()) if w > 0]
    for origin, _ in active:
        if not pools.get(origin):
            raise EmptyCorpus(f"origin {origin!r} has positive weight but no records")

    chosen = [pools[origin] for origin, _ in active]
    total = _float64_sum([w for _, w in active])
    # np.cumsum is a left fold; bisect_right on its values picks what
    # np.searchsorted(side="right") picks
    cumulative = list(itertools.accumulate(w / total for _, w in active))
    rng = PCG64(config.seed)

    def draws() -> Iterator[T]:
        random, integers = rng.random, rng.integers
        sizes = [len(pool) for pool in chosen]
        last = len(chosen) - 1
        while True:
            k = min(bisect_right(cumulative, random()), last)
            yield chosen[k][integers(0, sizes[k])]

    return draws()


def corpus_stats(path: str | Path) -> dict[str, Any]:
    """Summarize a manifest: totals, per-origin breakdown and a histogram
    of reduced-unit sequence lengths.

    The manifest is read one line at a time, and no record is kept, nor
    built for a line the writer wrote.
    """
    origins: dict[str, dict[str, Any]] = {}
    histogram: dict[int, int] = {}

    def durations() -> Iterator[float]:
        for _, duration_s, n_units, origin in _iter_summaries(path):
            bucket = origins.setdefault(origin, {"records": 0, "duration_s": 0.0})
            bucket["records"] += 1
            bucket["duration_s"] += duration_s
            histogram[n_units] = histogram.get(n_units, 0) + 1
            yield duration_s

    # correctly rounded, so the total is the same on every Python version
    total_s = math.fsum(durations())
    return {
        "records": sum(bucket["records"] for bucket in origins.values()),
        "total_duration_s": total_s,
        "total_hours": total_s / 3600.0,
        "origins": {k: origins[k] for k in sorted(origins)},
        "unit_length_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
