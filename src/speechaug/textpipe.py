"""Monolingual cleaning, translation and parallel-pair filtering.

The stage takes a corpus in the synthesis target language, cleans each
sentence, translates the survivors back into the source language through a
pluggable port, and filters the resulting pairs. Rejection is data, not an
error: every input sentence ends up in exactly one bucket (accepted,
rejected-with-reason, or translator failure).
"""

from __future__ import annotations

import codecs
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .audio import _write_file
from .errors import MalformedText, SpeechAugError
from .ports import TranslatorPort, ordered_map


class RejectReason(str, Enum):
    EMPTY = "empty"
    URL = "url"
    BRACKETED = "bracketed"
    SPECIAL_CHARS = "special_chars"
    TOO_SHORT = "too_short"
    TOO_LONG = "too_long"
    LENGTH_RATIO = "length_ratio"
    REPETITION = "repetition"


@dataclass(frozen=True)
class FilterPolicy:
    """Thresholds for cleaning and pair filtering.

    The defaults are deliberate, testable choices rather than tuned values:
    a pair is dropped when one side is more than 3x longer than the other
    (whitespace tokens), when a token repeats more than 3 times in a row,
    when either side falls outside 1..200 tokens, or, at the cleaning
    stage, when more than 20% of a sentence's characters are neither
    letters, digits, whitespace nor common punctuation.
    """

    max_length_ratio: float = 3.0
    max_repetition_run: int = 3
    min_tokens: int = 1
    max_tokens: int = 200
    max_special_char_ratio: float = 0.2

    def __post_init__(self) -> None:
        if self.max_length_ratio < 1.0:
            raise ValueError("max_length_ratio must be at least 1")
        if self.max_repetition_run < 1:
            raise ValueError("max_repetition_run must be at least 1")
        if self.min_tokens < 1:
            raise ValueError("min_tokens must be at least 1")
        if self.max_tokens < self.min_tokens:
            raise ValueError("max_tokens must be at least min_tokens")
        if not 0.0 <= self.max_special_char_ratio <= 1.0:
            raise ValueError("max_special_char_ratio must be in [0, 1]")


# Only h, H, w and W match (?i)h or (?i)w, so the lookahead skips every
# other character before the case-insensitive alternatives are tried.
_URL_RE = re.compile(r"(?i)(?=[hw])(?:https?://|\bwww\.)")
_BRACKET_SPAN = re.compile(r"\(.*?\)|\[.*?\]|\{.*?\}", re.DOTALL)
_COMMON_PUNCT = set(".,!?;:'\"-–—‘’“”…%¿¡")
# A character that is neither str.isalnum(), str.isspace() nor common
# punctuation: \w is isalnum() plus "_", and \s is isspace().
_UNUSUAL_CHAR = re.compile(rf"[^\w\s{re.escape(''.join(sorted(_COMMON_PUNCT)))}]|_")


@dataclass(frozen=True)
class CleanResult:
    """Outcome of cleaning one sentence: the normalized text or a reason."""

    text: str | None
    reason: RejectReason | None

    @property
    def accepted(self) -> bool:
        return self.reason is None


def clean_sentence(sentence: str, policy: FilterPolicy | None = None) -> CleanResult:
    """Normalize whitespace and vet one sentence.

    Rejects sentences that are empty after normalization, that contain a
    URL (http://, https:// or a www. host), a bracketed span of any of
    () [] {}, or too high a share of unusual characters. Cleaning an
    already-clean sentence returns it unchanged.
    """
    policy = policy or FilterPolicy()
    normalized = " ".join(sentence.split())
    if not normalized:
        return CleanResult(None, RejectReason.EMPTY)
    if _URL_RE.search(normalized):
        return CleanResult(None, RejectReason.URL)
    if _BRACKET_SPAN.search(normalized):
        return CleanResult(None, RejectReason.BRACKETED)
    unusual = len(_UNUSUAL_CHAR.findall(normalized))
    if unusual / len(normalized) > policy.max_special_char_ratio:
        return CleanResult(None, RejectReason.SPECIAL_CHARS)
    return CleanResult(normalized, None)


# Every character str.splitlines() breaks a line at ("\r\n" is one break).
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# What would split a field of a pairs TSV line.
_TSV_BREAKS = re.compile(f"[\t{re.escape(_LINE_BREAKS)}]")
# What a pair id, one plain file-name component, may not hold.
_ID_FORBIDDEN = re.compile(r"[/\\\x00]")


@dataclass(frozen=True)
class TextPair:
    """One parallel sentence pair with a stable id.

    The id names the file ``audio/<id>.wav``, so it must be one plain
    file-name component: not empty, ``.`` or ``..``, and free of ``/``,
    ``\\`` and NUL. No field may hold a tab or a line break, so every pair
    is one line of a pairs TSV.
    """

    id: str
    source: str
    target: str

    def __post_init__(self) -> None:
        if self.id in ("", ".", "..") or _ID_FORBIDDEN.search(self.id):
            raise ValueError(f"pair id {self.id!r} is not a plain file name")
        if not self.source or not self.target:
            raise ValueError(f"pair {self.id!r} has an empty side")
        if _TSV_BREAKS.search(f"{self.id} {self.source} {self.target}"):
            raise ValueError(f"pair {self.id!r} holds a tab or a line break")


def _longest_run(tokens: Sequence[str]) -> int:
    if not any(map(operator.eq, tokens, tokens[1:])):
        return 1 if tokens else 0
    return max(len(list(g)) for _, g in groupby(tokens))


def filter_pair(pair: TextPair, policy: FilterPolicy | None = None) -> RejectReason | None:
    """Return why a pair should be dropped, or None to keep it.

    Checks are symmetric in the two sides: token-count bounds first, then
    the length ratio, then consecutive token repetition.
    """
    policy = policy or FilterPolicy()
    src = pair.source.split()
    tgt = pair.target.split()
    lo, hi = min(len(src), len(tgt)), max(len(src), len(tgt))
    if lo < policy.min_tokens:
        return RejectReason.TOO_SHORT
    if hi > policy.max_tokens:
        return RejectReason.TOO_LONG
    if hi / lo > policy.max_length_ratio:
        return RejectReason.LENGTH_RATIO
    if max(_longest_run(src), _longest_run(tgt)) > policy.max_repetition_run:
        return RejectReason.REPETITION
    return None


@dataclass(frozen=True)
class TextCorpus:
    """A list of raw sentences, all in one language."""

    sentences: tuple[str, ...]
    language: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)


# Bytes of a text file read at a time.
_READ_BLOCK = 1 << 16


def iter_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, exactly as
    ``Path(path).read_text(encoding="utf-8").splitlines()`` gives them,
    read one block at a time.

    Every break ``str.splitlines`` knows ends a line, not only ``\\n``, so a
    corpus line numbers the same whichever way it is read. Blank lines are
    yielded too. Bytes that are not UTF-8 raise MalformedText naming their
    line, once every line before it has been yielded.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    yielded = 0
    tail = ""
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_READ_BLOCK)
            try:
                text = decoder.decode(block, final=not block)
            except UnicodeDecodeError as err:
                # err.object holds the decoder's buffered bytes too; with a
                # sentinel appended, the bad byte's line is the last piece
                good = err.object[: err.start].decode("utf-8")
                whole = (tail + good + "?").splitlines()[:-1]
                yield from whole
                raise MalformedText(path, yielded + len(whole) + 1, err.reason) from err
            pieces = (tail + text).splitlines(keepends=True)
            # the last piece may go on in the next block; even a final "\r"
            # may be the first half of a "\r\n"
            tail = pieces.pop() if block and pieces else ""
            for line in pieces:
                yield line.rstrip(_LINE_BREAKS)
            yielded += len(pieces)
            if not block:
                return


@dataclass
class RejectionStats:
    """Where every input sentence of a stage run ended up."""

    input_sentences: int = 0
    clean_rejected: Counter = field(default_factory=Counter)
    translator_failures: int = 0
    pair_rejected: Counter = field(default_factory=Counter)
    accepted: int = 0

    @property
    def total_rejected(self) -> int:
        return sum(self.clean_rejected.values()) + sum(self.pair_rejected.values())

    def is_conserved(self) -> bool:
        return (
            self.accepted + self.total_rejected + self.translator_failures
            == self.input_sentences
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "input_sentences": self.input_sentences,
            "clean_rejected": {str(k.value): v for k, v in sorted(self.clean_rejected.items())},
            "translator_failures": self.translator_failures,
            "pair_rejected": {str(k.value): v for k, v in sorted(self.pair_rejected.items())},
            "accepted": self.accepted,
        }


def iter_text_stage(
    sentences: Iterable[str],
    language: str,
    translator: TranslatorPort,
    to_language: str,
    stats: RejectionStats,
    policy: FilterPolicy | None = None,
) -> Iterator[TextPair]:
    """Clean sentences, translate the survivors and yield the kept pairs.

    Each kept pair has the translation as its source side and the cleaned
    original as its target side. Pair ids encode the original line number,
    so they are stable across runs and insensitive to how many earlier
    lines were rejected. Where every sentence ended up is counted into
    ``stats`` as the sentences are pulled.

    ``sentences`` streams through: each survivor is translated from the
    caller's thread, one request at a time, and its pair yielded before the
    next sentence is pulled. A sentence whose translation raises
    ``SpeechAugError`` counts as a translator failure, by ``ordered_map``'s
    per-item failure rule.
    """
    policy = policy or FilterPolicy()

    def survivors() -> Iterator[tuple[int, str]]:
        for idx, raw in enumerate(sentences):
            stats.input_sentences += 1
            result = clean_sentence(raw, policy)
            if result.accepted:
                yield idx, result.text
            else:
                stats.clean_rejected[result.reason] += 1

    def translate(survivor: tuple[int, str]) -> tuple[int, str, str]:
        idx, text = survivor
        return idx, text, translator.translate(text, language, to_language)

    for outcome in ordered_map(translate, survivors(), 1):
        if isinstance(outcome, SpeechAugError):
            stats.translator_failures += 1
            continue
        idx, target_text, translation = outcome
        source_text = " ".join(translation.split())
        if not source_text:
            stats.pair_rejected[RejectReason.EMPTY] += 1
            continue
        pair = TextPair(id=f"p{idx:08d}", source=source_text, target=target_text)
        reason = filter_pair(pair, policy)
        if reason is not None:
            stats.pair_rejected[reason] += 1
            continue
        stats.accepted += 1
        yield pair


def run_text_stage(
    corpus: TextCorpus,
    translator: TranslatorPort,
    to_language: str,
    policy: FilterPolicy | None = None,
    max_in_flight: int = 1,
) -> tuple[list[TextPair], RejectionStats]:
    """``iter_text_stage`` over a whole corpus: the kept pairs, in line
    order, and where every sentence ended up.

    ``max_in_flight`` is ignored: requests go one at a time. It stays for
    the callers that pass it."""
    stats = RejectionStats()
    stage = iter_text_stage(corpus.sentences, corpus.language, translator, to_language, stats, policy)
    return list(stage), stats


def reservoir_take(lines: Iterable[str], n: int, rng: Any) -> list[str]:
    """Uniformly sample ``n`` lines in one pass, preserving input order.

    Standard reservoir sampling; ``rng`` is any object with a scalar
    ``integers(low, high)``: ``_pcg64.PCG64`` and numpy's ``Generator``
    draw the same. Returns all lines when the input holds fewer than ``n``.
    """
    if n <= 0:
        return []
    reservoir: list[tuple[int, str]] = []
    for idx, line in enumerate(lines):
        if idx < n:
            reservoir.append((idx, line))
            continue
        j = int(rng.integers(0, idx + 1))
        if j < n:
            reservoir[j] = (idx, line)
    reservoir.sort()
    return [line for _, line in reservoir]


def write_pairs_tsv(pairs: Iterable[TextPair], path: str | Path) -> None:
    """id, source, target as one tab-separated line per pair.

    ``pairs`` may be a generator; the file appears under ``path`` only once
    the last pair is written.
    """
    _write_file(path, (f"{p.id}\t{p.source}\t{p.target}\n" for p in pairs))


def read_pairs_tsv(path: str | Path) -> list[TextPair]:
    """Parse ``id<TAB>source<TAB>target`` lines; blank lines are skipped.

    Raises ValueError, naming the file and line, on a malformed line, on a
    line that is no ``TextPair`` (such as an id that is not a plain file
    name) and on an id used twice, since each id names one output file.
    """
    pairs = []
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(iter_lines(path), 1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{line_no}: expected 3 tab-separated fields")
        first = first_line.setdefault(parts[0], line_no)
        if first != line_no:
            raise ValueError(f"{path}:{line_no}: pair id {parts[0]!r} already used on line {first}")
        try:
            pairs.append(TextPair(*parts))
        except ValueError as err:
            raise ValueError(f"{path}:{line_no}: {err}") from err
    return pairs
