"""Every reader of an input file, fed mutated copies of a valid input.

Each call must return within a second or raise the reader's documented
error; any other exception, or an overrun, fails the test. The mutations
are byte flips, truncations, inserted separator and non-UTF-8 bytes, and,
for WAV files, edited chunk sizes and non-finite samples. One example of
each mutation class is also a plain test, with the error it gives.
"""

from __future__ import annotations

import math
import re
import signal
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechaug import (
    AppliedTrace,
    AudioBuffer,
    IoFailure,
    MalformedManifest,
    MalformedText,
    MalformedWav,
    NoiseBank,
    SpeechAugError,
    TextPair,
    apply_chain,
    default_chain,
    iter_manifest,
    load_chain,
    load_wav,
    read_pairs_tsv,
    save_chain,
    save_wav,
    write_manifest,
    write_pairs_tsv,
)
from speechaug.manifest import _iter_summaries

from test_audio import wav_bytes
from test_manifest import record

# Seconds one reader call may take.
LIMIT_S = 1.0

# Bytes an insertion puts into an input: the separators of the text formats,
# and bytes that are not UTF-8 where they stand (a lead byte with no
# continuation, a lone continuation byte, a byte UTF-8 never uses, and an
# encoded surrogate).
INSERTS = [b"\x00", b"\t", b"\n", b"\r", b"\xc3", b"\x80", b"\xff", b"\xed\xa0\x80"]

NON_FINITE = [math.nan, math.inf, -math.inf]


class Overran(Exception):
    """A reader call took longer than LIMIT_S."""


@contextmanager
def time_limit(seconds: float) -> Iterator[None]:
    def overran(signum: int, frame: Any) -> None:
        raise Overran(f"the call took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def chunk_size_offsets(wav: bytes) -> list[int]:
    """Offsets of the RIFF size field and of each chunk's size field."""
    offsets = [4]
    at = 12
    while at + 8 <= len(wav):
        offsets.append(at + 4)
        (size,) = struct.unpack_from("<I", wav, at + 4)
        at += 8 + size + (size & 1)
    return offsets


def mutate(data: bytes, edits: list[tuple]) -> bytes:
    """``data`` with each edit applied in turn.

    An edit is ``(kind, where, value)``, ``where`` in [0, 1) a position as a
    share of the current length:
    - ``("flip", where, mask)`` xors one byte with ``mask``;
    - ``("truncate", where, None)`` cuts the data there;
    - ``("insert", where, k)`` inserts ``INSERTS[k]``;
    - ``("size", i, value)`` sets the i-th chunk size field (counted modulo
      their number) to ``value``, and ``("nudge", i, d)`` adds ``d`` to it;
    - ``("non_finite", where, k)`` writes ``NON_FINITE[k]`` as a float32 over
      a sample of the data chunk.
    Structure edits read the chunk layout of ``data`` as it stands, so they
    come first.
    """
    for kind, where, value in edits:
        at = int(where * len(data))
        if kind == "flip" and data:
            data = data[:at] + bytes([data[at] ^ value]) + data[at + 1 :]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + INSERTS[value] + data[at:]
        elif kind in ("size", "nudge"):
            offsets = chunk_size_offsets(data)
            field = offsets[where % len(offsets)]
            if kind == "nudge":
                value = (struct.unpack_from("<I", data, field)[0] + value) % 2**32
            data = data[:field] + struct.pack("<I", value) + data[field + 4 :]
        elif kind == "non_finite":
            start = data.index(b"data") + 8
            sample = int(where * (len(data) - start) / 4)
            at = start + 4 * sample
            data = data[:at] + struct.pack("<f", NON_FINITE[value]) + data[at + 4 :]
    return data


fractions = st.floats(0.0, 1.0, exclude_max=True)
byte_edits = st.one_of(
    st.tuples(st.just("flip"), fractions, st.integers(1, 255)),
    st.tuples(st.just("truncate"), fractions, st.none()),
    st.tuples(st.just("insert"), fractions, st.integers(0, len(INSERTS) - 1)),
)
size_values = st.one_of(
    st.sampled_from([0, 1, 2, 3, 0x7FFFFFFF, 0xFFFFFFFE, 0xFFFFFFFF]),
    st.integers(0, 2**32 - 1),
)
wav_edits = st.one_of(
    st.tuples(st.just("size"), st.integers(0, 7), size_values),
    st.tuples(st.just("nudge"), st.integers(0, 7), st.integers(-8, 8)),
    st.tuples(st.just("non_finite"), fractions, st.integers(0, len(NON_FINITE) - 1)),
)
text_mutations = st.lists(byte_edits, min_size=1, max_size=3)
wav_mutations = st.builds(
    lambda head, tail: head + tail,
    st.lists(wav_edits, max_size=2),
    st.lists(byte_edits, max_size=2),
).filter(bool)


def sine(n: int) -> np.ndarray:
    return 0.4 * np.sin(np.arange(n) * 0.3)


def pcm16_wav() -> bytes:
    return wav_bytes(np.round(sine(64) * 32767).astype("<i2").tobytes())


def float32_wav() -> bytes:
    # a fact chunk before the data, as non-PCM encodings carry
    fact = b"fact" + struct.pack("<II", 4, 64)
    payload = sine(64).astype("<f4").tobytes()
    return wav_bytes(payload, fmt_tag=3, bits=32, extra_chunks=fact)


def stereo_wav() -> bytes:
    frames = np.stack([sine(48), -sine(48)], axis=1).ravel()
    return wav_bytes(frames.astype("<f4").tobytes(), fmt_tag=3, channels=2, bits=32)


def noise_listing(directory: Path) -> bytes:
    """A valid listing, in ``directory``, of three WAV files it creates."""
    for name in ("a/hum.wav", "b/talk.wav", "rain.wav"):
        (directory / name).parent.mkdir(parents=True, exist_ok=True)
        save_wav(AudioBuffer(sine(200), 8000), directory / name, encoding="pcm16")
    return b"a/hum.wav\tbabble\n# a comment\nb/talk.wav\n\nrain.wav\tweather\n"


def pairs_tsv(directory: Path) -> bytes:
    pairs = [
        TextPair("p00000000", "morning good", "good morning"),
        TextPair("p00000002", "fine stays weather the", "the weather stays fine"),
        TextPair("p00000003", "Köln in ja", "ja in Köln"),
    ]
    write_pairs_tsv(pairs, directory / "valid.tsv")
    return (directory / "valid.tsv").read_bytes()


def manifest_jsonl(directory: Path) -> bytes:
    records = [record("a", 1.25, (1, 2, 3)), record("b", 0.5, (7,), "text_aug"), record("c")]
    write_manifest(records, directory / "valid.jsonl")
    return (directory / "valid.jsonl").read_bytes()


def chain_json(directory: Path) -> bytes:
    save_chain(default_chain(7), directory / "valid.json")
    return (directory / "valid.json").read_bytes()


def trace_line(directory: Path) -> bytes:
    (directory / "listing.tsv").write_bytes(noise_listing(directory))
    bank = NoiseBank.from_manifest(directory / "listing.tsv")
    config = default_chain(3)
    # a seed at which every stage fires, the noise stage included
    for utterance in map(str, range(100)):
        _, trace = apply_chain(config, AudioBuffer(sine(4000), 8000), utterance, bank)
        if all(stage.applied for stage in trace.stages):
            return trace.to_json().encode()
    raise AssertionError("no utterance fired every stage")


# name: (make the valid input in a directory, file name, read it, its documented errors)
READERS: dict[str, tuple[Callable[[Path], bytes], str, Callable[[Path], Any], tuple]] = {
    "load_wav-pcm16": (lambda d: pcm16_wav(), "in.wav", load_wav, (SpeechAugError,)),
    "load_wav-float32": (lambda d: float32_wav(), "in.wav", load_wav, (SpeechAugError,)),
    "load_wav-stereo": (lambda d: stereo_wav(), "in.wav", load_wav, (SpeechAugError,)),
    "NoiseBank.from_manifest": (
        noise_listing, "listing.tsv", NoiseBank.from_manifest, (SpeechAugError,)
    ),
    "read_pairs_tsv": (pairs_tsv, "pairs.tsv", read_pairs_tsv, (ValueError, MalformedText)),
    "iter_manifest": (
        manifest_jsonl, "manifest.jsonl", lambda p: list(iter_manifest(p)), (MalformedManifest,)
    ),
    "_iter_summaries": (
        manifest_jsonl, "manifest.jsonl", lambda p: list(_iter_summaries(p)), (MalformedManifest,)
    ),
    "load_chain": (chain_json, "chain.json", load_chain, (ValueError,)),
    # a trace is a line of text: bytes that are not UTF-8 reach it as the
    # lone surrogates of a surrogateescape decode
    "AppliedTrace.from_json": (
        trace_line, "trace.jsonl",
        lambda p: AppliedTrace.from_json(p.read_bytes().decode("utf-8", "surrogateescape")),
        (ValueError,),
    ),
}
WAV_READERS = [name for name in READERS if name.startswith("load_wav")]


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, tuple[Path, bytes]]:
    """Each reader's input file, in a directory of its own, and the valid
    bytes it holds between calls."""
    inputs = {}
    for name, (make, file_name, _, _) in READERS.items():
        directory = tmp_path_factory.mktemp(name)
        inputs[name] = directory / file_name, make(directory)
    return inputs


def read_mutated(valid, name: str, edits: list[tuple]) -> Any:
    """Write ``valid[name]`` mutated by ``edits`` and read it back; the
    reader's documented errors are returned, not raised."""
    path, data = valid[name]
    _, _, read, errors = READERS[name]
    path.write_bytes(mutate(data, edits))
    try:
        with time_limit(LIMIT_S):
            return read(path)
    except errors as err:
        return err
    finally:
        path.write_bytes(data)


@pytest.mark.parametrize("name", list(READERS))
def test_valid_input_reads(valid, name):
    assert not isinstance(read_mutated(valid, name, []), Exception)


@pytest.mark.parametrize("name", WAV_READERS)
@settings(max_examples=120, deadline=None)
@given(edits=wav_mutations)
def test_mutated_wav_reads_or_raises_its_documented_error(valid, name, edits):
    read_mutated(valid, name, edits)


@pytest.mark.parametrize("name", [name for name in READERS if name not in WAV_READERS])
@settings(max_examples=120, deadline=None)
@given(edits=text_mutations)
def test_mutated_text_reads_or_raises_its_documented_error(valid, name, edits):
    read_mutated(valid, name, edits)


# One example of each mutation class, with the error it gives.
EXAMPLES = {
    "byte-flip": ("load_wav-pcm16", [("flip", 0.0, 0x01)], MalformedWav, "missing RIFF/WAVE header"),
    "truncation": ("load_wav-float32", [("truncate", 0.9, None)], MalformedWav, "overruns the file"),
    "chunk-size": ("load_wav-stereo", [("nudge", 2, -4)], MalformedWav, "partial frame"),
    "non-finite": ("load_wav-float32", [("non_finite", 0.5, 0)], MalformedWav, "NaN or infinity"),
    "nul": ("NoiseBank.from_manifest", [("insert", 0.05, 0)], IoFailure, "embedded null byte"),
    "tab": ("read_pairs_tsv", [("insert", 0.05, 1)], ValueError, ":1: expected 3 tab-separated"),
    "newline": ("iter_manifest", [("insert", 0.5, 2)], MalformedManifest, "^line 3: "),
    "invalid-utf8": ("_iter_summaries", [("insert", 0.99, 6)], MalformedManifest,
                     r"^line 4: not valid UTF-8 \(invalid start byte\)$"),
}


@pytest.mark.parametrize("case", list(EXAMPLES))
def test_one_example_of_each_mutation_class(valid, case):
    name, edits, error, message = EXAMPLES[case]
    outcome = read_mutated(valid, name, edits)
    assert type(outcome) is error
    assert re.search(message, str(outcome))


def test_a_call_that_overruns_is_stopped():
    with pytest.raises(Overran):
        with time_limit(0.05):
            while True:
                pass
