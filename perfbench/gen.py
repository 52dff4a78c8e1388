"""Seeded input generator for the speechaug benchmark.

Every input the program sees is written here, from the workload seed alone.
The seed varies the content (words, tones, noise, record values); the shape
of each workload (item count, item lengths, sample rates, file names) is a
fixed schedule, so a round costs the same work whatever the seed and the
run-to-run spread measures the machine rather than the dice.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import numpy as np

# The mock synthesizer and the fake engine both speak 50 ms per character.
SAMPLES_PER_CHAR = 800
RATE_16K = 16000
RATE_22K = 22050

# build_chain: pairs whose sources give 1..6 s of mock speech.
BUILD_PAIRS = 10
BUILD_MIN_CHARS, BUILD_MAX_CHARS = 20, 120

# augment_mixed: half PCM16 mono 16 kHz, half float32 stereo 22.05 kHz.
# Sixty inputs, so that a per-effect firing share off 0.5 by more than 4
# sigma (0.26) can be told apart; most are short, so a round stays small.
AUGMENT_FILES = 60
AUGMENT_MIN_S, AUGMENT_MAX_S = 0.5, 6.0
AUGMENT_SKEW = 12
INPUT_PEAK = 0.5

# Noise bank shared by build_chain and augment_mixed, all at 16 kHz.
BANK_FILES = 4
BANK_SECONDS = 2.0

# corpus_engine
CORPUS_LINES = 60_000
PLANTED_PER_REASON = 300
PLANTED_REASONS = ("empty", "url", "bracketed", "special_chars", "too_long", "repetition")
ENGINE_PAIRS = 200
REAL_RECORDS = 30_000
UNITS_K = 100

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _vocabulary(rng: random.Random, size: int = 3000) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_LETTERS) for _ in range(rng.randint(2, 9))))
    return sorted(words)


def _sentence(rng: random.Random, vocab: list[str], n_tokens: int) -> str:
    """Words with no two neighbours equal, so no repetition run is planted."""
    tokens: list[str] = []
    while len(tokens) < n_tokens:
        word = rng.choice(vocab)
        if not tokens or word != tokens[-1]:
            tokens.append(word)
    return " ".join(tokens)


def _text_of_length(rng: random.Random, vocab: list[str], n_chars: int) -> str:
    text = _sentence(rng, vocab, n_chars // 2 + 1)[:n_chars]
    if text.endswith(" "):
        text = text[:-1] + rng.choice(_LETTERS)
    return text


def write_wav(path: Path, channels: np.ndarray, rate: int, encoding: str) -> None:
    """Write a (frames, channels) array as PCM16 or IEEE float32 RIFF/WAVE."""
    _, n_ch = channels.shape
    if encoding == "pcm16":
        payload = np.clip(np.round(channels * 32768.0), -32768, 32767).astype("<i2").tobytes()
        tag, bits = 1, 16
    else:
        payload = channels.astype("<f4").tobytes()
        tag, bits = 3, 32
    block = n_ch * bits // 8
    fmt = struct.pack("<HHIIHH", tag, n_ch, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _noise_bank(dir_path: Path, rng: np.random.Generator) -> None:
    dir_path.mkdir(parents=True, exist_ok=True)
    n = int(BANK_SECONDS * RATE_16K)
    for i in range(BANK_FILES):
        white = rng.normal(0.0, 1.0, n + 8)
        colored = np.convolve(white, np.ones(8) / 8.0, mode="valid")[:n]
        colored *= 0.5 / np.max(np.abs(colored))
        write_wav(dir_path / f"noise{i}.wav", colored[:, None], RATE_16K, "pcm16")


def _tone_mix(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    t = np.arange(n) / rate
    x = np.zeros(n)
    for _ in range(3):
        x += rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * rng.uniform(120, 3000) * t + rng.uniform(0, 6.3))
    x *= 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.5, 3.0) * t)
    return x * (INPUT_PEAK / max(np.max(np.abs(x)), 1e-9))


def build_chain_sizes() -> list[int]:
    """Source lengths in characters, a fixed 1..6 s schedule."""
    span = BUILD_MAX_CHARS - BUILD_MIN_CHARS
    return [BUILD_MIN_CHARS + round(span * i / (BUILD_PAIRS - 1)) for i in range(BUILD_PAIRS)]


def _pairs_tsv(path: Path, rng: random.Random, vocab: list[str], sizes: list[int]) -> list[dict]:
    pairs = []
    for i, n_chars in enumerate(sizes):
        pairs.append(
            {
                "id": f"p{i:08d}",
                "source": _text_of_length(rng, vocab, n_chars),
                "target": _text_of_length(rng, vocab, n_chars),
            }
        )
    path.write_text("".join(f"{p['id']}\t{p['source']}\t{p['target']}\n" for p in pairs), encoding="utf-8")
    return pairs


def make_build_chain(root: Path, seed: int) -> dict:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    vocab = _vocabulary(rng)
    root.mkdir(parents=True, exist_ok=True)
    _noise_bank(root / "noise", nrng)
    pairs = _pairs_tsv(root / "pairs.tsv", rng, vocab, build_chain_sizes())
    _pairs_tsv(root / "setup_pairs.tsv", rng, vocab, [BUILD_MIN_CHARS])
    return {"pairs": pairs}


def augment_schedule() -> list[tuple[str, int, float]]:
    """(file name, rate, seconds): even slots PCM16 mono 16 kHz, odd float32
    stereo 22.05 kHz, durations rising from 0.5 to 6 s as the 12th power of
    the slot's position (about 58 s in all)."""
    span = AUGMENT_MAX_S - AUGMENT_MIN_S
    out = []
    for i in range(AUGMENT_FILES):
        rate = RATE_16K if i % 2 == 0 else RATE_22K
        position = i / (AUGMENT_FILES - 1)
        out.append((f"u{i:03d}.wav", rate, AUGMENT_MIN_S + span * position**AUGMENT_SKEW))
    return out


def _augment_file(path: Path, rng: np.random.Generator, rate: int, seconds: float) -> None:
    n = round(seconds * rate)
    if rate == RATE_16K:
        write_wav(path, _tone_mix(rng, n, rate)[:, None], rate, "pcm16")
    else:
        stereo = np.stack([_tone_mix(rng, n, rate), _tone_mix(rng, n, rate)], axis=1)
        write_wav(path, stereo, rate, "float32")


def make_augment_mixed(root: Path, seed: int) -> dict:
    nrng = np.random.default_rng(seed)
    _noise_bank(root / "noise", nrng)
    (root / "wavs").mkdir(parents=True, exist_ok=True)
    (root / "setup_wavs").mkdir(parents=True, exist_ok=True)
    files = augment_schedule()
    for name, rate, seconds in files:
        _augment_file(root / "wavs" / name, nrng, rate, seconds)
    for name, rate in (("s16k.wav", RATE_16K), ("s22k.wav", RATE_22K)):
        _augment_file(root / "setup_wavs" / name, nrng, rate, AUGMENT_MIN_S)
    return {"files": [name for name, _, _ in files]}


def _planted(reason: str, rng: random.Random, vocab: list[str]) -> str:
    words = _sentence(rng, vocab, rng.randint(3, 10)).split()
    at = rng.randint(0, len(words))
    if reason == "empty":
        return " " * rng.randint(0, 3)
    if reason == "url":
        words.insert(at, rng.choice(("https://", "http://", "www.")) + rng.choice(vocab) + ".org")
    elif reason == "bracketed":
        left, right = rng.choice(("()", "[]", "{}"))
        words.insert(at, left + rng.choice(vocab) + right)
    elif reason == "special_chars":
        words = [w + "#@*" for w in words]
    elif reason == "too_long":
        words = _sentence(rng, vocab, rng.randint(201, 230)).split()
    elif reason == "repetition":
        words[at:at] = [rng.choice(vocab)] * rng.randint(4, 6)
    return " ".join(words)


def normal_line_chars(k: int) -> int:
    """Length of the k-th clean corpus line: 15..70 characters, 2..12 words."""
    return 15 + (k * 37) % 56


def make_corpus_engine(root: Path, seed: int) -> dict:
    rng = random.Random(seed)
    vocab = _vocabulary(rng)
    root.mkdir(parents=True, exist_ok=True)
    slots = rng.sample(range(CORPUS_LINES), PLANTED_PER_REASON * len(PLANTED_REASONS))
    planted = {slot: PLANTED_REASONS[k // PLANTED_PER_REASON] for k, slot in enumerate(slots)}
    lines = []
    normal = 0
    for i in range(CORPUS_LINES):
        reason = planted.get(i)
        if reason:
            lines.append(_planted(reason, rng, vocab))
        else:
            # the k-th accepted line has a fixed length, so the engine pairs
            # (the first accepted ones) carry the same audio for every seed
            lines.append(_text_of_length(rng, vocab, normal_line_chars(normal)))
            normal += 1
    (root / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "setup_corpus.txt").write_text(_sentence(rng, vocab, 6) + "\n", encoding="utf-8")

    records = []
    for i in range(REAL_RECORDS):
        units = [rng.randrange(UNITS_K)]
        for _ in range(rng.randint(4, 49)):
            units.append((units[-1] + rng.randrange(1, UNITS_K)) % UNITS_K)
        records.append(
            {
                "id": f"r{i:08d}",
                "source_audio": f"audio/r{i:08d}.wav",
                "duration_s": round(rng.uniform(1.0, 10.0), 3),
                "target_units": " ".join(map(str, units)),
                "origin": "real",
                "src_lang": "en",
                "tgt_lang": "de",
            }
        )
    with open(root / "real.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema": "speechaug-manifest-v1"}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return {
        "planted": {reason: PLANTED_PER_REASON for reason in PLANTED_REASONS},
        "lines": CORPUS_LINES,
        "real_records": REAL_RECORDS,
        "real_duration_s": sum(r["duration_s"] for r in records),
        "real_ids": {r["id"] for r in records},
    }
