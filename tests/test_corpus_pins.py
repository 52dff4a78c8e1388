"""Byte pins of the corpus-side commands: textaug, stats and sample.

Each digest is the sha256 of an output of the code as it was before the
manifest commands learned to skip building records and ``clean_sentence``
moved to single-pass regexes; the ``--take-n`` digests, of the code as it
was before the DSP stages were rewritten to compute in arrays they own. Any
later change must keep these bytes.

numpy is not imported here, nor is conftest's fixtures module, so the CI job
without numpy runs this file too. The stats pin holds on every Python: the
total is ``math.fsum``, which is correctly rounded. Its digest is that of
Python 3.12's compensated ``sum()``, which the total was before.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import speechaug
from speechaug.cli import main

SRC = Path(speechaug.__file__).resolve().parent.parent

# Every clean-stage reason, the pair-stage reasons the mock translator can
# reach, and the edges of the URL, bracket and unusual-character rules.
CORPUS_LINES = [
    "the weather stays fine today",
    "",
    "   \t  ",
    "visit http://example.test now",
    "visit WWW.example.org today",
    "see HTTPS://x.y now",
    "see httpſ://x.y now",
    "the www.host is here",
    "awww.example is not a host",
    "xhttp://y is a url",
    "ʜttp://y is not a url",
    "a note (with an aside) here",
    "a list [of things] here",
    "a map {of keys} here",
    "an unmatched ) close and ( open",
    "crossed ( [ ) ] spans",
    "snake_case_names are fine here",
    "a_b_c",
    "Grüße aus München und Köln",
    "٣ apples and ٤ pears",
    "x² plus ½ and Ⅻ",
    "你好 世界 你好",
    "e\u0301 and e\u0301 and e\u0301 again",
    "smile 🙂 🙂 🙂 ok",
    "no\u00a0break\u00a0spaces here",
    "zero\u200bwidth\u200bspace",
    "quotes “like” ‘these’ — and – dashes…",
    "¿qué tal? ¡muy bien! 50% sure",
    "#$@ &* ^~",
    "word",
    "two words",
    "three short words",
    "four words in all",
    "the the the the end",
    "a b a b a b a b",
    " ".join(f"w{i}" for i in range(25)),
    " ".join(f"v{i}" for i in range(205)),
    "tab\tseparated\tline here",
    "line\u2028with a separator",
    "final line with\u0085next line",
]

TEXTAUG_PINS = {
    "default": (
        [],
        "1f0883e8866ad4c1f95f99304800fa5b4d6800b880b69f72098666d8b5256d95",
        "ff503071c2576f681380d8592686d8958279431fe4cb74c4bd2c9ad0a51cf798",
    ),
    "tight": (
        ["--min-tokens", "2", "--max-tokens", "20", "--max-length-ratio", "1.2"],
        "87f349da8960d663462103ec6b8752a31c5597b529b9ffd39328565df3feab9b",
        "bc99bef0212786af1bd05c35d4d5e9e1ba7a8d7ff0bb6a7e02f7eded27c57be6",
    ),
    # a seeded reservoir of 25 of the 40 lines, drawn by the plain-Python PCG64
    "take-n-seed-1": (
        ["--take-n", "25", "--seed", "1"],
        "3b17ad9d8f73bb2f9fa45e06cab712e90f2c7eedca490a4beb4bfdf6437f7ee5",
        "e70a75b1027895ea5ef6c8320cbf09ac81d1c5944063b212e5fd4d9970b732ea",
    ),
    "take-n-seed-2718": (
        ["--take-n", "25", "--seed", "2718"],
        "286fea7c248c6dbc4fc2c12cf6925e59c104432918e53b2d4f457fd2a7a6aec4",
        "0c81746fe098423bcf65f7b06173a3bf3205882bd469f55ceba8f2ee08775411",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(TEXTAUG_PINS))
def test_textaug_pairs_and_stats(tmp_path, capsys, name):
    options, pairs_digest, stats_digest = TEXTAUG_PINS[name]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "textaug", "--in", str(corpus), "--out", str(out), "--language", "de", "--to", "en", *options,
    ]) == 0
    assert capsys.readouterr().err == ""
    assert sha256((out / "pairs.tsv").read_bytes()) == pairs_digest
    assert sha256((out / "stats.json").read_bytes()) == stats_digest


def manifest_line(id_: str, units: str, duration_s: object = 1.5, origin: str = "real") -> str:
    return json.dumps({
        "id": id_, "source_audio": f"audio/{id_}.wav", "duration_s": duration_s,
        "target_units": units, "origin": origin, "src_lang": "en", "tgt_lang": "de",
    })


# Canonical units next to valid units that are not written that way.
STATS_LINES = [
    '{"schema": "speechaug-manifest-v1"}',
    manifest_line("c1", "1 2 3", 1.234),
    manifest_line("c2", "0", 2.5, "text_aug"),
    manifest_line("c3", "10 1 0 12", 0.1),
    manifest_line("c4", "5 55 5", 7.77, "text_aug"),
    manifest_line("n1", "07 3", 3.3),
    manifest_line("n2", "+1 2", 0.7, "text_aug"),
    manifest_line("n3", "1  2", 1.1),
    manifest_line("n4", "١ ٢", 2.2, "text_aug"),
    manifest_line("n5", "", 0.3),
    manifest_line("n6", " 4 5 ", 4.4),
    manifest_line("n7", "1_000 2", 5.5, "text_aug"),
    manifest_line("n8", "-0 1", 6.6),
    manifest_line("n9", "1\t2\t3", 0.9),
    manifest_line("d1", "3 4", 3),
    manifest_line("d2", "3 4", 10**2, "text_aug"),
    "",
    "   ",
    "  " + manifest_line("w1", "8 9", 0.25),
    manifest_line("w2", "8 9", 0.35) + "  ",
    json.dumps({**json.loads(manifest_line("x1", "2 3", 1.75)), "extra": [1, 2]}),
    manifest_line("c5", "99 98 97 96 95 94 93 92 91 90 89", 9.125),
]

STATS_PIN = "bbcbe630601fcc5ea4c472fa574abd55f387b2f9b51f549dff1c0d3574ea0dae"


def test_stats_output(tmp_path, capsys):
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join(STATS_LINES) + "\n", encoding="utf-8")
    assert main(["stats", "--manifest", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert sha256(out.encode()) == STATS_PIN


def write_pool(path: Path, prefix: str, count: int, origin: str) -> Path:
    lines = ['{"schema": "speechaug-manifest-v1"}']
    lines += [manifest_line(f"{prefix}{i}", f"{i % 7} {i % 7 + 1}", 1.0, origin) for i in range(count)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sample_args(tmp_path: Path, count: int) -> list[str]:
    real = write_pool(tmp_path / "real.jsonl", "r", 1000, "real")
    aug = write_pool(tmp_path / "aug.jsonl", "a", 37, "text_aug")
    return [
        "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
        "--weights", "real=0.7,text_aug=0.3", "-n", str(count), "--seed", "2718",
    ]


SAMPLE_PIN = "bc484d590923abe1c3460261a1b552c5fb6f7dcbf9856607ecfdddbfd1fbd174"


def test_sample_output(tmp_path, capsys):
    assert main(sample_args(tmp_path, 20_000)) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 20_000
    assert sha256(out.encode()) == SAMPLE_PIN


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_sample_into_a_pipe_closed_after_one_line(tmp_path, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # far more than a pipe holds, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "speechaug.cli", *sample_args(tmp_path, 300_000)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""
