"""Fake text-to-speech engine for the subprocess synthesizer port.

Speaks the line protocol of the README: each stdin line is
``language<TAB>sentence``; the engine writes a PCM16 mono 16 kHz WAV and
answers with its path on one stdout line. Each character becomes an 800-sample
(50 ms) tone at 200 + 10*(code mod 100) Hz, like the mock synthesizer, so a
sentence of n characters gives exactly 800*n samples. Every request gets a
file of its own name, so concurrent requests can never overwrite each other.

Usage: python engine.py OUT_DIR
Standard library only.
"""

import math
import os
import struct
import sys

RATE = 16000
SAMPLES_PER_CHAR = 800


def _tone(code: int, cache: dict) -> bytes:
    if code not in cache:
        freq = 200.0 + 10.0 * (code % 100)
        cache[code] = struct.pack(
            f"<{SAMPLES_PER_CHAR}h",
            *(round(0.3 * 32767 * math.sin(2 * math.pi * freq * i / RATE)) for i in range(SAMPLES_PER_CHAR)),
        )
    return cache[code]


def _wav(payload: bytes) -> bytes:
    fmt = struct.pack("<HHIIHH", 1, 1, RATE, RATE * 2, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def main() -> int:
    out_dir = os.path.abspath(sys.argv[1])
    os.makedirs(out_dir, exist_ok=True)
    cache: dict = {}
    for n, line in enumerate(sys.stdin):
        _language, _, sentence = line.rstrip("\n").partition("\t")
        path = os.path.join(out_dir, f"{os.getpid()}-{n:07d}.wav")
        with open(path, "wb") as fh:
            fh.write(_wav(b"".join(_tone(ord(ch), cache) for ch in sentence)))
        sys.stdout.write(path + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
