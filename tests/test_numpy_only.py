"""The package runs on numpy alone: the CLI works with scipy blocked."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import speechaug
from speechaug import TextPair, save_wav, write_pairs_tsv

from conftest import make_sine
from test_cli import write_noise_dir

# A None entry in sys.modules makes every later `import scipy` (and
# `import scipy.signal`) raise ImportError, whether or not scipy is installed.
_BLOCKED_MAIN = (
    "import sys; sys.modules['scipy'] = None; "
    "from speechaug.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_without_scipy(*argv: str) -> subprocess.CompletedProcess:
    package_root = str(Path(speechaug.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _BLOCKED_MAIN, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_augment_and_build_run_with_scipy_blocked(tmp_path):
    noise = write_noise_dir(tmp_path / "noise")
    inputs = tmp_path / "in"
    inputs.mkdir()
    save_wav(make_sine(300.0, 0.5, 16000), inputs / "a16k.wav", encoding="pcm16")
    save_wav(make_sine(440.0, 0.5, 22050), inputs / "b22k.wav")

    # seed 8 fires the low-pass on both inputs and the noise mix on the
    # 22.05 kHz one, so the bank is also converted to a second rate
    aug = run_without_scipy(
        "augment", "--in", str(inputs), "--out", str(tmp_path / "aug"),
        "--seed", "8", "--noise-dir", str(noise),
    )
    assert aug.returncode == 0, aug.stderr
    assert {p.name for p in (tmp_path / "aug").iterdir()} == {
        "a16k.wav", "b22k.wav", "traces.jsonl",
    }
    traces = (tmp_path / "aug" / "traces.jsonl").read_text().splitlines()
    fired = {s["kind"] for line in traces for s in json.loads(line)["stages"] if s["applied"]}
    assert {"lowpass", "noise_mix"} <= fired

    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"number {i} spoken", f"gesprochen {i}") for i in range(3)], pairs
    )
    out = tmp_path / "built"
    build = run_without_scipy(
        "build", "--pairs", str(pairs), "--out", str(out), "--seed", "1",
        "--units-k", "50", "--noise-dir", str(noise), "--augment-target",
    )
    assert build.returncode == 0, build.stderr
    assert (out / "manifest.jsonl").is_file()
    assert sorted(p.name for p in (out / "audio").iterdir()) == ["p0.wav", "p1.wav", "p2.wav"]
