"""numpy is imported at the first array operation, not with the package.

Each check runs in a fresh interpreter, since this one has numpy imported
already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import speechaug
from speechaug import TextPair, save_wav, write_manifest, write_pairs_tsv

from conftest import make_sine
from test_manifest import record

# every module the benchmark tracer wraps functions of
TRACED_MODULES = ["audio", "effects", "chain", "ports", "textpipe", "manifest", "cli"]

# A None entry in sys.modules makes every later `import numpy` raise ImportError.
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

_MAIN = "from speechaug.cli import main; sys.exit(main(sys.argv[1:]))"

# counts the forks, and whether numpy was imported at each; the children
# leave through os._exit, so only the parent prints
_WATCH_FORKS = """
import atexit, os, sys
forks = []
real_fork = os.fork
def fork():
    forks.append("numpy" in sys.modules)
    return real_fork()
os.fork = fork
os.cpu_count = lambda: 4
atexit.register(lambda: print(forks, file=sys.stderr))
"""


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    package_root = str(Path(speechaug.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=300
    )


def test_importing_the_cli_imports_every_module_but_not_numpy():
    result = run_python(
        "import sys, speechaug.cli; "
        f"print([name for name in {TRACED_MODULES!r} if 'speechaug.' + name not in sys.modules]); "
        "print('numpy' in sys.modules)"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "False"]


def test_textaug_and_stats_run_with_numpy_blocked(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("good morning\nthe weather stays fine\nvisit http://example.test now\n")
    manifest = tmp_path / "manifest.jsonl"
    write_manifest(
        [record("a", 2.0), record("b", 3.5, units=(4, 1)), record("c", 1.25, origin="text_aug")],
        manifest,
    )
    runs = {}
    for label, prelude in (("blocked", _BLOCK_NUMPY), ("free", "import sys; ")):
        out = tmp_path / label
        textaug = run_python(
            prelude + _MAIN, "textaug", "--in", str(corpus), "--out", str(out),
            "--language", "en", "--to", "xx",
        )
        stats = run_python(prelude + _MAIN, "stats", "--manifest", str(manifest))
        assert (textaug.returncode, stats.returncode) == (0, 0), textaug.stderr + stats.stderr
        runs[label] = [
            textaug.stdout,
            (out / "pairs.tsv").read_bytes(),
            (out / "stats.json").read_bytes(),
            stats.stdout,
        ]
    assert runs["blocked"] == runs["free"]
    assert json.loads(runs["free"][3])["records"] == 3


def test_build_needs_numpy(tmp_path):
    # the guard above is not vacuous: blocking numpy does stop array work
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv([TextPair("p0", "number spoken", "gesprochen")], pairs)
    result = run_python(
        _BLOCK_NUMPY + _MAIN, "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
        "--seed", "1", "--units-k", "50", "--no-effects",
    )
    assert result.returncode != 0
    assert "ModuleNotFoundError: import of numpy halted" in result.stderr


def test_augment_workers_inherit_numpy_from_the_parent(tmp_path):
    # a speed-only chain needs no bank, so no array is made before the fork
    config = tmp_path / "speed.json"
    config.write_text(json.dumps({
        "global_seed": 0,
        "specs": [{"kind": "speed", "probability": 1.0, "param_range": [0.95, 1.05]}],
    }))
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(3):
        save_wav(make_sine(300.0 + 40.0 * i, 0.2, 16000), inputs / f"utt{i}.wav")
    result = run_python(
        _WATCH_FORKS + _MAIN, "augment", "--in", str(inputs), "--out", str(tmp_path / "out"),
        "--seed", "1", "--config", str(config), "--workers", "2",
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"processed": 3, "failed": 0}
    assert result.stderr.splitlines() == ["[True, True]"]
