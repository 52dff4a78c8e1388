"""numpy is imported at the first array operation, not with the package,
hashlib (with the OpenSSL library it loads) and the thread pool not at
all, and subprocess only by a run that starts an engine.

Each check runs in a fresh interpreter, since this one has numpy imported
already.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speechaug
from speechaug import TextPair, save_wav, write_manifest, write_pairs_tsv

from conftest import make_noise_bank, make_sine
from test_manifest import record

# every module the benchmark tracer wraps functions of
TRACED_MODULES = ["audio", "effects", "chain", "ports", "textpipe", "manifest", "cli"]

# A None entry in sys.modules makes every later `import numpy` raise ImportError.
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None; "

# reports on stderr, at exit, whether numpy was imported
_REPORT_NUMPY = "import atexit, sys; atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr)); "

# numpy.random alone: numpy still imports, its random submodule does not
_BLOCK_NUMPY_RANDOM = "import sys; sys.modules['numpy.random'] = None; "

# whether numpy.random was imported, at exit, and room for two forked workers
_REPORT_NUMPY_RANDOM = (
    "import atexit, os, sys; os.cpu_count = lambda: 4; "
    "atexit.register(lambda: print(sys.modules.get('numpy.random') is not None,"
    " file=sys.stderr)); "
)

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


def test_sample_and_take_n_run_with_numpy_blocked(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"sentence number {i} is here\n" for i in range(12)))
    real, aug = tmp_path / "real.jsonl", tmp_path / "aug.jsonl"
    write_manifest([record(f"r{i}") for i in range(6)], real)
    write_manifest([record(f"a{i}", origin="text_aug") for i in range(4)], aug)
    runs = {}
    for label, prelude in (("blocked", _BLOCK_NUMPY), ("free", _REPORT_NUMPY)):
        out = tmp_path / label
        textaug = run_python(
            prelude + _MAIN, "textaug", "--in", str(corpus), "--out", str(out),
            "--language", "en", "--to", "xx", "--take-n", "2", "--seed", "5",
        )
        sample = run_python(
            prelude + _MAIN, "sample", "--manifest", f"real={real}", "--manifest",
            f"text_aug={aug}", "--weights", "real=0.4,text_aug=0.6", "-n", "200", "--seed", "5",
        )
        assert (textaug.returncode, sample.returncode) == (0, 0), textaug.stderr + sample.stderr
        runs[label] = [
            textaug.stdout,
            (out / "pairs.tsv").read_bytes(),
            (out / "stats.json").read_bytes(),
            sample.stdout,
        ]
        if label == "free":
            assert (textaug.stderr, sample.stderr) == ("False\n", "False\n")
    assert runs["blocked"] == runs["free"]
    assert json.loads(runs["free"][0])["input_sentences"] == 2
    assert len(runs["free"][3].split()) == 200


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


def speed_config(directory: Path) -> Path:
    """A speed-only chain, which needs no bank."""
    config = directory / "speed.json"
    config.write_text(json.dumps({
        "global_seed": 0,
        "specs": [{"kind": "speed", "probability": 1.0, "param_range": [0.95, 1.05]}],
    }))
    return config


def test_augment_workers_inherit_numpy_from_the_parent(tmp_path):
    # a speed-only chain needs no bank, so no array is made before the fork
    config = speed_config(tmp_path)
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


def test_only_a_build_with_a_chain_forks_workers(tmp_path):
    # a chain runs in two workers forked with numpy; a build with no chain
    # runs in one process whatever --workers says
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"sentence {i} spoken", f"gesprochen {i}") for i in range(3)], pairs
    )
    forks = []
    for effects in (["--augment-target", "--no-augment-source"], ["--no-effects"]):
        result = run_python(
            _WATCH_FORKS + _MAIN, "build", "--pairs", str(pairs), "--out", str(tmp_path / effects[-1]),
            "--seed", "1", "--units-k", "50", "--config", str(speed_config(tmp_path)), "--workers", "2",
            *effects,
        )
        assert result.returncode == 0, result.stderr
        forks.append(result.stderr)
    assert forks == ["[True, True]\n", "[]\n"]


def test_build_and_augment_run_with_numpy_random_blocked(tmp_path):
    # the effect chain draws from speechaug's own PCG64, not numpy's
    eager = run_python("import sys, numpy; print('numpy.random' in sys.modules)")
    if eager.stdout.strip() != "False":
        pytest.skip("this numpy imports numpy.random with itself")
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"sentence {i} spoken", f"gesprochen {i}") for i in range(6)], pairs
    )
    noise = tmp_path / "noise"
    noise.mkdir()
    for entry in make_noise_bank(3, 16000, np.random.default_rng(3)).entries:
        save_wav(entry.buffer, noise / f"{entry.id}.wav", encoding="float32")
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(6):
        save_wav(make_sine(300.0 + 40.0 * i, 0.3, 16000), inputs / f"utt{i}.wav")
    runs = {}
    for label, prelude in (
        ("blocked", _BLOCK_NUMPY_RANDOM + _REPORT_NUMPY_RANDOM),
        ("free", _REPORT_NUMPY_RANDOM),
    ):
        out = tmp_path / label
        build = run_python(
            prelude + _MAIN, "build", "--pairs", str(pairs), "--out", str(out / "build"),
            "--seed", "3", "--units-k", "50", "--noise-dir", str(noise), "--augment-target",
        )
        augment = run_python(
            prelude + _MAIN, "augment", "--in", str(inputs), "--out", str(out / "augment"),
            "--seed", "3", "--noise-dir", str(noise), "--workers", "2",
        )
        assert (build.returncode, augment.returncode) == (0, 0), build.stderr + augment.stderr
        assert (build.stderr, augment.stderr) == ("False\n", "False\n")
        runs[label] = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
    assert runs["blocked"] == runs["free"]
    assert len(runs["free"]) == 6 + 1 + 6 + 1  # the WAVs, the manifest and traces.jsonl
    traces = runs["free"]["augment/traces.jsonl"].decode().splitlines()
    assert any('"applied": true' in line for line in traces)


# hashlib and the OpenSSL binding it loads: a None entry makes every later
# import of either raise ImportError
_BLOCK_HASHLIB = "import sys; sys.modules['hashlib'] = None; sys.modules['_hashlib'] = None; "

# whether OpenSSL's binding was imported, at exit, and room for two forked workers
_REPORT_HASHLIB = (
    "import atexit, os, sys; os.cpu_count = lambda: 4; "
    "atexit.register(lambda: print(sys.modules.get('_hashlib') is not None, file=sys.stderr)); "
)


def test_every_subcommand_runs_with_hashlib_blocked(tmp_path):
    # blake2b comes from _blake2, so no process maps libcrypto
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"sentence {i} spoken", f"gesprochen {i}") for i in range(4)], pairs
    )
    noise = tmp_path / "noise"
    noise.mkdir()
    for entry in make_noise_bank(3, 16000, np.random.default_rng(5)).entries:
        save_wav(entry.buffer, noise / f"{entry.id}.wav", encoding="float32")
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(4):
        save_wav(make_sine(300.0 + 40.0 * i, 0.3, 16000), inputs / f"utt{i}.wav")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"sentence number {i} is here\n" for i in range(8)))
    real, aug = tmp_path / "real.jsonl", tmp_path / "aug.jsonl"
    write_manifest([record(f"r{i}") for i in range(5)], real)
    write_manifest([record(f"a{i}", origin="text_aug") for i in range(3)], aug)
    runs = {}
    for label, prelude in (("blocked", _BLOCK_HASHLIB + _REPORT_HASHLIB), ("free", _REPORT_HASHLIB)):
        out = tmp_path / label
        commands = [
            ("augment", "--in", str(inputs), "--out", str(out / "augment"), "--seed", "3",
             "--noise-dir", str(noise), "--workers", "2"),
            ("build", "--pairs", str(pairs), "--out", str(out / "build"), "--seed", "3",
             "--units-k", "50", "--noise-dir", str(noise), "--augment-target"),
            ("textaug", "--in", str(corpus), "--out", str(out / "text"), "--language", "en",
             "--to", "xx", "--take-n", "5", "--seed", "3"),
            ("stats", "--manifest", str(real)),
            ("sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
             "--weights", "real=0.4,text_aug=0.6", "-n", "50", "--seed", "3"),
        ]
        stdout = []
        for argv in commands:
            result = run_python(prelude + _MAIN, *argv)
            assert (result.returncode, result.stderr) == (0, "False\n"), (argv[0], result.stderr)
            stdout.append(result.stdout.replace(str(out), "OUT"))
        files = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        runs[label] = (stdout, files)
    assert runs["blocked"] == runs["free"]
    stdout, files = runs["free"]
    assert json.loads(stdout[0]) == {"processed": 4, "failed": 0}
    assert len(stdout[4].split()) == 50
    assert len(files) == 4 + 1 + 4 + 1 + 2  # augment's WAVs and traces, build's, textaug's


# subprocess, the thread pool and logging: a None entry makes every later
# import of one raise ImportError; no command needs the pool, and the CLI
# writes its ERROR lines itself
_BLOCK_POOLS = (
    "import sys; sys.modules['subprocess'] = None; sys.modules['concurrent.futures'] = None; "
    "sys.modules['logging'] = None; "
)

# which of the three were imported, at exit, and room for two forked workers
_REPORT_POOLS = (
    "import atexit, os, sys; os.cpu_count = lambda: 4; "
    "atexit.register(lambda: print([name for name in ('subprocess', 'concurrent.futures', 'logging')"
    " if sys.modules.get(name) is not None], file=sys.stderr)); "
)


def test_augment_and_mock_runs_load_no_subprocess_and_no_thread_pool(tmp_path):
    # augment's and build's forked workers are driven from the caller's
    # thread, and a build with no chain runs serially at any worker count
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"sentence {i} spoken", f"gesprochen {i}") for i in range(4)], pairs
    )
    noise = tmp_path / "noise"
    noise.mkdir()
    for entry in make_noise_bank(3, 16000, np.random.default_rng(7)).entries:
        save_wav(entry.buffer, noise / f"{entry.id}.wav", encoding="float32")
    inputs = tmp_path / "in"
    inputs.mkdir()
    for i in range(5):
        save_wav(make_sine(300.0 + 40.0 * i, 0.3, 16000), inputs / f"utt{i}.wav")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(f"sentence number {i} is here\n" for i in range(6)))
    runs = {}
    for label, prelude in (("blocked", _BLOCK_POOLS + _REPORT_POOLS), ("free", _REPORT_POOLS)):
        out = tmp_path / label
        commands = [
            ("augment", "--in", str(inputs), "--out", str(out / "augment"), "--seed", "3",
             "--noise-dir", str(noise), "--workers", "2"),
            ("build", "--pairs", str(pairs), "--out", str(out / "build"), "--seed", "3",
             "--units-k", "50", "--noise-dir", str(noise), "--augment-target", "--workers", "2"),
            ("build", "--pairs", str(pairs), "--out", str(out / "plain"), "--seed", "3",
             "--units-k", "50", "--no-effects", "--workers", "2"),
            ("textaug", "--in", str(corpus), "--out", str(out / "text"), "--language", "en",
             "--to", "xx"),
        ]
        stdout = []
        for argv in commands:
            result = run_python(prelude + _MAIN, *argv)
            assert (result.returncode, result.stderr) == (0, "[]\n"), (argv[0], result.stderr)
            stdout.append(result.stdout.replace(str(out), "OUT"))
        files = {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file()
        }
        runs[label] = (stdout, files)
    assert runs["blocked"] == runs["free"]
    stdout, files = runs["free"]
    assert json.loads(stdout[0]) == {"processed": 5, "failed": 0}
    # augment's WAVs and traces, each build's, textaug's
    assert len(files) == 5 + 1 + 4 + 1 + 4 + 1 + 2


# answers every request with the path in its first argument
_ONE_WAV_ENGINE = "import sys\nfor line in sys.stdin:\n    print(sys.argv[1], flush=True)\n"


def test_an_engine_and_text_stage_threads_load_both(tmp_path):
    # the guard above is not vacuous: a subprocess synthesizer starts its
    # engine; the text stage, asked for four in flight, translates one
    # sentence at a time in the caller's thread, and loads no thread pool
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv(
        [TextPair(f"p{i}", f"sentence {i} spoken", f"gesprochen {i}") for i in range(4)], pairs
    )
    wav = tmp_path / "tone.wav"
    save_wav(make_sine(440.0, 0.2, 16000), wav)
    engine = tmp_path / "engine.py"
    engine.write_text(_ONE_WAV_ENGINE)
    out = tmp_path / "out"
    result = run_python(
        _REPORT_POOLS + _MAIN, "build", "--pairs", str(pairs), "--out", str(out), "--seed", "3",
        "--units-k", "50", "--no-effects", "--workers", "2",
        "--synthesizer", f"subprocess:{shlex.join([sys.executable, str(engine), str(wav)])}",
    )
    assert (result.returncode, result.stderr) == (0, "['subprocess']\n")
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 1 + 4
    stage = (
        "from speechaug import MockTranslator, TextCorpus, run_text_stage; "
        "pairs, _ = run_text_stage(TextCorpus(['one two', 'three four', 'five six'], 'en'),"
        " MockTranslator(), 'xx', max_in_flight=4); print([pair.source for pair in pairs])"
    )
    free = run_python(_REPORT_POOLS + stage)
    assert (free.returncode, free.stderr) == (0, "[]\n")
    assert free.stdout == "['[xx] two one', '[xx] four three', '[xx] six five']\n"
    blocked = run_python(_BLOCK_POOLS + _REPORT_POOLS + stage)
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (0, free.stdout, "[]\n")
