"""Command-line behaviour: outputs, determinism and exit codes."""

from __future__ import annotations

import errno
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import textwrap
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from speechaug import (
    AppliedTrace,
    FilterPolicy,
    TextPair,
    read_manifest,
    save_wav,
    write_manifest,
    write_pairs_tsv,
)
from speechaug import cli, ports
from speechaug.chain import apply_chain
from speechaug.cli import main

from conftest import make_sine, tree_bytes
from test_audio import wav_bytes
from test_manifest import record
from test_lazy_numpy import _MAIN, run_python
from test_ports import assert_reaped


def write_input_wavs(directory: Path, count: int = 3) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        path = directory / f"utt{i}.wav"
        save_wav(make_sine(300.0 + 40.0 * i, 0.2, 16000), path, encoding="float32")
        paths.append(path)
    return paths


def write_identity_config(path: Path) -> Path:
    config = {
        "global_seed": 0,
        "specs": [
            {"kind": "speed", "probability": 0.0, "param_range": [0.95, 1.05]},
            {"kind": "pitch", "probability": 0.0, "param_range": [0.95, 1.05]},
            {"kind": "lowpass", "probability": 0.0, "param_range": [300, 1000]},
            {"kind": "noise_mix", "probability": 0.0, "param_range": [25, 35], "max_segments": 4},
        ],
    }
    path.write_text(json.dumps(config))
    return path


def write_noise_dir(directory: Path, count: int = 3) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    gen = np.random.default_rng(99)
    from speechaug import AudioBuffer

    for i in range(count):
        buf = AudioBuffer(gen.normal(0.0, 0.1, 8000), 16000)
        save_wav(buf, directory / f"noise{i}.wav", encoding="float32")
    return directory


def write_non_finite_wav(path: Path) -> Path:
    """A float32 WAV of a 0.2 s tone with one NaN sample."""
    samples = make_sine(500.0, 0.2, 16000).samples.copy()
    samples[100] = np.nan
    path.write_bytes(wav_bytes(samples.astype("<f4").tobytes(), fmt_tag=3, bits=32))
    return path


def dir_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


class TestAugment:
    def test_identity_chain_copies_input_bits(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        inputs = write_input_wavs(in_dir)
        config = write_identity_config(tmp_path / "chain.json")
        out_dir = tmp_path / "out"
        code = main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "7", "--config", str(config),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"processed": 3, "failed": 0}
        for path in inputs:
            assert (out_dir / path.name).read_bytes() == path.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        noise = write_noise_dir(tmp_path / "noise")
        args = lambda out: [
            "augment", "--in", str(in_dir), "--out", str(out),
            "--seed", "11", "--noise-dir", str(noise),
        ]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=8)
        noise = write_noise_dir(tmp_path / "noise")
        base = [
            "augment", "--in", str(in_dir), "--seed", "11", "--noise-dir", str(noise),
        ]
        assert main(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "w8"), "--workers", "8"]) == 0
        assert dir_bytes(tmp_path / "w1") == dir_bytes(tmp_path / "w8")

    def test_traces_cover_every_success(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        inputs = write_input_wavs(in_dir)
        noise = write_noise_dir(tmp_path / "noise")
        out_dir = tmp_path / "out"
        assert main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "5", "--noise-dir", str(noise),
        ]) == 0
        lines = (out_dir / "traces.jsonl").read_text().splitlines()
        traces = [AppliedTrace.from_json(line) for line in lines]
        assert [t.utterance_id for t in traces] == [p.stem for p in inputs]
        assert all(len(t.stages) == 4 for t in traces)

    def test_unwritable_traces_file_is_one_error_line(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        out_dir = tmp_path / "out"
        (out_dir / "traces.jsonl").mkdir(parents=True)
        assert main([
            "augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "5",
            "--config", str(write_identity_config(tmp_path / "chain.json")),
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: could not write {out_dir / 'traces.jsonl'}: [Errno 21] Is a directory")
        assert not (out_dir / ".traces.jsonl.partial").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_an_index_write_past_the_file_size_limit_names_its_file(self, tmp_path, workers):
        # a child interpreter limits the size of the files it writes, and
        # ignores SIGXFSZ, so a write past the limit fails with EFBIG: every
        # WAV fits, traces.jsonl does not
        pytest.importorskip("resource")
        in_dir = tmp_path / "in"
        in_dir.mkdir()
        for i in range(40):
            save_wav(make_sine(300.0 + 10.0 * i, 0.02, 16000), in_dir / f"utt{i}.wav")
        out_dir = tmp_path / "out"
        limit = (
            "import os, resource, signal, sys; os.cpu_count = lambda: 2; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)); "
        )
        result = run_python(
            limit + _MAIN, "augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "5",
            "--config", str(write_identity_config(tmp_path / "chain.json")), "--workers", workers,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.splitlines() == [
            f"error: could not write {out_dir / 'traces.jsonl'}: [Errno {errno.EFBIG}] File too large"
        ]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(f"utt{i}.wav" for i in range(40))

    def test_partial_failure_exit_code(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        (in_dir / "broken.wav").write_bytes(b"this is not audio")
        config = write_identity_config(tmp_path / "chain.json")
        out_dir = tmp_path / "out"
        code = main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "7", "--config", str(config),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {"processed": 3, "failed": 1}
        assert not (out_dir / "broken.wav").exists()
        assert (out_dir / "utt0.wav").exists()

    def test_bad_input_with_bank_fails_alone(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=1)
        (in_dir / "junk.wav").write_bytes(b"RIFF\x0c\x00\x00\x00WAVEjunk")
        noise = write_noise_dir(tmp_path / "noise")
        out_dir = tmp_path / "out"
        code = main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "7", "--noise-dir", str(noise),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().out) == {"processed": 1, "failed": 1}
        assert (out_dir / "utt0.wav").exists()
        assert not (out_dir / "junk.wav").exists()

    def test_unreadable_input_is_one_failed_item(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=2)
        (in_dir / "bad.wav").mkdir()
        config = write_identity_config(tmp_path / "chain.json")
        out_dir = tmp_path / "out"
        code = main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "7", "--config", str(config),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"processed": 2, "failed": 1}
        assert "ERROR speechaug: failed: bad.wav: could not read " in captured.err
        assert "Traceback" not in captured.err
        lines = (out_dir / "traces.jsonl").read_text().splitlines()
        assert [AppliedTrace.from_json(line).utterance_id for line in lines] == ["utt0", "utt1"]
        assert sorted(p.name for p in out_dir.iterdir()) == ["traces.jsonl", "utt0.wav", "utt1.wav"]

    def test_missing_input_dir(self, tmp_path):
        assert main([
            "augment", "--in", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
            "--seed", "1",
        ]) == 1

    def test_empty_input_dir(self, tmp_path):
        (tmp_path / "in").mkdir()
        assert main([
            "augment", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--seed", "1",
        ]) == 1

    def test_noisy_chain_without_bank(self, tmp_path):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        assert main([
            "augment", "--in", str(in_dir), "--out", str(tmp_path / "out"), "--seed", "1",
        ]) == 1

    def test_seed_is_required(self, tmp_path):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        assert main(["augment", "--in", str(in_dir), "--out", str(tmp_path / "out")]) == 1

    def test_bad_config_file(self, tmp_path):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        bad = tmp_path / "chain.json"
        bad.write_text("{broken")
        assert main([
            "augment", "--in", str(in_dir), "--out", str(tmp_path / "out"),
            "--seed", "1", "--config", str(bad),
        ]) == 1

    def test_config_value_of_the_wrong_type_is_one_error_line(self, tmp_path, capsys):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        config = json.loads(write_identity_config(tmp_path / "chain.json").read_text())
        config["specs"][0]["probability"] = True
        (tmp_path / "chain.json").write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "1", "--config", str(tmp_path / "chain.json"),
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot load chain config: specs[0].probability must be a number, not bool"
        ]
        assert not out_dir.exists()

    def test_config_key_it_does_not_know_is_one_error_line(self, tmp_path, capsys):
        # a misspelled optional field used to fall back to its default
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir)
        (tmp_path / "chain.json").write_text(json.dumps({
            "global_seed": 7,
            "specs": [{"kind": "noise_mix", "probability": 0.5, "param_range": [25, 35], "max_segmnets": 1}],
        }))
        out_dir = tmp_path / "out"
        assert main([
            "augment", "--in", str(in_dir), "--out", str(out_dir),
            "--seed", "1", "--config", str(tmp_path / "chain.json"),
        ]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot load chain config: unknown fields: specs[0].max_segmnets"
        ]
        assert not out_dir.exists()

    def test_worker_count_does_not_change_failures(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=5)
        (in_dir / "utt1x.wav").write_bytes(b"this is not audio")
        noise = write_noise_dir(tmp_path / "noise")
        runs = []
        for workers in (1, 2, 4):
            out_dir = tmp_path / f"w{workers}"
            code = main([
                "augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "11",
                "--noise-dir", str(noise), "--workers", str(workers),
            ])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err.splitlines(), dir_bytes(out_dir)))
        assert runs[0][:3] == (2, '{"processed": 5, "failed": 1}\n', [
            f"ERROR speechaug: failed: utt1x.wav: {in_dir / 'utt1x.wav'}: missing RIFF/WAVE header",
            "ERROR speechaug: 1 of 6 files failed",
        ])
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_non_finite_input_is_one_failed_item(self, tmp_path, capsys, monkeypatch):
        # two workers even on a one-CPU box
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=3)
        write_non_finite_wav(in_dir / "utt1.wav")
        noise = write_noise_dir(tmp_path / "noise")
        runs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            code = main([
                "augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "11",
                "--noise-dir", str(noise), "--workers", workers,
            ])
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err.splitlines(), dir_bytes(out_dir)))
        code, out, err, files = runs[0]
        assert (code, out) == (2, '{"processed": 2, "failed": 1}\n')
        assert err == [
            f"ERROR speechaug: failed: utt1.wav: {in_dir / 'utt1.wav'}: samples contain NaN or infinity",
            "ERROR speechaug: 1 of 3 files failed",
        ]
        assert sorted(files) == ["traces.jsonl", "utt0.wav", "utt2.wav"]
        lines = files["traces.jsonl"].decode().splitlines()
        assert [AppliedTrace.from_json(line).utterance_id for line in lines] == ["utt0", "utt2"]
        assert runs[1] == runs[0]

    def test_a_program_fault_leaves_no_traces_file(self, tmp_path, capsys, monkeypatch):
        # an exception that is no SpeechAugError ends the run, from a worker too
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=4)
        pids = tmp_path / "pids"
        pids.mkdir()

        def faulty_chain(config, buffer, utterance_id, bank):
            (pids / str(os.getpid())).touch()
            if utterance_id == "utt1":
                raise ZeroDivisionError("a fault in the program")
            return apply_chain(config, buffer, utterance_id, bank)

        monkeypatch.setattr(cli, "apply_chain", faulty_chain)
        out_dir = tmp_path / "out"
        with pytest.raises(ZeroDivisionError, match="a fault in the program"):
            main([
                "augment", "--in", str(in_dir), "--out", str(out_dir), "--seed", "5",
                "--config", str(write_identity_config(tmp_path / "chain.json")), "--workers", "2",
            ])
        names = {p.name for p in out_dir.iterdir()}
        assert not names & {"traces.jsonl", ".traces.jsonl.partial"}
        assert os.getpid() not in {int(p.name) for p in pids.iterdir()}
        assert_reaped(pids)

    def test_workers_beyond_the_cpu_count(self, tmp_path, capsys, monkeypatch):
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=3)
        noise = write_noise_dir(tmp_path / "noise")
        base = ["augment", "--in", str(in_dir), "--seed", "11", "--noise-dir", str(noise)]
        assert main(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        forked = []
        fork = os.fork

        def counting_fork() -> int:
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        assert main(base + ["--out", str(tmp_path / "many"), "--workers", "1000"]) == 0
        assert len(forked) == 2
        assert dir_bytes(tmp_path / "w1") == dir_bytes(tmp_path / "many")

    def test_killed_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # two workers even on a one-CPU box, where the kill would end pytest
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        in_dir = tmp_path / "in"
        write_input_wavs(in_dir, count=4)
        pids = tmp_path / "pids"
        pids.mkdir()

        def dying_chain(config, buffer, utterance_id, bank):
            (pids / str(os.getpid())).touch()
            if utterance_id == "utt2":
                os.kill(os.getpid(), signal.SIGKILL)
            return apply_chain(config, buffer, utterance_id, bank)

        monkeypatch.setattr(cli, "apply_chain", dying_chain)
        code = main([
            "augment", "--in", str(in_dir), "--out", str(tmp_path / "out"), "--seed", "5",
            "--config", str(write_identity_config(tmp_path / "chain.json")), "--workers", "2",
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: worker process \d+ was killed by signal 9 during item 3", err[0])
        assert_reaped(pids)


def listing_missing(tmp_path: Path) -> Path:
    return tmp_path / "no-such-listing.tsv"


def listing_names_missing_wav(tmp_path: Path) -> Path:
    listing = tmp_path / "noise.tsv"
    listing.write_text("gone.wav\tbabble\n")
    return listing


def listing_repeats_a_stem(tmp_path: Path) -> Path:
    write_noise_dir(tmp_path / "a", count=1)
    write_noise_dir(tmp_path / "b", count=1)
    listing = tmp_path / "noise.tsv"
    listing.write_text("a/noise0.wav\tbabble\nb/noise0.wav\tmusic\n")
    return listing


def listing_with_three_fields(tmp_path: Path) -> Path:
    write_noise_dir(tmp_path / "a", count=1)
    listing = tmp_path / "noise.tsv"
    listing.write_text("a/noise0.wav\tbabble\tloud\n")
    return listing


def listing_not_utf8(tmp_path: Path) -> Path:
    write_noise_dir(tmp_path / "a", count=1)
    listing = tmp_path / "noise.tsv"
    listing.write_bytes(b"a/noise0.wav\tbab\xffble\n")
    return listing


def listing_path_holds_nul(tmp_path: Path) -> Path:
    listing = tmp_path / "noise.tsv"
    listing.write_text("a/noi\x00se0.wav\tbabble\n")
    return listing


class TestBadNoiseManifest:
    @pytest.mark.parametrize("make_listing", [
        listing_missing, listing_names_missing_wav, listing_repeats_a_stem,
        listing_with_three_fields, listing_not_utf8, listing_path_holds_nul,
    ])
    @pytest.mark.parametrize("command", ["augment", "build"])
    def test_is_one_error_line(self, tmp_path, capsys, command, make_listing):
        listing = make_listing(tmp_path)
        if command == "augment":
            write_input_wavs(tmp_path / "in", count=1)
            args = ["augment", "--in", str(tmp_path / "in")]
        else:
            pairs = [TextPair(id="p1", source="a b", target="c d")]
            write_pairs_tsv(pairs, tmp_path / "pairs.tsv")
            args = ["build", "--pairs", str(tmp_path / "pairs.tsv"), "--units-k", "50"]
        code = main(args + [
            "--out", str(tmp_path / "out"), "--seed", "1", "--noise-manifest", str(listing),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith("error: cannot load noise bank: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("make_listing, reason", [
        (listing_repeats_a_stem, "line 2: stem 'noise0' already used on line 1"),
        (listing_with_three_fields,
         "line 1: expected 'path[<TAB>category]', got 'a/noise0.wav\\tbabble\\tloud'"),
        (listing_not_utf8, "{listing}:1: not valid UTF-8 (invalid start byte)"),
    ])
    def test_names_the_line(self, tmp_path, capsys, make_listing, reason):
        listing = make_listing(tmp_path)
        write_input_wavs(tmp_path / "in", count=1)
        code = main([
            "augment", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--seed", "1", "--noise-manifest", str(listing),
        ])
        assert code == 1
        reason = reason.format(listing=listing)
        assert capsys.readouterr().err == f"error: cannot load noise bank: {reason}\n"


class TestNoiseFlags:
    @pytest.mark.parametrize("command", ["augment", "build"])
    def test_dir_and_manifest_exclude_each_other(self, tmp_path, capsys, command):
        if command == "augment":
            write_input_wavs(tmp_path / "in", count=1)
            args = ["augment", "--in", str(tmp_path / "in")]
        else:
            write_pairs_tsv([TextPair(id="p1", source="a b", target="c d")], tmp_path / "pairs.tsv")
            args = ["build", "--pairs", str(tmp_path / "pairs.tsv"), "--units-k", "50"]
        code = main(args + [
            "--out", str(tmp_path / "out"), "--seed", "1",
            "--noise-dir", str(write_noise_dir(tmp_path / "noise")),
            "--noise-manifest", str(tmp_path / "nonexistent.tsv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: argument --noise-manifest: not allowed with argument --noise-dir\n"
        )
        assert not (tmp_path / "out").exists()


def empty_noise_dir(tmp_path: Path) -> Path:
    (tmp_path / "noise").mkdir()
    return tmp_path / "noise"


def listing_of_comments(tmp_path: Path) -> Path:
    listing = tmp_path / "noise.tsv"
    listing.write_text("# no entries yet\n\n")
    return listing


class TestEmptyNoiseBank:
    @pytest.mark.parametrize(
        "flag, make_source",
        [("--noise-dir", empty_noise_dir), ("--noise-manifest", listing_of_comments)],
    )
    def test_is_a_configuration_error(self, tmp_path, capsys, flag, make_source):
        source = make_source(tmp_path)
        write_input_wavs(tmp_path / "in", count=1)
        code = main([
            "augment", "--in", str(tmp_path / "in"), "--out", str(tmp_path / "out"),
            "--seed", "1", flag, str(source),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: no noise entries in {source}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["augment", "build"])
    def test_is_not_loaded_for_a_chain_that_mixes_no_noise(self, tmp_path, capsys, command):
        config = write_identity_config(tmp_path / "chain.json")
        speed_only = json.loads(config.read_text())
        speed_only["specs"] = [dict(speed_only["specs"][0], probability=1.0)]
        config.write_text(json.dumps(speed_only))
        if command == "augment":
            write_input_wavs(tmp_path / "in", count=2)
            args = ["augment", "--in", str(tmp_path / "in")]
        else:
            write_pairs_tsv([TextPair(id="p1", source="a b", target="c d")], tmp_path / "pairs.tsv")
            args = ["build", "--pairs", str(tmp_path / "pairs.tsv"), "--units-k", "50"]
        args += ["--seed", "1", "--config", str(config)]
        noise = ["--noise-dir", str(empty_noise_dir(tmp_path))]
        assert main(args + ["--out", str(tmp_path / "out")] + noise) == 0
        assert main(args + ["--out", str(tmp_path / "ref")]) == 0
        assert capsys.readouterr().err == ""
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "ref")


class TestWorkersOption:
    @pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
    @pytest.mark.parametrize(
        "command",
        [["augment", "--in", "in"], ["build", "--pairs", "pairs.tsv", "--units-k", "5"]],
        ids=["augment", "build"],
    )
    def test_must_be_a_positive_integer(self, tmp_path, capsys, command, value):
        out_dir = tmp_path / "out"
        code = main(command + ["--out", str(out_dir), "--seed", "1", "--workers", value])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: argument --workers: expected a positive integer, got {value!r}\n"
        )
        assert not out_dir.exists()


CORPUS_LINES = [
    "good morning",
    "the weather stays fine",
    "visit http://example.test now",
    "drop [this aside] completely",
    "a @ b @ c @ d",
    "hello hello hello hello again",
    "short and sweet",
]


class TestTextaug:
    def write_corpus(self, path: Path) -> Path:
        path.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
        return path

    def test_outputs_and_conservation(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--translator", "mock-notag",
        ])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["input_sentences"] == len(CORPUS_LINES)
        accounted = (
            stats["accepted"]
            + sum(stats["clean_rejected"].values())
            + sum(stats["pair_rejected"].values())
            + stats["translator_failures"]
        )
        assert accounted == len(CORPUS_LINES)
        assert (out_dir / "pairs.tsv").is_file()
        assert json.loads((out_dir / "stats.json").read_text()) == stats

    def test_workers_is_not_an_option(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        assert main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx", "--workers", "2",
        ]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --workers 2\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_stats_file_is_one_error_line(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        out_dir = tmp_path / "out"
        (out_dir / "stats.json").mkdir(parents=True)
        assert main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--translator", "mock-notag",
        ]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: could not write {out_dir / 'stats.json'}: [Errno 21] Is a directory")
        assert not (out_dir / ".stats.json.partial").exists()

    def test_reversal_shows_up_in_pairs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("good morning\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--translator", "mock-notag",
        ]) == 0
        line = (out_dir / "pairs.tsv").read_text().strip()
        assert line.split("\t")[1:] == ["morning good", "good morning"]

    def test_take_n_needs_seed(self, tmp_path):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        assert main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx", "--take-n", "3",
        ]) == 1

    def test_seed_needs_take_n(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "SubprocessTranslator", started.append)
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--seed", "3",
            "--translator", "subprocess:engine",
        ])
        assert code == 1
        assert capsys.readouterr() == ("", "error: --seed needs --take-n\n")
        assert started == []
        assert not out_dir.exists()

    def test_filter_options_default_to_the_policy(self):
        argv = ["textaug", "--in", "c.txt", "--out", "o", "--language", "en", "--to", "xx"]
        args = cli.build_parser().parse_args(argv)
        assert cli._policy_from_args(args) == FilterPolicy()

    @pytest.mark.parametrize("field", [f.name for f in fields(FilterPolicy)])
    def test_each_filter_option_reaches_its_field(self, field):
        # a value other than the default, which every field accepts
        value = {"max_length_ratio": 2.5, "max_repetition_run": 5, "min_tokens": 2,
                 "max_tokens": 50, "max_special_char_ratio": 0.5}[field]
        argv = ["textaug", "--in", "c.txt", "--out", "o", "--language", "en", "--to", "xx",
                "--" + field.replace("_", "-"), str(value)]
        policy = cli._policy_from_args(cli.build_parser().parse_args(argv))
        assert policy == FilterPolicy(**{field: value})
        assert type(getattr(policy, field)) is type(value)

    def test_take_n_limits_input(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        assert main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx", "--take-n", "3", "--seed", "4",
        ]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["input_sentences"] == 3

    def test_missing_corpus(self, tmp_path):
        assert main([
            "textaug", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx",
        ]) == 1

    def test_unknown_translator(self, tmp_path):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        assert main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx", "--translator", "wizard",
        ]) == 1

    def test_missing_translator_command(self, tmp_path, capsys):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        missing = tmp_path / "no-such-engine"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "de", "--to", "en", "--translator", f"subprocess:{missing}",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith(f"error: cannot start {missing}: ")
        assert not (tmp_path / "out").exists()

    def test_engine_that_outlives_its_input_is_killed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ports, "_EXIT_TIMEOUT_S", 0.5)
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(LINGERING_ENGINE))
        pids = tmp_path / "pids"
        pids.mkdir()
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        code = main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "de", "--to", "en",
            "--translator", "subprocess:" + shlex.join([sys.executable, str(engine), str(pids)]),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {sys.executable} did not exit within 0.5 s of the end of its input\n"
        )
        assert len(list(pids.iterdir())) == 1
        assert_reaped(pids)

    def test_engine_that_fails_to_exit_leaves_no_new_file(self, tmp_path, capsys, monkeypatch):
        # the translator is closed before pairs.tsv is renamed into place
        monkeypatch.setattr(ports, "_EXIT_TIMEOUT_S", 0.5)
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(LINGERING_ENGINE))
        pids = tmp_path / "pids"
        pids.mkdir()
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "de", "--to", "en",
            "--translator", "subprocess:" + shlex.join([sys.executable, str(engine), str(pids)]),
        ])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert list(out_dir.iterdir()) == []
        assert_reaped(pids)

    def test_bad_policy_value_starts_no_engine(self, tmp_path, capsys, monkeypatch):
        started = []
        monkeypatch.setattr(cli, "SubprocessTranslator", started.append)
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        code = main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "de", "--to", "en", "--max-length-ratio", "0.2",
            "--translator", "subprocess:engine",
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert started == []

    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_take_n_must_be_a_positive_integer(self, tmp_path, capsys, value):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--take-n", value, "--seed", "1",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: argument --take-n: expected a positive integer, got {value!r}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["-1", "1.5", "seven"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys, value):
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(tmp_path / "missing.txt"), "--out", str(out_dir),
            "--language", "en", "--to", "xx", "--take-n", "1", "--seed", value,
        ])
        assert code == 1
        # refused before the corpus is looked for
        assert capsys.readouterr() == (
            "", f"error: argument --seed: expected a non-negative integer, got {value!r}\n"
        )
        assert not out_dir.exists()

    def test_bad_policy_value(self, tmp_path):
        corpus = self.write_corpus(tmp_path / "corpus.txt")
        assert main([
            "textaug", "--in", str(corpus), "--out", str(tmp_path / "out"),
            "--language", "en", "--to", "xx", "--max-length-ratio", "0.2",
        ]) == 1

    def test_engine_pipes_are_utf8_whatever_the_locale(self, tmp_path):
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(ECHO_ENGINE))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("доброе утро\nхорошая погода сегодня\ngood morning\n", encoding="utf-8")
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHON"))}
        env["PYTHONPATH"] = package_root
        for name, codec in [("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"}), ("utf8", {"PYTHONUTF8": "1"})]:
            run = subprocess.run(
                [sys.executable, "-m", "speechaug.cli", "textaug", "--in", str(corpus),
                 "--out", str(tmp_path / name), "--language", "ru", "--to", "en", "--translator",
                 "subprocess:" + shlex.join([sys.executable, "-X", "utf8", str(engine)])],
                env={**env, "PYTHONCOERCECLOCALE": "0", **codec}, capture_output=True, timeout=60,
            )
            assert (run.returncode, run.stderr) == (0, b"")
        expected = (
            "p00000000\tдоброе утро\tдоброе утро\n"
            "p00000001\tхорошая погода сегодня\tхорошая погода сегодня\n"
            "p00000002\tgood morning\tgood morning\n"
        ).encode()
        assert (tmp_path / "ascii" / "pairs.tsv").read_bytes() == expected
        assert (tmp_path / "utf8" / "pairs.tsv").read_bytes() == expected

    def test_engine_answer_that_is_not_utf8_fails_its_sentence(self, tmp_path, capsys):
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(NOT_UTF8_ENGINE))
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("good morning\nbad\nfine weather today\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir), "--language", "en", "--to", "xx",
            "--translator", "subprocess:" + shlex.join([sys.executable, str(engine)]),
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["translator_failures"] == 1
        assert err == "ERROR speechaug: 1 sentences failed translation\n"
        assert (out_dir / "pairs.tsv").read_text(encoding="utf-8") == (
            "p00000000\tgood morning\tgood morning\n"
            "p00000002\tfine weather today\tfine weather today\n"
        )

    def test_non_utf8_corpus_is_one_error_line_and_no_pairs(self, tmp_path, capsys):
        # the bad line comes after many pairs were written
        lines = [f"sentence number {i}".encode() for i in range(1500)] + [b"bad \xff byte"]
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        out_dir = tmp_path / "out"
        code = main([
            "textaug", "--in", str(corpus), "--out", str(out_dir),
            "--language", "en", "--to", "xx",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {corpus}:1501: not valid UTF-8 (invalid start byte)"]
        assert list(out_dir.iterdir()) == []


class TestBuild:
    def write_pairs(self, path: Path, count: int = 4) -> Path:
        pairs = [
            TextPair(id=f"p{i:08d}", source=f"number {i} spoken", target=f"gesprochen {i}")
            for i in range(count)
        ]
        write_pairs_tsv(pairs, path)
        return path

    def test_no_effects_build(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        out_dir = tmp_path / "out"
        code = main([
            "build", "--pairs", str(pairs), "--out", str(out_dir),
            "--seed", "3", "--units-k", "50", "--no-effects",
        ])
        assert code == 0
        manifest_path = Path(capsys.readouterr().out.strip())
        records = read_manifest(manifest_path)
        assert len(records) == 4
        for rec in records:
            assert (out_dir / rec.source_audio).is_file()
            assert rec.origin == "text_aug"

    def test_no_effects_loads_no_bank(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        base = ["build", "--pairs", str(pairs), "--seed", "3", "--units-k", "50", "--no-effects"]
        empty = tmp_path / "noise"
        empty.mkdir()
        assert main(base + ["--out", str(tmp_path / "out"), "--noise-dir", str(empty)]) == 0
        assert main(base + ["--out", str(tmp_path / "ref")]) == 0
        assert capsys.readouterr().err == ""
        assert dir_bytes(tmp_path / "out" / "audio") == dir_bytes(tmp_path / "ref" / "audio")

    def test_rebuild_is_byte_identical(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        noise = write_noise_dir(tmp_path / "noise")
        base = [
            "build", "--pairs", str(pairs), "--seed", "3", "--units-k", "50",
            "--noise-dir", str(noise),
        ]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "manifest.jsonl").read_bytes() == (
            tmp_path / "b" / "manifest.jsonl"
        ).read_bytes()
        assert dir_bytes(tmp_path / "a" / "audio") == dir_bytes(tmp_path / "b" / "audio")

    def test_worker_count_does_not_change_output(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv", count=10)
        noise = write_noise_dir(tmp_path / "noise")
        base = [
            "build", "--pairs", str(pairs), "--seed", "3", "--units-k", "50",
            "--noise-dir", str(noise),
        ]
        assert main(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "w8"), "--workers", "8"]) == 0
        assert (tmp_path / "w1" / "manifest.jsonl").read_bytes() == (
            tmp_path / "w8" / "manifest.jsonl"
        ).read_bytes()
        assert dir_bytes(tmp_path / "w1" / "audio") == dir_bytes(tmp_path / "w8" / "audio")

    def test_units_k_is_required(self, tmp_path):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        assert main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--no-effects",
        ]) == 1

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--units-k", "1", "an integer of at least 2"),
            ("--units-k", "0", "an integer of at least 2"),
            ("--units-k", "2.5", "an integer of at least 2"),
            ("--sample-rate", "0", "a positive integer"),
            ("--sample-rate", "-16000", "a positive integer"),
        ],
    )
    def test_value_a_constructor_refuses_is_a_usage_error(
        self, tmp_path, capsys, flag, value, expected
    ):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        out_dir = tmp_path / "out"
        args = ["build", "--pairs", str(pairs), "--out", str(out_dir), "--seed", "3"]
        extra = {"--units-k": [], "--sample-rate": ["--units-k", "50"]}[flag]
        assert main(args + extra + [flag, value]) == 1
        assert capsys.readouterr().err == f"error: argument {flag}: expected {expected}, got {value!r}\n"
        assert not out_dir.exists()

    def test_smallest_values_are_accepted(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv", count=1)
        assert main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"), "--seed", "3",
            "--units-k", "2", "--sample-rate", "8000", "--no-effects",
        ]) == 0
        (record,) = read_manifest(Path(capsys.readouterr().out.strip()))
        assert set(record.target_units.units) <= {0, 1}

    def test_noisy_chain_without_bank(self, tmp_path):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        assert main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50",
        ]) == 1

    def test_no_augmented_side_needs_no_bank(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        base = ["build", "--pairs", str(pairs), "--seed", "3", "--units-k", "50"]
        assert main(base + ["--out", str(tmp_path / "plain"), "--no-augment-source"]) == 0
        assert main(base + ["--out", str(tmp_path / "ref"), "--no-effects"]) == 0
        assert capsys.readouterr().err == ""
        assert dir_bytes(tmp_path / "plain") == dir_bytes(tmp_path / "ref")
        assert dir_bytes(tmp_path / "plain" / "audio") == dir_bytes(tmp_path / "ref" / "audio")

    def test_unknown_synthesizer(self, tmp_path):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        assert main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50", "--no-effects",
            "--synthesizer", "parrot",
        ]) == 1

    def test_missing_synthesizer_command(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        missing = tmp_path / "no-such-engine"
        code = main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50", "--no-effects",
            "--synthesizer", f"subprocess:{missing}",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.splitlines()[0]]
        assert err.startswith(f"error: cannot start {missing}: ")
        assert not (tmp_path / "out").exists()

    def test_no_effects_with_augment_target_is_a_usage_error(self, tmp_path, capsys):
        pairs = self.write_pairs(tmp_path / "pairs.tsv")
        started = tmp_path / "engine_started"
        engine = shlex.join([sys.executable, "-c", f"open({str(started)!r}, 'w')"])
        code = main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50", "--no-effects", "--augment-target",
            "--synthesizer", f"subprocess:{engine}",
        ])
        assert code == 1
        assert "--augment-target: not allowed with argument --no-effects" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]

    def test_missing_pairs_file(self, tmp_path):
        assert main([
            "build", "--pairs", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50", "--no-effects",
        ]) == 1


    def test_escaping_pair_id_is_refused_before_any_output(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("p1\tshort one\teins\n../escaped\ta b\tc d\n")
        out_dir = tmp_path / "out"
        code = main([
            "build", "--pairs", str(pairs), "--out", str(out_dir),
            "--seed", "3", "--units-k", "50", "--no-effects",
        ])
        assert code == 1
        assert "pair id '../escaped' is not a plain file name" in capsys.readouterr().err
        assert not out_dir.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.tsv"]

    def test_duplicate_pair_id_is_refused_before_any_output(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("p1\tshort one\teins\np2\ta b\tc d\np1\ta much longer one\tzwei\n")
        out_dir = tmp_path / "out"
        code = main([
            "build", "--pairs", str(pairs), "--out", str(out_dir),
            "--seed", "3", "--units-k", "50", "--no-effects", "--workers", "2",
        ])
        assert code == 1
        assert "pair id 'p1' already used on line 1" in capsys.readouterr().err
        assert not (out_dir / "audio").exists()
        assert not (out_dir / "manifest.jsonl").exists()

    def test_failed_pair_is_logged_once(self, tmp_path, capsys):
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(FLAKY_ENGINE))
        pairs = self.write_pairs(tmp_path / "pairs.tsv", count=3)
        spec = "subprocess:" + shlex.join([sys.executable, str(engine), str(tmp_path / "wavs")])
        code = main([
            "build", "--pairs", str(pairs), "--out", str(tmp_path / "out"),
            "--seed", "3", "--units-k", "50", "--no-effects", "--synthesizer", spec,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert [r.id for r in read_manifest(Path(captured.out.strip()))] == [
            "p00000000", "p00000002"
        ]
        mentions = [line for line in captured.err.splitlines() if "p00000001" in line]
        assert len(mentions) == 1
        assert mentions[0].startswith("ERROR speechaug: failed: p00000001: ")

    def test_non_finite_engine_audio_is_one_failed_pair(self, tmp_path, capsys, monkeypatch):
        # a build with no chain runs in one process at --workers 2 as well
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine = tmp_path / "engine.py"
        engine.write_text(textwrap.dedent(NON_FINITE_ENGINE))
        pairs = self.write_pairs(tmp_path / "pairs.tsv", count=3)
        wavs = tmp_path / "wavs"
        spec = "subprocess:" + shlex.join([sys.executable, str(engine), str(wavs)])
        runs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            code = main([
                "build", "--pairs", str(pairs), "--out", str(out_dir), "--seed", "3",
                "--units-k", "50", "--no-effects", "--synthesizer", spec, "--workers", workers,
            ])
            captured = capsys.readouterr()
            assert captured.out == f"{out_dir / 'manifest.jsonl'}\n"
            runs.append((code, captured.err.splitlines(), tree_bytes(out_dir)))
        code, err, files = runs[0]
        assert code == 2
        assert err == [
            f"ERROR speechaug: failed: p00000001: {wavs / 'number_1_spoken.wav'}: "
            "samples contain NaN or infinity",
            "ERROR speechaug: 1 of 3 pairs failed",
        ]
        assert sorted(files) == ["audio/p00000000.wav", "audio/p00000002.wav", "manifest.jsonl"]
        records = read_manifest(tmp_path / "w1" / "manifest.jsonl")
        assert [r.id for r in records] == ["p00000000", "p00000002"]
        assert runs[1] == runs[0]


# echoes each sentence, then keeps running after the end of its input
LINGERING_ENGINE = """
    import os, sys, time

    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    for line in sys.stdin:
        print(line.rstrip("\\n").split("\\t")[2], flush=True)
    time.sleep(60)
"""


@pytest.mark.parametrize(
    "option", ["textaug --language", "textaug --to", "build --src-lang", "build --tgt-lang"]
)
def test_language_that_is_not_utf8_is_a_usage_error(tmp_path, option):
    # argv bytes that are not UTF-8 reach Python as a lone surrogate, which
    # no engine could be sent; the option is refused before an engine starts
    command, flag = option.split()
    started = tmp_path / "engine_started"
    engine = "subprocess:" + shlex.join([sys.executable, "-c", f"open({str(started)!r}, 'w')"])
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("good morning\n")
    pairs = tmp_path / "pairs.tsv"
    write_pairs_tsv([TextPair("p0", "good morning", "guten morgen")], pairs)
    out_dir = tmp_path / "out"
    options = {
        "textaug": {"--in": corpus, "--language": "en", "--to": "de", "--translator": engine},
        "build": {"--pairs": pairs, "--seed": 1, "--units-k": 50, "--synthesizer": engine},
    }[command]
    argv = [command, "--out", str(out_dir)]
    for name, value in options.items():
        argv += [name, str(value)]
    argv = [arg.encode() for arg in argv] + [flag.encode(), b"\xff"]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    run = subprocess.run(
        [sys.executable.encode(), b"-m", b"speechaug.cli", *argv],
        env=env, capture_output=True, timeout=60,
    )
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == f"error: argument {flag}: expected UTF-8 text, got '\\udcff'\n".encode()
    assert not started.exists()
    assert not out_dir.exists()


# echoes each sentence; run it with -X utf8, so that its pipes are UTF-8
ECHO_ENGINE = """
    import sys

    for line in sys.stdin:
        print(line.rstrip("\\n").split("\\t")[2], flush=True)
"""


# echoes each sentence, but answers "bad" with two bytes that are not UTF-8
NOT_UTF8_ENGINE = """
    import sys

    for line in sys.stdin.buffer:
        sentence = line.rstrip(b"\\n").split(b"\\t")[2]
        sys.stdout.buffer.write((b"\\xff\\xfe" if sentence == b"bad" else sentence) + b"\\n")
        sys.stdout.buffer.flush()
"""


# answers every sentence holding "1" with a path it never writes
FLAKY_ENGINE = """
    import os, struct, sys

    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    for count, line in enumerate(sys.stdin):
        sentence = line.rstrip("\\n").split("\\t")[1]
        path = os.path.join(out_dir, f"utt{count}.wav")
        if "1" not in sentence:
            frames = struct.pack("<h", 3000) * (160 * len(sentence))
            with open(path, "wb") as fh:
                fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
                fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16))
                fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
        print(path, flush=True)
"""


# answers each sentence with a float32 WAV named after it, in which a
# sentence holding "1" has a NaN sample
NON_FINITE_ENGINE = """
    import os, struct, sys

    out_dir = sys.argv[1]
    os.makedirs(out_dir, exist_ok=True)
    for line in sys.stdin:
        sentence = line.rstrip("\\n").split("\\t")[1]
        samples = [0.1] * (160 * len(sentence))
        if "1" in sentence:
            samples[7] = float("nan")
        frames = struct.pack(f"<{len(samples)}f", *samples)
        path = os.path.join(out_dir, sentence.replace(" ", "_") + ".wav")
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32))
            fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
        print(path, flush=True)
"""


# A manifest line of the wrong JSON type, as (text in place of record "b",
# the reason that follows "line 3: ").
WRONG_TYPE_LINES = [
    pytest.param("5", "record must be an object, not int", id="int"),
    pytest.param("null", "record must be an object, not NoneType", id="null"),
    pytest.param("true", "record must be an object, not bool", id="bool"),
    pytest.param('"b"', "record must be an object, not str", id="string"),
    pytest.param("[1, 2]", "record must be an object, not list", id="list"),
    pytest.param('{"duration_s": null}', "duration_s must be a number, not NoneType", id="duration-null"),
    pytest.param('{"duration_s": [3.0]}', "duration_s must be a number, not list", id="duration-list"),
    pytest.param('{"duration_s": {"s": 3.0}}', "duration_s must be a number, not dict", id="duration-object"),
    pytest.param('{"duration_s": true}', "duration_s must be a number, not bool", id="duration-bool"),
    pytest.param('{"duration_s": "3.0"}', "duration_s must be a number, not str", id="duration-string"),
    pytest.param(
        '{"duration_s": 1' + "0" * 400 + "}", "int too large to convert to float", id="duration-huge-int"
    ),
    pytest.param('{"id": 7}', "id must be a string, not int", id="id-int"),
    pytest.param('{"source_audio": null}', "source_audio must be a string, not NoneType", id="audio-null"),
    pytest.param('{"target_units": [1, 2]}', "target_units must be a string, not list", id="units-list"),
    pytest.param('{"origin": 1}', "origin must be a string, not int", id="origin-int"),
    pytest.param('{"src_lang": ["x"]}', "src_lang must be a string, not list", id="src-lang-list"),
    pytest.param('{"tgt_lang": false}', "tgt_lang must be a string, not bool", id="tgt-lang-bool"),
    pytest.param(
        '{"id": 7, "duration_s": true, "src_lang": ["x"]}',
        "id must be a string, not int",
        id="three-wrong",
    ),
]


def write_wrong_type_manifest(path: Path, text: str) -> Path:
    write_manifest([record("a", 2.0), record("b", 3.0)], path)
    header, first, second = path.read_text().splitlines()
    if text.startswith("{"):
        # a whole record with only duration_s of the wrong type
        text = json.dumps({**json.loads(second), **json.loads(text)})
    path.write_text("\n".join([header, first, text]) + "\n")
    return path


# the manifests of test_pinned_ids_of_the_ci_manifests: file name, id
# prefix, record count, record origin
SAMPLE_PIN_MANIFESTS = [("real", "r", 5, "real"), ("aug", "a", 3, "text_aug"), ("extra", "x", 2, "text_aug")]
SAMPLE_PIN = "r0 r1 a2 x1 x0 r0 x0 r2 x0 x1 r0 a2 r1 r1 r4 a0 r1 a0 r0 x0".split()


class TestSample:
    def write_manifests(self, tmp_path: Path) -> tuple[Path, Path]:
        real = tmp_path / "real.jsonl"
        aug = tmp_path / "aug.jsonl"
        write_manifest([record(f"r{i}", origin="real") for i in range(5)], real)
        write_manifest([record(f"a{i}", origin="text_aug") for i in range(5)], aug)
        return real, aug

    def test_emits_requested_count(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        code = main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "40", "--seed", "2",
        ])
        assert code == 0
        ids = capsys.readouterr().out.split()
        assert len(ids) == 40

    @pytest.mark.parametrize("value", ["-3", "-1", "ten"])
    def test_count_must_not_be_negative(self, tmp_path, capsys, value):
        real, aug = self.write_manifests(tmp_path)
        code = main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", value, "--seed", "2",
        ])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: argument -n/--count: expected a non-negative integer, got {value!r}\n"
        )

    def test_zero_count_emits_nothing(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        code = main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "0", "--seed", "2",
        ])
        assert code == 0
        assert capsys.readouterr() == ("", "")

    def test_deterministic(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        args = [
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "30", "--seed", "2",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_zero_weight_origin_is_silent(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=1.0,text_aug=0.0", "-n", "50", "--seed", "2",
        ]) == 0
        ids = capsys.readouterr().out.split()
        assert all(i.startswith("r") for i in ids)

    def test_bad_weights_entry(self, tmp_path):
        real, aug = self.write_manifests(tmp_path)
        assert main([
            "sample", "--manifest", f"real={real}",
            "--weights", "real", "-n", "5", "--seed", "2",
        ]) == 1

    def test_bad_manifest_entry(self, tmp_path):
        assert main([
            "sample", "--manifest", "no-equals-sign",
            "--weights", "real=1", "-n", "5", "--seed", "2",
        ]) == 1

    def test_golden_ids_with_three_origins(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        write_manifest([record(f"r{i}", origin="real") for i in range(7)], real)
        extra = tmp_path / "extra.jsonl"
        write_manifest([record(f"x{i}", origin="text_aug") for i in range(3)], extra)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--manifest", f"extra={extra}", "--weights", "real=0.5,text_aug=0.3,extra=0.2",
            "-n", "24", "--seed", "20",
        ]) == 0
        assert capsys.readouterr().out.split() == [
            "r1", "x1", "r1", "x1", "x1", "r6", "r3", "r4", "r3", "x0", "a4", "x2",
            "r4", "r0", "r6", "x1", "a0", "r4", "r4", "x2", "x1", "r2", "r5", "a3",
        ]

    def test_non_utf8_manifest(self, tmp_path, capsys):
        real, aug = self.write_manifests(tmp_path)
        real.write_bytes(real.read_bytes().replace(b'"r3"', b'"r\xff"'))
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "5", "--seed", "2",
        ]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: cannot read manifest {real}: line 5: not valid UTF-8 (invalid start byte)"
        ]

    @pytest.mark.parametrize("text,reason", WRONG_TYPE_LINES)
    def test_wrong_json_type_is_one_error_line(self, tmp_path, capsys, text, reason):
        real, aug = self.write_manifests(tmp_path)
        write_wrong_type_manifest(real, text)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "5", "--seed", "2",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cannot read manifest {real}: line 3: {reason}"
        ]

    @pytest.mark.parametrize("weights,reason", [
        ("real=nan,text_aug=1", "weight of 'real' must be non-negative and finite, got nan"),
        ("real=inf,text_aug=1", "weight of 'real' must be non-negative and finite, got inf"),
        ("real=1e308,text_aug=1e308", "the weights must have a finite total"),
    ])
    def test_weights_that_are_not_finite_are_one_error_line(self, tmp_path, capsys, weights, reason):
        real, aug = self.write_manifests(tmp_path)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", weights, "-n", "5", "--seed", "2",
        ]) == 1
        assert capsys.readouterr() == ("", f"error: {reason}\n")

    @pytest.mark.parametrize("value", ["-1", "2.0", "two"])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, capsys, value):
        # refused before the manifest is looked for
        assert main([
            "sample", "--manifest", f"real={tmp_path / 'missing.jsonl'}",
            "--weights", "real=1", "-n", "5", "--seed", value,
        ]) == 1
        assert capsys.readouterr() == (
            "", f"error: argument --seed: expected a non-negative integer, got {value!r}\n"
        )

    @pytest.mark.parametrize("weights,reason", [
        ("real=abc", "bad weight in 'real=abc': could not convert string to float: 'abc'"),
        ("real=nan", "weight of 'real' must be non-negative and finite, got nan"),
    ])
    def test_weights_are_refused_before_any_manifest_is_read(
        self, tmp_path, capsys, weights, reason
    ):
        assert main([
            "sample", "--manifest", f"real={tmp_path / 'nope.jsonl'}",
            "--weights", weights, "-n", "3", "--seed", "1",
        ]) == 1
        assert capsys.readouterr() == ("", f"error: {reason}\n")

    @pytest.mark.parametrize("weights,origin", [
        ("real=0.5,real=0", "real"),
        ("real=1,text_aug=1, text_aug =2", "text_aug"),
        ("real=1,real=1", "real"),
    ])
    def test_an_origin_weighted_twice_is_a_usage_error(self, tmp_path, capsys, weights, origin):
        real, aug = self.write_manifests(tmp_path)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={aug}",
            "--weights", weights, "-n", "3", "--seed", "1",
        ]) == 1
        assert capsys.readouterr() == ("", f"error: --weights names origin {origin!r} twice\n")

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_weighted_empty_origin_is_refused_at_any_count(self, tmp_path, capsys, count):
        real, _ = self.write_manifests(tmp_path)
        assert main([
            "sample", "--manifest", f"real={real}",
            "--weights", "real=1,text_aug=1", "-n", count, "--seed", "2",
        ]) == 1
        assert capsys.readouterr() == (
            "", "error: origin 'text_aug' has positive weight but no records\n"
        )

    def test_pinned_ids_of_the_ci_manifests(self, tmp_path, capsys):
        # The CI job without numpy (Python 3.12) writes these three
        # manifests line for line and checks its `sample` output against
        # SAMPLE_PIN, so the stream is pinned across Python versions and
        # apart from numpy
        for name, prefix, count, origin in SAMPLE_PIN_MANIFESTS:
            lines = ['{"schema": "speechaug-manifest-v1"}'] + [
                f'{{"id": "{prefix}{i}", "source_audio": "audio/{prefix}{i}.wav", '
                f'"duration_s": 1.0, "target_units": "1 2", "origin": "{origin}", '
                f'"src_lang": "en", "tgt_lang": "de"}}'
                for i in range(count)
            ]
            (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        assert main([
            "sample", "--manifest", f"real={tmp_path / 'real.jsonl'}",
            "--manifest", f"text_aug={tmp_path / 'aug.jsonl'}",
            "--manifest", f"extra={tmp_path / 'extra.jsonl'}",
            "--weights", "real=0.5,text_aug=0.3,extra=0.2", "-n", "20", "--seed", "2024",
        ]) == 0
        assert capsys.readouterr().out == "".join(f"{record_id}\n" for record_id in SAMPLE_PIN)

    def test_weighted_empty_origin(self, tmp_path):
        real, _ = self.write_manifests(tmp_path)
        empty = tmp_path / "empty.jsonl"
        write_manifest([], empty)
        assert main([
            "sample", "--manifest", f"real={real}", "--manifest", f"text_aug={empty}",
            "--weights", "real=0.5,text_aug=0.5", "-n", "5", "--seed", "2",
        ]) == 1


class TestStats:
    def test_summary_output(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        write_manifest([record("a", 2.0), record("b", 3.0)], path)
        assert main(["stats", "--manifest", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 2
        assert summary["total_duration_s"] == pytest.approx(5.0)

    def test_missing_manifest(self, tmp_path):
        assert main(["stats", "--manifest", str(tmp_path / "nope.jsonl")]) == 1

    def test_malformed_manifest(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("not json\n")
        assert main(["stats", "--manifest", str(path)]) == 1

    def test_nan_duration_is_refused(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        write_manifest([record("a", 2.0), record("b", 3.0)], path)
        path.write_text(path.read_text().replace('"duration_s": 3.0', '"duration_s": NaN'))
        assert main(["stats", "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: record 'b': duration must be positive and finite")

    @pytest.mark.parametrize("text,reason", WRONG_TYPE_LINES)
    def test_wrong_json_type_is_one_error_line(self, tmp_path, capsys, text, reason):
        path = write_wrong_type_manifest(tmp_path / "m.jsonl", text)
        assert main(["stats", "--manifest", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: line 3: {reason}"]

    def test_non_utf8_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        write_manifest([record("a", 2.0), record("b", 3.0)], path)
        path.write_bytes(path.read_bytes().replace(b'"b"', b'"\xfe"'))
        assert main(["stats", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: line 3: not valid UTF-8 (invalid start byte)"]


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class RecordingStdout(io.StringIO):
    """A stdout that counts its ``write`` calls: unbuffered, each is a
    system call."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def summary_args(tmp_path: Path, command: str) -> list[str]:
    out = str(tmp_path / "out")
    if command == "textaug":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
        return ["textaug", "--in", str(corpus), "--out", out, "--language", "en", "--to", "xx"]
    if command == "augment":
        write_input_wavs(tmp_path / "in")
        config = write_identity_config(tmp_path / "chain.json")
        return ["augment", "--in", str(tmp_path / "in"), "--out", out, "--seed", "7",
                "--config", str(config)]
    if command == "build":
        pairs = TestBuild().write_pairs(tmp_path / "pairs.tsv")
        return ["build", "--pairs", str(pairs), "--out", out, "--seed", "3", "--units-k", "50",
                "--no-effects"]
    manifest = tmp_path / "m.jsonl"
    write_manifest([record("a", 2.0), record("b", 3.0)], manifest)
    return ["stats", "--manifest", str(manifest)]


@pytest.mark.parametrize("command", ["textaug", "augment", "build", "stats"])
def test_summary_is_one_write(tmp_path, monkeypatch, command):
    args = summary_args(tmp_path, command)
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(args) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().endswith("}\n" if command != "build" else "manifest.jsonl\n")
