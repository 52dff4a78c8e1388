"""Output checks. Each compares the program's outputs with a computation
made apart from the program, or with a property the method must have.

Output WAVs are decoded with scipy.io.wavfile, never with speechaug's own
load_wav. Every check raises CheckFailed with a message naming the item.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.io import wavfile

import gen


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(paths: list[Path], root: Path) -> str:
    """sha256 over the relative names and bytes of the given files."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def decode_wav(path: Path, rate: int) -> np.ndarray:
    """Decode an output WAV and check it is finite, in [-1, 1] and at ``rate``."""
    file_rate, data = wavfile.read(path)
    expect(file_rate == rate, f"{path.name}: rate {file_rate}, expected {rate}")
    expect(data.ndim == 1, f"{path.name}: expected mono output")
    samples = data.astype(np.float64) / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    expect(bool(np.all(np.isfinite(samples))), f"{path.name}: non-finite samples")
    expect(len(samples) == 0 or float(np.max(np.abs(samples))) <= 1.0, f"{path.name}: samples outside [-1, 1]")
    return samples


def _input_mono(path: Path) -> tuple[int, np.ndarray]:
    rate, data = wavfile.read(path)
    x = data.astype(np.float64) / 32768.0 if data.dtype == np.int16 else data.astype(np.float64)
    return rate, (x if x.ndim == 1 else x.mean(axis=1))


def read_manifest_lines(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    expect(bool(lines) and json.loads(lines[0]) == {"schema": "speechaug-manifest-v1"}, f"{path}: bad header")
    return [json.loads(line) for line in lines[1:] if line.strip()]


def _check_records(records: list[dict], out_dir: Path, pairs: list[dict], units_k: int) -> list[np.ndarray]:
    """One record per pair in pair order; durations match the decoded WAVs;
    units reduced and in range. Returns the decoded source samples."""
    expect(len(records) == len(pairs), f"{len(records)} records for {len(pairs)} pairs")
    decoded = []
    for rec, pair in zip(records, pairs):
        expect(rec["id"] == pair["id"], f"record {rec['id']} where {pair['id']} was expected")
        units = [int(u) for u in rec["target_units"].split()]
        expect(bool(units), f"{rec['id']}: no target units")
        expect(all(0 <= u < units_k for u in units), f"{rec['id']}: unit outside [0, {units_k})")
        expect(all(a != b for a, b in zip(units, units[1:])), f"{rec['id']}: units not reduced")
        samples = decode_wav(out_dir / rec["source_audio"], gen.RATE_16K)
        expect(rec["duration_s"] == len(samples) / gen.RATE_16K, f"{rec['id']}: duration_s != decoded length")
        decoded.append(samples)
    return decoded


def check_build_chain(out_dir: Path, spec: dict) -> dict:
    pairs = spec["pairs"]
    records = read_manifest_lines(out_dir / "manifest.jsonl")
    decoded = _check_records(records, out_dir, pairs, gen.UNITS_K)
    for pair, samples in zip(pairs, decoded):
        n = gen.SAMPLES_PER_CHAR * len(pair["source"])
        lo, hi = round(n / 1.05), round(n / 0.95)
        expect(lo <= len(samples) <= hi, f"{pair['id']}: {len(samples)} samples outside [{lo}, {hi}]")
    return {"audio_s": sum(r["duration_s"] for r in records)}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_augment_mixed(in_dir: Path, out_dir: Path, noise_dir: Path, spec: dict, seed: int, chain_seed: int) -> dict:
    names = spec["files"]
    traces = [json.loads(line) for line in (out_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    expect(sorted(p.name for p in out_dir.glob("*.wav")) == names, "outputs do not match the inputs one to one")
    expect(sorted(t["utterance_id"] for t in traces) == sorted(Path(n).stem for n in names), "one trace line per input")
    by_id = {t["utterance_id"]: t for t in traces}
    fired = {}
    audio_s = 0.0
    snr_checked = 0
    for name in names:
        rate, x = _input_mono(in_dir / name)
        audio_s += len(x) / rate
        y = decode_wav(out_dir / name, rate)
        stages = {s["kind"]: s for s in by_id[Path(name).stem]["stages"]}
        for kind, stage in stages.items():
            fired.setdefault(kind, []).append(stage["applied"])
        speed = stages["speed"]
        want = _round_half_up(len(x) / speed["params"]["factor"]) if speed["applied"] else len(x)
        expect(len(y) == want, f"{name}: {len(y)} samples, expected {want}")
        noise = stages["noise_mix"]
        only_noise = noise["applied"] and not any(s["applied"] for k, s in stages.items() if k != "noise_mix")
        if rate == gen.RATE_16K and only_noise and noise["params"]["peak_scale"] == 1.0:
            snr = 10.0 * math.log10(float(np.sum(x * x)) / float(np.sum((y - x) ** 2)))
            expect(abs(snr - noise["params"]["snr_db"]) <= 0.1,
                   f"{name}: measured SNR {snr:.3f} dB, trace says {noise['params']['snr_db']:.3f} dB")
            snr_checked += 1
    expect(snr_checked >= 1, "no 16 kHz input where only the noise stage fired")
    for kind, gates in fired.items():
        share, sigma = sum(gates) / len(gates), math.sqrt(0.25 / len(gates))
        expect(abs(share - 0.5) <= 4 * sigma, f"{kind} fired on {share:.3f} of inputs")
    _check_replay(in_dir, out_dir, noise_dir, names, by_id, seed, chain_seed)
    return {"audio_s": audio_s}


def _check_replay(in_dir, out_dir, noise_dir, names, by_id, seed, chain_seed) -> None:
    """replay_trace must rebuild a seeded subset of the outputs bit for bit."""
    from speechaug import AppliedTrace, NoiseBank, default_chain, load_wav, replay_trace

    config = default_chain().with_seed(chain_seed)
    bank = NoiseBank.from_dir(noise_dir)
    for name in random.Random(seed).sample(names, 2):
        trace = AppliedTrace.from_json(json.dumps(by_id[Path(name).stem]))
        replayed = replay_trace(config, load_wav(in_dir / name), trace, bank)
        _, data = wavfile.read(out_dir / name)
        expect(np.array_equal(replayed.samples, data), f"{name}: replay_trace does not rebuild the output")


def check_textaug(out_dir: Path, spec: dict) -> list[dict]:
    stats = json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))
    rejected = {**stats["clean_rejected"], **stats["pair_rejected"]}
    total = stats["accepted"] + sum(rejected.values()) + stats["translator_failures"]
    expect(stats["input_sentences"] == spec["lines"] == total, f"textaug does not conserve lines: {stats}")
    expect(rejected == spec["planted"], f"reject counts {rejected} != planted {spec['planted']}")
    pairs = []
    for line in (out_dir / "pairs.tsv").read_text(encoding="utf-8").splitlines():
        pair_id, source, target = line.split("\t")
        expect(source == "[en] " + " ".join(reversed(target.split())), f"{pair_id}: source is not the reversed target")
        pairs.append({"id": pair_id, "source": source, "target": target})
    expect(len(pairs) == stats["accepted"], "pairs.tsv does not hold every accepted pair")
    return pairs


def check_engine_build(out_dir: Path, pairs: list[dict]) -> dict:
    records = read_manifest_lines(out_dir / "manifest.jsonl")
    decoded = _check_records(records, out_dir, pairs, gen.UNITS_K)
    for pair, samples in zip(pairs, decoded):
        n = gen.SAMPLES_PER_CHAR * len(pair["source"])
        expect(len(samples) == n, f"{pair['id']}: {len(samples)} samples, expected {n}")
    return {"audio_s": sum(r["duration_s"] for r in records), "ids": {r["id"] for r in records}}


def check_stats(stdout: str, spec: dict) -> None:
    summary = json.loads(stdout)
    expect(summary["records"] == spec["real_records"], f"stats counts {summary['records']} records")
    expect(math.isclose(summary["total_duration_s"], spec["real_duration_s"], rel_tol=1e-12),
           f"stats total {summary['total_duration_s']} != {spec['real_duration_s']}")


def check_sample(stdout: str, spec: dict, built_ids: set[str], n: int, real_weight: float) -> None:
    ids = stdout.split()
    expect(len(ids) == n, f"sample emitted {len(ids)} ids, expected {n}")
    real = sum(1 for i in ids if i in spec["real_ids"])
    unknown = sum(1 for i in ids if i not in spec["real_ids"] and i not in built_ids)
    expect(unknown == 0, f"{unknown} sampled ids are in neither manifest")
    sigma = math.sqrt(real_weight * (1 - real_weight) / n)
    expect(abs(real / n - real_weight) <= 4 * sigma, f"real share {real / n:.4f}, expected {real_weight}")
