"""speechaug benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a speechaug checkout. The program runs from ``src/``
(``PYTHONPATH=src python -m speechaug.cli``); nothing needs installing.

A run generates the workload's inputs from the seed, then repeats whole
rounds until about S seconds have been measured. With ``--trace 0`` a round
is one set-up run (the workload's main subcommand on a minimal input) plus
the workload's subcommands, each a separate process with tracing off, and
the end-to-end metrics are medians over rounds (``setup_s`` over at least
six set-up runs). With ``--trace 1``
untraced and traced rounds alternate; in a traced round each subcommand runs
in one process through ``speechaug.cli.main`` with spans taken around the
public functions (see tracer.py). The per-layer metrics are written to
``.bench_work/reports/`` and printed. Every round's outputs are checked (the
first in full, the rest by digest). The last stdout line is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import tracer

HERE = Path(__file__).resolve().parent

# Fixed chain seed: the firing pattern, and with it the DSP work per round,
# is the same for every workload seed. With it the augment_mixed set holds
# 16 kHz inputs on which only the noise stage fires (the SNR check needs one).
CHAIN_SEED = 13
WORKERS_BUILD_CHAIN = 1
WORKERS_PARALLEL = 2
SAMPLE_DRAWS = 100_000
REAL_WEIGHT = 0.3
# p50/p90 of per-call times are reported only over at least this many calls.
MIN_PERCENTILE_SAMPLES = 40
# setup_s is a median over at least this many set-up runs; a run whose rounds
# are long (corpus_engine holds two) adds set-up runs alone after its rounds.
MIN_SETUP_SAMPLES = 6


class StepFailed(Exception):
    pass


@dataclass
class Step:
    label: str
    wall_s: float
    rss_mb: float
    stdout: Path
    returncode: int
    attempted: int = 0
    failed: int = 0
    spans: object = None
    import_s: float = 0.0


class Runner:
    """Runs one speechaug subcommand as a child process through spawn.py,
    which reports the child's own wall time and peak resident set."""

    def __init__(self, root: Path, traced: bool):
        self.root = root
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def __call__(self, label: str, args: list[str], out: Path) -> Step:
        stdout, stderr = out / f"{label}.out", out / f"{label}.err"
        spans_path, report = out / f"{label}.spans.npz", out / f"{label}.spawn.json"
        if self.traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
        else:
            argv = [sys.executable, "-m", "speechaug.cli", *args]
        launcher = [sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(report), *argv]
        with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
            proc = subprocess.Popen(launcher, stdout=fo, stderr=fe, env=self.env, cwd=self.root)
            try:
                proc.wait()
            except BaseException:
                proc.terminate()
                proc.wait()
                raise
        result = json.loads(report.read_text(encoding="utf-8"))
        report.unlink()
        code = result["returncode"]
        if proc.returncode != 0 or code not in (0, 2):
            tail = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise StepFailed(f"{label} exited with code {code}:\n{tail}")
        step = Step(label, result["wall_s"], result["maxrss_kb"] / 1024.0, stdout, code)
        if self.traced:
            with np.load(spans_path) as data:
                step.spans, step.import_s = data["spans"], float(data["import_s"])
            spans_path.unlink()
        return step


def _records_in(manifest: Path) -> int:
    if not manifest.is_file():
        return 0
    return max(0, sum(1 for line in manifest.read_text(encoding="utf-8").splitlines() if line.strip()) - 1)


def _files(*paths: Path) -> list[Path]:
    out = []
    for p in paths:
        out.extend(sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p])
    return out


class BuildChain:
    name = "build_chain"

    def generate(self, inp: Path, seed: int) -> dict:
        return gen.make_build_chain(inp, seed)

    def _args(self, pairs: Path, out: Path, inp: Path) -> list[str]:
        return ["build", "--pairs", str(pairs), "--out", str(out), "--seed", str(CHAIN_SEED),
                "--units-k", str(gen.UNITS_K), "--noise-dir", str(inp / "noise"),
                "--workers", str(WORKERS_BUILD_CHAIN)]

    def setup_args(self, inp: Path, out: Path) -> list[str]:
        return self._args(inp / "setup_pairs.tsv", out / "setup", inp)

    def run_round(self, run: Runner, inp: Path, out: Path, spec: dict) -> list[Step]:
        step = run("build", self._args(inp / "pairs.tsv", out / "build", inp), out)
        step.attempted = len(spec["pairs"])
        step.failed = step.attempted - _records_in(out / "build" / "manifest.jsonl")
        return [step]

    def check(self, inp: Path, out: Path, spec: dict, seed: int) -> float:
        return checks.check_build_chain(out / "build", spec)["audio_s"]

    def outputs(self, out: Path) -> list[Path]:
        return _files(out / "build")


class AugmentMixed:
    name = "augment_mixed"

    def generate(self, inp: Path, seed: int) -> dict:
        return gen.make_augment_mixed(inp, seed)

    def _args(self, wavs: Path, out: Path, inp: Path) -> list[str]:
        return ["augment", "--in", str(wavs), "--out", str(out), "--seed", str(CHAIN_SEED),
                "--noise-dir", str(inp / "noise"), "--workers", str(WORKERS_PARALLEL)]

    def setup_args(self, inp: Path, out: Path) -> list[str]:
        return self._args(inp / "setup_wavs", out / "setup", inp)

    def run_round(self, run: Runner, inp: Path, out: Path, spec: dict) -> list[Step]:
        step = run("augment", self._args(inp / "wavs", out / "augment", inp), out)
        counts = json.loads(step.stdout.read_text(encoding="utf-8").splitlines()[-1])
        step.attempted, step.failed = counts["processed"] + counts["failed"], counts["failed"]
        return [step]

    def check(self, inp: Path, out: Path, spec: dict, seed: int) -> float:
        result = checks.check_augment_mixed(inp / "wavs", out / "augment", inp / "noise", spec, seed, CHAIN_SEED)
        return result["audio_s"]

    def outputs(self, out: Path) -> list[Path]:
        return _files(out / "augment")


class CorpusEngine:
    name = "corpus_engine"

    def generate(self, inp: Path, seed: int) -> dict:
        spec = gen.make_corpus_engine(inp, seed)
        spec["seed"] = seed
        return spec

    def _textaug(self, corpus: Path, out: Path) -> list[str]:
        return ["textaug", "--in", str(corpus), "--out", str(out), "--language", "de", "--to", "en",
                "--translator", "mock"]

    def setup_args(self, inp: Path, out: Path) -> list[str]:
        return self._textaug(inp / "setup_corpus.txt", out / "setup")

    def run_round(self, run: Runner, inp: Path, out: Path, spec: dict) -> list[Step]:
        text = run("textaug", self._textaug(inp / "corpus.txt", out / "text"), out)
        stats = json.loads((out / "text" / "stats.json").read_text(encoding="utf-8"))
        text.attempted, text.failed = stats["input_sentences"], stats["translator_failures"]

        lines = (out / "text" / "pairs.tsv").read_text(encoding="utf-8").splitlines()[: gen.ENGINE_PAIRS]
        (out / "engine_pairs.tsv").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        engine = shlex.join([sys.executable, str(HERE / "engine.py"), str(out / "engine_wavs")])
        build = run("build", ["build", "--pairs", str(out / "engine_pairs.tsv"), "--out", str(out / "build"),
                              "--seed", str(CHAIN_SEED), "--units-k", str(gen.UNITS_K), "--no-effects",
                              "--workers", str(WORKERS_PARALLEL), "--synthesizer", f"subprocess:{engine}",
                              "--src-lang", "en", "--tgt-lang", "de"], out)
        build.attempted = len(lines)
        build.failed = build.attempted - _records_in(out / "build" / "manifest.jsonl")

        stats_step = run("stats", ["stats", "--manifest", str(inp / "real.jsonl")], out)
        stats_step.attempted = spec["real_records"]
        stats_step.failed = spec["real_records"] - json.loads(stats_step.stdout.read_text())["records"]

        sample = run("sample", ["sample", "--manifest", f"real={inp / 'real.jsonl'}",
                                "--manifest", f"text_aug={out / 'build' / 'manifest.jsonl'}",
                                "--weights", f"real={REAL_WEIGHT},text_aug={1 - REAL_WEIGHT:g}",
                                "-n", str(SAMPLE_DRAWS), "--seed", str(spec["seed"])], out)
        sample.attempted = SAMPLE_DRAWS
        sample.failed = SAMPLE_DRAWS - len(sample.stdout.read_text().split())
        return [text, build, stats_step, sample]

    def check(self, inp: Path, out: Path, spec: dict, seed: int) -> float:
        pairs = checks.check_textaug(out / "text", spec)[: gen.ENGINE_PAIRS]
        checks.expect(len(pairs) == gen.ENGINE_PAIRS, f"only {len(pairs)} accepted pairs")
        built = checks.check_engine_build(out / "build", pairs)
        checks.check_stats((out / "stats.out").read_text(), spec)
        checks.check_sample((out / "sample.out").read_text(), spec, built["ids"], SAMPLE_DRAWS, REAL_WEIGHT)
        return built["audio_s"]

    def outputs(self, out: Path) -> list[Path]:
        return _files(out / "text", out / "build", out / "stats.out", out / "sample.out")


WORKLOADS = {w.name: w for w in (BuildChain, AugmentMixed, CorpusEngine)}


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _print_steps(tag: str, steps: list[Step]) -> None:
    for s in steps:
        print(f"{tag} {s.label}: attempted {s.attempted} failed {s.failed} "
              f"wall {s.wall_s:.3f} s peak_rss {s.rss_mb:.1f} MB", flush=True)


class Session:
    def __init__(self, workload, root: Path, seed: int):
        self.wl = workload
        self.seed = seed
        self.work = _fresh(root / ".bench_work" / workload.name)
        self.inp = self.work / "in"
        self.spec = workload.generate(self.inp, seed)
        self.audio_s: float | None = None
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0

    def setup(self, run: Runner, out: Path) -> Step:
        """The workload's main subcommand on its minimal input."""
        step = run("setup", self.wl.setup_args(self.inp, out), out)
        checks.expect(step.returncode == 0, f"setup run exited with code {step.returncode}")
        return step

    def round(self, run: Runner, with_setup: bool) -> tuple[list[Step], Step | None, float]:
        """Run one round; check it (in full the first time, then by digest)."""
        out = _fresh(self.work / "round")
        t0 = time.perf_counter()
        setup = self.setup(run, out) if with_setup else None
        steps = self.wl.run_round(run, self.inp, out, self.spec)
        elapsed = time.perf_counter() - t0
        for s in steps:
            self.attempted += s.attempted
            self.failed += s.failed
            checks.expect(s.failed == 0, f"{s.failed} of {s.attempted} {s.label} items failed")
        if self.audio_s is None:
            self.audio_s = self.wl.check(self.inp, out, self.spec, self.seed)
        digest = checks.digest(self.wl.outputs(out), out)
        checks.expect(self.digest in (None, digest), "outputs differ between rounds of one run")
        self.digest = digest
        return steps, setup, elapsed

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


def bench_units(root: Path, key: str) -> dict[str, str]:
    """Metric name -> unit for one metric list of BENCHMARK.json."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[key]}


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}


def measure(session: Session, root: Path, seconds: float) -> dict:
    run = Runner(root, traced=False)
    samples: dict[str, list[float]] = {k: [] for k in ("setup_s", "wall_s", "peak_rss_mb")}
    measured = 0.0
    n = 0
    while True:
        steps, setup, elapsed = session.round(run, with_setup=True)
        n += 1
        measured += elapsed
        _print_steps(f"round {n}", [setup, *steps])
        samples["setup_s"].append(setup.wall_s)
        samples["wall_s"].append(sum(s.wall_s for s in steps))
        samples["peak_rss_mb"].append(max(s.rss_mb for s in steps))
        if measured + 0.5 * measured / n >= seconds:
            break
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        setup = session.setup(run, _fresh(session.work / "setup"))
        _print_steps("extra", [setup])
        samples["setup_s"].append(setup.wall_s)
    print(f"{n} rounds, {session.audio_s:.3f} s of audio per round", flush=True)
    metrics = _with_units({name: _median(v) for name, v in samples.items()}, bench_units(root, "end_to_end"))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.4f} {m['unit']}  (samples: "
              + ", ".join(f"{v:.4f}" for v in samples[name]) + ")", flush=True)
    return metrics


def trace(session: Session, root: Path, seconds: float, report_dir: Path) -> dict:
    untraced, traced = Runner(root, traced=False), Runner(root, traced=True)
    ref_wall: list[float] = []
    ref_rate: dict[str, list[float]] = {"textaug": [], "sample": [], "build": [], "augment": []}
    rounds: list[dict] = []
    import_s: list[float] = []
    traced_wall: list[float] = []
    chain_ms: list[float] = []
    measured = 0.0
    while True:
        # an untraced round next to each traced one gives the tracing overhead
        ref_steps, _, _ = session.round(untraced, with_setup=False)
        _print_steps(f"untraced round {len(rounds) + 1}", ref_steps)
        ref_wall.append(sum(s.wall_s for s in ref_steps))
        for s in ref_steps:
            if s.label in ref_rate:
                work = session.audio_s if s.label in ("build", "augment") else s.attempted
                ref_rate[s.label].append(work / s.wall_s)

        steps, _, elapsed = session.round(traced, with_setup=False)
        measured += elapsed + ref_wall[-1]
        _print_steps(f"traced round {len(rounds) + 1}", steps)
        totals = tracer.layer_totals([s.spans for s in steps])
        rounds.append(tracer.layer_metrics(totals))
        import_s.extend(s.import_s for s in steps)
        traced_wall.append(sum(s.wall_s for s in steps))
        chain_ms.extend(1e3 * d for d in totals["chain.apply_chain"]["durations"])
        if measured >= seconds and not 0 < len(chain_ms) < MIN_PERCENTILE_SAMPLES:
            break

    values: dict[str, float] = {}
    for name in rounds[0]:
        series = [r[name] for r in rounds]
        if name.endswith((".calls", ".conversions")):
            checks.expect(len(set(series)) == 1, f"{name} differs between traced rounds: {series}")
            values[name] = series[0]
        else:
            values[name] = _median(series)
    enough = len(chain_ms) >= MIN_PERCENTILE_SAMPLES
    values["chain.apply_chain.p50_ms"] = float(np.percentile(chain_ms, 50)) if enough else 0.0
    values["chain.apply_chain.p90_ms"] = float(np.percentile(chain_ms, 90)) if enough else 0.0
    values["chain.apply_chain.percentile_samples"] = len(chain_ms) if enough else 0
    values["speechaug.import_s"] = _median(import_s)
    values["tracing.overhead_s"] = _median(traced_wall) - _median(ref_wall)
    for name, label in (("cli.textaug.lines_per_s", "textaug"), ("cli.sample.draws_per_s", "sample"),
                        ("cli.build.audio_rtf", "build"), ("cli.augment.audio_rtf", "augment")):
        values[name] = _median(ref_rate[label]) if ref_rate[label] else 0.0

    metrics = _with_units(values, bench_units(root, "per_layer"))
    report = {
        "workload": session.wl.name, "seed": session.seed, "traced_rounds": len(rounds),
        "untraced_wall_s": ref_wall, "traced_wall_s": traced_wall, "metrics": metrics,
        "per_round": rounds,
    }
    report_dir.mkdir(parents=True, exist_ok=True)
    report_path = report_dir / f"{session.wl.name}-seed{session.seed}-trace.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", flush=True)
    print(f"trace report: {report_path}", flush=True)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a SIGTERM unwinds like an exception, so the running child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "speechaug" / "cli.py").is_file():
        print(f"error: {root} is not a speechaug checkout (no src/speechaug/cli.py)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    session = Session(WORKLOADS[args.workload](), root, args.seed)
    try:
        if args.trace:
            metrics = trace(session, root, args.seconds, root / ".bench_work" / "reports")
        else:
            metrics = measure(session, root, args.seconds)
        correct = True
    except (checks.CheckFailed, StepFailed) as err:
        print(f"FAILED: {err}", flush=True)
        metrics, correct = {}, False
    finally:
        session.close()
    print(json.dumps({"correct": correct, "attempted": max(1, session.attempted),
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
