"""Traced runs: span recording around speechaug's public functions, and the
per-layer numbers derived from the spans.

As a script, ``python tracer.py SPANS.npz ARGS...`` imports speechaug, wraps
every public function named in LAYERS at each module attribute that holds it,
runs ``speechaug.cli.main(ARGS)`` in this one process and writes the spans
when the subcommand ends. Nothing inside the program is changed; the spans
are taken from outside, at the call boundaries.

A span is (id, name, start, end, parent, thread, amount). The parent is the
innermost open span of the same thread; a call that starts a worker thread's
stack is attributed to the innermost open span of the main thread, which is
the call that started the pool. ``amount`` is the work the call did in the
unit its metric divides by: seconds of audio, records, or 1 for a bank that
was converted to a new rate.
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import count


def _audio_arg(i):
    return lambda args, result: args[i].duration_seconds


def _audio_result(args, result):
    return result.duration_seconds


def _len_arg(i):
    return lambda args, result: len(args[i])


def _len_result(args, result):
    return len(result)


def _converted(args, result):
    return 0.0 if result is args[0] else 1.0


# (span name, module, attribute path, amount of work or None)
LAYERS = (
    ("audio.load_wav", "speechaug.audio", "load_wav", _audio_result),
    ("audio.save_wav", "speechaug.audio", "save_wav", _audio_arg(0)),
    ("audio.resample", "speechaug.audio", "resample", _audio_arg(0)),
    ("effects.apply_speed", "speechaug.effects", "apply_speed", _audio_arg(0)),
    ("effects.apply_pitch", "speechaug.effects", "apply_pitch", _audio_arg(0)),
    ("effects.apply_lowpass", "speechaug.effects", "apply_lowpass", _audio_arg(0)),
    ("effects.NoiseBank.from_dir", "speechaug.effects", "NoiseBank.from_dir", None),
    ("effects.NoiseBank.at_rate", "speechaug.effects", "NoiseBank.at_rate", _converted),
    ("chain.apply_chain", "speechaug.chain", "apply_chain", _audio_arg(1)),
    ("ports.MockSynthesizer.synthesize", "speechaug.ports", "MockSynthesizer.synthesize", _audio_result),
    ("ports.SubprocessSynthesizer.synthesize", "speechaug.ports", "SubprocessSynthesizer.synthesize", _audio_result),
    ("ports.MockUnitizer.unitize", "speechaug.ports", "MockUnitizer.unitize", _audio_arg(1)),
    ("ports.reduce_units", "speechaug.ports", "reduce_units", None),
    ("ports.MockTranslator.translate", "speechaug.ports", "MockTranslator.translate", None),
    ("textpipe.clean_sentence", "speechaug.textpipe", "clean_sentence", None),
    ("textpipe.filter_pair", "speechaug.textpipe", "filter_pair", None),
    ("textpipe.run_text_stage", "speechaug.textpipe", "run_text_stage", None),
    ("textpipe.write_pairs_tsv", "speechaug.textpipe", "write_pairs_tsv", None),
    ("textpipe.read_pairs_tsv", "speechaug.textpipe", "read_pairs_tsv", None),
    ("manifest.build_manifest", "speechaug.manifest", "build_manifest", None),
    ("manifest.write_manifest", "speechaug.manifest", "write_manifest", _len_arg(0)),
    ("manifest.read_manifest", "speechaug.manifest", "read_manifest", _len_result),
    ("manifest.sample_stream", "speechaug.manifest", "sample_stream", None),
    ("manifest.corpus_stats", "speechaug.manifest", "corpus_stats", None),
    ("cli.augment", "speechaug.cli", "cmd_augment", None),
    ("cli.build", "speechaug.cli", "cmd_build", None),
    ("cli.textaug", "speechaug.cli", "cmd_textaug", None),
    ("cli.sample", "speechaug.cli", "cmd_sample", None),
    ("cli.stats", "speechaug.cli", "cmd_stats", None),
)

# Generator functions: each next() is one span (one draw).
GENERATORS = {"manifest.sample_stream"}


class Recorder:
    """Keeps spans in memory; one stack of open span ids per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def wrap(self, name_idx: int, fn, amount):
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = recorder._parent(stack)
            span_id = next(recorder._ids)
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            work = amount(args, result) if amount else 0.0
            recorder.spans.append((span_id, name_idx, t0, t1, parent, threading.get_ident(), work))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name_idx: int, fn):
        recorder = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    stack = recorder._stack()
                    parent = recorder._parent(stack)
                    span_id = next(recorder._ids)
                    t0 = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    t1 = time.perf_counter()
                    recorder.spans.append((span_id, name_idx, t0, t1, parent, threading.get_ident(), 1.0))
                    yield item

            return steps()

        return traced


def install(recorder: Recorder) -> None:
    """Replace each LAYERS function at every speechaug module attribute
    holding it, and each listed method on its class."""
    for name_idx, (name, module_name, path, amount) in enumerate(LAYERS):
        module = sys.modules[module_name]
        if "." in path:
            cls_name, method = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(recorder.wrap(name_idx, raw.__func__, amount)))
            else:
                setattr(cls, method, recorder.wrap(name_idx, raw, amount))
            continue
        original = getattr(module, path)
        if name in GENERATORS:
            wrapped = recorder.wrap_generator(name_idx, original)
        else:
            wrapped = recorder.wrap(name_idx, original, amount)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "speechaug" or mod_name.startswith("speechaug."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)


def _child_main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import speechaug  # noqa: F401  (timed: package import is its own layer)
    import speechaug.cli

    import_s = time.perf_counter() - t0
    import numpy as np

    recorder = Recorder()
    install(recorder)
    try:
        code = speechaug.cli.main(cli_args)
    finally:
        spans = np.array(recorder.spans, dtype=np.float64).reshape(-1, 7)
        np.savez(out_path, spans=spans, import_s=import_s)
    return code


# ---- analysis (runs in the benchmark process) ----

NAMES = tuple(layer[0] for layer in LAYERS)


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, _name, t0, t1, parent, _thread, _amount in spans:
        if parent >= 0:
            children.setdefault(int(parent), []).append((t0, t1))
    out = {}
    for span_id, _name, t0, t1, _parent, _thread, _amount in spans:
        covered = 0.0
        end = -1.0
        for c0, c1 in sorted(children.get(int(span_id), ())):
            c0, c1 = max(c0, t0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[int(span_id)] = (t1 - t0) - covered
    return out


def layer_totals(span_arrays: list) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, total amount and the
    list of call durations, over the given span arrays (one per process)."""
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0.0, "durations": []} for name in NAMES}
    for spans in span_arrays:
        rows = [tuple(row) for row in spans.tolist()]
        self_of = _self_times(rows)
        for span_id, name_idx, t0, t1, _parent, _thread, amount in rows:
            entry = totals[NAMES[int(name_idx)]]
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += self_of[int(span_id)]
            entry["amount"] += amount
            entry["durations"].append(t1 - t0)
    return totals


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def layer_metrics(t: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics of one traced round."""

    def audio_ms(name):
        return _per(1e3 * t[name]["s"], t[name]["amount"])

    m = {}
    for name in ("audio.load_wav", "audio.resample", "effects.apply_speed", "effects.apply_pitch",
                 "effects.apply_lowpass", "effects.NoiseBank.at_rate", "chain.apply_chain"):
        m[f"{name}.calls"] = t[name]["calls"]
    for name in ("audio.load_wav", "audio.save_wav", "audio.resample", "effects.apply_speed",
                 "effects.apply_pitch", "effects.apply_lowpass", "chain.apply_chain",
                 "ports.MockSynthesizer.synthesize", "ports.MockUnitizer.unitize"):
        m[f"{name}.ms_per_audio_s"] = audio_ms(name)
    m["effects.NoiseBank.from_dir.s"] = t["effects.NoiseBank.from_dir"]["s"]
    m["effects.NoiseBank.at_rate.conversions"] = int(t["effects.NoiseBank.at_rate"]["amount"])
    m["effects.NoiseBank.at_rate.s"] = t["effects.NoiseBank.at_rate"]["s"]
    ac = t["chain.apply_chain"]
    m["chain.apply_chain.self_ms_per_audio_s"] = _per(1e3 * ac["self_s"], ac["amount"])
    sub = t["ports.SubprocessSynthesizer.synthesize"]
    m["ports.SubprocessSynthesizer.synthesize.ms_per_call"] = _per(1e3 * sub["s"], sub["calls"])
    m["ports.SubprocessSynthesizer.synthesize.self_ms_per_call"] = _per(1e3 * sub["self_s"], sub["calls"])
    for name in ("ports.reduce_units", "ports.MockTranslator.translate", "textpipe.clean_sentence",
                 "textpipe.filter_pair"):
        m[f"{name}.us_per_call"] = _per(1e6 * t[name]["s"], t[name]["calls"])
    for name in ("textpipe.write_pairs_tsv", "textpipe.read_pairs_tsv", "manifest.corpus_stats"):
        m[f"{name}.s"] = t[name]["s"]
    for name in ("textpipe.run_text_stage", "manifest.build_manifest", "cli.augment", "cli.build",
                 "cli.textaug", "cli.sample", "cli.stats"):
        m[f"{name}.self_s"] = t[name]["self_s"]
    for name in ("manifest.write_manifest", "manifest.read_manifest"):
        m[f"{name}.us_per_record"] = _per(1e6 * t[name]["s"], t[name]["amount"])
    m["manifest.sample_stream.us_per_draw"] = _per(1e6 * t["manifest.sample_stream"]["s"],
                                                   t["manifest.sample_stream"]["calls"])
    return m


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
