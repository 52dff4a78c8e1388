"""Port contracts: unit sequences, the bundled mocks, subprocess adapters."""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import speechaug
from speechaug import (
    AudioBuffer,
    ChainStageError,
    EmptyText,
    MalformedManifest,
    MalformedText,
    MockRejected,
    MockSynthesizer,
    MockTranslator,
    MockUnitizer,
    PortError,
    SpeechAugError,
    SubprocessSynthesizer,
    SubprocessTranslator,
    SynthesizerPort,
    TranslatorPort,
    UnitizerPort,
    UnitSequence,
    WorkerDied,
    reduce_units,
)

from speechaug import ports
from speechaug.ports import ordered_map

from conftest import fft_peak_hz


def brute_force_reduce(units: list[int]) -> list[int]:
    out: list[int] = []
    for u in units:
        if not out or out[-1] != u:
            out.append(u)
    return out


class TestUnitSequence:
    def test_coerces_to_int_tuple(self):
        seq = UnitSequence([np.int64(3), 4.0, 5])
        assert seq.units == (3, 4, 5)
        assert all(type(u) is int for u in seq.units)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            UnitSequence((1, -2, 3))

    def test_reduced_flag_is_checked(self):
        with pytest.raises(ValueError):
            UnitSequence((5, 5, 7), reduced=True)
        assert UnitSequence((5, 7, 5), reduced=True).reduced

    def test_len(self):
        assert len(UnitSequence((1, 2, 2))) == 3
        assert len(UnitSequence(())) == 0


class TestReduceUnits:
    def test_collapses_runs(self):
        seq = reduce_units(UnitSequence((5, 5, 7, 7, 7, 5)))
        assert seq.units == (5, 7, 5)
        assert seq.reduced

    def test_empty(self):
        assert reduce_units(UnitSequence(())).units == ()

    def test_already_reduced_is_returned_unchanged(self):
        seq = UnitSequence((1, 2, 3), reduced=True)
        assert reduce_units(seq) is seq

    def test_idempotent(self):
        once = reduce_units(UnitSequence((9, 9, 9, 1, 1, 9)))
        assert reduce_units(once) is once

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    def test_matches_brute_force(self, units):
        reduced = reduce_units(UnitSequence(units))
        assert list(reduced.units) == brute_force_reduce(units)
        assert all(a != b for a, b in zip(reduced.units, reduced.units[1:]))


class TestMockTranslator:
    def test_tagged_reversal(self):
        port = MockTranslator()
        assert port.translate("a b c", "src", "tgt") == "[tgt] c b a"

    def test_plain_reversal(self):
        port = MockTranslator(tag_output=False)
        assert port.translate("good morning", "en", "de") == "morning good"

    def test_rejects_empty(self):
        with pytest.raises(MockRejected):
            MockTranslator().translate("   ", "a", "b")

    def test_deterministic(self):
        port = MockTranslator()
        a = port.translate("one two three", "x", "y")
        b = port.translate("one two three", "x", "y")
        assert a == b

    def test_satisfies_protocol(self):
        assert isinstance(MockTranslator(), TranslatorPort)


class TestMockSynthesizer:
    def test_duration_is_fifty_ms_per_character(self):
        port = MockSynthesizer(sample_rate=16000)
        out = port.synthesize("abcdefghij", "xx")
        assert len(out.samples) == 8000
        assert out.sample_rate == 16000

    def test_identical_characters_give_identical_segments(self):
        out = MockSynthesizer(16000).synthesize("aa", "xx")
        half = len(out.samples) // 2
        np.testing.assert_array_equal(out.samples[:half], out.samples[half:])

    def test_peak_amplitude(self):
        out = MockSynthesizer(16000).synthesize("hello world", "xx")
        assert float(np.max(np.abs(out.samples))) <= 0.3 + 1e-7

    def test_character_frequency(self):
        # "A" is code point 65, so its tone sits at 200 + 10 * 65 = 850 Hz
        port = MockSynthesizer(sample_rate=16000)
        out = port.synthesize("AAAA", "xx")
        assert fft_peak_hz(out) == pytest.approx(850.0, abs=10.0)

    def test_rejects_empty(self):
        with pytest.raises(EmptyText):
            MockSynthesizer().synthesize("", "xx")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            MockSynthesizer(sample_rate=0)

    def test_deterministic(self):
        a = MockSynthesizer(8000).synthesize("same text", "xx")
        b = MockSynthesizer(8000).synthesize("same text", "xx")
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_satisfies_protocol(self):
        assert isinstance(MockSynthesizer(), SynthesizerPort)


class TestMockUnitizer:
    def test_silence_maps_to_unit_zero(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        seq = MockUnitizer(vocabulary_size=50).unitize(buf)
        assert set(seq.units) == {0}

    def test_one_unit_per_twenty_ms(self):
        buf = AudioBuffer(np.zeros(16000), 16000)
        seq = MockUnitizer(vocabulary_size=50).unitize(buf)
        assert len(seq) == 50
        assert not seq.reduced

    def test_constant_level_lands_in_expected_bin(self):
        # a constant signal's RMS equals its level, so the bin is direct
        buf = AudioBuffer(np.full(3200, 0.55), 16000)
        seq = MockUnitizer(vocabulary_size=10).unitize(buf)
        assert set(seq.units) == {5}

    def test_full_scale_clamps_to_top_bin(self):
        buf = AudioBuffer(np.full(3200, 1.0), 16000)
        seq = MockUnitizer(vocabulary_size=10).unitize(buf)
        assert set(seq.units) == {9}

    def test_trailing_partial_frame_is_kept(self):
        hop = round(0.02 * 16000)
        buf = AudioBuffer(np.full(hop + 10, 0.35), 16000)
        seq = MockUnitizer(vocabulary_size=10).unitize(buf)
        assert len(seq) == 2
        assert seq.units == (3, 3)

    def test_empty_buffer_rejected_upstream(self):
        # one sample is one partial frame, measured on that sample alone
        buf = AudioBuffer(np.array([0.12]), 16000)
        seq = MockUnitizer(vocabulary_size=10).unitize(buf)
        assert seq.units == (1,)

    def test_units_stay_in_vocabulary(self, rng):
        buf = AudioBuffer(rng.uniform(-1.0, 1.0, 12345), 16000)
        k = 25
        seq = MockUnitizer(vocabulary_size=k).unitize(buf)
        assert all(0 <= u < k for u in seq.units)

    @settings(max_examples=300, deadline=None)
    @given(
        rate=st.sampled_from([7, 50, 8000, 16000, 22050, 44100]),
        k=st.integers(2, 499),
        data=st.data(),
    )
    def test_matches_per_frame_reference(self, rate, k, data):
        hop = max(1, round(0.02 * rate))
        edges = st.sampled_from([0, 1, hop - 1, hop, hop + 1])
        n = data.draw(st.one_of(edges, st.integers(0, 4 * hop)))
        level = data.draw(st.floats(0.0, 1.0))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        buf = AudioBuffer(level * gen.uniform(-1.0, 1.0, n), rate)
        expected = []
        for start in range(0, n, hop):
            # the tail is measured on its own samples; float32 squares are exact in float64
            frame = [float(v) for v in buf.samples[start : start + hop]]
            rms = math.sqrt(math.fsum(v * v for v in frame) / len(frame))
            expected.append(min(k - 1, int(rms * k)))
        assert MockUnitizer(vocabulary_size=k).unitize(buf).units == tuple(expected)

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            MockUnitizer(vocabulary_size=1)

    def test_satisfies_protocol(self):
        assert isinstance(MockUnitizer(50), UnitizerPort)


def write_child(tmp_path, name: str, body: str) -> list[str]:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return [sys.executable, str(path)]


TRANSLATOR_CHILD = """
    import sys
    for line in sys.stdin:
        from_lang, to_lang, sentence = line.rstrip("\\n").split("\\t")
        print(f"{to_lang}:{sentence.upper()}", flush=True)
"""

ONE_SHOT_CHILD = """
    import sys
    line = sys.stdin.readline()
    print("only answer", flush=True)
"""

# answers one request, closes its stdin and lives on for a second
STDIN_CLOSING_CHILD = """
    import os, sys, time
    sys.stdin.readline()
    print("only answer", flush=True)
    sys.stdin.close()
    os.close(0)
    time.sleep(1)
"""


class TestSubprocessTranslator:
    def test_round_trip(self, tmp_path):
        cmd = write_child(tmp_path, "mt.py", TRANSLATOR_CHILD)
        with SubprocessTranslator(cmd) as port:
            assert port.translate("good morning", "en", "de") == "de:GOOD MORNING"
            assert port.translate("second call", "en", "fr") == "fr:SECOND CALL"

    def test_newlines_are_flattened_not_smuggled(self, tmp_path):
        cmd = write_child(tmp_path, "mt.py", TRANSLATOR_CHILD)
        with SubprocessTranslator(cmd) as port:
            assert port.translate("two\nlines", "en", "de") == "de:TWO LINES"

    def test_field_that_is_not_utf8_raises_port_error_and_sends_nothing(self, tmp_path):
        # a lone surrogate, as argv bytes that are not UTF-8 become
        cmd = write_child(tmp_path, "mt.py", TRANSLATOR_CHILD)
        with SubprocessTranslator(cmd) as port:
            with pytest.raises(PortError, match="surrogates not allowed"):
                port.translate("good morning", "\udcff", "de")
            assert port.translate("next call", "en", "de") == "de:NEXT CALL"

    def test_child_death_raises_port_error(self, tmp_path):
        cmd = write_child(tmp_path, "once.py", ONE_SHOT_CHILD)
        with SubprocessTranslator(cmd) as port:
            assert port.translate("first", "a", "b") == "only answer"
            with pytest.raises(PortError):
                port.translate("second", "a", "b")

    def test_child_that_closes_its_stdin_raises_port_error(self, tmp_path):
        # a BrokenPipeError would end a command as if its output were a
        # closed pipe: with exit code 0
        cmd = write_child(tmp_path, "closing.py", STDIN_CLOSING_CHILD)
        with SubprocessTranslator(cmd) as port:
            assert port.translate("first", "a", "b") == "only answer"
            for _ in range(2):
                with pytest.raises(PortError, match="closed its stdin|exited with code 0"):
                    port.translate("second", "a", "b")


def synth_child_source(tmp_path) -> str:
    return f"""
    import math, struct, sys

    out_dir = {str(tmp_path)!r}
    rate = 8000
    count = 0
    for line in sys.stdin:
        lang, sentence = line.rstrip("\\n").split("\\t")
        if sentence == "missing":
            print(out_dir + "/never_written.wav", flush=True)
            continue
        n = 2000
        frames = b"".join(
            struct.pack("<h", int(32767 * 0.4 * math.sin(2 * math.pi * 440 * i / rate)))
            for i in range(n)
        )
        path = f"{{out_dir}}/utt{{count}}.wav"
        count += 1
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
        print(path, flush=True)
    """


class TestSubprocessSynthesizer:
    def test_loads_and_resamples_to_declared_rate(self, tmp_path):
        cmd = write_child(tmp_path, "tts.py", synth_child_source(tmp_path))
        with SubprocessSynthesizer(cmd, sample_rate=16000) as port:
            out = port.synthesize("hello", "en")
        assert out.sample_rate == 16000
        # child writes 2000 frames at 8 kHz, so 0.25 s becomes 4000 samples
        assert len(out.samples) == 4000
        assert fft_peak_hz(out) == pytest.approx(440.0, abs=5.0)

    def test_keeps_rate_when_it_matches(self, tmp_path):
        cmd = write_child(tmp_path, "tts.py", synth_child_source(tmp_path))
        with SubprocessSynthesizer(cmd, sample_rate=8000) as port:
            out = port.synthesize("hello", "en")
        assert out.sample_rate == 8000
        assert len(out.samples) == 2000

    def test_unreadable_path_raises_port_error(self, tmp_path):
        cmd = write_child(tmp_path, "tts.py", synth_child_source(tmp_path))
        with SubprocessSynthesizer(cmd, sample_rate=16000) as port:
            with pytest.raises(PortError):
                port.synthesize("missing", "en")

    def test_rejects_bad_rate(self, tmp_path):
        with pytest.raises(ValueError):
            SubprocessSynthesizer(["true"], sample_rate=-1)


# Answers a request "language<TAB>n" with a fresh 8 kHz WAV of n samples.
COUNTING_SYNTH_CHILD = """
    import struct, sys

    out_dir = sys.argv[1]
    for count, line in enumerate(sys.stdin):
        n = int(line.rstrip("\\n").split("\\t")[1])
        frames = struct.pack(f"<{n}h", *range(n))
        path = f"{out_dir}/utt{count}.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVE")
            fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16))
            fh.write(b"data" + struct.pack("<I", len(frames)) + frames)
        print(path, flush=True)
"""

# Eight threads share one translator and one synthesizer; prints how many
# of the 800 calls got the answer to their own request.
EIGHT_THREAD_CALLER = """
    import sys, threading
    from speechaug import SubprocessSynthesizer, SubprocessTranslator

    mt_script, tts_script, out_dir = sys.argv[1:]
    translator = SubprocessTranslator([sys.executable, mt_script])
    synthesizer = SubprocessSynthesizer([sys.executable, tts_script, out_dir], sample_rate=8000)
    own_answers = []

    def caller(t):
        for i in range(50):
            if translator.translate(f"t{t} c{i}", "en", "de") == f"de:T{t} C{i}":
                own_answers.append(1)
            n = 1 + 50 * t + i
            if len(synthesizer.synthesize(str(n), "en").samples) == n:
                own_answers.append(1)

    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    translator.close()
    synthesizer.close()
    print(len(own_answers))
"""


def test_one_port_serves_many_threads(tmp_path):
    # run in a child process: ports that do not serialize their requests
    # deadlock here, and the timeout turns that into a failure
    mt = write_child(tmp_path, "mt.py", TRANSLATOR_CHILD)[1]
    tts = write_child(tmp_path, "tts.py", COUNTING_SYNTH_CHILD)[1]
    caller = write_child(tmp_path, "caller.py", EIGHT_THREAD_CALLER)[1]
    package_root = str(Path(speechaug.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, caller, mt, tts, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("800 calls from 8 threads on two ports did not finish in 60 s")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["800"], done.stderr


# (workers, processes): serial, a thread pool, forked worker processes
MODES = [
    pytest.param(1, False, id="serial"),
    pytest.param(4, False, id="threads"),
    pytest.param(4, True, id="processes"),
]


def logging_pids(directory: Path, fn):
    """``fn``, which first leaves a file named after the pid it runs in."""

    def logged(item):
        (directory / str(os.getpid())).touch()
        return fn(item)

    return logged


def assert_reaped(directory: Path) -> None:
    """Every pid logged under ``directory`` is gone: no running child and
    no zombie is left to this process."""
    for path in directory.iterdir():
        if int(path.name) != os.getpid():
            with pytest.raises(ChildProcessError):
                os.waitpid(int(path.name), os.WNOHANG)


class TestOrderedMap:
    @pytest.fixture(autouse=True)
    def four_cpus_and_a_deadline(self, monkeypatch):
        # the worker cap is the same on every box, and a test that kills a
        # worker never runs its items in the pytest process itself
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

        def expire(signum, frame):
            raise TimeoutError("ordered_map did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("workers, processes", MODES)
    def test_typed_error_takes_its_own_slot(self, workers, processes):
        def fn(i: int) -> int:
            if i == 2:
                raise MockRejected(f"item {i} refused")
            return i * i

        outcomes = list(ordered_map(fn, range(6), workers, processes=processes))
        assert isinstance(outcomes[2], MockRejected)
        assert str(outcomes[2]) == "item 2 refused"
        assert [o for i, o in enumerate(outcomes) if i != 2] == [0, 1, 9, 16, 25]

    @pytest.mark.parametrize("workers, processes", MODES)
    def test_other_exceptions_propagate(self, workers, processes):
        def fn(i: int) -> int:
            if i == 3:
                raise RuntimeError("a bug, not an item failure")
            return i

        with pytest.raises(RuntimeError, match="a bug"):
            list(ordered_map(fn, range(6), workers, processes=processes))

    @pytest.mark.parametrize("workers, processes", MODES)
    def test_input_order_whatever_the_finishing_order(self, workers, processes):
        def fn(i: int) -> int:
            time.sleep(0.002 * (8 - i))
            return i

        assert list(ordered_map(fn, range(8), workers, processes=processes)) == list(range(8))

    def test_processes_return_what_the_children_computed(self):
        outcomes = list(ordered_map(lambda i: (i, os.getpid()), range(8), 2, processes=True))
        assert [i for i, _ in outcomes] == list(range(8))
        assert os.getpid() not in {pid for _, pid in outcomes}

    @pytest.mark.parametrize("processes", [False, True], ids=["threads", "processes"])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, processes):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def fn(i: int) -> tuple[int, int]:
            time.sleep(0.005)
            return os.getpid(), threading.get_ident()

        outcomes = list(ordered_map(fn, range(6), 1000, processes=processes))
        assert len(set(outcomes)) <= 2

    def test_processes_start_no_thread(self):
        # the caller's thread drives the children itself
        threads = threading.active_count()
        for i, outcome in enumerate(ordered_map(lambda i: i, range(200), 4, processes=True)):
            assert outcome == i
            assert threading.active_count() == threads

    def test_more_indices_than_a_pipe_holds(self):
        # 20,000 pickled items are more than a 64 KiB pipe buffer holds: a
        # queue written before the answers are read would deadlock here
        assert list(ordered_map(lambda i: 2 * i, range(20_000), 2, processes=True)) == [
            2 * i for i in range(20_000)
        ]

    def test_killed_child_is_a_typed_error(self):
        def fn(i: int) -> int:
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(WorkerDied, match=r"killed by signal 9 during item 4"):
            list(ordered_map(fn, range(6), 2, processes=True))

    @pytest.mark.parametrize("kept", [0, 1, 4096, None], ids=["none", "1 byte", "4 KiB", "half"])
    def test_truncated_answer_is_a_typed_error(self, monkeypatch, kept):
        # the child writes the first bytes of its answer to item 3 and is
        # killed: the parent reads a pickle cut short
        send = ports._send

        def cut_send(pipe, message):
            if message == (True, (3, b"x" * 100_000)):
                data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
                pipe.write(data[: len(data) // 2 if kept is None else kept])
                pipe.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            send(pipe, message)

        monkeypatch.setattr(ports, "_send", cut_send)
        outcomes = ordered_map(lambda i: (i, b"x" * 100_000), range(6), 2, processes=True)
        died = r"^worker process \d+ was killed by signal 9 during item 4$"
        with pytest.raises(WorkerDied, match=died):
            list(outcomes)

    def test_large_answers_arrive_whole(self):
        # answers of 300-600 KB are several pipe buffers each
        outcomes = ordered_map(
            lambda i: bytes([i]) * (300_000 + 7_500 * i), range(40), 2, processes=True
        )
        for i, outcome in enumerate(outcomes):
            assert outcome == bytes([i]) * (300_000 + 7_500 * i)

    def test_answer_that_does_not_pickle_leaves_the_pipe_clean(self):
        # the first answer fails to pickle after a large picklable part, and
        # so does the exception the child then sends in its place
        def fn(i: int) -> object:
            if i == 1:
                return [b"x" * 200_000, lambda: None]
            if i == 2:
                raise ValueError(b"y" * 200_000, lambda: None)
            return i

        outcomes = ordered_map(fn, range(3), 2, processes=True)
        assert next(outcomes) == 0
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            next(outcomes)
        outcomes = ordered_map(fn, [0, 2, 3], 2, processes=True)
        assert next(outcomes) == 0
        with pytest.raises(RuntimeError, match="^ValueError: "):
            next(outcomes)

    @pytest.mark.parametrize("ending", ["return", "typed failure", "bug", "killed"])
    def test_no_child_outlives_the_call(self, tmp_path, ending):
        def fn(i: int) -> int:
            if i == 3 and ending == "typed failure":
                raise MockRejected("refused")
            if i == 3 and ending == "bug":
                raise RuntimeError("a bug")
            if i == 3 and ending == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.002)
            return i

        with contextlib.suppress(RuntimeError, WorkerDied):
            list(ordered_map(logging_pids(tmp_path, fn), range(8), 2, processes=True))
        assert {int(p.name) for p in tmp_path.iterdir()} - {os.getpid()}
        assert_reaped(tmp_path)

    @pytest.mark.parametrize("workers, processes", MODES)
    def test_pulls_from_the_caller_a_window_ahead(self, workers, processes):
        pulled_by = []

        def numbers():
            for i in range(500):
                pulled_by.append(threading.get_ident())
                yield i

        outcomes = ordered_map(lambda i: i, numbers(), workers, processes=processes)
        for position, outcome in enumerate(outcomes, 1):
            assert outcome == position - 1
            assert len(pulled_by) < position + ports._AHEAD * workers
        assert len(pulled_by) == 500
        assert set(pulled_by) == {threading.get_ident()}

    @pytest.mark.parametrize("workers, processes", MODES)
    def test_close_after_the_first_outcome_leaves_no_worker(self, tmp_path, workers, processes):
        threads = threading.active_count()
        outcomes = ordered_map(
            logging_pids(tmp_path, lambda i: i), itertools.count(), workers, processes=processes
        )
        assert next(outcomes) == 0
        outcomes.close()
        assert threading.active_count() == threads
        if processes:
            assert {int(p.name) for p in tmp_path.iterdir()} - {os.getpid()}
        assert_reaped(tmp_path)

    def test_thread_mode_memory_stays_flat_as_the_input_grows(self):
        def peak(count: int) -> int:
            tracemalloc.start()
            try:
                collections.deque(ordered_map(lambda i: i, range(count), 2), maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(10_000)
        assert peak(100_000) < 2 * small


def all_subclasses(cls: type) -> set[type]:
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | all_subclasses(sub)
    return found


# constructor arguments of the errors whose __init__ takes more than a message
ERROR_ARGS = {
    ChainStageError: (2, "pitch", ValueError("x")),
    MalformedManifest: (3, "not a JSON object"),
    MalformedText: ("corpus.txt", 4, "invalid start byte"),
}
PACKAGE_ERRORS = sorted(
    {cls for cls in all_subclasses(SpeechAugError) if cls.__module__ == "speechaug.errors"},
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", [SpeechAugError, *PACKAGE_ERRORS], ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    err = cls(*ERROR_ARGS.get(cls, ("something failed",)))
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls
    assert str(copy) == str(err)
    assert vars(copy) == vars(err)
