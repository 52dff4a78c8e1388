"""Pluggable translation, synthesis and unitization ports, plus mocks.

The pipeline only ever sees these interfaces. The bundled mocks are
deterministic functions of their inputs, cheap enough to run the whole
pipeline end to end in tests; the subprocess adapters bridge to real
engines over a line-oriented stdin/stdout protocol (documented in the
README).
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import pickle
import signal
import struct
import subprocess
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import Any, BinaryIO, Protocol, TypeVar, runtime_checkable

from ._numpy import np
from .audio import AudioBuffer, load_wav, resample
from .errors import EmptyText, IoFailure, MockRejected, PortError, SpeechAugError, WorkerDied


@runtime_checkable
class TranslatorPort(Protocol):
    """Synchronous text translation.

    A port is safe to call from any number of threads; a port that needs
    serial calls serializes itself.
    """

    def translate(self, sentence: str, from_language: str, to_language: str) -> str: ...


@runtime_checkable
class SynthesizerPort(Protocol):
    """Text to speech at a fixed sample rate.

    A port is safe to call from any number of threads; a port that needs
    serial calls serializes itself.
    """

    sample_rate: int

    def synthesize(self, sentence: str, language: str) -> AudioBuffer: ...


@runtime_checkable
class UnitizerPort(Protocol):
    """Speech to a sequence of discrete unit ids in [0, vocabulary_size)."""

    vocabulary_size: int

    def unitize(self, buffer: AudioBuffer) -> "UnitSequence": ...


@dataclass(frozen=True)
class UnitSequence:
    """Discrete unit ids; ``reduced`` promises no two neighbours are equal."""

    units: tuple[int, ...]
    reduced: bool = False

    def __post_init__(self) -> None:
        units = tuple(map(int, self.units))
        object.__setattr__(self, "units", units)
        if units and min(units) < 0:
            raise ValueError("unit ids must be non-negative")
        if self.reduced and any(map(operator.eq, units, units[1:])):
            raise ValueError("sequence is marked reduced but has equal neighbours")

    def __len__(self) -> int:
        return len(self.units)


def reduce_units(sequence: UnitSequence) -> UnitSequence:
    """Collapse consecutive duplicate units into one.

    [5, 5, 7, 7, 7, 5] becomes [5, 7, 5]. Reducing an already-reduced
    sequence returns it unchanged.
    """
    if sequence.reduced:
        return sequence
    return UnitSequence(tuple(key for key, _ in groupby(sequence.units)), reduced=True)


class MockTranslator:
    """Reverses the token order and, by default, prefixes the target
    language in square brackets: "a b c" -> "[tgt] c b a".

    ``tag_output=False`` drops the prefix, leaving plain word reversal.
    Refuses inputs with no tokens.
    """

    def __init__(self, tag_output: bool = True):
        self.tag_output = tag_output

    def translate(self, sentence: str, from_language: str, to_language: str) -> str:
        tokens = sentence.split()
        if not tokens:
            raise MockRejected("cannot translate an empty sentence")
        reversed_text = " ".join(reversed(tokens))
        if self.tag_output:
            return f"[{to_language}] {reversed_text}"
        return reversed_text


class MockSynthesizer:
    """Maps each character to a 50 ms sine segment.

    Character with code point c becomes a tone at 200 + 10*(c mod 100) Hz
    with amplitude 0.3, so output duration is exactly 0.05 * len(sentence)
    seconds and identical characters produce identical segments.
    """

    def __init__(self, sample_rate: int = 16000):
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = sample_rate

    def synthesize(self, sentence: str, language: str) -> AudioBuffer:
        if not sentence:
            raise EmptyText("cannot synthesize an empty sentence")
        segment = round(0.05 * self.sample_rate)
        codes = np.array([ord(ch) for ch in sentence], dtype=np.float64)
        freqs = 200.0 + 10.0 * np.mod(codes, 100.0)
        t = np.arange(segment, dtype=np.float64) / self.sample_rate
        waves = 0.3 * np.sin(2.0 * math.pi * freqs[:, None] * t[None, :])
        return AudioBuffer(waves.ravel(), self.sample_rate)


_MOCK_UNIT_HOP_S = 0.02


class MockUnitizer:
    """Frames the signal with a 20 ms hop and quantizes each frame's RMS
    into ``vocabulary_size`` uniform bins over [0, 1]. Silence is unit 0.
    The trailing partial frame, if any, is kept and measured on its own
    samples. Output is unreduced: one unit per frame.
    """

    def __init__(self, vocabulary_size: int):
        if vocabulary_size < 2:
            raise ValueError("vocabulary_size must be at least 2")
        self.vocabulary_size = vocabulary_size

    def unitize(self, buffer: AudioBuffer) -> UnitSequence:
        hop = max(1, round(_MOCK_UNIT_HOP_S * buffer.sample_rate))
        x = buffer.samples.astype(np.float64)
        n = len(x)
        if n == 0:
            return UnitSequence((), reduced=False)
        full = n // hop
        units: list[int] = []
        if full:
            frames = x[: full * hop].reshape(full, hop)
            rms = np.sqrt(np.mean(frames * frames, axis=1))
            k = self.vocabulary_size
            units.extend(int(u) for u in np.minimum(k - 1, (rms * k).astype(np.int64)))
        tail = x[full * hop :]
        if len(tail):
            rms_tail = float(np.sqrt(np.mean(tail * tail)))
            units.append(min(self.vocabulary_size - 1, int(rms_tail * self.vocabulary_size)))
        return UnitSequence(tuple(units), reduced=False)


T = TypeVar("T")
R = TypeVar("R")
LP = TypeVar("LP", bound="_LineProcess")


# Items ``ordered_map`` pulls, per worker, ahead of the outcome it yields next.
_AHEAD = 4


def ordered_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int, *, processes: bool = False
) -> Iterator[R | SpeechAugError]:
    """``fn(item)`` for each of ``items``, yielded in input order, run on up
    to ``workers`` threads or, with ``processes``, forked worker processes.

    This is the one place where a single item's failure is decided: a
    ``SpeechAugError`` raised by ``fn`` for one item is yielded in that
    item's place as the exception object, and the other items still run.
    Any other exception propagates. Outcomes come out in input order
    whatever order the workers finish in.

    ``items`` may be any iterable. It is pulled only from the caller's
    thread, and never more than ``_AHEAD`` items per worker ahead of the
    outcome yielded next, so memory does not grow with the input. The
    worker count is capped at the number of items and at
    ``os.cpu_count()``; at one worker (or fewer) the items run serially in
    the calling thread, with no pool and no fork. On an exception, or when
    the generator is closed early, the items not started are dropped and
    those running are waited for.

    ``processes`` suits an ``fn`` that is a pure function of its item and
    of state set up before the call, such as a chain and a noise bank:
    each child is forked from the caller, so nothing ``fn`` changes in
    memory comes back, only its result or its exception. Items, results
    and exceptions travel pickled. A child that dies raises
    ``WorkerDied``, and no child outlives the generator.
    """

    def attempt(item: T) -> R | SpeechAugError:
        try:
            return fn(item)
        except SpeechAugError as err:
            return err

    items = iter(items)
    first = list(islice(items, max(1, min(workers, os.cpu_count() or 1))))
    workers = len(first)
    if workers <= 1:
        yield from map(attempt, chain(first, items))
        return

    # process mode: each pool thread adopts one child, sends it one item at
    # a time and waits for the answer
    children: list[tuple[int, BinaryIO, BinaryIO]] = []
    unreaped: set[int] = set()
    adopted = threading.local()

    def adopt() -> None:
        adopted.child = unadopted.pop()

    def ask(position: int, item: T) -> R | SpeechAugError:
        pid, tasks, results = adopted.child
        try:
            _send(tasks, item)
            ok, outcome = _receive(results)
        except (BrokenPipeError, EOFError):
            _, status = os.waitpid(pid, 0)
            unreaped.discard(pid)
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise WorkerDied(f"worker process {pid} {how} during item {position}") from None
        if not ok:
            raise outcome
        return outcome

    pool = None
    try:
        # every fork comes before the pool's first thread: forking is safe
        # only while the caller runs no other Python thread; OpenBLAS, the
        # one native pool in the process, restarts its threads in the child
        # by itself; numpy is loaded first, so that the children inherit it
        # instead of each importing it again
        if processes:
            np.ndarray
        for _ in range(workers if processes else 0):
            children.append(_fork(attempt, children))
            unreaped.add(children[-1][0])
        unadopted = list(children)
        pool = ThreadPoolExecutor(workers, initializer=adopt if processes else None)
        run = ask if processes else lambda position, item: attempt(item)
        pending: deque[Future] = deque()
        for position, item in enumerate(chain(first, items), 1):
            pending.append(pool.submit(run, position, item))
            if len(pending) == _AHEAD * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        for pid in unreaped:
            os.kill(pid, signal.SIGKILL)
        for pid in unreaped:
            os.waitpid(pid, 0)
        for _, tasks, results in children:
            results.close()
            # what a child that died left unread is dropped
            with contextlib.suppress(BrokenPipeError):
                tasks.close()


# the length of a pickled message, sent ahead of it
_LENGTH = struct.Struct("<Q")


def _send(pipe: BinaryIO, message: object) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    pipe.write(_LENGTH.pack(len(data)))
    pipe.write(data)
    pipe.flush()


def _receive(pipe: BinaryIO) -> Any:
    """The next message ``_send`` wrote to ``pipe``; EOFError at end of
    file, also part way through a message."""
    head = pipe.read(_LENGTH.size)
    if len(head) == _LENGTH.size:
        (size,) = _LENGTH.unpack(head)
        body = pipe.read(size)
        if len(body) == size:
            return pickle.loads(body)
    raise EOFError("the pipe closed")


def _serve(attempt: Callable[[T], object], tasks: BinaryIO, results: BinaryIO) -> None:
    """A worker's loop: answer each item with ``(True, outcome)`` or
    ``(False, exception)``, until end of file."""
    with contextlib.suppress(EOFError):
        while True:
            item = _receive(tasks)
            try:
                _send(results, (True, attempt(item)))
            except Exception as err:
                try:
                    _send(results, (False, err))
                except Exception:
                    _send(results, (False, RuntimeError(f"{type(err).__name__}: {err}")))


def _fork(
    attempt: Callable[[T], object], siblings: list[tuple[int, BinaryIO, BinaryIO]]
) -> tuple[int, BinaryIO, BinaryIO]:
    """Fork one worker for ``ordered_map``; its pid and the parent's ends of
    its two pipes, one for items and one for answers.

    Fork, not spawn: a spawned worker would import the package and rebuild
    the caller's state (about 0.2 s each)."""
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns from this branch
        code = 1
        try:
            # a child keeps only its own two pipe ends, not the parent's
            # ends of its siblings' pipes
            for _, tasks, results in siblings:
                os.close(tasks.fileno())
                os.close(results.fileno())
            os.close(task_w)
            os.close(result_r)
            _serve(attempt, open(task_r, "rb"), open(result_w, "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return pid, open(task_w, "wb"), open(result_r, "rb")


# Seconds an engine may take to exit once its input is closed.
_EXIT_TIMEOUT_S = 10.0


class _LineProcess:
    """A child process spoken to one line at a time over stdin/stdout.

    Requests from any number of threads are serialized: each holds the lock
    from its liveness check to its answer, so every caller reads the line
    answering its own request.
    """

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ValueError("command must not be empty")
        self.command = tuple(command)
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as err:
            raise PortError(f"cannot start {self.command[0]}: {err}") from err
        self._lock = threading.Lock()

    def request(self, line: str) -> str:
        if "\n" in line:
            raise ValueError("protocol lines must not contain newlines")
        proc = self._proc
        assert proc.stdin is not None and proc.stdout is not None
        with self._lock:
            if proc.poll() is not None:
                raise PortError(f"{self.command[0]} exited with code {proc.returncode}")
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            response = proc.stdout.readline()
        if response == "":
            raise PortError(f"{self.command[0]} closed its stdout mid-conversation")
        return response.rstrip("\n")

    def close(self) -> None:
        """Close both pipes and reap the child; end of input tells it to exit.

        A child still running ``_EXIT_TIMEOUT_S`` later is killed, and
        raises ``PortError``.
        """
        proc = self._proc
        assert proc.stdin is not None and proc.stdout is not None
        # a child that already exited can fail the final flush; the pipe is
        # closed all the same
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()
        try:
            proc.wait(timeout=_EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise PortError(
                f"{self.command[0]} did not exit within {_EXIT_TIMEOUT_S:g} s"
                " of the end of its input"
            ) from None
        finally:
            proc.stdout.close()

    def __enter__(self: LP) -> LP:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SubprocessTranslator(_LineProcess):
    """Adapter around an external line-oriented translation command.

    Protocol: one request per line on the child's stdin,
    ``from_lang<TAB>to_lang<TAB>sentence``, answered by exactly one
    translated line on its stdout. The child handles one line at a time;
    the adapter serializes requests itself, so it may be called from any
    number of threads.
    """

    def translate(self, sentence: str, from_language: str, to_language: str) -> str:
        flat = " ".join(sentence.split())
        return self.request(f"{from_language}\t{to_language}\t{flat}")


class SubprocessSynthesizer(_LineProcess):
    """Adapter around an external line-oriented text-to-speech command.

    Protocol: one request per line on the child's stdin,
    ``language<TAB>sentence``, answered by one line holding the path of a
    WAV file the child has finished writing. The file is loaded and, if its
    rate differs from the adapter's declared ``sample_rate``, resampled.
    Requests are serialized like the translator's, but the file is read
    after the lock is released, so each answer must name a file the child
    does not rewrite later.
    """

    def __init__(self, command: Sequence[str], sample_rate: int = 16000):
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = sample_rate
        super().__init__(command)

    def synthesize(self, sentence: str, language: str) -> AudioBuffer:
        flat = " ".join(sentence.split())
        path = self.request(f"{language}\t{flat}")
        try:
            buffer = load_wav(path)
        except IoFailure as err:
            raise PortError(f"synthesizer reported {path!r} but it cannot be read: {err}") from err
        if buffer.sample_rate != self.sample_rate:
            buffer = resample(buffer, self.sample_rate)
        return buffer
