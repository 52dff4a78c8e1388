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
import selectors
import threading
import weakref
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, groupby, islice
from typing import BinaryIO, Protocol, TypeVar, runtime_checkable

from ._numpy import np
from .audio import AudioBuffer, _write_file, load_wav, resample
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
        # one grid of phases, turned into the waves in place
        waves = (2.0 * math.pi * freqs)[:, None] * t[None, :]
        np.sin(waves, out=waves)
        waves *= 0.3
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
        n = len(buffer)
        # the squares, in float64, are the one signal-length array; each
        # frame's sum is divided by its own length, the tail's included
        squares = np.square(buffer.samples, dtype=np.float64)
        starts = np.arange(0, n, hop)
        rms = np.sqrt(np.add.reduceat(squares, starts) / np.diff(starts, append=n))
        k = self.vocabulary_size
        units = np.minimum(k - 1, (rms * k).astype(np.int64))
        return UnitSequence(units.tolist(), reduced=False)


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

    Threads suit an ``fn`` that waits, such as a call to an engine;
    ``textpipe.iter_text_stage`` is their one user. ``processes`` suits an
    ``fn`` that computes in Python, and is a pure function of its item and
    of state set up before the call, such as a chain and a noise bank
    (``augment`` and ``build`` run their chains so): each child is forked
    from the caller, so nothing ``fn`` changes in memory comes back, only
    its result or its exception. Items, results and exceptions travel
    pickled, and ``items`` is still pulled in the caller, so work such as
    synthesis done while pulling overlaps the children's. The children are
    forked with numpy loaded, and hold no end of an engine's pipes. The
    caller's thread drives them itself, starting no thread: it sends each
    idle child the next item, one item in flight per child, and waits on
    their answer pipes together. A child that dies raises ``WorkerDied``,
    and no child outlives the generator.
    """

    def attempt(item: T) -> R | SpeechAugError:
        try:
            return fn(item)
        except SpeechAugError as err:
            return err

    items = iter(items)
    first = deque(islice(items, max(1, min(workers, os.cpu_count() or 1))))
    workers = len(first)
    # the items pulled to count the workers come first, each let go once taken
    items = chain((first.popleft() for _ in range(workers)), items)
    if workers <= 1:
        yield from map(attempt, items)
        return

    if not processes:
        # only this mode needs a thread pool, so only it loads the module
        from concurrent.futures import Future, ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
        try:
            pending: deque[Future] = deque()
            for item in items:
                pending.append(pool.submit(attempt, item))
                if len(pending) == _AHEAD * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)
        return

    # process mode, driven from the caller's thread
    children: list[tuple[int, BinaryIO, BinaryIO]] = []
    unreaped: set[int] = set()

    def died(pid: int, position: int) -> WorkerDied:
        _, status = os.waitpid(pid, 0)
        unreaped.discard(pid)
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return WorkerDied(f"worker process {pid} {how} during item {position}")

    try:
        # forking is safe only while the caller runs no other Python thread,
        # and this mode starts none; OpenBLAS, the one native pool in the
        # process, restarts its threads in the child by itself; numpy is
        # loaded first, so that the children inherit it instead of each
        # importing it again
        np.ndarray
        for _ in range(workers):
            children.append(_fork(attempt, children))
            unreaped.add(children[-1][0])
        # a child holds one item at a time, so its answer pipe never holds a
        # second answer behind the bytes a buffered read took in: a readable
        # pipe is an answer, or the end of file a child that died leaves
        idle = children.copy()
        # outcomes in ahead of their turn, as (True, outcome) or (False, exception)
        done: dict[int, tuple[bool, object]] = {}
        numbered = enumerate(items, 1)
        pulled = yielded = 0
        # poll, not epoll: the pipes waited on change with every item, and
        # epoll would make two system calls for each change
        with selectors.PollSelector() as selector:
            while True:
                # each idle child gets its next item before an outcome is yielded
                room = min(len(idle), yielded + _AHEAD * workers - pulled)
                for pulled, item in islice(numbered, room):
                    _, tasks, results = child = idle.pop()
                    # a child that died while idle shows as end of file below
                    with contextlib.suppress(BrokenPipeError):
                        _send(tasks, item)
                    selector.register(results, selectors.EVENT_READ, (child, pulled))
                if yielded + 1 in done:
                    yielded += 1
                    ok, outcome = done.pop(yielded)
                    if not ok:
                        raise outcome  # type: ignore[misc]
                    yield outcome  # type: ignore[misc]
                elif selector.get_map():
                    for key, _ in selector.select():
                        selector.unregister(key.fileobj)
                        child, position = key.data
                        try:
                            done[position] = pickle.load(key.fileobj)
                        except (EOFError, pickle.UnpicklingError):
                            # a pipe that closed, also part way through an answer
                            done[position] = (False, died(child[0], position))
                        else:
                            idle.append(child)
                else:
                    return
    finally:
        # a child waiting for an item reads end of file and exits; one still
        # running its item finishes it, fails to send the answer and exits
        for _, tasks, results in children:
            results.close()
            # what a child that died left unread is dropped
            with contextlib.suppress(BrokenPipeError):
                tasks.close()
        for pid in unreaped:
            os.waitpid(pid, 0)


def map_to_index(
    fn: Callable[[T], R], items: Iterable[T], workers: int, path: str | os.PathLike[str],
    *, name: Callable[[T], str], header: str = "",
) -> tuple[list[R], list[tuple[str, SpeechAugError]]]:
    """``ordered_map(fn, items, workers, processes=True)``, writing ``header``
    and then each result's ``to_json()`` line to ``path`` through ``_write_file``, in
    input order as they come; the results, and each failure as ``(name(item), error)``,
    in input order.

    ``items`` may be any iterable, and is read once: each item's name is taken
    as ``ordered_map`` pulls it, and only the names of the items in flight
    are kept."""
    results: list[R] = []
    failures: list[tuple[str, SpeechAugError]] = []
    # ordered_map pulls each item before it yields that item's outcome
    names: deque[str] = deque()

    def named(item: T) -> T:
        names.append(name(item))
        return item

    def lines(outcomes: Iterator[R | SpeechAugError]) -> Iterator[str]:
        yield header
        for outcome in outcomes:
            item_name = names.popleft()
            if isinstance(outcome, SpeechAugError):
                failures.append((item_name, outcome))
            else:
                results.append(outcome)
                yield outcome.to_json() + "\n"  # type: ignore[attr-defined]

    # a failed write also stops the workers, before its error goes on
    with contextlib.closing(ordered_map(fn, map(named, items), workers, processes=True)) as outcomes:
        _write_file(path, lines(outcomes))
    return results, failures


def _send(pipe: BinaryIO, message: object) -> None:
    """Write one message, which ``pickle.load`` reads back: a pickle marks
    its own end. It is pickled whole before a byte is written, so one that
    does not pickle leaves the pipe as it was."""
    pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    pipe.flush()


def _serve(attempt: Callable[[T], object], tasks: BinaryIO, results: BinaryIO) -> None:
    """A worker's loop: answer each item with ``(True, outcome)`` or
    ``(False, exception)``, until end of file."""
    with contextlib.suppress(EOFError):
        while True:
            item = pickle.load(tasks)
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
            # ends of its siblings' pipes, nor of any engine's: an engine
            # whose input a worker held open would never see its end
            for _, tasks, results in siblings:
                os.close(tasks.fileno())
                os.close(results.fileno())
            for engine in _engines:
                for pipe in (engine._proc.stdin, engine._proc.stdout):
                    if pipe is not None and not pipe.closed:
                        os.close(pipe.fileno())
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

# Every engine of this process, whose pipe ends a forked worker closes.
_engines: weakref.WeakSet[_LineProcess] = weakref.WeakSet()


class _LineProcess:
    """A child process spoken to one UTF-8 line at a time over stdin/stdout,
    whatever the locale.

    Requests from any number of threads are serialized: each holds the lock
    from its liveness check to its answer, so every caller reads the line
    answering its own request.
    """

    def __init__(self, command: Sequence[str]):
        if not command:
            raise ValueError("command must not be empty")
        self.command = tuple(command)
        # only an engine needs a subprocess, so only it loads the module
        import subprocess

        try:
            self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as err:
            raise PortError(f"cannot start {self.command[0]}: {err}") from err
        self._lock = threading.Lock()
        _engines.add(self)

    def request(self, *fields: str) -> str:
        """Send ``fields``, each whitespace-flattened, as one tab-separated
        UTF-8 line, and return the answer line. A field that is not valid
        UTF-8 raises PortError before anything is sent. An answer that is
        not UTF-8 raises PortError too; the next request reads the next line."""
        try:
            line = ("\t".join(" ".join(field.split()) for field in fields) + "\n").encode("utf-8")
        except UnicodeEncodeError as err:  # a lone surrogate
            raise PortError(f"cannot send a request to {self.command[0]}: {err}") from None
        proc = self._proc
        assert proc.stdin is not None and proc.stdout is not None
        with self._lock:
            if proc.poll() is not None:
                raise PortError(f"{self.command[0]} exited with code {proc.returncode}")
            try:
                proc.stdin.write(line)
                proc.stdin.flush()
            except BrokenPipeError:
                raise PortError(f"{self.command[0]} closed its stdin mid-conversation") from None
            response = proc.stdout.readline()
        if not response:
            raise PortError(f"{self.command[0]} closed its stdout mid-conversation")
        try:
            return response.rstrip(b"\r\n").decode("utf-8")
        except UnicodeDecodeError as err:
            raise PortError(f"{self.command[0]}'s answer is not UTF-8: {err}") from None

    def close(self) -> None:
        """Close both pipes and reap the child; end of input tells it to exit.

        A child still running ``_EXIT_TIMEOUT_S`` later is killed, and
        raises ``PortError``.
        """
        import subprocess

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
        return self.request(from_language, to_language, sentence)


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
        path = self.request(language, sentence)
        try:
            buffer = load_wav(path)
        except IoFailure as err:
            raise PortError(f"synthesizer reported {path!r} but it cannot be read: {err}") from err
        if buffer.sample_rate != self.sample_rate:
            buffer = resample(buffer, self.sample_rate)
        return buffer
