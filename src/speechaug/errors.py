"""Exception types shared across the package."""

from __future__ import annotations

import copyreg


class SpeechAugError(Exception):
    """Base class for every error raised by this package.

    Every subclass pickles, so a worker process can hand one back: the copy
    is rebuilt from ``args`` (the message) and the attributes, without
    calling an ``__init__`` whose parameters differ from ``args``.
    """

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class MalformedWav(SpeechAugError):
    """The file is not a parseable RIFF/WAVE container."""


class UnsupportedEncoding(SpeechAugError):
    """The WAV container is valid but uses an encoding we do not decode."""


class EmptyAudio(SpeechAugError):
    """A WAV file or buffer holds zero samples where audio is required."""


class IoFailure(SpeechAugError):
    """Wraps an OS-level failure while reading or writing a file."""


class FactorOutOfRange(SpeechAugError):
    """Speed or pitch factor outside the supported [0.5, 2.0] interval."""


class CutoffAboveNyquist(SpeechAugError):
    """Low-pass cutoff at or above half the sample rate, or not positive."""


class EmptyNoiseBank(SpeechAugError):
    """Noise mixing was requested but no noise entries are available."""


class ChainStageError(SpeechAugError):
    """An effect inside a chain failed; carries the 1-based spec index."""

    def __init__(self, index: int, kind: str, cause: BaseException):
        super().__init__(f"effect {index} ({kind}) failed: {cause}")
        self.index = index
        self.kind = kind


class PortError(SpeechAugError):
    """Base class for failures reported by translator/synthesizer ports."""


class MockRejected(PortError):
    """The mock translator refuses an input it cannot handle."""


class EmptyText(PortError):
    """A synthesizer was asked to speak an empty sentence."""


class MalformedManifest(SpeechAugError):
    """A manifest line failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MalformedText(SpeechAugError):
    """A text input is not valid UTF-8; carries the 1-based line number."""

    def __init__(self, path: object, line_number: int, reason: str):
        super().__init__(f"{path}:{line_number}: not valid UTF-8 ({reason})")
        self.line_number = line_number
        self.reason = reason


class EmptyCorpus(SpeechAugError):
    """A sampling origin has positive weight but zero records."""


class WorkerDied(SpeechAugError):
    """A worker process ended before it returned the outcome of its item."""
