"""Exception and warning types shared across the package."""


class PeAudioError(Exception):
    """Base class for errors raised by this package."""


class CorruptHeaderError(PeAudioError):
    """WAV container is malformed or truncated."""


class UnsupportedFormatError(PeAudioError):
    """WAV encoding is not plain PCM/float or has too many channels."""


class InvalidRateError(PeAudioError, ValueError):
    """Requested sample rate is zero or negative."""


class NonFiniteAudioError(PeAudioError, ValueError):
    """Audio samples include NaN or infinity."""


class BufferTooShortError(PeAudioError, ValueError):
    """Audio buffer holds fewer samples than one analysis frame."""


class ShapeMismatchError(PeAudioError, ValueError):
    """Paired arrays disagree in shape."""


class LengthMismatchError(PeAudioError, ValueError):
    """Paired tracks disagree in frame count."""


class DegenerateThresholdError(PeAudioError, ValueError):
    """A masking threshold is zero or negative."""


class DivergenceError(PeAudioError, RuntimeError):
    """Gradient descent produced a non-finite loss."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"loss became non-finite at step {step}")

    def __reduce__(self):  # pickled by its step and message, not by its args alone
        return type(self), (self.step, str(self))


class WorkerLostError(PeAudioError):
    """A forked worker process ended without sending back its result."""


class ConfigError(PeAudioError, ValueError):
    """Invalid or unknown configuration key/value."""


class MismatchWarning(UserWarning):
    """Compared inputs differ noticeably in frame count."""
