import threading

import numpy as np
import pytest

from peaudio import signal_io
from peaudio.psychoacoustic import SFM_POWER_FLOOR, spreading_kernel
from peaudio.signal_io import AudioBuffer, save_wav
from peaudio.spectral import Spectrogram

SR = 22050


def harmonic_signal(duration=1.0, f0=220.0, n_harmonics=40, amplitude=0.9,
                    noise=1e-3, sr=SR, seed=42):
    """Voiced-like test signal: harmonic stack with a small noise floor.

    The noise keeps every bin power well above the flatness floor so the
    analysis is exactly scale-invariant, and the harmonics put energy in
    every critical band so the absolute-threshold clamp stays inactive.
    """
    t = np.arange(int(sr * duration)) / sr
    rng = np.random.default_rng(seed)
    sig = np.zeros_like(t)
    for k in range(1, n_harmonics + 1):
        f = f0 * k
        if f < sr / 2 - 200:
            sig += np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi)) / k
    sig = amplitude * sig / np.abs(sig).max()
    if noise:
        sig = sig + noise * rng.standard_normal(t.size)
    return np.clip(sig, -1.0, 1.0)


def sine_signal(freq, duration=1.0, amplitude=0.95, sr=SR):
    t = np.arange(int(sr * duration)) / sr
    return amplitude * np.sin(2 * np.pi * freq * t)


def band_of_bin(layout):
    """Band index (0-based) of every bin, shape (n_bins,)."""
    return np.repeat(np.arange(layout.n), layout.k)


def scaled(spec, gain):
    """The spectrogram with every frame multiplied by gain."""
    return Spectrogram(spec.frames * gain, spec.config)


def bin_ranges(layout):
    """Inclusive (lower, upper) bin index pair of every band."""
    return [(int(lo), int(hi)) for lo, hi in zip(layout.lower_bins, layout.upper_bins)]


def bark_spectrum(frame, layout):
    """Oracle: sum of bin powers Re^2 + Im^2 per band for one complex frame."""
    frame = np.asarray(frame)
    return np.array([
        np.sum(frame[lo : hi + 1].real ** 2 + frame[lo : hi + 1].imag ** 2)
        for lo, hi in bin_ranges(layout)
    ])


def spread(band_power, cfg):
    """Oracle: band powers convolved with the spreading kernel across band index."""
    return np.asarray(band_power, dtype=np.float64) @ spreading_kernel(cfg).T


def sfm_db(components):
    """Oracle: spectral flatness 10*log10(geometric mean / arithmetic mean) in dB.

    Components are floored at 1e-12 so silent bins keep the value
    finite. The mean of means can stray above 0 by a few ulp on equal
    components; the result is clamped to the AM-GM bound <= 0.
    """
    floored = np.maximum(np.asarray(components, dtype=np.float64), SFM_POWER_FLOOR)
    log_geo = np.mean(np.log(floored))
    return min(float((10.0 / np.log(10.0)) * (log_geo - np.log(np.mean(floored)))), 0.0)


@pytest.fixture(scope="session")
def voiced_buffer():
    return AudioBuffer(harmonic_signal(), SR)


@pytest.fixture(scope="session")
def voiced_wav(tmp_path_factory, voiced_buffer):
    path = tmp_path_factory.mktemp("wavs") / "voiced.wav"
    save_wav(voiced_buffer, path)
    return path


@pytest.fixture(scope="session")
def silence_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "silence.wav"
    save_wav(AudioBuffer(np.zeros(SR), SR), path)
    return path


@pytest.fixture
def sine_wav_factory(tmp_path):
    def make(freq, duration=1.0, amplitude=0.95, name=None):
        path = tmp_path / (name or f"sine{int(freq)}.wav")
        save_wav(AudioBuffer(sine_signal(freq, duration, amplitude), SR), path)
        return path

    return make


class ThreadSpy:
    """Records every thread signal_io starts, the thread that starts it and which are joined."""

    def __init__(self):
        self.starters = []
        self.threads = []
        self.joined = []

    def all_joined(self) -> bool:
        """True if every started thread was joined and none is alive."""
        return self.joined == self.threads and not any(t.is_alive() for t in self.threads)


@pytest.fixture
def thread_spy(monkeypatch):
    spy = ThreadSpy()

    class SpiedThread(threading.Thread):
        def start(self):
            super().start()
            spy.starters.append(threading.current_thread())
            spy.threads.append(self)

        def join(self, timeout=None):
            super().join(timeout)
            if not self.is_alive() and self not in spy.joined:
                spy.joined.append(self)

    monkeypatch.setattr(signal_io, "Thread", SpiedThread)
    return spy
