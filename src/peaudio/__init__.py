"""Critical-band masking analysis, perceptual-entropy losses with exact
gradients, and objective synthesis metrics for audio spectra."""

from .errors import (
    BufferTooShortError,
    ConfigError,
    CorruptHeaderError,
    DegenerateThresholdError,
    DivergenceError,
    InvalidRateError,
    LengthMismatchError,
    MismatchWarning,
    NonFiniteAudioError,
    PeAudioError,
    ShapeMismatchError,
    UnsupportedFormatError,
)
from .metrics import F0Track, MetricReport, compare, extract_f0, f0_metrics, mcd
from .pe import (
    FitRecord,
    GradientCheckResult,
    GradientReport,
    LossConfig,
    PEResult,
    check_gradient,
    pe_gradient,
    pe_loss,
    perceptual_entropy,
    sing_loss,
    total_loss,
    toy_fit,
)
from .psychoacoustic import (
    BarkAnalysis,
    BarkBandLayout,
    absolute_threshold,
    analyze,
    bark_layout,
    masking_offset_db,
    renormalize_and_clamp,
    spread_threshold,
    spreading_gain,
    tonality,
)
from .signal_io import AudioBuffer, load_wav, resample, save_wav
from .spectral import (
    Spectrogram,
    StftConfig,
    mel_cepstrum,
    mel_filterbank,
    mel_spectrogram,
    stft,
)

__version__ = "0.1.0"
