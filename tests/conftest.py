import numpy as np
import pytest

from voicepd.audio_io import AudioSignal


@pytest.fixture
def sine_440():
    fs = 16000
    t = np.arange(fs) / fs
    return AudioSignal(samples=np.sin(2 * np.pi * 440 * t), sample_rate=fs)
