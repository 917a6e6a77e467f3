"""Exception hierarchy for the voicepd pipeline."""


class VoicePDError(Exception):
    """Base class for all voicepd errors."""


class AudioDecodeError(VoicePDError):
    """WAV file could not be decoded (missing, non-PCM, truncated, ...)."""


class UndefinedFeatureError(VoicePDError):
    """A feature is undefined for the given input (e.g. too few cycles)."""


class DataError(VoicePDError):
    """Input data violates a precondition (malformed table, bad labels, empty dataset, ...)."""


class ConfigError(VoicePDError):
    """Invalid configuration value."""
