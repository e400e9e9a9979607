"""Exception types shared across the toolkit."""


class ScholarSounderError(Exception):
    """Base class for all toolkit errors."""


class FetchError(ScholarSounderError):
    """Base class for page-acquisition failures."""


class FixtureMissingError(FetchError):
    """A requested fixture file does not exist (corpus gap)."""

    def __init__(self, path):
        super().__init__(f"fixture not found: {path}")


class NetworkError(FetchError):
    """Transient network failure that outlasted ``fetcher.MAX_RETRIES`` retries."""


class HttpStatusError(FetchError):
    """Non-200 response, or a page missing the expected result markers
    (anti-bot interstitial)."""

    def __init__(self, message, status=None):
        super().__init__(message)
        self.status = status


class ParseError(ScholarSounderError):
    """Expected structural markers absent from a page.

    ``offset`` is the byte position up to which the document scanned
    cleanly before the first mismatch.
    """

    def __init__(self, message, offset=0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConfigError(ScholarSounderError):
    """Invalid configuration, naming the offending entry."""

    def __init__(self, field, reason):
        super().__init__(f"config field '{field}': {reason}")


class FormatError(ScholarSounderError):
    """Unsupported or malformed construct in an interchange document."""

    def __init__(self, message, location=None):
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class SoundingError(ScholarSounderError):
    """A fetch or parse failure that aborted a sounding run."""

    def __init__(self, tag, cause):
        super().__init__(f"sounding failed at '{tag}': {cause}")
