"""Exception types shared across the toolkit."""


class ScholarSounderError(Exception):
    """Base class for all toolkit errors."""


class FetchError(ScholarSounderError):
    """A page the source refused: a failed status, connection or retry, a
    page without its marker, or a key that is not a plain id."""


class PageMissingError(FetchError):
    """The page is absent: its fixture file does not exist, or the live
    service answered 404."""


class CacheError(ScholarSounderError):
    """The live cache could not be opened, read or written. Not a FetchError,
    so it ends the run rather than turning a page into a failure."""


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
    """A failed tag page: raised by ``fetch_label_pages``, reported by ``cli.main``."""

    def __init__(self, tag, cause):
        super().__init__(f"sounding failed at '{tag}': {cause}")
