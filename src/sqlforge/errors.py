"""Shared exception types."""


class SqlforgeError(Exception):
    """Base class for all toolkit errors."""


class NotADatabaseError(SqlforgeError):
    """File exists but is not a valid SQLite database."""


class ParseError(SqlforgeError):
    """SQLite could not compile the statement on the schema replica; the
    message is SQLite's."""


class EmptySchemaListError(SqlforgeError):
    """Prompt rendering requires at least one table."""


class GoldExecutionFailed(SqlforgeError):
    """The gold SQL did not execute to rows -- a corpus defect, never a model failure."""


class EmptyVariantSuiteError(SqlforgeError):
    """Test-suite accuracy requires at least one variant database."""


class CorpusLayoutError(SqlforgeError):
    """Expected database files are missing from the corpus directory layout."""


class GoldReferencesUnknownColumn(SqlforgeError):
    """Gold SQL references a column absent from the schema -- a corpus defect."""


class MockExhausted(SqlforgeError):
    """The mock model script has no response left for the given prompt."""


class EndpointUnreachable(SqlforgeError):
    """Remote model endpoint could not be reached after retries."""


class MalformedResponse(SqlforgeError):
    """Remote endpoint answered with a payload we cannot interpret."""


class AuthError(SqlforgeError):
    """Remote endpoint rejected our credentials."""
