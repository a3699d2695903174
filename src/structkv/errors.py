"""Exception hierarchy shared across the engine."""


class StructKVError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(StructKVError, ValueError):
    """An argument violates an operation's precondition."""


class ConfigError(StructKVError, ValueError):
    """A configuration object or file is invalid or incomplete."""


class EncodingError(StructKVError, ValueError):
    """Source bytes are not valid in their declared encoding (UTF-8 by default)."""


class SchemaError(StructKVError, ValueError):
    """An input document (graph, plan or gold file) does not match its documented schema."""


class UnsupportedKindError(SchemaError):
    """An interchange document uses a node or edge kind outside the closed enum."""


class TokenRangeError(SchemaError):
    """A token range in an interchange document falls outside the owning chunk."""


class ScoringError(StructKVError, RuntimeError):
    """A chunk scorer backend failed; carries the offending chunk id."""

    def __init__(self, chunk_id: int, message: str):
        self.chunk_id = chunk_id
        super().__init__(f"chunk {chunk_id}: {message}")


class NumericError(StructKVError, ValueError):
    """Non-finite values where finite numerics are required."""


class BackendError(StructKVError, RuntimeError):
    """An attention backend failed; carries chunk and layer identifiers."""

    def __init__(self, chunk_id: int, layer: int, message: str):
        self.chunk_id = chunk_id
        self.layer = layer
        super().__init__(f"chunk {chunk_id}, layer {layer}: {message}")
