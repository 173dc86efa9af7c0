"""Uniform clients for external model services (text, VQA, image, embedding)."""

from promptrefine.backends.base import (
    AuthFailure,
    Backend,
    BackendConfig,
    BackendError,
    BackendTimeout,
    CallJournal,
    CallRecord,
    CapabilityMissing,
    ContentRejected,
    ImageGenRequest,
    ImageRef,
    MockMiss,
    RateLimited,
    TextGenRequest,
    TransportError,
    UnparseableAnswer,
    VqaRequest,
    recording,
    request_digest,
)
from promptrefine.backends.http import HttpBackend
from promptrefine.backends.mock import MockBackend

__all__ = [
    "AuthFailure",
    "Backend",
    "BackendConfig",
    "BackendError",
    "BackendTimeout",
    "CallJournal",
    "CallRecord",
    "CapabilityMissing",
    "ContentRejected",
    "HttpBackend",
    "ImageGenRequest",
    "ImageRef",
    "MockBackend",
    "MockMiss",
    "RateLimited",
    "TextGenRequest",
    "TransportError",
    "UnparseableAnswer",
    "VqaRequest",
    "recording",
    "request_digest",
]
