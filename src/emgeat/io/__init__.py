"""File formats and the streaming wire protocol."""

from .client import ClientResult, stream_client
from .datasets import (
    append_events,
    format_event_line,
    read_dataset,
    read_event_log,
    read_rate_series,
    write_dataset,
)
from .models import load_model, save_model
from .protocol import ProtocolError, format_frame, parse_frame
from .recordings import FormatError, read_annotations, read_recording, write_recording
from .server import DEFAULT_REFERENCE_RATE_HZ, EmgServer, ServerConfig, serve

__all__ = [
    "ClientResult",
    "DEFAULT_REFERENCE_RATE_HZ",
    "EmgServer",
    "FormatError",
    "ProtocolError",
    "ServerConfig",
    "append_events",
    "format_event_line",
    "format_frame",
    "load_model",
    "parse_frame",
    "read_annotations",
    "read_dataset",
    "read_event_log",
    "read_rate_series",
    "read_recording",
    "save_model",
    "serve",
    "stream_client",
    "write_dataset",
]
