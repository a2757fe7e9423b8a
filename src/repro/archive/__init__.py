"""Segmented ``.fctca`` trace archives: rolling captures, indexed reads.

The archive layer sits on top of the streaming compressor: the writer
rotates compressed segments by packet count / time span into a single
container whose footer indexes every segment (byte range, time bounds,
flow counts, destination summary); the reader seeks to and decodes only
the segments a caller asks for.  The query engine in :mod:`repro.query`
plans against the index.
"""

from repro.archive.format import (
    ARCHIVE_VERSION,
    ARCHIVE_VERSION_V1,
    ARCHIVE_VERSION_V2,
    RAW_SECTION_BACKENDS,
    AddressSummary,
    SegmentIndexEntry,
    index_entry_for,
    pack_footer,
    unpack_footer,
)
from repro.archive.reader import (
    ArchiveReader,
    ArchiveSpecFeed,
    order_by_time,
    parse_archive_tail,
    segment_runs,
)
from repro.archive.writer import (
    DEFAULT_SEGMENT_PACKETS,
    DEFAULT_SEGMENT_SPAN,
    ArchiveWriter,
)

__all__ = [
    "ARCHIVE_VERSION",
    "ARCHIVE_VERSION_V1",
    "ARCHIVE_VERSION_V2",
    "RAW_SECTION_BACKENDS",
    "AddressSummary",
    "SegmentIndexEntry",
    "index_entry_for",
    "pack_footer",
    "unpack_footer",
    "ArchiveReader",
    "ArchiveSpecFeed",
    "order_by_time",
    "parse_archive_tail",
    "segment_runs",
    "DEFAULT_SEGMENT_PACKETS",
    "DEFAULT_SEGMENT_SPAN",
    "ArchiveWriter",
]
