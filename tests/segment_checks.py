"""Checks on a table's columnar segments that hold whatever wrote them:
what the stateful machines and the property tests assert after a
compaction, kept in one place so a self-check of a live database can run
the same ones."""

import json
from bisect import bisect_right
from contextlib import contextmanager
from unittest.mock import patch

from repro.storage.rdbms import table
from repro.storage.rdbms.segments import NAN_CODE, NULL_CODE, Segment


@contextmanager
def every_chunk_spliced():
    """Compactions inside splice every chunk whose kept rows come from one
    segment, however short its pieces (``SPLICE_PIECE_ROWS`` 0), so the
    splice runs on tables of a few rows too."""
    with patch.object(table, "SPLICE_PIECE_ROWS", 0):
        yield


def encoded_afresh(segment):
    """The segment :meth:`Segment.from_columns` makes of ``segment``'s
    decoded rows."""
    rows = list(segment.iter_rows())
    return Segment.from_columns(
        segment.schema, [rid for rid, _ in rows],
        ([values[name] for _, values in rows]
         for name in segment.schema.column_names))


def imprint_codes(column, lows):
    """The codes an imprint with bounds ``lows`` gives ``column``'s cells:
    ``bisect_right(lows, v)``, NaN's and NULL's codes."""
    return bytes(NULL_CODE if v is None else NAN_CODE if v != v
                 else bisect_right(lows, v) for v in column.decoded())


def assert_segments_canonical(heap):
    """Every segment of ``heap`` is, image for image (JSON text: ``-0.0``
    is not ``0.0``), what a fresh encode of its rows makes, and every
    imprint built or carried over on one of its columns codes each cell
    as its bounds say."""
    for segment in heap.segments:
        assert json.dumps(segment.image(), sort_keys=True) == json.dumps(
            encoded_afresh(segment).image(), sort_keys=True)
        for column in segment.columns.values():
            imprint = column._imprint
            if imprint is not None:
                assert imprint.codes == imprint_codes(column, imprint.lows)
