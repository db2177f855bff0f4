"""Fuzzing of the three input parsers: parse_annotations, read_detections
and read_tensor.

Whatever the input, the only exception that may escape a parser is a
SoftPhocError subclass (the CLI maps those to exit 2), and every number
in a parsed annotation or detection is finite.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softphoc.alphabet import NUM_CLASSES
from softphoc.errors import SoftPhocError
from softphoc.fileio import (TENSOR_MAGIC, parse_annotations, read_detections,
                             read_tensor)

# No tab or line break (read_text reads "\r" as one), no lone surrogate.
FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\t\n\r"), max_size=12)
FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
SIZE = st.floats(0.0, 1e6).map(repr)
ODD_NUMBER = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999",
                              "-1e999", "-70", "-0.5", "-0.0", "-", "", "1_0", " 3 "])


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


COORD = st.one_of(st.integers(-10**6, 10**6),
                  st.sampled_from([10**400, -10**400, 10**308, -10**308, 2**1024]),
                  st.integers(-10**400, 10**400))
ANNOTATION_LINE = st.one_of(
    st.builds(lambda coords, text: ",".join(map(str, coords)) + "," + text,
              st.lists(COORD, min_size=8, max_size=8), st.text(max_size=10)),
    st.text(max_size=40))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(ANNOTATION_LINE, max_size=5),
       dims=st.one_of(st.none(), st.tuples(st.integers(1, 4000), st.integers(1, 4000))))
def test_parse_annotations_raises_only_library_errors(lines, dims):
    text = "\n".join(lines)
    try:
        scene = parse_annotations(text, *(dims or (None, None)))
    except SoftPhocError:
        return
    for word in scene.words:
        assert np.isfinite(word.quad).all()


def detection_line(query, status, fields):
    return "\t".join([query, status] + fields)


VALID_RECORD = st.one_of(
    st.builds(lambda q: (q, detection_line(q, "not-found", ["-"] * 11)), FIELD_TEXT),
    st.builds(lambda q, numbers, sizes: (q, detection_line(q, "found", numbers + sizes)),
              st.one_of(FIELD_TEXT, FIELD_TEXT.map("#".__add__)),
              st.lists(FINITE, min_size=9, max_size=9).filter(
                  lambda v: 0.0 < math.hypot(float(v[2]) - float(v[0]),
                                             float(v[3]) - float(v[1])) < math.inf),
              st.lists(SIZE, min_size=2, max_size=2)))
ANY_RECORD = st.builds(
    lambda q, status, fields: (None, detection_line(q, status, fields)),
    st.one_of(FIELD_TEXT, FIELD_TEXT.map("#".__add__)),
    st.sampled_from(["found", "not-found", "Found", ""]),
    st.lists(st.one_of(FINITE, SIZE, ODD_NUMBER, FIELD_TEXT), min_size=9, max_size=13))


@settings(max_examples=200, deadline=None)
@given(header=st.booleans(),
       records=st.lists(st.one_of(VALID_RECORD, ANY_RECORD), max_size=6))
@example(header=False, records=[("\ufeff", detection_line("\ufeff", "not-found", ["-"] * 11))])
@example(header=False, records=[("\ufeff#", detection_line("\ufeff#", "not-found", ["-"] * 11)),
                                ("q", detection_line("q", "not-found", ["-"] * 11))])
def test_read_detections_raises_only_library_errors(input_file, header, records):
    lines = (["# query\tstatus"] if header else []) + [line for _, line in records]
    input_file.write_bytes("\n".join(lines).encode("utf-8"))
    try:
        rows = read_detections(input_file)
    except SoftPhocError:
        assert any(query is None for query, _ in records)
        return
    for _, det, box in rows:
        if det is not None:
            seg = det.segment
            numbers = (seg.x1, seg.y1, seg.x2, seg.y2, seg.rho, seg.theta,
                       det.dtw_distance, box.cx, box.cy, box.width, box.height)
            assert all(map(math.isfinite, numbers))
            assert box.width >= 0 and box.height >= 0
    if all(query is not None for query, _ in records):
        # every well-formed record is read back, in order, whatever its
        # query; only line 1 may be taken as the header, and a U+FEFF
        # opening the file is a byte order mark, not part of line 1
        text = "\n".join(lines).removeprefix("\ufeff")
        expected = [line.split("\t")[0] for i, line in enumerate(text.split("\n"))
                    if line and not (i == 0 and line.startswith("#"))]
        assert [query for query, _, _ in rows] == expected


TENSOR_FILE = st.one_of(
    st.binary(max_size=2048),
    st.builds(lambda head, payload: TENSOR_MAGIC + head + payload,
              st.binary(max_size=16), st.binary(max_size=64)),
    st.builds(lambda h, w, c, payload: TENSOR_MAGIC + struct.pack("<III", h, w, c) + payload,
              st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
              st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)),
              st.one_of(st.just(NUM_CLASSES), st.integers(0, 2**32 - 1)),
              st.binary(max_size=2048 - 20)),
    st.builds(lambda h, w, payload: (TENSOR_MAGIC + struct.pack("<III", h, w, NUM_CLASSES)
                                     + payload[:4 * h * w * NUM_CLASSES]),
              st.integers(0, 3), st.integers(0, 3),
              st.binary(min_size=4 * 9 * NUM_CLASSES, max_size=4 * 9 * NUM_CLASSES)))


@settings(max_examples=200, deadline=None)
@given(data=TENSOR_FILE)
def test_read_tensor_raises_only_library_errors(input_file, data):
    input_file.write_bytes(data)
    try:
        tensor = read_tensor(input_file)
    except SoftPhocError:
        return
    height, width = struct.unpack("<II", data[8:16])
    assert tensor.shape == (height, width, NUM_CLASSES)
    assert tensor.dtype == np.float32
    assert len(data) == 20 + tensor.nbytes
