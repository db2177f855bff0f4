"""File formats: binary tensors, ground-truth annotations, detections.

Tensor files are little-endian and fixed-layout so golden-file tests
are bit-exact across platforms:

    8 bytes   magic "SPHOC\\0v1"
    3 x u32   height, width, channels (must be 38)
    payload   height*width*channels f32, row-major, channel-fastest

Annotation files follow the ICDAR-2015-style convention: one word per
line, "x1,y1,x2,y2,x3,y3,x4,y4,transcription". The transcription may
itself contain commas and inner spaces, and blanks around it are
dropped; lines whose transcription is "###" mark ignore regions and are
skipped.

Detection files are tab-separated with one record per query:

    query  status  x1 y1 x2 y2  rho theta  dtw  bbox_cx bbox_cy bbox_w bbox_h

where status is "found" or "not-found" (placeholders "-" fill the
numeric columns of not-found records).
"""

import math
import os
import struct

import numpy as np

from . import alphabet
from .annotations import SceneAnnotation, WordAnnotation, clamp_quad
from .bbox import BoundingBox
from .errors import (AnnotationParseError, DegenerateSegment, EmptyTranscription,
                     TensorFormatError, TextEncodingError, blocks)
from .geometry import LineSegment
from .spotting import Detection

TENSOR_MAGIC = b"SPHOC\x00v1"
IGNORE_TRANSCRIPTION = "###"

_DETECTION_COLUMNS = ("query", "status", "x1", "y1", "x2", "y2", "rho",
                      "theta", "dtw", "bbox_cx", "bbox_cy", "bbox_w", "bbox_h")


def write_tensor(path, tensor: np.ndarray) -> None:
    """Write a map of any memory layout, rows of about errors.BLOCK_BYTES
    at a time, so no copy of the whole map is made."""
    arr = np.asarray(tensor)
    if arr.ndim != 3 or arr.shape[2] != alphabet.NUM_CLASSES:
        raise TensorFormatError(f"expected (H, W, 38) tensor, got {arr.shape}")
    height, width, channels = arr.shape
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<III", height, width, channels))
        for rows in blocks(arr, 4 * width * channels):
            fh.write(np.ascontiguousarray(rows, dtype="<f4").data)


def read_tensor(path) -> np.ndarray:
    """Read a tensor file into one writable, C-order (H, W, 38) float32
    array, the file's own layout, with no staging copy. The header's
    payload size is checked against the file size before any payload is
    read, so a lying header allocates nothing."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise TensorFormatError("truncated header")
        height, width, channels = struct.unpack("<III", header)
        if channels != alphabet.NUM_CLASSES:
            raise TensorFormatError(f"expected 38 channels, found {channels}")
        count = height * width * channels
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found != 4 * count:
            raise TensorFormatError(
                f"payload is {found} bytes, header promises {4 * count}")
        tensor = np.empty((height, width, channels), dtype="<f4")
        if fh.readinto(tensor) != tensor.nbytes:  # the file shrank
            raise TensorFormatError("truncated payload")
    return tensor.astype(np.float32, copy=False)


def read_text(path) -> str:
    """Contents of a UTF-8 text file, without one leading byte order
    mark (U+FEFF); TextEncodingError names the file when it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise TextEncodingError(
                f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def parse_annotations(text: str, image_width: int | None = None,
                      image_height: int | None = None) -> SceneAnnotation:
    """Parse ICDAR-style ground truth into a SceneAnnotation.

    When image dimensions are given, out-of-image vertices are clamped
    to them; otherwise dimensions are inferred from the vertices.
    """
    words = []
    quads = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.lstrip("﻿").strip()
        if not line:
            continue
        parts = line.split(",", 8)
        if len(parts) != 9:
            raise AnnotationParseError(
                "expected 8 coordinates and a transcription", lineno)
        try:
            coords = [int(p.strip()) for p in parts[:8]]
        except ValueError:
            raise AnnotationParseError("non-integer coordinate", lineno)
        transcription = parts[8].strip()
        if transcription == IGNORE_TRANSCRIPTION:
            continue
        if not transcription:
            raise AnnotationParseError("empty transcription", lineno)
        try:
            quad = np.array(coords, dtype=float).reshape(4, 2)
        except OverflowError:
            raise AnnotationParseError("coordinate out of range", lineno)
        quads.append((lineno, quad, transcription))

    if image_width is None or image_height is None:
        all_pts = np.concatenate([q for _, q, _ in quads]) if quads else np.zeros((1, 2))
        image_width = int(np.ceil(all_pts[:, 0].max())) if image_width is None else image_width
        image_height = int(np.ceil(all_pts[:, 1].max())) if image_height is None else image_height

    for lineno, quad, transcription in quads:
        try:
            words.append(WordAnnotation(
                quad=clamp_quad(quad, image_width, image_height),
                transcription=transcription))
        except (EmptyTranscription, ValueError) as exc:
            raise AnnotationParseError(str(exc), lineno)
    return SceneAnnotation(image_width=image_width, image_height=image_height,
                           words=words)


def load_annotations(path, image_width: int | None = None,
                     image_height: int | None = None) -> SceneAnnotation:
    return parse_annotations(read_text(path), image_width, image_height)


def format_detection_record(query: str, detection: Detection | None,
                            box: BoundingBox | None) -> str:
    # read_text reads "\r" as a line break too
    if any(c in query for c in "\t\n\r"):
        raise AnnotationParseError("query may not contain tabs or line breaks")
    if detection is None:
        return "\t".join([query, "not-found"] + ["-"] * 11)
    seg = detection.segment
    fields = [query, "found",
              f"{seg.x1:.6f}", f"{seg.y1:.6f}", f"{seg.x2:.6f}", f"{seg.y2:.6f}",
              f"{seg.rho:.6f}", f"{seg.theta:.6f}",
              f"{detection.dtw_distance:.9f}",
              f"{box.cx:.6f}", f"{box.cy:.6f}", f"{box.width:.6f}", f"{box.height:.6f}"]
    return "\t".join(fields)


def write_detections(path, records: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# " + "\t".join(_DETECTION_COLUMNS) + "\n")
        for record in records:
            fh.write(record + "\n")


def read_detections(path):
    """Parse a detection file into (query, Detection|None, BoundingBox|None)
    tuples, in file order. Only line 1 may be a "#" header; a later line
    starting with "#" is a record whose query starts with "#". Numeric
    fields must be finite, box sizes >= 0 and the segment one that
    LineSegment accepts: of length finite and above 0."""
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line or (lineno == 1 and line.startswith("#")):
            continue
        parts = line.split("\t")
        if len(parts) != len(_DETECTION_COLUMNS):
            raise AnnotationParseError(
                f"expected {len(_DETECTION_COLUMNS)} columns", lineno)
        query, status = parts[0], parts[1]
        if status == "not-found":
            out.append((query, None, None))
            continue
        if status != "found":
            raise AnnotationParseError(f"unknown status {status!r}", lineno)
        try:
            values = [float(v) for v in parts[2:]]
        except ValueError:
            raise AnnotationParseError("malformed numeric field", lineno)
        if not all(map(math.isfinite, values)):
            raise AnnotationParseError("numeric field not finite", lineno)
        x1, y1, x2, y2, rho, theta, dtw_d, cx, cy, w, h = values
        if w < 0 or h < 0:
            raise AnnotationParseError("negative box width or height", lineno)
        try:
            segment = LineSegment(x1, y1, x2, y2, rho=rho, theta=theta)
        except DegenerateSegment as exc:
            raise AnnotationParseError(str(exc), lineno)
        detection = Detection(query=query, segment=segment, dtw_distance=dtw_d)
        out.append((query, detection, BoundingBox(cx, cy, w, h)))
    return out
