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
import mmap
import os
import re
import secrets
import stat
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
    at a time, so no copy of the whole map is made. A regular file (or
    one that does not exist yet) is written under a temporary name in
    its directory, which is then renamed over it, keeping an old file's
    mode and following symlinks. So a write that fails, or a process
    killed while writing, leaves the old file whole, and maps read_tensor
    read from the old file keep its bytes. Any other target, such as
    /dev/null or a pipe, is written directly."""
    arr = np.asarray(tensor)
    if arr.ndim != 3 or arr.shape[2] != alphabet.NUM_CLASSES:
        raise TensorFormatError(f"expected (H, W, 38) tensor, got {arr.shape}")
    try:
        old = os.stat(path)
    except FileNotFoundError:
        if not os.fspath(path):  # as open("") refuses it
            raise
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as fh:
            _write_rows(fh, arr)
        return
    target = os.path.realpath(path)
    temp = f"{target}.{secrets.token_hex(6)}.tmp"
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                if old is not None:
                    os.fchmod(fd, stat.S_IMODE(old.st_mode))
                _write_rows(fh, arr)
            os.replace(temp, target)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        # named by the path asked for, not by the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _write_rows(fh, arr: np.ndarray) -> None:
    height, width, channels = arr.shape
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<III", height, width, channels))
    for rows in blocks(arr, 4 * width * channels):
        fh.write(np.ascontiguousarray(rows, dtype="<f4").data)


def read_tensor(path) -> np.ndarray:
    """A tensor file as one writable, C-order (H, W, 38) float32 array,
    the file's own layout. The header's payload size is checked against
    the file size before any payload is touched, so a lying header
    allocates nothing. The payload is then mapped copy-on-write, not
    copied: pages come from the page cache on first touch, and writes to
    the array stay private to it. So the file must not be truncated or
    rewritten while an array read from it lives: the array would show
    the new bytes where it was not written to, and a read of a page cut
    off ends the process with SIGBUS. write_tensor renames a new file
    over the path instead, so writing any map to it, this array
    included, is safe. A path that is not a regular file, such as a
    pipe, has no size to check and is refused before a byte is read;
    it is opened without blocking, so a pipe with no writer is too."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if not stat.S_ISREG(os.stat(fd).st_mode):  # fstat of fd
        os.close(fd)
        raise TensorFormatError(f"{path}: not a regular file")
    with open(fd, "rb") as fh:
        magic = fh.read(8)
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}")
        header = fh.read(12)
        if len(header) != 12:
            raise TensorFormatError("truncated header")
        height, width, channels = struct.unpack("<III", header)
        if channels != alphabet.NUM_CLASSES:
            raise TensorFormatError(f"expected 38 channels, found {channels}")
        count, start = height * width * channels, fh.tell()
        found = os.fstat(fh.fileno()).st_size - start
        if found != 4 * count:
            raise TensorFormatError(
                f"payload is {found} bytes, header promises {4 * count}")
        try:
            payload = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except ValueError:  # the file is now empty
            payload = b""
        if len(payload) - start < 4 * count:  # the file shrank
            raise TensorFormatError("truncated payload")
    tensor = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
    return tensor.reshape(height, width, channels).astype(np.float32, copy=False)


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
        line = raw.lstrip("\ufeff").strip()
        if not line:
            continue
        parts = line.split(",", 8)
        if len(parts) != 9:
            raise AnnotationParseError(
                "expected 8 coordinates and a transcription", lineno)
        try:
            coords = [_integer(p) for p in parts[:8]]
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
                transcription=transcription, line_number=lineno))
        except (EmptyTranscription, ValueError) as exc:
            raise AnnotationParseError(str(exc), lineno)
    return SceneAnnotation(image_width=image_width, image_height=image_height,
                           words=words)


def _integer(text: str) -> int:
    """An ASCII [+-]?[0-9]+ coordinate, blanks around it allowed; int()
    alone would also take "1_0" and non-ASCII digits."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """A detection field as float() reads it, but ASCII and without "_"."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


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
            values = [_float(v) for v in parts[2:]]
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
