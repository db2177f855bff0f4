import contextlib
import dataclasses
import errno
import math
import os
import signal
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import fileio
from softphoc.annotations import WordAnnotation, clamp_quad
from softphoc.bbox import BoundingBox
from softphoc.errors import (AnnotationParseError, DegenerateQuad, EmptyTranscription,
                             TensorFormatError)
from softphoc.fileio import (TENSOR_MAGIC, format_detection_record,
                             parse_annotations, read_detections, read_tensor,
                             write_detections, write_tensor)
from softphoc.geometry import LineSegment
from softphoc.spotting import Detection

from scenegen import rotated_rect_quad


def header(height, width, channels=38):
    return TENSOR_MAGIC + struct.pack("<III", height, width, channels)


def peak_bytes_of_failed_read(path):
    """Peak traced allocation while read_tensor rejects `path`."""
    tracemalloc.start()
    try:
        with pytest.raises(TensorFormatError):
            read_tensor(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "t.sphoc"
        tensor = rng.random((7, 9, 38)).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert back.dtype == np.float32
        assert back.tobytes() == tensor.tobytes()

    def test_denormal_adjacent_values_survive(self, tmp_path):
        path = tmp_path / "t.sphoc"
        tensor = np.zeros((1, 2, 38), dtype=np.float32)
        tensor[0, 0, :4] = [np.float32(1e-40), np.finfo(np.float32).tiny,
                            np.finfo(np.float32).max, np.float32(-0.0)]
        write_tensor(path, tensor)
        assert read_tensor(path).tobytes() == tensor.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sphoc"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.zeros((2, 2, 38), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_truncated_payload_of_large_header_allocates_nothing(self, tmp_path):
        path = tmp_path / "t.sphoc"
        path.write_bytes(header(400, 400) + b"\x00" * 64)  # promises 24 MB
        assert peak_bytes_of_failed_read(path) < 1 << 20

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.zeros((2, 3, 38), dtype=np.float32))
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        assert peak_bytes_of_failed_read(path) < 1 << 20

    def test_file_shrinking_after_the_size_check_is_a_truncated_payload(self, tmp_path,
                                                                          monkeypatch):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.zeros((2, 3, 38), dtype=np.float32))
        promised = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = fileio.os.fstat
        monkeypatch.setattr(fileio.os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], promised, *real_fstat(fd)[7:])))
        with pytest.raises(TensorFormatError, match="^truncated payload$"):
            read_tensor(path)

    def test_header_alone_promising_60000_squared_allocates_nothing(self, tmp_path):
        path = tmp_path / "t.sphoc"
        path.write_bytes(header(60000, 60000))
        assert path.stat().st_size == 20
        assert peak_bytes_of_failed_read(path) < 1 << 20

    def test_read_array_is_writable_float32(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.full((3, 2, 38), 0.5))  # float64 in, f32 on disk
        back = read_tensor(path)
        assert back.dtype == np.float32 and back.flags.writeable
        assert path.stat().st_size == 20 + 3 * 2 * 38 * 4
        back[0, 0, 0] = 1.0

    def test_read_map_is_c_order_with_the_file_values(self, tmp_path):
        path = tmp_path / "t.sphoc"
        # more rows than one write block holds, and a height that is not a
        # multiple of the block
        tensor = np.random.default_rng(1).random((61, 300, 38)).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert back.shape == (61, 300, 38) and back.dtype == np.float32
        assert back.flags.c_contiguous
        plain = np.fromfile(path, dtype="<f4", offset=20).reshape(61, 300, 38)
        assert np.array_equal(back, plain)
        assert back.tobytes() == tensor.tobytes()

    @pytest.mark.parametrize("shape", [(0, 5, 38), (4, 0, 38)])
    def test_empty_map_round_trips(self, tmp_path, shape):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.zeros(shape, dtype=np.float32))
        assert read_tensor(path).shape == shape

    def test_rewriting_a_read_map_reproduces_the_file(self, tmp_path):
        path, again = tmp_path / "t.sphoc", tmp_path / "u.sphoc"
        write_tensor(path, np.random.default_rng(2).random((50, 301, 38)))
        write_tensor(again, read_tensor(path))
        assert again.read_bytes() == path.read_bytes()

    def test_reading_a_map_allocates_only_the_map(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.random.default_rng(4).random((200, 300, 38)))
        tracemalloc.start()
        try:
            back = read_tensor(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.nbytes == 200 * 300 * 38 * 4
        assert peak <= back.nbytes + (64 << 10), peak

    def test_writing_a_planar_map_copies_no_whole_map(self, tmp_path):
        tensor = np.random.default_rng(3).random((200, 300, 38)).astype(np.float32)
        # the (H, W, 38) view of a C-order (38, H, W) array: 9.1 MB, not C-order
        planar = np.ascontiguousarray(tensor.transpose(2, 0, 1)).transpose(1, 2, 0)
        tracemalloc.start()
        try:
            write_tensor(tmp_path / "u.sphoc", planar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak
        assert read_tensor(tmp_path / "u.sphoc").tobytes() == tensor.tobytes()

    def test_wrong_channel_count_rejected(self, tmp_path):
        with pytest.raises(TensorFormatError):
            write_tensor(tmp_path / "t.sphoc", np.zeros((2, 2, 37)))

    def test_writing_to_a_read_map_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.random.default_rng(5).random((9, 11, 38)))
        data = path.read_bytes()
        back = read_tensor(path)
        back[...] = 7.0
        back[4, 5, 6] = -1.0
        assert path.read_bytes() == data
        assert read_tensor(path).tobytes() == data[20:]
        assert back[4, 5, 6] == -1.0 and back[0, 0, 0] == 7.0

    def test_read_map_keeps_its_values_after_the_file_is_unlinked(self, tmp_path):
        path = tmp_path / "t.sphoc"
        tensor = np.random.default_rng(6).random((40, 70, 38)).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        path.unlink()
        assert back.tobytes() == tensor.tobytes()
        back[1, 2] = 0.5  # still writable
        assert back[1, 2, 37] == 0.5

    def test_read_map_written_back_to_its_own_file_round_trips(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.random.default_rng(9).random((30, 40, 38)))
        back = read_tensor(path)
        back[::3] *= 0.5  # some pages private to the array, some still the file's
        expected = back.tobytes()
        write_tensor(path, back)
        assert back.tobytes() == expected
        assert path.read_bytes()[20:] == expected

    def test_smaller_map_overwrites_a_larger_file(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.ones((5, 6, 38)))
        write_tensor(path, np.zeros((2, 3, 38)))
        assert path.stat().st_size == 20 + 2 * 3 * 38 * 4
        assert read_tensor(path).tobytes() == np.zeros((2, 3, 38), np.float32).tobytes()

    @pytest.mark.parametrize("failure", [MemoryError(), OSError(errno.ENOSPC, "full")])
    def test_write_failing_part_way_leaves_the_old_file(self, tmp_path, monkeypatch,
                                                        failure):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.ones((30, 40, 38)))
        data = path.read_bytes()

        def two_blocks_then_fail(rows, row_bytes):
            yield rows[:5]
            yield rows[5:10]
            raise failure
        monkeypatch.setattr(fileio, "blocks", two_blocks_then_fail)
        with pytest.raises(type(failure)):
            write_tensor(path, np.zeros((30, 40, 38)))
        assert path.read_bytes() == data
        assert os.listdir(tmp_path) == ["t.sphoc"]  # no temporary file left

    def test_write_killed_part_way_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.ones((30, 40, 38)))
        data = path.read_bytes()
        # The child writes the same shape and is killed after one block,
        # so no cleanup of any kind runs.
        script = (
            "import os, signal, sys, numpy as np\n"
            "from softphoc import fileio\n"
            "def one_block_then_die(rows, row_bytes):\n"
            "    yield rows[:5]\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "fileio.blocks = one_block_then_die\n"
            "fileio.write_tensor(sys.argv[1], np.zeros((30, 40, 38)))\n")
        package_root = str(Path(fileio.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env)
        assert proc.returncode == -signal.SIGKILL
        assert path.read_bytes() == data
        assert read_tensor(path).tobytes() == data[20:]
        # only the half-written temporary file is left beside it
        leftover = sorted(os.listdir(tmp_path))
        assert len(leftover) == 2 and leftover[0] == "t.sphoc"
        assert leftover[1].startswith("t.sphoc.") and leftover[1].endswith(".tmp")

    def test_read_map_keeps_its_bytes_when_a_smaller_map_is_written_over(self,
                                                                         tmp_path):
        path = tmp_path / "t.sphoc"
        tensor = np.random.default_rng(10).random((40, 70, 38)).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        write_tensor(path, np.zeros((2, 3, 38)))
        assert back.tobytes() == tensor.tobytes()
        assert read_tensor(path).shape == (2, 3, 38)

    def test_rewrite_keeps_the_mode_and_follows_a_symlink(self, tmp_path):
        path, link = tmp_path / "t.sphoc", tmp_path / "link.sphoc"
        write_tensor(path, np.ones((2, 3, 38)))
        path.chmod(0o640)
        link.symlink_to(path.name)
        write_tensor(link, np.zeros((4, 3, 38)))
        assert link.is_symlink() and os.readlink(link) == path.name
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert read_tensor(path).shape == (4, 3, 38)

    def test_pipe_is_written_directly(self, tmp_path):
        fifo, plain = tmp_path / "p", tmp_path / "t.sphoc"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_tensor(fifo, np.ones((2, 3, 38)))
        reader.join(timeout=10)
        write_tensor(plain, np.ones((2, 3, 38)))
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert got == [plain.read_bytes()]

    def test_write_errors_name_the_path_asked_for(self, tmp_path, monkeypatch):
        missing = tmp_path / "nodir" / "x.sphoc"
        with pytest.raises(FileNotFoundError) as err:
            write_tensor(missing, np.ones((2, 3, 38)))
        assert str(err.value) == f"[Errno 2] No such file or directory: '{missing}'"
        # "" is refused as open("") refuses it, before any file is made
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        with monkeypatch.context() as patch, pytest.raises(FileNotFoundError) as err:
            patch.setattr(fileio.os, "open", None)
            write_tensor("", np.ones((2, 3, 38)))
        assert str(err.value) == "[Errno 2] No such file or directory: ''"

    def test_pipe_is_refused_naming_its_path(self, tmp_path):
        fifo, plain = tmp_path / "p", tmp_path / "t.sphoc"
        write_tensor(plain, np.ones((2, 3, 38)))

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as fh:
                fh.write(plain.read_bytes())
        os.mkfifo(fifo)
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        with pytest.raises(TensorFormatError, match=f"^{fifo}: not a regular file$"):
            read_tensor(fifo)
        # read_tensor does not wait for the writer; one still opening the
        # pipe waits for a reader
        while writer.is_alive():
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=0.1)

    def test_pipe_with_no_writer_is_refused_at_once(self, tmp_path):
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        errors = []

        def read():
            with pytest.raises(TensorFormatError) as err:
                read_tensor(fifo)
            errors.append(str(err.value))
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "read_tensor waits for a writer"
        assert errors == [f"{fifo}: not a regular file"]

    def test_directory_is_refused_naming_its_path(self, tmp_path):
        with pytest.raises(TensorFormatError, match=f"^{tmp_path}: not a regular file$"):
            read_tensor(tmp_path)

    @pytest.mark.parametrize("shape", [(1, 7, 38), (1, 1, 38)])
    def test_one_row_maps_round_trip_bit_exact(self, tmp_path, shape):
        path = tmp_path / "t.sphoc"
        tensor = np.random.default_rng(7).random(shape).astype(np.float32)
        write_tensor(path, tensor)
        back = read_tensor(path)
        assert back.shape == shape and back.dtype == np.float32
        assert back.flags.c_contiguous and back.flags.writeable
        assert back.tobytes() == tensor.tobytes()

    def test_file_emptied_after_the_size_check_is_a_truncated_payload(self, tmp_path,
                                                                        monkeypatch):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.zeros((2, 3, 38), dtype=np.float32))
        real_fstat = fileio.os.fstat

        def stat_then_empty(fd):
            result = real_fstat(fd)
            os.truncate(path, 0)
            return result
        monkeypatch.setattr(fileio.os, "fstat", stat_then_empty)
        with pytest.raises(TensorFormatError, match="^truncated payload$"):
            read_tensor(path)

    def test_reading_a_map_allocates_no_payload(self, tmp_path):
        path = tmp_path / "t.sphoc"
        write_tensor(path, np.random.default_rng(8).random((200, 300, 38)))
        tracemalloc.start()
        try:
            back = read_tensor(path)
            total = float(back.sum(dtype=np.float64))  # every page touched
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.nbytes == 200 * 300 * 38 * 4 and total > 0.0
        assert peak < 1 << 20, peak  # the payload is 9.1 MB


class TestAnnotationParsing:
    def test_icdar_layout(self):
        text = "377,117,463,117,465,130,378,130,Genaxis Theatre\n" \
               "493,115,519,115,519,131,493,131,[06]\n" \
               "374,155,409,155,409,170,374,170,###\n"
        scene = parse_annotations(text, 1280, 720)
        assert len(scene.words) == 2
        assert scene.words[0].transcription == "Genaxis Theatre"
        assert scene.words[1].transcription == "[06]"

    def test_transcription_may_contain_commas(self):
        text = "0,0,10,0,10,10,0,10,a,b,c\n"
        scene = parse_annotations(text, 20, 20)
        assert scene.words[0].transcription == "a,b,c"

    def test_blanks_around_the_transcription_are_dropped(self):
        text = ("10, 10, 60, 10, 60, 30, 10, 30, hello\n"
                "0, 0, 10, 0, 10, 10, 0, 10, ###\n"
                "0,0,10,0,10,10,0,10,\t Genaxis Theatre \n")
        scene = parse_annotations(text, 100, 40)
        assert [w.transcription for w in scene.words] == ["hello", "Genaxis Theatre"]

    def test_blank_transcription_is_empty(self):
        with pytest.raises(AnnotationParseError, match="^line 2: empty transcription$"):
            parse_annotations("0,0,10,0,10,10,0,10,ok\n0,0,10,0,10,10,0,10, \t \n", 20, 20)

    def test_ignore_regions_skipped(self):
        text = "0,0,10,0,10,10,0,10,###\n"
        scene = parse_annotations(text, 20, 20)
        assert scene.words == []

    def test_bom_and_blank_lines(self):
        text = "\ufeff0,0,10,0,10,10,0,10,word\n\n  \n"
        scene = parse_annotations(text, 20, 20)
        assert len(scene.words) == 1

    def test_field_count_error_carries_line_number(self):
        with pytest.raises(AnnotationParseError) as err:
            parse_annotations("0,0,10,0,10,10,0,word\n", 20, 20)
        assert err.value.line_number == 1

    def test_non_integer_coordinate(self):
        text = "0,0,10,0,10,10,0,10,ok\n1,2,x,4,5,6,7,8,bad\n"
        with pytest.raises(AnnotationParseError) as err:
            parse_annotations(text, 20, 20)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("coordinate", [
        "1_0", "١٠", "１０", "10.0", "1e1", "0x10", "+ 10", "--10", "", "ten"])
    def test_coordinate_must_be_ascii_decimal_digits(self, coordinate):
        text = f"0,0,10,0,10,10,0,10,ok\n{coordinate},10,60,10,60,30,10,30,bad\n"
        with pytest.raises(AnnotationParseError, match="^line 2: non-integer coordinate$"):
            parse_annotations(text, 100, 40)

    def test_signed_coordinates_with_blanks_are_accepted(self):
        scene = parse_annotations(" +10 ,\t10,60,10,60,30,-5, 30 ,word\n", 100, 40)
        assert scene.words[0].quad.tolist() == [[10, 10], [60, 10], [60, 30], [0, 30]]

    def test_words_record_their_line_which_equality_ignores(self):
        text = "0,0,10,0,10,10,0,10,a\n\n0,0,10,0,10,10,0,10,###\n0,0,10,0,10,10,0,10,b\n"
        scene = parse_annotations(text, 20, 20)
        assert [w.line_number for w in scene.words] == [1, 4]
        assert WordAnnotation(scene.words[0].quad, "a").line_number is None
        compared = [f.name for f in dataclasses.fields(WordAnnotation) if f.compare]
        assert compared == ["quad", "transcription"]

    def test_vertices_clamped_to_image(self):
        scene = parse_annotations("-5,-5,30,-5,30,15,-5,15,word\n", 20, 10)
        quad = scene.words[0].quad
        assert quad.min() >= 0.0
        assert quad[:, 0].max() <= 20.0
        assert quad[:, 1].max() <= 10.0

    def test_dims_inferred_when_missing(self):
        scene = parse_annotations("0,0,30,0,30,15,0,15,word\n")
        assert scene.image_width == 30
        assert scene.image_height == 15

    @pytest.mark.parametrize("digits", [309, 401, 4300])
    def test_coordinate_beyond_float_range_names_its_line(self, digits):
        # 10**308 still fits a float64; from 309 digits on it overflows,
        # and Python refuses to parse integers of more than 4300 digits
        text = f"0,0,10,0,10,10,0,10,ok\n{'9' * digits},0,10,0,10,10,0,10,big\n"
        with pytest.raises(AnnotationParseError, match="line 2: coordinate out of range") as err:
            parse_annotations(text, 20, 20)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("coords", [
        "10,10,10,30,90,30,90,10",  # counter-clockwise on screen
        "10,10,90,10,50,15,10,30",  # concave
        "10,10,90,20,90,10,10,40",  # self-intersecting, positive area
    ])
    def test_misordered_or_non_convex_quad_names_its_line(self, coords):
        text = f"0,0,40,0,40,10,0,10,ok\n{coords},word\n"
        with pytest.raises(AnnotationParseError) as err:
            parse_annotations(text, 100, 40)
        assert err.value.line_number == 2
        with pytest.raises(DegenerateQuad):
            WordAnnotation(np.array(coords.split(","), dtype=float), "word")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0 ** 510, -2.0 ** 510])
    def test_coordinate_not_finite_or_from_2_to_the_510_refused(self, bad):
        quad = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        quad[2, 0] = bad
        with pytest.raises(DegenerateQuad, match="quad of 'big' has a coordinate out of range"):
            WordAnnotation(quad, "big")
        # just below the bound, the products stay in range
        edge = math.nextafter(2.0 ** 510, 0.0)
        WordAnnotation(np.array([[-edge, -edge], [edge, -edge], [edge, edge], [-edge, edge]]),
                       "big")

    def test_overflowing_quad_names_its_line(self):
        big = 10 ** 200
        text = f"0,0,{big},0,{big},{big},0,{big},big\n"
        with pytest.raises(AnnotationParseError) as err:
            parse_annotations(text)
        assert str(err.value) == "line 1: quad of 'big' has a coordinate out of range"
        assert err.value.line_number == 1

    def test_parse_error_prefixes_its_line_number(self):
        assert str(AnnotationParseError("bad field", 7)) == "line 7: bad field"
        assert AnnotationParseError("bad field", 7).line_number == 7
        assert str(AnnotationParseError("bad field")) == "bad field"

    def test_word_annotation_needs_a_transcription(self):
        quad = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        with pytest.raises(EmptyTranscription):
            WordAnnotation(quad, "")

    def test_collinear_vertex_allowed_while_area_is_positive(self):
        # a triangle with a vertex on one edge, as clamping can produce
        scene = parse_annotations("0,0,20,0,40,0,0,30,tri\n", 50, 40)
        assert len(scene.words) == 1


@settings(max_examples=300, deadline=None)
@given(cx=st.floats(-60, 260), cy=st.floats(-60, 200),
       width=st.floats(2, 300), height=st.floats(2, 80),
       angle=st.floats(-180, 180), image=st.tuples(st.integers(1, 200),
                                                   st.integers(1, 140)))
def test_clockwise_rotated_rectangles_are_accepted(cx, cy, width, height, angle, image):
    quad = rotated_rect_quad(cx, cy, width, height, angle)
    WordAnnotation(quad, "word")
    clamped = clamp_quad(quad, *image)
    try:
        WordAnnotation(clamped, "word")
    except DegenerateQuad as exc:
        # clamping may squash a quad lying outside the image to zero area
        assert "zero area" in str(exc)


class TestDetectionRecords:
    def test_round_trip(self, tmp_path):
        seg = LineSegment.from_endpoints(1.5, 2.0, 50.25, 3.0, votes=12)
        det = Detection(query="hello", segment=seg, dtw_distance=0.125,
                        candidates_considered=4)
        box = BoundingBox(cx=25.875, cy=2.5, width=48.75, height=9.75)
        records = [format_detection_record("hello", det, box),
                   format_detection_record("missing", None, None)]
        path = tmp_path / "det.tsv"
        write_detections(path, records)
        rows = read_detections(path)
        assert len(rows) == 2
        query, parsed, parsed_box = rows[0]
        assert query == "hello"
        assert parsed.segment.x1 == pytest.approx(seg.x1)
        assert parsed.segment.theta == pytest.approx(seg.theta, abs=1e-6)
        assert parsed.dtw_distance == pytest.approx(0.125)
        assert parsed_box == BoundingBox(25.875, 2.5, 48.75, 9.75)
        assert rows[1] == ("missing", None, None)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "det.tsv"
        write_detections(path, [format_detection_record("hello", None, None)])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_detections(path) == [("hello", None, None)]

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "det.tsv"
        path.write_text("onlyquery\tfound\t1\n")
        with pytest.raises(AnnotationParseError):
            read_detections(path)

    def test_hash_query_after_the_header_is_a_record(self, tmp_path):
        path = tmp_path / "det.tsv"
        write_detections(path, [format_detection_record(q, None, None)
                                for q in ("#1st", "#", "plain")])
        assert read_detections(path) == [("#1st", None, None), ("#", None, None),
                                         ("plain", None, None)]
        path.write_text("#1st\tnot-found" + "\t-" * 11 + "\n")
        assert read_detections(path) == []  # line 1 is the optional header

    @pytest.mark.parametrize("column, value, message", [
        (2, "nan", "not finite"),      # x1
        (8, "inf", "not finite"),      # dtw
        (9, "-inf", "not finite"),     # bbox_cx
        (12, "NaN", "not finite"),     # bbox_h
        (6, "1e999", "not finite"),    # rho overflows to inf
        (11, "-70", "negative box"),   # bbox_w
        (12, "-0.5", "negative box"),  # bbox_h
    ])
    def test_non_finite_field_or_negative_box_names_its_line(self, tmp_path,
                                                             column, value, message):
        fields = ["word", "found"] + ["1.0"] * 11
        fields[column] = value
        path = tmp_path / "det.tsv"
        write_detections(path, [format_detection_record("ok", None, None),
                                "\t".join(fields)])
        with pytest.raises(AnnotationParseError, match=f"line 3: .*{message}") as err:
            read_detections(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("column, value", [
        (2, "1_0.000000"), (3, "١٠"), (8, "0.1_25"), (9, "１"), (12, "1\u00a0")])
    def test_numeric_field_must_be_ascii_without_underscores(self, tmp_path,
                                                             column, value):
        fields = ["word", "found", "10.000000", "20", "30", "20"] + ["1.0"] * 7
        fields[column] = value
        path = tmp_path / "det.tsv"
        write_detections(path, [format_detection_record("ok", None, None),
                                "\t".join(fields)])
        with pytest.raises(AnnotationParseError,
                           match="^line 3: malformed numeric field$") as err:
            read_detections(path)
        assert err.value.line_number == 3

    def test_zero_length_segment_names_its_line(self, tmp_path):
        path = tmp_path / "det.tsv"
        # x1 y1 == x2 y2, written as -0.0 and 0.0 at one end
        fields = ["word", "found", "3", "-0.0", "3.0", "0"] + ["1.0"] * 7
        write_detections(path, [format_detection_record("ok", None, None),
                                "\t".join(fields)])
        with pytest.raises(AnnotationParseError, match="line 3: zero-length segment") as err:
            read_detections(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("x1, x2", [("-1e308", "1e308"), ("-9e307", "9e307")])
    def test_overflowing_segment_length_names_its_line(self, tmp_path, x1, x2):
        # every field is finite, but the segment's length is not
        path = tmp_path / "det.tsv"
        fields = ["word", "found", x1, "20", x2, "20"] + ["1.0"] * 7
        write_detections(path, [format_detection_record("ok", None, None),
                                "\t".join(fields)])
        with pytest.raises(AnnotationParseError,
                           match="line 3: segment of non-finite length") as err:
            read_detections(path)
        assert err.value.line_number == 3

    def test_subnormal_segment_length_accepted(self, tmp_path):
        path = tmp_path / "det.tsv"
        fields = ["word", "found", "0", "20", "1e-320", "20"] + ["1.0"] * 7
        write_detections(path, ["\t".join(fields)])
        (_, det, _), = read_detections(path)
        assert det.segment.length == 1e-320

    def test_zero_sized_box_accepted(self, tmp_path):
        path = tmp_path / "det.tsv"
        # a segment from (0, 0) to (1, 0); every other field 0
        fields = ["word", "found", "0", "0", "1"] + ["0"] * 8
        write_detections(path, ["\t".join(fields)])
        (_, _, box), = read_detections(path)
        assert box == BoundingBox(0.0, 0.0, 0.0, 0.0)

    def test_tab_in_query_rejected(self):
        with pytest.raises(AnnotationParseError):
            format_detection_record("a\tb", None, None)

    @pytest.mark.parametrize("query", ["ab\rcd", "ab\ncd"])
    def test_line_break_in_query_rejected(self, query):
        # read_detections would split the record at the "\r" too
        seg = LineSegment.from_endpoints(1.5, 2.0, 50.25, 3.0, votes=12)
        det = Detection(query=query, segment=seg, dtw_distance=0.125)
        box = BoundingBox(cx=25.875, cy=2.5, width=48.75, height=9.75)
        with pytest.raises(AnnotationParseError, match="line breaks"):
            format_detection_record(query, det, box)
        with pytest.raises(AnnotationParseError, match="line breaks"):
            format_detection_record(query, None, None)
