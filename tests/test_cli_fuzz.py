"""The CLI's flags fuzzed with extreme values on a tiny map: every run of
spot, simulate and eval ends in exit code 0, 2, 3 or 4, never in an
exception (a traceback) or a RuntimeWarning, and a failing run prints
exactly one `error:` line.

Values that make memory grow with them are kept small: --samples-per-char
and --max-candidates, the Hough resolutions and --blur-sigma (1e-300,
1e300 and 20-digit values are drawn, as they are refused or give one
bin, but nothing in between that could allocate a large accumulator or
kernel), --width and --height, and --jobs, which never exceeds a
handful of threads. --samples-per-char also draws the positive 20-digit
value, whose query encoding is refused before it is allocated: alone,
it must exit 2.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc.annotations import SceneAnnotation, WordAnnotation
from softphoc.cli import main
from softphoc.encoder import embed_scene
from softphoc.fileio import write_tensor

GT = "10,10,80,10,80,30,10,30,hello\n"
HUGE = ("12345678901234567890", "-98765432109876543210")
SPECIAL = ("nan", "-nan", "inf", "-inf", "0", "-0", "-1", "-2.5", "1e-300",
           "-1e-300", "1e300") + HUGE
# the specials whose value could not make memory or threads grow
SMALL = tuple(v for v in SPECIAL if v not in HUGE + ("1e300",)) + HUGE[1:]
# flag: a special value that must exit 2 when it is the only flag
REFUSED = {"--samples-per-char": HUGE[0]}

FLOATS, INTS = (SPECIAL, st.floats(-1e6, 1e6)), (SPECIAL, st.integers(-1000, 1000))
# flag: (special values, strategy of ordinary values), per command
FLAGS = {
    "spot": {
        "--heatmap-threshold": (SPECIAL, st.floats(0, 1)),
        "--hough-min-votes": INTS,
        "--max-candidates": (SMALL, st.integers(-5, 50)),
        "--gap-bridge": INTS,
        "--band-halfwidth": FLOATS,
        "--samples-per-char": (SMALL + HUGE[:1], st.integers(-5, 50)),
        "--jobs": (SMALL, st.integers(-2, 4)),
    },
    "simulate": {
        "--width": (SPECIAL, st.integers(-5, 160)),
        "--height": (SPECIAL, st.integers(-5, 120)),
        "--blur-sigma": (SPECIAL, st.floats(0, 8)),
        "--confusion-rate": FLOATS,
        "--background-leak": FLOATS,
    },
    "eval": {
        "--threshold": FLOATS,
        "--mode": (("line", "bbox", "nan", ""), st.nothing()),
    },
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    quad = np.array([[10, 10], [80, 10], [80, 30], [10, 30]], dtype=float)
    write_tensor(root / "m.sphoc",
                 embed_scene(SceneAnnotation(100, 50, [WordAnnotation(quad, "hello")])))
    (root / "q.txt").write_text("hello\nhell\nxyz\n")
    (root / "gt.txt").write_text(GT)
    assert run_cli(["spot", root / "m.sphoc", root / "q.txt", root / "d.tsv"]) == (0, "")
    return root


def run_cli(argv):
    """(exit code, stderr) of one in-process run; any exception other than
    argparse's SystemExit propagates and fails the test, and so does a
    RuntimeWarning, which would print to stderr beside the one line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse: usage and one error line
            code = exc.code
    return code, err.getvalue()


def command_line(root, command, flags):
    files = {"spot": ["m.sphoc", "q.txt", "out.tsv"],
             "simulate": ["gt.txt", "n.sphoc"],
             "eval": ["d.tsv", "gt.txt"]}[command]
    # simulate requires both sizes; a later drawn one replaces these
    size = ["--width=100", "--height=50"] if command == "simulate" else []
    return [command, *(root / name for name in files), *size, *flags]


def check(argv):
    code, err = run_cli(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, err)
    return code


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_special_value_alone(inputs, command):
    for flag, (specials, _) in FLAGS[command].items():
        for value in specials:
            code = check(command_line(inputs, command, [f"{flag}={value}"]))
            assert code == 2 or REFUSED.get(flag) != value, (flag, value, code)


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_flag_combinations(inputs, command, data):
    flags = FLAGS[command]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                                min_size=1, max_size=4), label="flags")
    values = [data.draw(st.one_of(st.sampled_from(flags[flag][0]),
                                  flags[flag][1].map(str)), label=flag)
              for flag in chosen]
    check(command_line(inputs, command,
                       [f"{flag}={value}" for flag, value in zip(chosen, values)]))
