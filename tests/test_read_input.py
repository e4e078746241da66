"""The one reader of input files, ``defaults.read_input``: the lines and the
text of an in-memory copy decoded whole, in universal-newline mode and in
CSV's ``newline=""`` mode, and a peak memory near the file's bytes rather
than a wide copy of its text."""

import io
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks import gen
from planhunt.defaults import read_input
from planhunt.telemetry import load_sample

PIECES = ["a", "é", "☃", "{}", ",", "\n", "\r", "\r\n", "\x0b", "\x85", "\u2028", " ", ""]
texts = st.lists(st.sampled_from(PIECES), max_size=60).map("".join)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_lines_and_text_are_those_of_the_decoded_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("input") / "sample"
    path.write_bytes(text.encode("utf-8"))
    for newline in (None, ""):
        assert list(read_input(path, newline)) == list(io.StringIO(text, newline=newline))
        assert read_input(path, newline).read() == io.StringIO(text, newline=newline).read()


def test_loading_a_trace_peaks_near_its_size(tmp_path):
    # The file's bytes, held while the sample is built, plus the sample
    # itself: 2.15 times the size for a 20,000-event trace, whether the
    # UTF-8 check decodes the bytes at once or in chunks, as that decode is
    # freed before the sample grows. A copy of the text in a StringIO, four
    # bytes per character, peaked at six times the size.
    gen.long_trace(5, 0, tmp_path, events=3000)
    (path,) = tmp_path.glob("*.jsonl")
    tracemalloc.start()
    try:
        load_sample(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size
