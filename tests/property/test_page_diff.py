"""``diff_page`` against the byte-by-byte reference it replaced.

The commit protocol publishes a page as the deltas between it and its
twin, so a missed or misplaced byte is lost data.  :func:`reference_deltas`
is the plain loop over byte pairs; ``diff_page`` must return exactly its
maximal runs, including bytes changed *to* 0x00, runs that touch either
end of the page, and one-byte pages.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.memory.diff import Delta, apply_diff, diff_page


def reference_deltas(twin, current):
    """Maximal runs of differing bytes, one byte pair at a time."""
    deltas = []
    run_start = -1
    for index, (old, new) in enumerate(zip(twin, current)):
        if old != new:
            if run_start < 0:
                run_start = index
        elif run_start >= 0:
            deltas.append(Delta(run_start, bytes(current[run_start:index])))
            run_start = -1
    if run_start >= 0:
        deltas.append(Delta(run_start, bytes(current[run_start:])))
    return deltas


@st.composite
def page_pairs(draw):
    """``(twin, current)``: a random page and a copy with runs rewritten."""
    size = draw(st.one_of(st.just(1), st.integers(1, 96), st.just(4096)))
    twin = draw(st.binary(min_size=size, max_size=size))
    current = bytearray(twin)
    if draw(st.booleans()):
        # Rewrite runs: to zero, to the complement (always a change), or
        # to arbitrary bytes (possibly unchanged ones).
        runs = st.tuples(
            st.integers(0, size - 1), st.integers(1, 12), st.sampled_from(["zero", "flip", "any"])
        )
        for start, length, kind in draw(st.lists(runs, max_size=6)):
            end = min(start + length, size)
            if kind == "zero":
                current[start:end] = bytes(end - start)
            elif kind == "flip":
                current[start:end] = bytes(byte ^ 0xFF for byte in current[start:end])
            else:
                current[start:end] = draw(st.binary(min_size=end - start, max_size=end - start))
    return twin, bytes(current)


@settings(max_examples=300)
@given(page_pairs())
@example((b"\x07", b"\x00"))  # one-byte page, changed to zero
@example((b"\x07", b"\x07"))  # one-byte page, unchanged
@example((bytes(range(64)), bytes(range(64))))  # identical pages
@example((bytes(range(1, 65)), bytes(64)))  # every byte changed, all to zero
@example((bytes(range(64)), bytes(byte ^ 0xFF for byte in range(64))))  # every byte changed
@example((bytes(32), b"\x01" + bytes(30) + b"\x01"))  # runs at offset 0 and the last byte
@example((b"\x01\x02" + bytes(28) + b"\x03\x04", bytes(32)))  # ... changed to zero
def test_diff_equals_the_byte_loop_and_reproduces_the_page(pair):
    twin, current = pair
    diff = diff_page(9, twin, current)
    assert diff.page == 9
    assert list(diff.deltas) == reference_deltas(twin, current)
    patched = bytearray(twin)
    apply_diff(patched, diff)
    assert bytes(patched) == current


@pytest.mark.parametrize("twin, current", [(bytes(4), bytes(5)), (bytes(1), b""), (b"", bytes(1))])
def test_length_mismatch_is_rejected(twin, current):
    with pytest.raises(ValueError):
        diff_page(0, twin, current)
