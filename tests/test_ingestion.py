from __future__ import annotations

import io
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adl_engine import ingestion, tables
from adl_engine.ingestion import (
    AnnotationParseError,
    BinarySeries,
    OccurrenceRecord,
    SensorSample,
    Source,
    TraceParseError,
    binarize,
    iter_power_trace,
    merge_sorted,
    parse_adl_log,
    parse_power_trace,
    power_trace_blocks,
    read_occurrences,
    segment_occurrences,
    trace_occurrences,
    write_occurrences,
)
from adl_engine.tables import TRACE_BLOCK_CHARS


def _samples(values: list[float], channel: str = "tv", period: int = 6,
             t0: int = 1_700_000_000) -> list[SensorSample]:
    return [
        SensorSample(timestamp=t0 + i * period, channel=channel, value=v)
        for i, v in enumerate(values)
    ]


def _states(series: BinarySeries) -> list[int]:
    return [state for _, state in series.points]


# ---------------------------------------------------------------------------
# parse_power_trace
# ---------------------------------------------------------------------------

def test_parse_power_trace_six_second_spacing():
    text = "\n".join(f"{1700000000 + 6 * i} 42.0" for i in range(10))
    samples = parse_power_trace(io.StringIO(text), "tv")
    assert len(samples) == 10
    assert samples[-1].timestamp - samples[0].timestamp == 54
    assert all(s.channel == "tv" for s in samples)


def test_parse_power_trace_empty_stream():
    assert parse_power_trace(io.StringIO(""), "tv") == []


def test_parse_power_trace_truncates_subsecond_timestamps():
    samples = parse_power_trace(io.StringIO("1700000000.9 5.0"), "tv")
    assert samples[0].timestamp == 1700000000


@pytest.mark.parametrize("line, fragment", [
    ("1700000000 1.0 extra", "expected 'timestamp watts'"),
    ("1700000000 watts", "non-numeric"),
    ("1700000000 -3.0", ">= 0"),
])
def test_parse_power_trace_rejects_malformed_second_line(line, fragment):
    text = f"1699999994 1.0\n{line}\n"
    with pytest.raises(TraceParseError, match="line 2") as excinfo:
        parse_power_trace(io.StringIO(text), "tv")
    assert fragment in str(excinfo.value)


def test_parse_power_trace_rejects_non_monotonic_timestamp():
    text = "1700000000 1.0\n1700000000 2.0\n"
    with pytest.raises(TraceParseError, match="not after"):
        parse_power_trace(io.StringIO(text), "tv")


@pytest.mark.parametrize("stamp", ["inf", "-inf", "1e400"])
def test_parse_power_trace_rejects_infinite_timestamp(stamp):
    text = f"1699999994 1.0\n{stamp} 5.0\n"
    with pytest.raises(TraceParseError, match="tv: line 2: timestamp must be finite"):
        parse_power_trace(io.StringIO(text), "tv")


# ---------------------------------------------------------------------------
# power_trace_blocks: the block reader, checked against iter_power_trace
# ---------------------------------------------------------------------------

_WATTS = st.sampled_from(
    ["0", "12.5", "3000", "-0.0", "-3", "inf", "nan", "1e400", "1e308", "7e", "+4"]
) | st.floats(0, 5000).map(repr)


@st.composite
def _trace_texts(draw):
    """Trace text that is mostly valid, with the variants the fast path must
    hand to the per-line parser: tabs, CRLF, blank lines, exponent and
    fractional stamps, stamps beyond 2**53, bad watts, and arbitrary lines."""
    ts = draw(st.sampled_from([0, 1_700_000_000, 2**53 - 3, -(2**53) - 3]))
    text = ""
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)):
            ts += draw(st.sampled_from([6] * 6 + [1, 0, -1]))
            stamp = draw(st.sampled_from(["{}"] * 4 + ["{}.9", "{}e0", "+{}"])).format(ts)
            line = stamp + draw(st.sampled_from([" "] * 6 + ["\t", "  "])) + draw(_WATTS)
        else:
            line = draw(st.text(alphabet="0123456789 .e-+\tx", max_size=12))
        text += line + draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\n\n"]))
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no final line end
    return text


def _samples_or_error(read):
    try:
        return read(), None
    except TraceParseError as exc:
        return None, str(exc)


@settings(max_examples=300, derandomize=True)
@given(text=_trace_texts(), block_chars=st.sampled_from([TRACE_BLOCK_CHARS, 64, 8, 3]))
@example(text="5 1\n6 -2\n", block_chars=4)  # an error on a block's first line
@example(text="5 1\n7 1\n7 2\n", block_chars=4)  # non-monotonic across a block edge
@example(text="5 1\n7 1\n7 2\n", block_chars=64)  # non-monotonic inside a block
@example(text="5 \n6 7\n", block_chars=64)  # an empty field
@example(text=" 5\n6 7\n", block_chars=64)
@example(text="5 1\n6 2", block_chars=4)  # no final line end
@example(text="1700000000.9 5.0\n1700000001.2 6\n", block_chars=64)
@example(text="9007199254740993 1\n9007199254740994 1\n", block_chars=64)
@example(text="1 inf\n2 nan\n", block_chars=64)
@example(text="1 1e400\n", block_chars=64)
def test_power_trace_blocks_match_iter_power_trace(text, block_chars):
    _check_blocks_against_iter_power_trace(text, block_chars, 10.0)


def _check_blocks_against_iter_power_trace(text, block_chars, on_watts):
    """The stamp texts of `power_trace_blocks`, concatenated and read with
    `int`, and its on-flags are those of `iter_power_trace` thresholded at
    ``on_watts``, or it raises the same error."""
    def thresholded():
        samples = list(iter_power_trace(io.StringIO(text), "tv"))
        return [ts for ts, _ in samples], [
            i for i, (_, watts) in enumerate(samples) if watts > on_watts
        ]

    def concatenated():
        all_stamps, all_on = [], []
        for stamps, on in power_trace_blocks(io.StringIO(text), "tv", on_watts):
            assert stamps
            assert all(type(stamp) is str for stamp in stamps)
            all_on += [len(all_stamps) + i for i in on]
            all_stamps += map(int, stamps)
        return all_stamps, all_on

    expected = _samples_or_error(thresholded)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
        got = _samples_or_error(concatenated)
    assert got == expected


# watts texts that are equal as numbers or sit at a threshold drawn below:
# a memo keyed by text must still give each its value's flag
_MEMO_WATTS = st.sampled_from(["-0.0", "0", "0.0", "10", "10.0", "10.5", "+4", "3000"])
_BAD_WATTS = st.sampled_from(["1e400", "nan", "-3"])


@st.composite
def _repeating_trace_texts(draw):
    """Plain trace lines that repeat a few watts texts, with a rare bad text
    or non-monotonic stamp, so blocks hit, miss and are rejected in turn."""
    ts = 1_700_000_000
    lines = []
    for _ in range(draw(st.integers(0, 40))):
        ts += draw(st.sampled_from([6] * 30 + [0]))
        watts = draw(_BAD_WATTS if draw(st.integers(0, 30)) == 0 else _MEMO_WATTS)
        lines.append(f"{ts} {watts}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True)
@given(
    text=_trace_texts() | _repeating_trace_texts(),
    block_chars=st.sampled_from([TRACE_BLOCK_CHARS, 64, 8, 3]),
    memo_texts=st.sampled_from([0, 1, 2, ingestion.WATTS_MEMO_TEXTS]),
    on_watts=st.sampled_from([10, 10.0, 0.5]),
)
# "10" is first seen in a plain block rejected for its watts sum, which
# overflows, then in an accepted one
@example(text="1 10\n2 1e308\n3 1e308\n4 10\n5 0\n", block_chars=24,
         memo_texts=ingestion.WATTS_MEMO_TEXTS, on_watts=10)
# "10" is first seen in the block whose 1e400 is rejected
@example(text="1 10\n2 1e400\n3 10\n4 0\n", block_chars=64,
         memo_texts=ingestion.WATTS_MEMO_TEXTS, on_watts=10)
# blocks of one line whose watts are known: the stamps are still checked
@example(text="1 10\n2 10\n2 10\n", block_chars=4,
         memo_texts=ingestion.WATTS_MEMO_TEXTS, on_watts=10)
@example(text="1 10\n9007199254740993 10\n", block_chars=4,
         memo_texts=ingestion.WATTS_MEMO_TEXTS, on_watts=10)
@example(text="1 10\n2 10\n2 10\n3 10.5\n", block_chars=64, memo_texts=2, on_watts=10)
@example(text="1 -0.0\n2 0\n3 0.0\n4 +4\n5 -0.0\n6 -3\n", block_chars=8,
         memo_texts=1, on_watts=0.5)
def test_power_trace_blocks_threshold_through_the_watts_memo(
    text, block_chars, memo_texts, on_watts
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingestion, "WATTS_MEMO_TEXTS", memo_texts)
        _check_blocks_against_iter_power_trace(text, block_chars, on_watts)


def test_power_trace_blocks_memo_holds_only_accepted_texts():
    # blocks of 16 characters: the second is plain but rejected, as its watts
    # sum overflows, so the per-line parser reads it; the third is known
    text = "1 7.5\n2 0\n3 7.5\n" "4 1e308\n5 1e308\n" "6 7.5\n7 0\n"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "TRACE_BLOCK_CHARS", 16)
        blocks = power_trace_blocks(io.StringIO(text), "tv", 5.0)
        assert list(blocks) == [
            (["1", "2", "3"], [0, 2]), (["4", "5"], [0, 1]), (["6", "7"], [0]),
        ]
        # the memo is the reader's local; a finished generator drops it
        blocks = power_trace_blocks(io.StringIO(text), "tv", 5.0)
        for _ in range(3):
            next(blocks)
        assert blocks.gi_frame.f_locals["known"] == {"7.5": True, "0": False}
        assert blocks.gi_frame.f_locals["off"] == {"0"}


@settings(max_examples=200, derandomize=True)
@given(
    text=_repeating_trace_texts(), memo_texts=st.sampled_from([0, 1, 2, 3, 5]),
    block_chars=st.sampled_from([64, 24, 8]),
)
def test_power_trace_blocks_memo_stays_capped_and_valid(text, memo_texts, block_chars):
    # with a small cap, blocks miss on some texts while others are known;
    # after each block the memo holds at most its cap of texts, each finite
    # and >= 0 and mapped to its own flag, and the off set holds exactly its
    # texts flagged off
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
        patch.setattr(ingestion, "WATTS_MEMO_TEXTS", memo_texts)
        blocks = power_trace_blocks(io.StringIO(text), "tv", 10.0)
        try:
            for _ in blocks:
                known = blocks.gi_frame.f_locals["known"]
                assert len(known) <= memo_texts
                for watts_text, flag in known.items():
                    watts = float(watts_text)
                    assert math.isfinite(watts) and watts >= 0
                    assert flag == (watts > 10.0)
                off = blocks.gi_frame.f_locals["off"]
                assert off == {t for t, flag in known.items() if not flag}
        except TraceParseError:
            pass


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "-1"])
def test_power_trace_blocks_bad_text_among_known_ones_names_its_line(bad):
    # the first block of 16 characters makes its two watts texts known; the
    # second holds those texts and one bad one
    for text in (
        f"1 7.5\n2 0\n3 7.5\n4 7.5\n5 0\n6 {bad}\n7 7.5\n",
        # both known texts are off, so only the bad text keeps the second
        # block from being settled as all off
        f"1 0\n2 0.5\n3 0\n4 0\n5 0.5\n6 {bad}\n7 0\n",
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tables, "TRACE_BLOCK_CHARS", 16)
            with pytest.raises(
                TraceParseError, match="tv: line 6: watts must be finite and >= 0"
            ):
                list(power_trace_blocks(io.StringIO(text), "tv", 5.0))


@st.composite
def _stamp_trace_lines(draw):
    """Trace lines of valid watts whose stamps the text checks must read as
    numbers or leave to `iter_power_trace`: widths that change (99 -> 100),
    leading zeros, signs, fractions and exponents, stamps at and above
    2**53, and equal or decreasing stamps of one width."""
    ts = draw(st.sampled_from([-20, 0, 90, 99_990, 2**53 - 30]))
    pad = draw(st.sampled_from([0, 0, 7, 17]))  # zero-padded to this width
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.sampled_from([1, 3, 6, 6, 6, 0, -1]))
        stamp = draw(st.sampled_from(
            ["{:0{pad}d}"] * 8 + ["0{}", "+{}", "{}.0", "{}.5", "{}e0", "{}E0"]
        )).format(ts, pad=pad)
        lines.append(f"{stamp} {draw(st.sampled_from(['0', '1.5', '12', '250.0']))}")
    return lines


@settings(max_examples=300, derandomize=True)
@given(
    lines=_stamp_trace_lines(), tolerance=st.integers(0, 3),
    block_chars=st.sampled_from([TRACE_BLOCK_CHARS, 64, 16, 8, 3]),
)
@example(lines=["98 12", "99 12", "100 12", "101 12"], tolerance=0, block_chars=12)
@example(lines=["99 12", "100 12"], tolerance=0, block_chars=6)  # a width change at an edge
# mixed widths that sort as texts, and whose sum of widths, or all but the
# last width, is what one width gives
@example(lines=["10 12", "100 12", "2 12"], tolerance=0, block_chars=64)
@example(lines=["100 12", "101 12", "99 12"], tolerance=0, block_chars=64)
@example(lines=["007 12", "010 0", "011 12"], tolerance=0, block_chars=64)
@example(lines=["+9 12", "05 12"], tolerance=0, block_chars=64)  # +9 sorts before 05
@example(lines=["-3 12", "-5 12"], tolerance=0, block_chars=64)  # -3 sorts before -5
@example(lines=["15 12", "15 12"], tolerance=0, block_chars=64)
@example(lines=["16 12", "15 12"], tolerance=0, block_chars=64)
@example(lines=["10 12", "5e1 12", "60 12"], tolerance=0, block_chars=64)
@example(lines=["9007199254740991 12", "9007199254740992 12"], tolerance=0, block_chars=64)
@example(lines=["9007199254740992 12", "9007199254740993 12"], tolerance=0, block_chars=64)
def test_stamp_texts_match_iter_power_trace_and_three_step_reference(
    lines, tolerance, block_chars, ukdale_defs
):
    text = "\n".join(lines) + "\n"
    _check_blocks_against_iter_power_trace(text, block_chars, 10.0)
    expected = _samples_or_error(lambda: segment_occurrences(
        binarize(parse_power_trace(io.StringIO(text), "tv"), 10.0, tolerance),
        {"tv": "Watching TV"}, ukdale_defs,
    ))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
        got = _samples_or_error(lambda: trace_occurrences(
            power_trace_blocks(io.StringIO(text), "tv", 10.0),
            ukdale_defs["Watching TV"], tolerance,
        ))
    assert got == expected


# ---------------------------------------------------------------------------
# binarize
# ---------------------------------------------------------------------------

def test_binarize_all_below_threshold():
    series = binarize(_samples([1, 2, 3, 4]), on_watts=10, gap_tolerance=2)
    assert _states(series) == [0, 0, 0, 0]


def test_binarize_bridges_gap_within_tolerance():
    series = binarize(_samples([0, 50, 50, 0, 50, 0]), on_watts=10, gap_tolerance=1)
    assert _states(series) == [0, 1, 1, 1, 1, 0]


def test_binarize_keeps_gap_beyond_tolerance():
    series = binarize(_samples([0, 50, 0, 0, 50, 0]), on_watts=10, gap_tolerance=1)
    assert _states(series) == [0, 1, 0, 0, 1, 0]


def test_binarize_never_promotes_leading_or_trailing_zeros():
    series = binarize(_samples([0, 0, 50, 0, 0]), on_watts=10, gap_tolerance=5)
    assert _states(series) == [0, 0, 1, 0, 0]


def test_binarize_threshold_is_strict():
    series = binarize(_samples([10.0, 10.1]), on_watts=10, gap_tolerance=0)
    assert _states(series) == [0, 1]


def test_binarize_parameter_validation():
    with pytest.raises(ValueError, match="on_watts"):
        binarize(_samples([1.0]), on_watts=0, gap_tolerance=0)
    with pytest.raises(ValueError, match="gap_tolerance"):
        binarize(_samples([1.0]), on_watts=10, gap_tolerance=-1)


@settings(max_examples=80, derandomize=True)
@given(
    values=st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), max_size=40),
    tolerance=st.integers(min_value=0, max_value=4),
)
def test_binarize_idempotent_on_clean_signal(values, tolerance):
    # re-binarizing a {0, 2*on_watts} rendering of the output is a fixpoint
    first = binarize(_samples(values), on_watts=10, gap_tolerance=tolerance)
    clean = _samples([20.0 if s else 0.0 for s in _states(first)])
    second = binarize(clean, on_watts=10, gap_tolerance=tolerance)
    assert _states(second) == _states(first)


@settings(max_examples=80, derandomize=True)
@given(
    values=st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), max_size=40),
    tolerance=st.integers(min_value=0, max_value=4),
)
def test_binarize_only_adds_on_states(values, tolerance):
    plain = binarize(_samples(values), on_watts=10, gap_tolerance=0)
    bridged = binarize(_samples(values), on_watts=10, gap_tolerance=tolerance)
    for (_, before), (_, after) in zip(plain.points, bridged.points):
        assert after >= before


# ---------------------------------------------------------------------------
# segment_occurrences
# ---------------------------------------------------------------------------

@pytest.fixture
def tv_map():
    return {"tv": "Watching TV"}


def test_segment_three_runs(ukdale_defs, tv_map):
    series = binarize(
        _samples([50, 0, 0, 0, 50, 50, 0, 0, 0, 50, 50, 50]),
        on_watts=10, gap_tolerance=0,
    )
    records = segment_occurrences(series, tv_map, ukdale_defs)
    assert len(records) == 3
    defn = ukdale_defs["Watching TV"]
    for r in records:
        assert r.activity == "Watching TV"
        assert r.observed_atomics == defn.atomic_ids
        assert r.satisfied_contexts == defn.context_ids
        assert r.source is Source.POWER_TRACE
    assert [(r.end - r.start) for r in records] == [0, 6, 12]


def test_segment_all_zero_series(ukdale_defs, tv_map):
    series = binarize(_samples([0, 0, 0]), on_watts=10, gap_tolerance=0)
    assert segment_occurrences(series, tv_map, ukdale_defs) == []


def test_segment_single_sample_run_start_equals_end(ukdale_defs, tv_map):
    series = binarize(_samples([0, 50, 0]), on_watts=10, gap_tolerance=0)
    records = segment_occurrences(series, tv_map, ukdale_defs)
    assert len(records) == 1
    assert records[0].start == records[0].end


def test_segment_unmapped_channel(ukdale_defs):
    series = binarize(_samples([50], channel="sauna"), on_watts=10, gap_tolerance=0)
    with pytest.raises(KeyError, match="sauna"):
        segment_occurrences(series, {}, ukdale_defs)


@settings(max_examples=80, derandomize=True)
@given(values=st.lists(st.floats(min_value=0, max_value=100,
                                 allow_nan=False), max_size=40))
def test_segment_conserves_active_time(values, ukdale_defs):
    # sum of (end - start + period) over records equals total on-time
    period = 6
    series = binarize(_samples(values, period=period), on_watts=10, gap_tolerance=0)
    records = segment_occurrences(series, {"tv": "Watching TV"}, ukdale_defs)
    active = sum(r.end - r.start + period for r in records)
    assert active == sum(_states(series)) * period


# ---------------------------------------------------------------------------
# trace_occurrences: the one-pass ingest path, checked against the
# parse_power_trace -> binarize -> segment_occurrences reference
# ---------------------------------------------------------------------------

@st.composite
def _trace_lines(draw):
    """Trace lines built from alternating on and off stretches.

    Off stretches of 1-7 samples straddle every gap_tolerance drawn below,
    so dropouts are bridged or not, inside runs and at both edges.
    """
    lines = []
    ts = 1_700_000_000
    on = draw(st.booleans())
    for length in draw(st.lists(st.integers(1, 7), max_size=12)):
        for _ in range(length):
            watts = draw(
                st.floats(10.0, 3000.0, exclude_min=True) if on
                else st.floats(0.0, 10.0)
            )
            lines.append(f"{ts} {watts!r}")
            ts += draw(st.integers(1, 9))
        on = not on
    return lines


@settings(max_examples=200, derandomize=True)
@given(
    lines=_trace_lines(), tolerance=st.integers(0, 5),
    block_chars=st.sampled_from([TRACE_BLOCK_CHARS, 40, 7]),
)
@example(lines=["1 0.0", "2 1.0", "3 0.5"], tolerance=2, block_chars=7)  # all off
@example(lines=["1 50.0", "2 60.0", "3 70.0"], tolerance=0, block_chars=7)  # all on
@example(lines=["1 0.0", "2 50.0", "3 0.0", "4 50.0", "5 0.0"], tolerance=5, block_chars=7)
def test_trace_occurrences_matches_three_step_reference(
    lines, tolerance, block_chars, ukdale_defs
):
    # blocks of a few characters hold a line or two, so runs and dropouts
    # straddle block edges
    text = "\n".join(lines) + "\n"
    expected = segment_occurrences(
        binarize(parse_power_trace(io.StringIO(text), "tv"), 10.0, tolerance),
        {"tv": "Watching TV"}, ukdale_defs,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, "TRACE_BLOCK_CHARS", block_chars)
        records = trace_occurrences(
            power_trace_blocks(io.StringIO(text), "tv", 10.0),
            ukdale_defs["Watching TV"], tolerance,
        )
    assert records == expected


class _UnreadableStream(io.StringIO):
    def read(self, *args):
        raise AssertionError("a line was read")


def test_trace_occurrences_parameter_validation(ukdale_defs):
    # both checks raise before any line of the trace is read
    defn = ukdale_defs["Watching TV"]
    blocks = power_trace_blocks(_UnreadableStream(), "tv", on_watts=0)
    with pytest.raises(ValueError, match="on_watts must be > 0, got 0"):
        trace_occurrences(blocks, defn, gap_tolerance=0)
    blocks = power_trace_blocks(_UnreadableStream(), "tv", on_watts=10)
    with pytest.raises(ValueError, match="gap_tolerance must be >= 0, got -1"):
        trace_occurrences(blocks, defn, gap_tolerance=-1)


def _ten_run_lines(samples: int, distinct: bool):
    """A 6 s trace with ten on-runs, each holding one bridged dropout; with
    ``distinct``, no two on-samples share a watts text."""
    period = samples // 10
    for i in range(samples):
        phase = i % period
        on = phase < period // 2 and phase != period // 4
        watts = (f"{1200 + i / 100:.2f}" if distinct else "1200.0") if on else "1.5"
        yield f"{1_700_000_000 + 6 * i} {watts}\n"


def _peak_traced_bytes(samples: int, defn, path, distinct: bool = False) -> int:
    with open(path, "w") as stream:
        stream.writelines(_ten_run_lines(samples, distinct))
    with open(path) as stream:
        tracemalloc.start()
        try:
            records = trace_occurrences(power_trace_blocks(stream, "tv", 10.0), defn, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(records) == 10
    return peak


def test_trace_occurrences_memory_does_not_grow_with_trace_length(ukdale_defs, tmp_path):
    defn = ukdale_defs["Watching TV"]
    short = _peak_traced_bytes(20_000, defn, tmp_path / "short.dat")
    long = _peak_traced_bytes(200_000, defn, tmp_path / "long.dat")
    assert long - short < 64 * 1024


def test_trace_occurrences_memory_is_bounded_for_distinct_readings(ukdale_defs, tmp_path):
    # every on-sample's watts text is new, so the memo fills to its cap in
    # both traces and then stops growing
    defn = ukdale_defs["Watching TV"]
    short = _peak_traced_bytes(20_000, defn, tmp_path / "short.dat", distinct=True)
    long = _peak_traced_bytes(200_000, defn, tmp_path / "long.dat", distinct=True)
    assert long - short < 64 * 1024


# ---------------------------------------------------------------------------
# parse_adl_log
# ---------------------------------------------------------------------------

ADL_CSV = """start_iso8601,end_iso8601,activity
2024-03-04T00:05:00Z,2024-03-04T06:28:00Z,Sleeping
2024-03-04T06:35:00Z,2024-03-04T06:47:00Z,Showering
2024-03-04T07:06:00Z,2024-03-04T07:30:00Z,Eating Breakfast
2024-03-04T07:53:00Z,2024-03-04T12:46:00Z,Leaving
2024-03-04T13:02:00Z,2024-03-04T13:30:00Z,Eating Lunch
2024-03-04T16:28:00Z,2024-03-04T16:44:00Z,Eating Snacks
2024-03-04T19:01:00Z,2024-03-04T21:28:00Z,Watching TV in Spare Time
"""


def test_parse_adl_log_covers_all_seven_labels(adl_defs):
    records = parse_adl_log(io.StringIO(ADL_CSV), adl_defs)
    assert [r.activity for r in records] == [
        "Sleeping", "Showering", "Eating Breakfast", "Leaving",
        "Eating Lunch", "Eating Snacks", "Watching TV in Spare Time",
    ]
    assert all(r.source is Source.ANNOTATION for r in records)
    assert records == sorted(records, key=lambda r: r.start)


def test_records_share_their_definitions_id_sets(adl_defs, ukdale_defs):
    # each definition's id sets are built once; records hold those objects
    log = ADL_CSV + ADL_CSV.split("\n", 1)[1]  # every activity twice
    records = parse_adl_log(io.StringIO(log), adl_defs)
    tv = ukdale_defs["Watching TV"]
    records += trace_occurrences([(["0", "6", "12", "18", "24"], [0, 4])], tv, 2)
    assert len(records) == 16
    for r in records:
        defn = adl_defs[r.activity] if r.activity in adl_defs else tv
        assert r.observed_atomics is defn.atomic_ids
        assert r.satisfied_contexts is defn.context_ids


def test_parse_adl_log_empty_stream(adl_defs):
    assert parse_adl_log(io.StringIO(""), adl_defs) == []
    header_only = "start_iso8601,end_iso8601,activity\n"
    assert parse_adl_log(io.StringIO(header_only), adl_defs) == []


def test_parse_adl_log_sorts_by_start(adl_defs):
    shuffled = (
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T13:00:00Z,2024-03-04T13:30:00Z,Eating Lunch\n"
        "2024-03-04T07:00:00Z,2024-03-04T07:20:00Z,Eating Breakfast\n"
    )
    records = parse_adl_log(io.StringIO(shuffled), adl_defs)
    assert [r.activity for r in records] == ["Eating Breakfast", "Eating Lunch"]


def test_parse_adl_log_accepts_explicit_utc_offset(adl_defs):
    offset_form = (
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T07:00:00+00:00,2024-03-04T07:20:00+00:00,Eating Breakfast\n"
    )
    z_form = offset_form.replace("+00:00", "Z")
    a = parse_adl_log(io.StringIO(offset_form), adl_defs)
    b = parse_adl_log(io.StringIO(z_form), adl_defs)
    assert a == b


def test_parse_adl_log_rejects_unknown_label(adl_defs):
    text = (
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T07:00:00Z,2024-03-04T07:20:00Z,Jogging\n"
    )
    with pytest.raises(AnnotationParseError, match="line 2.*Jogging"):
        parse_adl_log(io.StringIO(text), adl_defs)


def test_parse_adl_log_rejects_end_before_start(adl_defs):
    text = (
        "start_iso8601,end_iso8601,activity\n"
        "2024-03-04T08:00:00Z,2024-03-04T07:00:00Z,Sleeping\n"
    )
    with pytest.raises(AnnotationParseError, match="before start"):
        parse_adl_log(io.StringIO(text), adl_defs)


def test_parse_adl_log_rejects_bad_timestamp(adl_defs):
    text = (
        "start_iso8601,end_iso8601,activity\n"
        "yesterday,2024-03-04T07:00:00Z,Sleeping\n"
    )
    with pytest.raises(AnnotationParseError, match="unparseable timestamp"):
        parse_adl_log(io.StringIO(text), adl_defs)


def test_parse_adl_log_names_the_physical_line(adl_defs):
    # the row on lines 2-3 holds a quoted line end, so line 5 is the fourth row
    text = (
        "start_iso8601,end_iso8601,activity\n"
        '2024-03-04T00:10:00Z,2024-03-04T06:38:00Z,"\nSleeping"\n'
        "2024-03-04T07:00:00Z,2024-03-04T07:20:00Z,Eating Breakfast\n"
        "yesterday,2024-03-04T08:00:00Z,Sleeping\n"
    )
    with pytest.raises(
        AnnotationParseError, match="^line 5: unparseable timestamp 'yesterday'$"
    ):
        parse_adl_log(io.StringIO(text), adl_defs)


def test_parse_adl_log_rejects_wrong_header(adl_defs):
    text = "begin,finish,what\n2024-03-04T07:00:00Z,2024-03-04T08:00:00Z,Sleeping\n"
    with pytest.raises(AnnotationParseError, match="header"):
        parse_adl_log(io.StringIO(text), adl_defs)


# ---------------------------------------------------------------------------
# Occurrence CSV round-trip and merging
# ---------------------------------------------------------------------------

_OCCURRENCE_HEADER = "activity,start,end,observed_atomics,satisfied_contexts,source"
_OCCURRENCE_ROW = "Watching TV,100,200,1;3,,power-trace"

def test_occurrence_csv_round_trip_with_partial_sets():
    records = [
        OccurrenceRecord("Watching TV", 100, 200, frozenset({1, 3}),
                         frozenset(), Source.POWER_TRACE),
        OccurrenceRecord("Sleeping", 300, 400, frozenset({1, 2, 3, 4, 5}),
                         frozenset({2, 5}), Source.ANNOTATION),
    ]
    buf = io.StringIO()
    write_occurrences(records, buf)
    assert read_occurrences(io.StringIO(buf.getvalue())) == records


@pytest.mark.parametrize("text, fragment", [
    ("activity,start,end\n", "line 1: expected header"),
    (f"{_OCCURRENCE_HEADER}\n{_OCCURRENCE_ROW}\nSleeping,300\n", "line 3: expected 6 fields"),
    (f"{_OCCURRENCE_HEADER}\n{_OCCURRENCE_ROW},extra\n", "line 2: expected 6 fields"),
    (f"{_OCCURRENCE_HEADER}\nSleeping,soon,400,1,2,annotation\n", "line 2: invalid literal"),
    (f"{_OCCURRENCE_HEADER}\nSleeping,300,400,1;x,2,annotation\n", "line 2: invalid literal"),
    (f"{_OCCURRENCE_HEADER}\nSleeping,300,400,1,2,dream\n", "line 2: unknown source 'dream'"),
], ids=["header", "short-row", "long-row", "start", "id-set", "source"])
def test_read_occurrences_rejects_malformed_rows(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        read_occurrences(io.StringIO(text))


def test_serialize_then_parse_is_identity(adl_defs):
    # annotation records keep their full id sets through the occurrence CSV
    records = parse_adl_log(io.StringIO(ADL_CSV), adl_defs)
    buf = io.StringIO()
    write_occurrences(records, buf)
    again = read_occurrences(io.StringIO(buf.getvalue()), adl_defs)
    assert again == records


def test_merge_sorted_orders_by_start_then_activity():
    a = OccurrenceRecord("B", 100, 110, frozenset({1}), frozenset(), Source.ANNOTATION)
    b = OccurrenceRecord("A", 100, 120, frozenset({1}), frozenset(), Source.ANNOTATION)
    c = OccurrenceRecord("C", 50, 60, frozenset({1}), frozenset(), Source.ANNOTATION)
    merged = merge_sorted([[a], [b, c]])
    assert [r.activity for r in merged] == ["C", "A", "B"]
