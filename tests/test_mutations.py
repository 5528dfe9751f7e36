"""Mutated inputs never crash the engine.

A run on a mutated input must exit 0, or exit 2 with exactly one ``error:``
line; a traceback or exit 1 would be a program bug.  The mutations come from
one fixed menu: a token becomes a number text the parsers must reject or
accept, a character the plain-block checks must catch, or a CSV or time
zone fragment; a line is deleted, duplicated or swapped; the file is
truncated anywhere.  The fast readers fall back to a slower per-line reader
on anything unusual, and these runs check that each fallback still yields
an input error, not a crash.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adl_engine.cli import main
from helpers import CONFIGS_DIR, DEFINITIONS_DIR

_UKDALE = json.loads((CONFIGS_DIR / "ukdale.json").read_text())
# each bundled power trace, by channel, as its lines with their line ends
_TRACE_LINES = {
    spec["channel"]: (CONFIGS_DIR / spec["path"]).read_text().splitlines(keepends=True)
    for spec in _UKDALE["datasets"]
}
_TOKENS = ["nan", "inf", "-1", "1e308", "\0", "\ufeff", '"', ",", "+01:00"]


@st.composite
def _mutated_trace(draw):
    """A bundled trace's channel and its text after 1-3 mutations."""
    channel = draw(st.sampled_from(sorted(_TRACE_LINES)))
    lines = list(_TRACE_LINES[channel])
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "delete", "duplicate", "swap", "truncate"]))
        if kind == "token":
            tokens = lines[i].rstrip("\n").split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(tokens) + "\n"
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
    return channel, "".join(lines)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(mutated=_mutated_trace())
def test_mutated_trace_is_ingested_or_rejected_as_an_input_error(mutated):
    channel, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / f"{channel}.dat"
        trace.write_text(text, encoding="utf-8")
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({
            "definitions": [str(DEFINITIONS_DIR / "ukdale.json")],
            "datasets": [{"path": str(trace), "kind": "power-trace", "channel": channel}],
            "channel_map": {channel: _UKDALE["channel_map"][channel]},
            "out_dir": str(Path(tmp) / "out"),
        }))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["ingest", "--config", str(config)])
    assert code in (0, 2)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (code == 2)
