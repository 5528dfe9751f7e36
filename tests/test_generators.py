"""The generator scripts reproduce the bundled data byte for byte.

Each script runs at its default flags in an empty directory, where its
default output path lands under ``data/``; that file must equal the one
the repository ships.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from helpers import DATA_DIR, REPO_ROOT


@pytest.mark.parametrize("script, pattern", [
    ("generate_adl_log.py", "adl_log.csv"),
    ("generate_ukdale_sample.py", "ukdale/*.dat"),
])
def test_generator_at_default_flags_writes_the_bundled_data(tmp_path, script, pattern):
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script)],
        cwd=tmp_path, check=True, capture_output=True,
    )
    shipped = sorted(DATA_DIR.glob(pattern))
    written = sorted((tmp_path / "data").glob(pattern))
    assert shipped
    assert [p.relative_to(tmp_path / "data") for p in written] == [
        p.relative_to(DATA_DIR) for p in shipped
    ]
    for made, bundled in zip(written, shipped):
        assert made.read_bytes() == bundled.read_bytes(), made.name
