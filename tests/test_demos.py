"""Each script in ``demos/`` runs to completion and prints what it printed
when its digest was recorded."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import sl3webs

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

#: SHA-1 of each demo's stdout.
DEMO_STDOUT_SHA1 = {
    "cross_validation.py": "42bfc1a3bf7fd7ea4bf7ec9b27556572e99d1d28",
    "diagram_to_web.py": "80d915ecba8e4eb0dd3baec502ee17d1801bd589",
    "growth_diagrams.py": "056d00dbc4063f6cbcc90adc3a6053030a69cfb9",
    "octagon_geometry.py": "db22b644c57a3dff6717ea4e89876ac92793937e",
    "web_reduction.py": "0bbff571187b608b18a0d71da63b9875b998ce41",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA1)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA1))
def test_demo_output_is_unchanged(name):
    src = str(pathlib.Path(sl3webs.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha1(proc.stdout).hexdigest() == DEMO_STDOUT_SHA1[name]
