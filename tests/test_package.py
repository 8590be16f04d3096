from pathlib import Path

import pytest

import hedgenash

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert hedgenash.__version__ == tomllib.load(fh)["project"]["version"]
