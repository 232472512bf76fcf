"""Calibration loader: the committed document loads, malformed ones are refused.

``benchmarks/calibration.json`` is the document the auto-tuner prices with;
:func:`repro.cluster.fitting.load_calibration` must reject anything that
would silently poison every ``solver="auto"`` decision.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import fitting
from repro.common.errors import ValidationError

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
CALIBRATION_PATH = os.path.join(REPO_ROOT, "benchmarks", "calibration.json")


@pytest.fixture(scope="module")
def committed_calibration():
    return fitting.load_calibration(CALIBRATION_PATH)


class TestSchema:
    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValidationError, match="missing"):
            fitting.validate_calibration({"schema_version": 1})

    def test_validate_rejects_wrong_version(self, committed_calibration):
        doc = dict(committed_calibration)
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="version"):
            fitting.validate_calibration(doc)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            fitting.load_calibration(str(tmp_path / "nope.json"))

    def test_load_invalid_json_raises(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            fitting.load_calibration(str(path))
