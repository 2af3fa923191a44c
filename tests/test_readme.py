"""The README's Caps section names every size cap with its current value."""

from pathlib import Path

import pytest

from multiphoton.jmatrix import DENSE_CAP
from multiphoton.network import MAX_OUTPUT_CONFIGS
from multiphoton.permanent import MAX_NAIVE_N, MAX_RYSER_N
from multiphoton.probability import JMATRIX_MAX_N, ORACLE_MAX_N, TENSOR_MAX_ENTRIES
from multiphoton.symgroup import MAX_ENUM_N

README = Path(__file__).resolve().parents[1] / "README.md"


def caps_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Caps\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end != -1 else len(text)]


@pytest.mark.parametrize("name, value", [
    ("MAX_ENUM_N", MAX_ENUM_N),
    ("DENSE_CAP", DENSE_CAP),
    ("JMATRIX_MAX_N", JMATRIX_MAX_N),
    ("ORACLE_MAX_N", ORACLE_MAX_N),
    ("MAX_NAIVE_N", MAX_NAIVE_N),
    ("MAX_RYSER_N", MAX_RYSER_N),
    ("TENSOR_MAX_ENTRIES", TENSOR_MAX_ENTRIES),
    ("MAX_OUTPUT_CONFIGS", MAX_OUTPUT_CONFIGS),
])
def test_readme_caps_name_current_values(name, value):
    assert f"`{name}` = {value}" in caps_section()
