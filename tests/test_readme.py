"""The README's library quick tour, run as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0, result
