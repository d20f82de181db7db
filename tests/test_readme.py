"""The README's library quick tour, run as a doctest, and the CI workflow,
which holds no pinned digest."""

import doctest
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_readme_quick_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0, result


def test_workflow_holds_no_digest():
    # every sha256 pin sits beside the Tier-1 test that reads it, so that an
    # output changed on purpose is re-pinned in tests/ alone
    assert re.findall(r"[0-9a-fA-F]{64}", WORKFLOW.read_text()) == []
