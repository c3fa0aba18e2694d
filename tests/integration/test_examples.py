"""Every example must run clean and print what it printed when its
``example/<name>`` golden was recorded: they are executable documentation."""

import hashlib
import subprocess
import sys

import pytest

from tests.integration.test_report_goldens import (
    EXAMPLES,
    golden,
    run_example,
)

EXAMPLES_DIR = EXAMPLES[0].parent


def test_examples_directory_is_populated():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 7


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(example):
    result = run_example(example)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "examples must narrate what they show"
    assert "Traceback" not in result.stderr
    assert (hashlib.sha256(result.stdout.encode()).hexdigest()
            == golden(f"example/{example.stem}"))


def test_readme_quickstart_block_runs():
    """The README's "Quickstart (API)" code block runs and prints the
    mobile host's care-of address on the department net."""
    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    section = readme.split("## Quickstart (API)", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    result = subprocess.run([sys.executable, "-c", block],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert "36.8.0.50" in result.stdout.splitlines()
