"""README's ``>>>`` examples run and print what README shows."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_as_documented():
    # A closing fence directly after an expected output would be read as part
    # of that output, so fence lines become blank lines.
    lines = README.read_text(encoding="utf-8").splitlines()
    text = "\n".join("" if line.startswith("```") else line for line in lines)
    test = doctest.DocTestParser().get_doctest(text, {}, README.name, str(README), 0)
    assert test.examples, "README has no >>> examples"
    report: list[str] = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.failed == 0, "".join(report)
