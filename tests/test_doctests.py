"""Every docstring example in the package, and the README's library
example, must keep working."""

import doctest
import pathlib

import qcongruence.bigpoly
import qcongruence.constructs
import qcongruence.cyclotomic
import qcongruence.cycmodfield
import qcongruence.qseries
import qcongruence.verifier

MODULES = [
    qcongruence.bigpoly,
    qcongruence.cyclotomic,
    qcongruence.qseries,
    qcongruence.constructs,
    qcongruence.cycmodfield,
    qcongruence.verifier,
]


def test_module_doctests():
    for mod in MODULES:
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
        assert result.attempted > 0, f"{mod.__name__} lost its examples"


def test_readme_python_block_prints_its_comments(capsys):
    # each print line's `# ...` comment is exactly the line it prints
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    block = readme.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    prints = [ln for ln in block.splitlines() if ln.startswith("print(")]
    assert prints and all("  # " in ln for ln in prints)
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == [
        ln.split("  # ", 1)[1] for ln in prints]
