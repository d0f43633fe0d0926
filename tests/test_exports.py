"""Every exported name resolves, so a deletion cannot leave an export behind,
and the README's library example runs as documented."""

from pathlib import Path

import pytest

import lqcoord
import lqcoord.power


@pytest.mark.parametrize("module", [lqcoord, lqcoord.power],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library example)", "exec"), {})
