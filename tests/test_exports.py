"""Every exported name resolves, so a deletion cannot leave an export behind."""

import pytest

import lqcoord
import lqcoord.power


@pytest.mark.parametrize("module", [lqcoord, lqcoord.power],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
