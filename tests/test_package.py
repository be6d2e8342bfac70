"""The public names: every one the package lists is there to import."""

import pytest

import swipebench
from swipebench import classifiers


@pytest.mark.parametrize("module", [swipebench, classifiers],
                         ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
