"""The public names: every one the package lists is there to import, and
every error type is one the package raises."""

import ast
import inspect
from pathlib import Path

import pytest

import swipebench
from swipebench import classifiers, errors


@pytest.mark.parametrize("module", [swipebench, classifiers],
                         ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__
            if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def raised_names(root: Path) -> set[str]:
    """Names X of every ``raise X(...)`` in the sources under root."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise)
                    and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                names.add(node.exc.func.id)
    return names


def test_every_error_type_is_raised():
    """An error type that nothing raises is dead weight in the API."""
    declared = {name for name, obj in vars(errors).items()
                if inspect.isclass(obj) and issubclass(obj, Exception)
                and obj.__module__ == errors.__name__}
    declared.discard("SwipebenchError")
    raised = raised_names(Path(swipebench.__file__).parent)
    assert sorted(declared - raised) == []
