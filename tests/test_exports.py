"""The public export lists: every name in ``__all__`` resolves on its
module, and each list is kept sorted."""

import pytest

import qpartial
import qpartial.qlang

PUBLIC = [qpartial, qpartial.qlang]


@pytest.mark.parametrize("module", PUBLIC, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", PUBLIC, ids=lambda m: m.__name__)
def test_export_list_is_sorted_without_repeats(module):
    assert module.__all__ == sorted(set(module.__all__))
