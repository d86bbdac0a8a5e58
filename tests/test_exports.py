"""The hand-kept ``__all__`` lists of the package and its modules."""

import importlib
import pkgutil

import pytest

import owpan

PUBLIC_MODULES = ["owpan"] + sorted(
    info.name
    for info in pkgutil.walk_packages(owpan.__path__, prefix="owpan.")
    if not any(part.startswith("_") for part in info.name.split("."))
)


def test_the_three_package_lists_are_checked():
    assert {"owpan", "owpan.phy", "owpan.netsim"} <= set(PUBLIC_MODULES)


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_removed_link_budget_types_are_gone(name):
    module = importlib.import_module(name)
    for gone in ("SnrBudget", "IndoorChannelParams"):
        assert not hasattr(module, gone)


def test_link_budget_params_has_no_indoor_view():
    assert not hasattr(owpan.LinkBudgetParams, "indoor")
