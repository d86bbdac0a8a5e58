"""The ``__all__`` lists: each public name is declared in its module's list
and each package exports the union of its modules' lists."""

import importlib
import importlib.util
import pkgutil

import pytest

import owpan

PUBLIC_MODULES = ["owpan"] + sorted(
    info.name
    for info in pkgutil.walk_packages(owpan.__path__, prefix="owpan.")
    if not any(part.startswith("_") for part in info.name.split("."))
)
PACKAGES = ["owpan", "owpan.phy", "owpan.netsim"]


def test_the_three_package_lists_are_checked():
    assert set(PACKAGES) <= set(PUBLIC_MODULES)


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_the_union_of_its_modules(name):
    package = importlib.import_module(name)
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(package.__path__, prefix=f"{name}.")
        if not info.ispkg and not info.name.rsplit(".", 1)[1].startswith("_")
    ]
    # a module without __all__ (the command-line front end) exports nothing
    expected = {n for module in modules for n in getattr(module, "__all__", [])}
    if name == "owpan":
        expected.add("__version__")
    assert set(package.__all__) == expected


# names deleted with the code behind them: the link-budget types, the relay
# helpers, helpers nothing read, the MAC superframe model, and the per-stage
# PHY functions and errors that the frame codec made redundant
REMOVED = (
    "SnrBudget",
    "IndoorChannelParams",
    "af_relay",
    "df_relay",
    "RelayDecodeError",
    "end_to_end_capacity",
    "indoor_frequency_response",
    "assign_addresses",
    "GtsAllocation",
    "Superframe",
    "MacError",
    "build_superframe",
    "BEACON_SLOT",
    "LineCodeError",
    "manchester_encode",
    "manchester_decode",
    "encode_4b6b",
    "decode_4b6b",
    "encode_8b10b",
    "decode_8b10b",
    "ModulationError",
    "ook_modulate",
    "ook_demodulate",
    "vppm_modulate",
    "vppm_demodulate",
    "cc_encode",
    "viterbi_decode",
)


@pytest.mark.parametrize("gone", REMOVED)
@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_removed_names_are_gone(name, gone):
    assert not hasattr(importlib.import_module(name), gone)


def test_mac_module_is_gone():
    assert importlib.util.find_spec("owpan.netsim.mac") is None


def test_link_budget_params_has_no_indoor_view():
    assert not hasattr(owpan.LinkBudgetParams, "indoor")
