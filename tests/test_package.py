"""The package's public names: resolved lazily, each the object its submodule defines."""

import importlib

import pytest

import scqsim


@pytest.mark.parametrize("name", scqsim.__all__)
def test_export_is_its_submodules_object(name):
    module = importlib.import_module(f"scqsim.{scqsim._ORIGIN[name]}")
    assert getattr(scqsim, name) is getattr(module, name)
    assert name in dir(scqsim)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'NoSuchName'"):
        scqsim.NoSuchName
    assert not hasattr(scqsim, "_private")


def test_submodules_import_from_the_package():
    from scqsim import cavity, charge, core, coupled, experiments, flux, noise, phase

    modules = (cavity, charge, core, coupled, experiments, flux, noise, phase)
    assert [m.__name__ for m in modules] == [f"scqsim.{n}" for n in sorted(scqsim._EXPORTS)]
    assert scqsim.phase is phase
