"""Public-API surface tests: every exported name resolves and is documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.gf",
    "repro.codes",
    "repro.core",
    "repro.errormodel",
    "repro.dram",
    "repro.beam",
    "repro.hardware",
    "repro.system",
    "repro.analysis",
]

MODULES = [
    "repro.gf.gf2",
    "repro.gf.gf256",
    "repro.gf.polynomial",
    "repro.codes.base32",
    "repro.codes.linear",
    "repro.codes.hsiao",
    "repro.codes.sec2bec",
    "repro.codes.genetic",
    "repro.codes.reed_solomon",
    "repro.core.layout",
    "repro.core.interleave",
    "repro.core.scheme",
    "repro.core.sanity_check",
    "repro.core.binary",
    "repro.core.rs_packed",
    "repro.core.rs_ssc",
    "repro.core.ssc_dsd",
    "repro.core.algebraic_schemes",
    "repro.core.duet_trio",
    "repro.core.registry",
    "repro.errormodel.patterns",
    "repro.errormodel.classify",
    "repro.errormodel.sampling",
    "repro.errormodel.montecarlo",
    "repro.errormodel.permanent",
    "repro.dram.geometry",
    "repro.dram.controller",
    "repro.dram.device",
    "repro.dram.refresh",
    "repro.beam.flux",
    "repro.beam.ancode",
    "repro.beam.displacement",
    "repro.beam.events",
    "repro.beam.microbenchmark",
    "repro.beam.campaign",
    "repro.beam.postprocess",
    "repro.hardware.gates",
    "repro.hardware.circuit",
    "repro.hardware.xor_tree",
    "repro.hardware.synth",
    "repro.system.fit",
    "repro.system.scrubbing",
    "repro.system.hpc",
    "repro.system.automotive",
    "repro.analysis.fitting",
    "repro.analysis.report",
    "repro.analysis.historical",
    "repro.analysis.tables",
    "repro.cli",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), package
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} is exported but missing"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 40, module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if not (callable(member) or isinstance(member, type)):
            continue  # constants and typing aliases
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports and generic aliases
        assert member.__doc__, f"{module_name}.{name} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"
