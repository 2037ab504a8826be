"""The package's public surface: imports, exports, version."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_docstring_example_runs():
    """The example in the package docstring must actually work."""
    from repro import ScenarioConfig, run_broadcast_simulation

    config = ScenarioConfig(
        scheme="adaptive-counter", map_units=1, num_hosts=10,
        num_broadcasts=2, seed=7,
    )
    result = run_broadcast_simulation(config)
    assert "RE=" in result.summary()


def test_scheme_registry_exposed():
    from repro import SCHEME_REGISTRY, make_scheme

    assert "adaptive-counter" in SCHEME_REGISTRY
    scheme = make_scheme("flooding")
    assert scheme.name == "flooding"


def test_all_subpackages_importable():
    import importlib

    for module in (
        "repro.sim", "repro.geometry", "repro.analysis", "repro.mobility",
        "repro.phy", "repro.mac", "repro.net", "repro.schemes",
        "repro.metrics", "repro.experiments", "repro.routing", "repro.viz",
        "repro.cli", "repro.campaigns",
        "repro.experiments.figures", "repro.experiments.io",
        "repro.experiments.replication", "repro.experiments.report",
        "repro.experiments.topologies",
        "repro.campaigns.spec", "repro.campaigns.planner",
        "repro.campaigns.checkpoint", "repro.campaigns.queue",
        "repro.campaigns.service", "repro.campaigns.client",
        "repro.telemetry", "repro.telemetry.registry",
        "repro.telemetry.expose", "repro.telemetry.bench",
    ):
        importlib.import_module(module)


def test_examples_are_importable_scripts():
    """Every example compiles and has a main() entry point."""
    import ast
    from pathlib import Path

    examples = sorted(Path("examples").glob("*.py"))
    assert len(examples) >= 5
    for path in examples:
        tree = ast.parse(path.read_text())
        names = {
            node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in names, path
