"""The kernel name benchmark records carry: one path, nothing to select."""

from repro.kernel import resolve_kernel


def test_resolve_kernel_ignores_the_retired_environment_switch(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    assert resolve_kernel() == "vector"
