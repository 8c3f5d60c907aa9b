"""Benchmark-owned stub; nothing in ``src/`` imports this package."""


def resolve_kernel_backend(name: str = "auto") -> str:
    """Constant: there is one window kernel, the python one
    (:func:`repro.cache.state.build_set_run_kernel`).  Kept only because
    ``benchmarks/e2e/workloads.py`` imports it by name and only a
    benchmark PR may edit it — ROADMAP item 3 drops the field and this
    stub."""
    return "python"
