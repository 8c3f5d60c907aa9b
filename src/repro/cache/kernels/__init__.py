"""Benchmark-owned stub; nothing in ``src/`` imports this package."""


def resolve_kernel_backend(name: str = "auto") -> str:
    """Constant: the window kernels and their backends are gone.  Kept
    only because ``benchmarks/e2e/workloads.py`` imports it by name and
    only a benchmark PR may edit it — ROADMAP item 5 drops the field and
    this stub."""
    return "python"
