"""Set-run kernel backend registry.

:func:`build_set_run_kernel` hands the vector engine a whole-window
replay kernel ``kernel(lines, flags)`` (contract in
:func:`repro.cache.state.build_set_run_kernel`) built by one of two
interchangeable backends:

* ``python`` — the derived loop over the cache's bound
  ``access_line_hit`` (a scalar hit kernel of :mod:`repro.cache.state`,
  or the generic method for a policy without one), available for every
  cache.  The semantic baseline.
* ``array`` — numpy whole-run kernels (:mod:`repro.cache.kernels.array`)
  for the three paper policies, unpartitioned (``lru``/``nru``/``bt``):
  vectorised hit classification by exact stack distance, vectorised
  invalid-way fills, batched state reconstruction committed once per
  run.  Bit-identical to ``python`` (see the module docstring of
  :mod:`repro.cache.kernels.array` for the exactness argument).

Selection flows through ``SimulationConfig(kernel_backend="auto")``; the
``REPRO_KERNEL_BACKEND`` environment variable overrides ``"auto"`` only
(an explicit config value always wins), so a CI job can steer default
configurations without touching campaign-keyed inputs.  ``"auto"``
resolves to ``array``.  Eligibility is per cache: ``array`` without a
kernel for the (policy, partition) at hand delegates to ``python``, so
the resolved backend never loses correctness — only the fast path
widens.  The backend choice is deliberately *not* part of
``ENGINE_VERSION``: both backends are bit-identical, pinned by the
vector differential suite and the ``repro fuzz`` oracle running both
per case.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.cache.kernels import array as _array
from repro.cache.state import build_set_run_kernel as _build_python
from repro.config import (
    KERNEL_ARRAY,
    KERNEL_AUTO,
    KERNEL_BACKENDS,
    KERNEL_PYTHON,
)

#: Environment override for ``kernel_backend="auto"`` (only; explicit
#: config values always win).  Documented in the README ``REPRO_*`` table.
ENV_KERNEL_BACKEND = "REPRO_KERNEL_BACKEND"


def available_backends() -> tuple:
    """The concrete backends, fastest first."""
    return (KERNEL_ARRAY, KERNEL_PYTHON)


def resolve_kernel_backend(name: str = KERNEL_AUTO) -> str:
    """Concrete backend name for ``name`` (resolves ``"auto"``).

    ``"auto"`` honours ``REPRO_KERNEL_BACKEND`` (when set and non-empty)
    and otherwise means ``array``.  Per-cache ineligibility never raises
    (the build delegates to ``python`` instead).
    """
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; known: {sorted(KERNEL_BACKENDS)}"
        )
    if name == KERNEL_AUTO:
        env = os.environ.get(ENV_KERNEL_BACKEND, "").strip()
        if env:
            if env not in KERNEL_BACKENDS:
                raise ValueError(
                    f"{ENV_KERNEL_BACKEND}={env!r} is not a kernel backend; "
                    f"known: {sorted(KERNEL_BACKENDS)}"
                )
            name = env
    return KERNEL_ARRAY if name == KERNEL_AUTO else name


def build_set_run_kernel(cache, backend: str = KERNEL_AUTO) -> Callable:
    """Whole-window replay kernel for ``cache`` under ``backend``.

    Same contract as :func:`repro.cache.state.build_set_run_kernel`
    (which is exactly what the ``python`` backend returns):
    ``kernel(lines, flags)``.  ``array`` without a kernel for this
    cache's (policy, partition) delegates to ``python``.
    """
    if resolve_kernel_backend(backend) == KERNEL_ARRAY:
        kernel = _array.build(cache)
        if kernel is not None:
            return kernel
    return _build_python(cache)


__all__ = [
    "ENV_KERNEL_BACKEND",
    "available_backends",
    "build_set_run_kernel",
    "resolve_kernel_backend",
]
