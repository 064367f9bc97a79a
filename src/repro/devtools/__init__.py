"""Developer tooling that ships with the library but never runs in analyses.

Currently one subpackage: :mod:`repro.devtools.lint` ("reprolint"), the
project-specific static-analysis pass enforcing the reproduction's
invariants (seeded randomness, wall-clock hygiene, array-only kernel
modules, era single-source-of-truth).  Exposed on the command line as
``python -m repro lint``.
"""

from __future__ import annotations

__all__ = ["lint"]
