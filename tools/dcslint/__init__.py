"""dcslint — AST-level determinism & parallel-readiness analyzer.

Static analysis specialized for deterministic parallel discrete-event
simulation. Two engines implement one rule catalog (dcslint/rules.py):

  clang   libclang (clang.cindex) driven by compile_commands.json —
          type-accurate; used by CI, which installs a pinned libclang.
  syntax  zero-dependency token-level analyzer with a cross-file
          symbol index — runs anywhere Python runs; the automatic
          fallback when libclang is unavailable.

Entry point: ``python3 tools/dcslint <paths>`` (see cli.py), or import
``dcslint.cli``; the ctest gate is tools/lint_gate.py.
"""

__version__ = "1.0"
