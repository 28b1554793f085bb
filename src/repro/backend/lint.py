"""Kernel-dispatch lint: no direct NumPy compute in model/layer code.

The registry is only an architecture if call sites actually go through
it.  This stdlib-``ast`` pass enforces that for the layers that sit
*above* the kernels — ``repro.models`` and ``repro.nn.layers*`` — by
forbidding calls to NumPy compute functions there.  Data marshalling
(``np.zeros``, ``np.stack``, ``np.asarray``, dtype/constant attribute
references, the ``np.random`` generators) stays allowed: the rule
targets math that should be a registered kernel or a tensor op, not
array bookkeeping.

A call that is genuinely out of scope for the registry (e.g. MoCo's
queue renormalization) can carry an explicit waiver: put
``# kernel-lint: allow`` on the offending line or the line directly
above it.

Model and layer code also passes no ``backend=`` keyword: calling a
module selects its backend for the whole forward
(:meth:`repro.nn.module.Module.__call__`), so a per-call backend
argument is a second, partial routing path.

A second pass checks *registry completeness*: every registered op must
either have a ``fast`` kernel or be explicitly declared in
:data:`repro.backend.fast.FALLBACK_OPS` — a new op can't silently run
the slow path under ``--backend fast``.

Run as ``python -m repro.backend.lint`` (CI's lint job does); exits
non-zero when violations are found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

WAIVER = "kernel-lint: allow"

#: Default lint surface, relative to the repository's ``src`` directory.
#: Each target maps to the glob pattern of the files linted beneath it.
DEFAULT_TARGETS = ("repro/models", "repro/nn")
DEFAULT_PATTERNS = {
    "repro/models": "*.py",
    "repro/nn": "layers*.py",
}

#: NumPy callables that marshal or construct arrays rather than compute.
ALLOWED_CALLS = frozenset({
    "array", "asarray", "ascontiguousarray", "asfortranarray",
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
    "arange", "linspace", "eye", "identity",
    "stack", "concatenate", "split", "pad", "tile", "repeat",
    "reshape", "ravel", "squeeze", "expand_dims",
    "moveaxis", "swapaxes", "transpose", "broadcast_to",
    "copyto", "copy", "frombuffer", "fromiter",
    "load", "save", "savez", "savez_compressed",
    "can_cast", "result_type", "promote_types", "dtype",
    "unravel_index", "ravel_multi_index", "meshgrid", "indices",
    "seterr", "errstate", "isscalar", "iterable", "shape", "ndim", "size",
})

#: Submodule roots whose calls are wholesale allowed (non-compute).
ALLOWED_ROOTS = frozenset({"random", "testing", "lib"})


class Violation(Tuple[str, int, str]):
    """``(path, line, message)`` with a stable string form."""

    def __new__(cls, path: str, line: int, message: str):
        return super().__new__(cls, (path, line, message))

    def __str__(self) -> str:
        return f"{self[0]}:{self[1]}: {self[2]}"


def _numpy_aliases(tree: ast.AST) -> set:
    """Names the module binds to the ``numpy`` package."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy" or a.name.startswith("numpy."):
                    aliases.add((a.asname or a.name).split(".")[0])
    return aliases


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """``np.linalg.norm`` → ``["np", "linalg", "norm"]`` (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one module's source; returns its violations."""
    tree = ast.parse(source, filename=path)
    aliases = _numpy_aliases(tree)
    lines = source.splitlines()
    violations: List[Violation] = []

    def waived(lineno: int) -> bool:
        # Same line or the line directly above (for long call lines).
        for ln in (lineno, lineno - 1):
            if 0 < ln <= len(lines) and WAIVER in lines[ln - 1]:
                return True
        return False

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "numpy" or node.module.startswith("numpy.")):
            sub = node.module.split(".")[1:]
            for a in node.names:
                dotted = ".".join(sub + [a.name])
                leaf = a.name
                if (leaf in ALLOWED_CALLS or (sub and sub[0] in ALLOWED_ROOTS)
                        or waived(node.lineno)):
                    continue
                violations.append(Violation(
                    path, node.lineno,
                    f"`from numpy import {dotted}` bypasses the kernel "
                    f"registry; use a repro.tensor op or dispatch()"))
        if not isinstance(node, ast.Call):
            continue
        if any(kw.arg == "backend" for kw in node.keywords):
            violations.append(Violation(
                path, node.lineno,
                "`backend=` argument — a module's backend is scoped by "
                "Module.__call__; select it with Module.to_backend"))
        parts = _dotted(node.func)
        if not parts or parts[0] not in aliases or len(parts) < 2:
            continue
        chain = parts[1:]
        if chain[0] in ALLOWED_ROOTS or chain[-1] in ALLOWED_CALLS:
            continue
        if waived(node.lineno):
            continue
        violations.append(Violation(
            path, node.lineno,
            f"direct NumPy compute call `{'.'.join(parts)}` — route it "
            f"through the kernel registry (repro.backend.dispatch) or a "
            f"repro.tensor op, or waive with `# {WAIVER}`"))
    return violations


def lint_paths(src_root: Path, targets: Sequence[str] = DEFAULT_TARGETS
               ) -> List[Violation]:
    """Lint every file under the target surface; returns all violations."""
    violations: List[Violation] = []
    for target in targets:
        pattern = DEFAULT_PATTERNS.get(target, "*.py")
        for fp in sorted((src_root / target).rglob(pattern)):
            rel = fp.relative_to(src_root)
            violations.extend(
                lint_source(fp.read_text(encoding="utf-8"), str(rel)))
    return violations


def lint_registry_coverage() -> List[Violation]:
    """Every op needs a ``fast`` kernel or an explicit fallback entry.

    The ``fast`` backend is allowed to alias another backend's kernel
    for ops it has no better formulation for, but only *declaredly*
    (:data:`repro.backend.fast.FALLBACK_OPS`): registering a new op
    without deciding its fast story is a lint failure, not a silent
    reference-speed hole in the serving path.
    """
    from repro.backend.fast import FALLBACK_OPS
    from repro.backend.registry import known_backends, known_ops

    violations: List[Violation] = []
    for op in known_ops():
        backends = known_backends(op)
        if "fast" not in backends:
            if op in FALLBACK_OPS:
                violations.append(Violation(
                    "repro/backend/fast.py", 1,
                    f"op {op!r} declares a FALLBACK_OPS entry but no "
                    f"'fast' alias kernel was registered for it"))
            else:
                violations.append(Violation(
                    "repro/backend/fast.py", 1,
                    f"op {op!r} has no 'fast' kernel and no FALLBACK_OPS "
                    f"entry — register one or declare the fallback"))
        elif op in FALLBACK_OPS and FALLBACK_OPS[op] not in backends:
            violations.append(Violation(
                "repro/backend/fast.py", 1,
                f"op {op!r} declares fallback backend "
                f"{FALLBACK_OPS[op]!r} which is not registered for it"))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    src_root = Path(args[0]) if args else Path(__file__).resolve().parents[2]
    violations = lint_paths(src_root)
    violations.extend(lint_registry_coverage())
    for v in violations:
        print(v)
    if violations:
        print(f"kernel-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("kernel-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
