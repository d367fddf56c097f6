#!/usr/bin/env python3
"""Fail when src/, README.md or ARCHITECTURE.md cites an unregistered benchmark.

A microbenchmark is cited by its `BM_*` name. The only registered ones are
those `bench/perf_optimizer.cpp` passes to `BENCHMARK(...)`; a citation of
any other name points at a case that no longer exists. CHANGES.md and
ROADMAP.md are history and are not scanned.

Usage: python3 tools/check_bench_refs.py [repo_root]
Exit code 1 with a report of each stale citation; 0 otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NAME_RE = re.compile(r"\bBM_[A-Za-z0-9_]+")
REGISTERED_RE = re.compile(r"\bBENCHMARK\(\s*(BM_[A-Za-z0-9_]+)\s*\)")
BENCH_SOURCE = Path("bench/perf_optimizer.cpp")
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".inc"}


def scanned_files(root: Path) -> list[Path]:
    files = [p for p in (root / "src").rglob("*") if p.suffix in SOURCE_SUFFIXES]
    files += [root / name for name in ("README.md", "ARCHITECTURE.md")]
    return sorted(p for p in files if p.is_file())


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()
    registered = set(
        REGISTERED_RE.findall((root / BENCH_SOURCE).read_text(encoding="utf-8"))
    )
    if not registered:
        print(f"no BENCHMARK(...) registrations found in {BENCH_SOURCE}")
        return 1
    stale: list[str] = []
    files = scanned_files(root)
    for path in files:
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for name in NAME_RE.findall(line):
                if name not in registered:
                    stale.append(f"{path.relative_to(root)}:{lineno}: {name}")
    if stale:
        print(
            f"{len(stale)} citation(s) of benchmarks that "
            f"{BENCH_SOURCE} does not register:"
        )
        for s in stale:
            print(f"  {s}")
        return 1
    print(
        f"OK: every BM_* citation in {len(files)} files names one of "
        f"{len(registered)} registered benchmarks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
