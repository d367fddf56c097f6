#!/usr/bin/env python3
"""Fail if a compiled library contains 256- or 512-bit vector instructions.

Usage: check_vector_width.py OBJDUMP LIBRARY

Disassembles LIBRARY with ``OBJDUMP -d -C`` and lists every function with
an instruction that names a ``%ymm`` or ``%zmm`` register. The library is
built for the compiler's default target, which on x86-64 has no wider
vectors (CMakeLists.txt): once a wide instruction leaves the upper
register state dirty without a ``vzeroupper``, every later SSE-encoded
libm call (the Frank-Wolfe line search's log/pow) pays the AVX->SSE
transition. A ``-march=native`` in CMAKE_CXX_FLAGS brings them back.
This check makes that class of slowdown a deterministic failure instead
of a wall-clock drift.

Exit code 1 with one line per offending function; 0 otherwise.
"""

from __future__ import annotations

import re
import subprocess
import sys

FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
WIDE_REGISTER = re.compile(r"%[yz]mm\d+")


def wide_functions(disassembly: str) -> dict[str, list[str]]:
    """Map each function to its instructions that name a ymm/zmm register."""
    found: dict[str, list[str]] = {}
    function = "?"
    for line in disassembly.splitlines():
        m = FUNCTION.match(line)
        if m:
            function = m.group(1)
        elif WIDE_REGISTER.search(line):
            found.setdefault(function, []).append(
                line.split("\t")[-1].split("#")[0].strip())
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    objdump, library = argv[1], argv[2]
    result = subprocess.run(
        [objdump, "-d", "-C", "--no-show-raw-insn", library],
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        print(f"{objdump} failed on {library}:\n{result.stderr}",
              file=sys.stderr)
        return 2
    found = wide_functions(result.stdout)
    if not found:
        print(f"{library}: no ymm/zmm instruction")
        return 0
    total = sum(len(v) for v in found.values())
    print(f"{library}: {total} ymm/zmm instructions in "
          f"{len(found)} functions:")
    for function, insns in sorted(found.items()):
        print(f"  {function}: {len(insns)} (first: {insns[0]})")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
