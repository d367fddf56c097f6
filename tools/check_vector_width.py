#!/usr/bin/env python3
"""Check a compiled library's vector width and its upper-ymm state.

Usage: check_vector_width.py OBJDUMP LIBRARY
       check_vector_width.py --self-test DIR

Disassembles LIBRARY with ``OBJDUMP -d -C -r`` and fails, naming each
function, when

* any instruction names an AVX-512 register (``%zmm``, ``%ymm16-31``,
  ``%xmm16-31``, an opmask ``%k0-7``), anywhere;
* a function outside the AVX2 variants names a ``%ymm`` register. The
  AVX2 variants are the functions of the namespaces in AVX2_NAMESPACES:
  the simplex solve path compiled a second time under
  ``#pragma GCC target("avx2")`` (src/opt/simplex.cpp);
* inside an AVX2 variant, a ``ret``, a ``call``, or a ``jmp``/``jcc``
  that leaves the function (a tail call, an indirect jump) is reachable
  while the upper ymm state may be dirty.

The last check is a forward dataflow over the function's basic blocks,
its ``[clone .cold]`` part included: any instruction naming a ``%ymm``
register makes the state dirty, ``vzeroupper``/``vzeroall`` and a
returning call make it clean, and a block starts dirty when any
predecessor can end dirty. A linear "vzeroupper right before ret" test
would not do: GCC puts the vzeroupper before the epilogue's pops, and a
branch can jump past it.

Why: once a 256-bit instruction leaves the upper state dirty, every later
SSE-encoded routine (glibc's log/pow in the Frank-Wolfe line search) pays
the AVX->SSE transition; on an AVX-512 host with GCC 12 fast-tier plans
ran ~7x slower. The library is built for the compiler's default target
(CMakeLists.txt), so a ``-march=native`` in CMAKE_CXX_FLAGS fails here,
and so does an AVX2 variant built with ``-mno-vzeroupper``.

--self-test runs the checks on every ``*.dis`` fixture in DIR. Each
fixture's first line is ``# expect: pass`` or ``# expect: <text>``, where
<text> must appear in one of the reported problems.

Exit code 1 with one line per problem; 0 otherwise (2 on usage errors).
"""

from __future__ import annotations

import bisect
import dataclasses
import pathlib
import re
import subprocess
import sys

AVX2_NAMESPACES = ("meshopt::simplex_avx2::",)

OBJECT = re.compile(r"^(\S+):\s+file format ")
SECTION = re.compile(r"^Disassembly of section (\S+):$")
FUNCTION = re.compile(r"^([0-9a-f]+) <(.+)>:$")
RELOC = re.compile(r"^\s+[0-9a-f]+: R_\S+\t(.+)$")
INSN = re.compile(r"^\s*([0-9a-f]+):\t(.*)$")
DIRECT_TARGET = re.compile(r"^([0-9a-f]+)(?: <.*>)?$")
SYMBOL_ADDEND = re.compile(r"^(.*?)([+-]0x[0-9a-f]+)?$")

AVX512_REGISTER = re.compile(r"%(?:zmm\d+|[xy]mm(?:1[6-9]|2\d|3[01])\b|k[0-7]\b)")
YMM_REGISTER = re.compile(r"%ymm\d+")

PREFIXES = {"notrack", "bnd", "rep", "repz", "repe", "repnz", "repne",
            "lock", "ds", "cs", "data16", "addr32"}
RETURNS = {"ret", "retq", "retl", "retw"}
JUMPS = {"jmp", "jmpq", "ljmp"}
CALLS = {"call", "callq", "lcall"}
STOPS = {"ud2", "hlt", "int3"}
COLD = " [clone .cold]"


@dataclasses.dataclass
class Insn:
    addr: int
    mnemonic: str
    operands: str
    reloc: str | None = None


@dataclasses.dataclass
class Part:
    """One symbol's instructions: a function or its cold part."""
    obj: str
    section: str
    name: str
    start: int
    insns: list[Insn] = dataclasses.field(default_factory=list)

    @property
    def end(self) -> int:
        return self.insns[-1].addr + 1 if self.insns else self.start

    @property
    def group(self) -> tuple[str, str]:
        name = self.name[:-len(COLD)] if self.name.endswith(COLD) else self.name
        return self.obj, name


def parse(disassembly: str) -> list[Part]:
    """Split objdump -d -r output into function parts."""
    parts: list[Part] = []
    obj = section = ""
    part: Part | None = None
    for line in disassembly.splitlines():
        if m := OBJECT.match(line):
            obj, part = m.group(1), None
        elif m := SECTION.match(line):
            section, part = m.group(1), None
        elif m := FUNCTION.match(line):
            part = Part(obj, section, m.group(2), int(m.group(1), 16))
            parts.append(part)
        elif part is None:
            continue
        elif m := RELOC.match(line):
            if part.insns and part.insns[-1].reloc is None:
                part.insns[-1].reloc = m.group(1)
        elif m := INSN.match(line):
            text = m.group(2).split("#")[0].split()
            while text and text[0] in PREFIXES:
                text = text[1:]
            part.insns.append(Insn(int(m.group(1), 16),
                                   text[0] if text else "",
                                   " ".join(text[1:])))
    return parts


def is_avx2_variant(name: str) -> bool:
    return name.startswith(AVX2_NAMESPACES)


class Image:
    """Address lookup over all parts: (object, section, address) -> part."""

    def __init__(self, parts: list[Part]):
        self.by_name = {(p.obj, p.name): p for p in parts}
        self.sections: dict[tuple[str, str], list[Part]] = {}
        for p in parts:
            self.sections.setdefault((p.obj, p.section), []).append(p)
        for ordered in self.sections.values():
            ordered.sort(key=lambda p: p.start)
        self.starts = {k: [p.start for p in v]
                       for k, v in self.sections.items()}

    def part_at(self, obj: str, section: str, addr: int) -> Part | None:
        starts = self.starts.get((obj, section), [])
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0:
            return None
        p = self.sections[(obj, section)][i]
        return p if addr < p.end else None

    def target(self, part: Part, insn: Insn) -> tuple[Part, int] | None:
        """The (part, address) a direct branch lands on; None if it leaves
        the image or is indirect."""
        if insn.operands.startswith("*"):
            return None
        if insn.reloc is not None:
            # rel32 is the branch's last field: target = S + A + 4.
            m = SYMBOL_ADDEND.match(insn.reloc)
            symbol = m.group(1)
            addend = int(m.group(2), 16) if m.group(2) else 0
            if symbol.startswith("."):
                section, base = symbol, 0
            elif (part.obj, symbol) in self.by_name:
                dest = self.by_name[(part.obj, symbol)]
                section, base = dest.section, dest.start
            else:
                return None
            addr = base + addend + 4
            dest = self.part_at(part.obj, section, addr)
            return (dest, addr) if dest else None
        m = DIRECT_TARGET.match(insn.operands)
        if not m:
            return None
        addr = int(m.group(1), 16)
        dest = self.part_at(part.obj, part.section, addr)
        return (dest, addr) if dest else None


def check_upper_state(image: Image, group: list[Part]) -> list[str]:
    """Dataflow over one AVX2 function's basic blocks: every exit clean."""
    key = group[0].group
    owner = {id(p) for p in group}

    def internal(part: Part, insn: Insn) -> tuple[Part, int] | None:
        t = image.target(part, insn)
        return t if t is not None and id(t[0]) in owner else None

    # Leaders: part starts, internal branch targets, and the instruction
    # after any control transfer.
    leaders: set[tuple[int, int]] = set()
    for p in group:
        if p.insns:
            leaders.add((id(p), p.insns[0].addr))
        for i, insn in enumerate(p.insns):
            kind = insn.mnemonic
            if kind.startswith("j") or kind in RETURNS or kind in STOPS:
                if (t := internal(p, insn)) is not None:
                    leaders.add((id(t[0]), t[1]))
                if i + 1 < len(p.insns):
                    leaders.add((id(p), p.insns[i + 1].addr))

    # Blocks keyed by (part id, first address): the part and the block's
    # instructions, and the address execution falls through to after it
    # (None at the end of a part).
    blocks: dict[tuple[int, int], tuple[Part, list[Insn]]] = {}
    fallthrough: dict[tuple[int, int], int | None] = {}
    for p in group:
        key_of_block = None
        for i, insn in enumerate(p.insns):
            if (id(p), insn.addr) in leaders:
                key_of_block = (id(p), insn.addr)
                blocks[key_of_block] = (p, [])
            blocks[key_of_block][1].append(insn)
            fallthrough[key_of_block] = (
                p.insns[i + 1].addr if i + 1 < len(p.insns) else None)

    def successors(b: tuple[int, int]) -> list[tuple[int, int]]:
        p, insns = blocks[b]
        last = insns[-1]
        kind = last.mnemonic
        out = []
        if kind.startswith("j") and (t := internal(p, last)) is not None:
            out.append((id(t[0]), t[1]))
        if kind in JUMPS or kind in RETURNS or kind in STOPS:
            return out
        if fallthrough[b] is not None:
            out.append((id(p), fallthrough[b]))
        return out

    def transfer(p: Part, insns: list[Insn], dirty: bool,
                 problems: list[str] | None) -> bool:
        for insn in insns:
            kind = insn.mnemonic
            if kind in ("vzeroupper", "vzeroall"):
                dirty = False
                continue
            if YMM_REGISTER.search(insn.operands):
                dirty = True
            leaves = None
            if kind in RETURNS:
                leaves = "ret"
            elif kind in CALLS:
                leaves = "call"
            elif kind.startswith("j") and internal(p, insn) is None:
                leaves = "jump leaving the function"
            if leaves and dirty and problems is not None:
                where = f"{insn.mnemonic} {insn.reloc or insn.operands}".strip()
                problems.append(
                    f"{key[1]}: {leaves} at {p.section}+{insn.addr:#x} "
                    f"({where}) reachable with dirty upper ymm state")
            if kind in CALLS:
                dirty = False  # callees return clean (and this one was checked)
        return dirty

    dirty_in = {b: False for b in blocks}
    work = list(blocks)
    while work:
        b = work.pop()
        p, insns = blocks[b]
        out = transfer(p, insns, dirty_in[b], None)
        if not out:
            continue
        for s in successors(b):
            if s in dirty_in and not dirty_in[s]:
                dirty_in[s] = True
                work.append(s)

    problems: list[str] = []
    for b, (p, insns) in sorted(blocks.items(),
                                key=lambda kv: (kv[1][0].section, kv[0][1])):
        transfer(p, insns, dirty_in[b], problems)
    return problems


def check(disassembly: str) -> tuple[list[str], str]:
    """All problems in an objdump listing, plus a one-line summary."""
    parts = parse(disassembly)
    image = Image(parts)
    problems: list[str] = []
    groups: dict[tuple[str, str], list[Part]] = {}
    ymm_count = 0
    for p in parts:
        wide = [i for i in p.insns if AVX512_REGISTER.search(i.operands)]
        if wide:
            problems.append(f"{p.name}: {len(wide)} AVX-512 register uses "
                            f"(first: {wide[0].mnemonic} {wide[0].operands})")
        ymm = [i for i in p.insns if YMM_REGISTER.search(i.operands)]
        ymm_count += len(ymm)
        if is_avx2_variant(p.group[1]):
            groups.setdefault(p.group, []).append(p)
        elif ymm:
            problems.append(f"{p.name}: {len(ymm)} ymm instructions outside "
                            f"the AVX2 variants (first: {ymm[0].mnemonic} "
                            f"{ymm[0].operands})")
    for key, group in sorted(groups.items()):
        group.sort(key=lambda p: p.name.endswith(COLD))
        problems.extend(check_upper_state(image, group))
    summary = (f"{len(parts)} functions, {len(groups)} AVX2 variants, "
               f"{ymm_count} ymm instructions")
    return problems, summary


def self_test(directory: pathlib.Path) -> int:
    fixtures = sorted(directory.glob("*.dis"))
    if not fixtures:
        print(f"no *.dis fixtures in {directory}", file=sys.stderr)
        return 2
    failed = 0
    for path in fixtures:
        text = path.read_text()
        expect = text.splitlines()[0].removeprefix("# expect:").strip()
        problems, _ = check(text)
        if expect == "pass":
            ok = not problems
        else:
            ok = any(expect in problem for problem in problems)
        print(f"{'ok  ' if ok else 'FAIL'} {path.name}: expect {expect!r}, "
              f"got {problems or 'no problem'}")
        failed += not ok
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--self-test":
        return self_test(pathlib.Path(argv[2]))
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    objdump, name = argv[1], argv[2]
    result = subprocess.run(
        [objdump, "-d", "-C", "-r", "--no-show-raw-insn", name],
        capture_output=True, text=True)
    if result.returncode != 0:
        print(f"{objdump} failed on {name}:\n{result.stderr}",
              file=sys.stderr)
        return 2
    problems, summary = check(result.stdout)
    if not problems:
        print(f"{name}: {summary}; no AVX-512 register, ymm only in AVX2 "
              f"variants, every exit from them clean")
        return 0
    print(f"{name}: {summary}; {len(problems)} problems:")
    for problem in problems:
        print(f"  {problem}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
