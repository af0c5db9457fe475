#!/usr/bin/env python3
"""Symbolize and summarize a profile written by sigprof_sampler.c.

    python3 scripts/profile/symbolize.py PROFILE [--mode actor|self]
                                         [--under NAME]

Each sample is one stack: the interrupted PC, then return addresses,
innermost first. Addresses are mapped through the recorded memory map to
ELF symbols with nm (and readelf for segment offsets), so the binary must
keep its symbol table; no debug info is needed.

Modes:
  actor      charge each sample to its innermost coroutine body (the
             symbol GCC names "... [clone .actor]"), or to the innermost
             function when no coroutine is on the stack. Coroutine frames
             are resumed from the event loop, so their callers say little;
             gprof's call-graph attribution gets them wrong.
  self       charge each sample to the innermost function.

--under NAME keeps only the samples with a frame whose symbol contains
NAME (for instance the driver function of a measured window). The 40
hottest entries are printed.
"""

import argparse
import bisect
import collections
import subprocess
import sys

ACTOR = "[clone .actor]"
TOP = 40


def parse_profile(path):
    maps, samples, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                fields = line[4:].split(None, 5)
                if len(fields) < 6 or "x" not in fields[1]:
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("s "):
                samples.append([int(x, 16) for x in line[2:].split()])
            elif line.startswith("dropped "):
                dropped = int(line.split()[1])
    maps.sort()
    return maps, samples, dropped


class ElfSymbols:
    """Function symbols of one ELF file, addressed by file offset."""

    def __init__(self, path):
        self.segments = []  # (file offset, size, vaddr)
        try:
            out = subprocess.run(["readelf", "-lW", path], capture_output=True,
                                 text=True, check=False).stdout
        except OSError:
            out = ""
        for line in out.splitlines():
            fields = line.split()
            if fields[:1] == ["LOAD"]:
                self.segments.append((int(fields[1], 16), int(fields[4], 16),
                                      int(fields[2], 16)))
        self.starts, self.entries = [], []
        for dynamic in (False, True):
            cmd = ["nm", "-S", "-n", "-C", "--defined-only"]
            if dynamic:
                cmd.append("-D")
            try:
                out = subprocess.run(cmd + [path], capture_output=True,
                                     text=True, check=False).stdout
            except OSError:
                out = ""
            for line in out.splitlines():
                fields = line.split(None, 3)
                if len(fields) == 4 and fields[2] in "tTwWiI":
                    start, size = int(fields[0], 16), int(fields[1], 16)
                    self.entries.append((start, size, fields[3]))
            if self.entries:
                break
        self.entries.sort()
        self.starts = [e[0] for e in self.entries]

    def lookup(self, offset):
        vaddr = offset
        for seg_off, seg_size, seg_vaddr in self.segments:
            if seg_off <= offset < seg_off + seg_size:
                vaddr = offset - seg_off + seg_vaddr
                break
        i = bisect.bisect_right(self.starts, vaddr) - 1
        if i >= 0:
            start, size, name = self.entries[i]
            if vaddr < start + max(size, 1):
                return name
        return None


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.files = {}
        self.cache = {}

    def name(self, addr):
        if addr in self.cache:
            return self.cache[addr]
        result = "?"
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.maps[i][1]:
            lo, _, offset, path = self.maps[i]
            if path not in self.files:
                self.files[path] = ElfSymbols(path)
            sym = self.files[path].lookup(addr - lo + offset)
            base = path.rsplit("/", 1)[-1]
            # Unexported internals (libc's string routines) have no
            # symbol; charge them to their file.
            result = sym if sym is not None else "?? (" + base + ")"
        self.cache[addr] = result
        return result

    def stack(self, sample):
        # Return addresses point after the call; look up the call itself.
        return [self.name(a if k == 0 else a - 1)
                for k, a in enumerate(sample)]


def short_name(name):
    """Drop a function's parameter list (the first top-level "(")."""
    if name.startswith("??"):
        return name
    name = name.replace("(anonymous namespace)", "{anon}")
    depth = 0
    for i, c in enumerate(name):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0 and i > 0:
            suffix = " [actor]" if name.endswith(ACTOR) else ""
            return name[:i] + suffix
    return name


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profile")
    parser.add_argument("--mode", choices=("actor", "self"),
                        default="actor")
    parser.add_argument("--under", default=None)
    args = parser.parse_args()

    maps, samples, dropped = parse_profile(args.profile)
    sym = Symbolizer(maps)
    counts = collections.Counter()
    kept = 0
    for sample in samples:
        frames = sym.stack(sample)
        if args.under and not any(args.under in f for f in frames):
            continue
        kept += 1
        if args.mode == "self":
            counts[frames[0]] += 1
        else:
            counts[next((f for f in frames if ACTOR in f), frames[0])] += 1
    print(f"# {kept} of {len(samples)} samples kept ({dropped} dropped), "
          f"mode={args.mode}" + (f", under={args.under}" if args.under
                                 else ""))
    for name, n in counts.most_common(TOP):
        print(f"{100.0 * n / max(kept, 1):6.2f}%  {n:7d}  {short_name(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
