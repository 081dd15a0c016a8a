#!/usr/bin/env python3
"""PC-sampling profiler for one child process (x86-64 Linux).

Runs a command under ptrace, stops its main thread about HZ times a
second, reads the instruction pointer and lets it go on. When the command
exits, the samples are symbolized with `nm` (function) and `addr2line`
(source file) and three tables are printed to stderr: by function, by
source file and by layer (a part of the scheduler kernel, a library of
the repository, or a part of the OCaml runtime).

    python3 bench/pcprof.py [--hz 500] [--top 25] [--runs 1]
                            [--callers [FN,...]] -- EXE ARGS...

For example, the litmus job path on one domain:

    dune build perfbench/main.exe
    python3 bench/pcprof.py -- _build/default/perfbench/main.exe \\
        --child --workload litmus-farm --seed 1 --rep 0 --trace 0

--callers attributes the samples that land in the named C functions
(default caml_modify,caml_darken: the write barrier) to their callers.
For each such sample it reads the words at the stack pointer from
/proc/<pid>/mem and charges the sample to the first word that points into
an OCaml function, then prints that attribution by function and by layer.
It cannot attribute GC samples: under OCaml 5 the GC runs on the C stack,
apart from the OCaml fiber stack, so the words at the stack pointer of a
sample in the collector hold no OCaml frame. A noalloc call such as
caml_modify also switches to the C stack, but its return address into the
OCaml caller is the first word pushed there.

EXE must be the program itself, not a script that starts it: only the
traced process is sampled, and only its main thread (OCaml domain 0).
Each sample costs the child a signal stop, about 20-50 us, so 500 Hz
slows it by a few per cent. Needs only ptrace over one's own child (the
default) and binutils.
"""

import argparse
import bisect
import collections
import ctypes
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time

PTRACE_TRACEME, PTRACE_CONT, PTRACE_GETREGS = 0, 7, 12
SYS_tgkill = 234
RIP, RSP = 16, 19  # indices in struct user_regs_struct (x86-64)
STACK_WORDS = 64  # words read at the stack pointer for --callers

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]


def read_maps(pid):
    """Executable mappings of [pid]: (start, end, file offset, path)."""
    out = []
    try:
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                out.append((lo, hi, int(parts[2], 16), parts[5]))
    except OSError:
        pass
    return out


def locate(maps, addr):
    """(path, offset in file) of [addr] in an executable mapping, or None."""
    hit = next((m for m in maps if m[0] <= addr < m[1]), None)
    return None if hit is None else (hit[3], addr - hit[0] + hit[2])


def read_stack(mem, sp):
    """The STACK_WORDS words at [sp] in the child's memory file [mem]."""
    try:
        mem.seek(sp)
        b = mem.read(8 * STACK_WORDS)
    except OSError:
        return []
    return list(struct.unpack(f"<{len(b) // 8}Q", b[: len(b) // 8 * 8]))


def sample(argv, hz, want=None):
    """Run [argv] to completion; return [(path, address in file, stack)].
    [stack] is None unless [want(path, address)] holds: then it lists the
    (path, address in file) of each word at the stack pointer that points
    into an executable mapping, nearest first."""
    pid = os.fork()
    if pid == 0:
        libc.ptrace(PTRACE_TRACEME, 0, None, None)
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)  # the exec stop
    if not os.WIFSTOPPED(status):
        sys.exit(f"pcprof: {argv[0]} did not start")
    regs = (ctypes.c_ulong * 27)()
    maps, samples = [], []
    mem = open(f"/proc/{pid}/mem", "rb", buffering=0) if want else None
    libc.ptrace(PTRACE_CONT, pid, None, None)
    period = 1.0 / hz
    while True:
        time.sleep(period)
        libc.syscall(SYS_tgkill, pid, pid, signal.SIGSTOP)
        while True:
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status) or os.WIFSIGNALED(status):
                if mem:
                    mem.close()
                return samples
            sig = os.WSTOPSIG(status)
            if sig == signal.SIGSTOP:
                break
            libc.ptrace(PTRACE_CONT, pid, None, ctypes.c_void_p(sig))  # not ours
        if libc.ptrace(PTRACE_GETREGS, pid, None, ctypes.byref(regs)) == 0:
            rip = regs[RIP]
            at = locate(maps, rip)
            if at is None:
                maps = read_maps(pid)
                at = locate(maps, rip)
            if at is None:
                samples.append(("?", rip, None))
            else:
                stack = None
                if want and want(*at):
                    words = (locate(maps, w) for w in read_stack(mem, regs[RSP]))
                    stack = [w for w in words if w is not None]
                samples.append((at[0], at[1], stack))
        libc.ptrace(PTRACE_CONT, pid, None, None)


def text_offset(exe):
    """Map a file offset in [exe] to its ELF virtual address."""
    segs = []
    out = subprocess.run(["readelf", "-lW", exe], capture_output=True, text=True).stdout
    for line in out.splitlines():
        p = line.split()
        if p and p[0] == "LOAD":
            segs.append((int(p[1], 16), int(p[2], 16), int(p[4], 16)))
    def vaddr(off):
        for o, v, size in segs:
            if o <= off < o + size:
                return off - o + v
        return off
    return vaddr


def functions(exe):
    out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        p = line.split()
        if len(p) == 3 and p[1] in "TtWw":  # caml_modify is weak
            addrs.append(int(p[0], 16))
            names.append(p[2])
    return addrs, names


def source_files(exe, addrs):
    if not addrs:
        return {}
    inp = "\n".join(hex(a) for a in addrs)
    out = subprocess.run(["addr2line", "-e", exe], input=inp, capture_output=True, text=True).stdout
    files = {}
    for a, line in zip(addrs, out.splitlines()):
        f = line.rsplit(":", 1)[0]
        f = re.sub(r"^.*/ocaml-base-compiler\.[^/]*/", "ocaml/", f)
        f = re.sub(r"^(.*?/_build/default/|/workspace_root/)", "", f)
        files[a] = "?" if f.startswith("??") else f
    return files


# Scheduler-kernel modules of lib/cmd, by layer.
CMD_LAYERS = {
    "Sim": "cmd: scheduler (Sim/Clock/Wakeup)",
    "Clock": "cmd: scheduler (Sim/Clock/Wakeup)",
    "Wakeup": "cmd: scheduler (Sim/Clock/Wakeup)",
    "Rule": "cmd: scheduler (Sim/Clock/Wakeup)",
    "Kernel": "cmd: kernel (ports, undo)",
    "Ehr": "cmd: kernel (ports, undo)",
    "Mut": "cmd: kernel (ports, undo)",
    "Reg": "cmd: kernel (ports, undo)",
    "Fifo": "cmd: FIFOs and wires",
    "Wire": "cmd: FIFOs and wires",
    "State": "cmd: snapshot (State)",
}

BARRIER = {"caml_modify", "caml_darken", "caml_initialize", "caml_darken_all_roots_start"}
MARSHAL = ("caml_input", "caml_output", "intern_", "extern_", "caml_marshal", "caml_unmarshal")
GC_FILES = ("major_gc.c", "minor_gc.c", "shared_heap.c", "gc_ctrl.c", "roots.c", "fiber.c")
ALLOC = ("caml_alloc", "caml_call_gc", "caml_garbage_collection", "caml_fl_", "caml_shared_",
         "pool_", "large_alloc")


def layer(fn, path, src):
    if fn is None:
        base = os.path.basename(path)
        return "outside the executable: " + (base.split(".so")[0] if base else "?")
    m = re.match(r"caml([A-Z][A-Za-z0-9]*)__([A-Z][A-Za-z0-9_]*)\.", fn)
    if m:
        lib, mod = m.group(1), m.group(2)
        if lib == "Dune":
            return "executable"
        if lib == "Cmd":
            return CMD_LAYERS.get(mod, "cmd: other")
        if lib == "Stdlib":
            return "OCaml stdlib"
        return "lib/" + lib.lower()
    m = re.match(r"caml([A-Z][A-Za-z0-9_]*)\.", fn)
    if m:
        return "OCaml module " + m.group(1)
    if fn in BARRIER:
        return "runtime: write barrier"
    if fn.startswith(MARSHAL):
        return "runtime: marshal"
    if fn.startswith(ALLOC):
        return "runtime: allocation"
    if os.path.basename(src) in GC_FILES:
        return "runtime: GC"
    if fn.startswith("caml") or src.startswith("ocaml/runtime/"):
        return "runtime: other"
    return "C: " + fn


def is_ocaml(fn):
    return re.match(r"caml[A-Z]", fn) is not None


def table(title, counter, total, top):
    print(f"\n{title} ({total} samples)", file=sys.stderr)
    print(f"  {'share':>6}  {'samples':>7}  name", file=sys.stderr)
    for name, n in counter.most_common(top):
        print(f"  {100.0 * n / total:5.1f}%  {n:7d}  {name}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--hz", type=float, default=500.0, help="samples per second (500)")
    ap.add_argument("--top", type=int, default=25, help="rows of the function and file tables")
    ap.add_argument("--runs", type=int, default=1, help="run the command N times, pooling samples")
    ap.add_argument("--callers", nargs="?", const="caml_modify,caml_darken", metavar="FN,...",
                    help="attribute samples in these C functions (default caml_modify,"
                    "caml_darken) to the first OCaml frame at the stack pointer; "
                    "GC samples cannot be attributed")
    ap.add_argument("cmd", nargs=argparse.REMAINDER, help="-- EXE ARGS...")
    a = ap.parse_args()
    argv = a.cmd[1:] if a.cmd[:1] == ["--"] else a.cmd
    if not argv:
        ap.error("no command given")
    for tool in ("nm", "addr2line", "readelf"):
        if shutil.which(tool) is None:
            sys.exit(f"pcprof: {tool} not found (binutils)")
    exe = os.path.realpath(shutil.which(argv[0]) or argv[0])
    vaddr = text_offset(exe)
    addrs, names = functions(exe)

    def fn_of(off):
        i = bisect.bisect_right(addrs, vaddr(off)) - 1
        return names[i] if i >= 0 else "?"

    want = None
    if a.callers:
        targets = set(a.callers.split(","))
        missing = targets - set(names)
        if missing:
            sys.exit(f"pcprof: no function {', '.join(sorted(missing))} in {exe}")
        want = lambda path, off: os.path.realpath(path) == exe and fn_of(off) in targets
    t0 = time.time()
    samples = [s for _ in range(a.runs) for s in sample(argv, a.hz, want)]
    wall = time.time() - t0
    if not samples:
        sys.exit("pcprof: no samples (the command ran too briefly)")
    in_exe = [vaddr(off) for path, off, _ in samples if os.path.realpath(path) == exe]
    files = source_files(exe, sorted(set(in_exe)))
    by_fn, by_file, by_layer = collections.Counter(), collections.Counter(), collections.Counter()
    for path, off, _ in samples:
        if os.path.realpath(path) == exe:
            v = vaddr(off)
            fn = fn_of(off)
            by_fn[fn] += 1
            src = files.get(v, "?")
            by_file[src] += 1
            by_layer[layer(fn, path, src)] += 1
        else:
            lib = os.path.basename(path) or "?"
            by_fn["[" + lib + "]"] += 1
            by_file["[" + lib + "]"] += 1
            by_layer[layer(None, path, "?")] += 1
    n = len(samples)
    print(f"pcprof: {n} samples in {wall:.2f} s ({a.runs} runs) of {' '.join(argv)}",
          file=sys.stderr)
    table("By function", by_fn, n, a.top)
    table("By source file", by_file, n, a.top)
    table("By layer", by_layer, n, len(by_layer))
    if a.callers:
        callers, caller_layers = collections.Counter(), collections.Counter()
        for _, _, stack in samples:
            if stack is None:
                continue
            fn = next((f for f in (fn_of(off) for p, off in stack if os.path.realpath(p) == exe)
                       if is_ocaml(f)), None)
            callers[fn or "(no OCaml frame)"] += 1
            caller_layers[layer(fn, exe, "?") if fn else "(no OCaml frame)"] += 1
        hits = sum(callers.values())
        if hits == 0:
            print(f"\npcprof: no samples in {a.callers}", file=sys.stderr)
            return
        what = f"Samples in {a.callers}"
        table(f"{what}, by first OCaml frame", callers, hits, a.top)
        table(f"{what}, by layer of that frame", caller_layers, hits, len(caller_layers))


if __name__ == "__main__":
    main()
