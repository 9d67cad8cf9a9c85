"""Cold-start cost of the package: wall time, peak memory and import time of
fresh interpreters.

    python3 scripts/startup_sweep.py

Each case runs in a new child process of this interpreter, with the
package on PYTHONPATH from a fresh copy of `src/` in a temporary directory:
`import looptool`, `import looptool.cli`, and two cold `looptool knot`
runs through `cli.main` (4_1 at loop 3 to n = 70, and the theta bundle
file `data/synthetic_theta_bundle.json` at loop 2 to n = 40), their tables
discarded.  For each case it prints the median and the minimum wall time
of REPEAT runs, the median of the child's own peak RSS (`ru_maxrss`),
whether mpmath, dataclasses and inspect were loaded, and, from one more run
under `-X importtime`, the total self import time, the part of it spent in
looptool and in mpmath, and the TOP modules by self time.

Both bytecode states are measured.  `cold`: the package compiles from
source on every run (PYTHONDONTWRITEBYTECODE=1 on a tree with no
`__pycache__`), as in a fresh checkout where writing bytecode is off; the
standard library and mpmath keep their installed caches.  `warm`:
PYTHONPYCACHEPREFIX points at a temporary directory that one untimed run
fills, so every module loads from bytecode.
"""

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
REPEAT = 11
TOP = 8
WATCH = ("mpmath", "dataclasses", "inspect")
KNOT = "from looptool.cli import main; main({!r})"
CASES = [
    ("import looptool", "import looptool"),
    ("import looptool.cli", "import looptool.cli"),
    ("knot 4_1 loop 3 to 70",
     KNOT.format(["knot", "--knot", "4_1", "--loop", "3", "--nmax", "70", "--mode", "average"])),
    ("knot theta bundle loop 2 to 40",
     KNOT.format(["knot", "--knot", os.path.join(ROOT, "data", "synthetic_theta_bundle.json"),
                  "--loop", "2", "--nmax", "40"])),
]
# the child reports its peak RSS and loaded modules on stderr at exit
REPORT = ("import atexit, resource, sys\n"
          "atexit.register(lambda: print('SWEEP', resource.getrusage(resource.RUSAGE_SELF)"
          f".ru_maxrss, *(m in sys.modules for m in {WATCH!r}), file=sys.stderr))\n")


def run(code, env, importtime=False):
    """(wall seconds, stderr) of one child running `code`."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", REPORT + code]
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    return time.perf_counter() - start, done.stderr


def import_self_us(stderr):
    """{module: self import time in microseconds} from -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            self_us, _, name = line[len("import time:"):].split("|")
            out[name.strip()] = int(self_us)
    return out


def sweep(state, env):
    for label, code in CASES:
        if state == "warm":
            run(code, env)
        walls, rss = [], []
        for _ in range(REPEAT):
            wall, err = run(code, env)
            report = err.splitlines()[-1].split()
            walls.append(wall)
            rss.append(int(report[1]) / 1024)
        loaded = ", ".join(f"{m} {'yes' if flag == 'True' else 'no'}"
                           for m, flag in zip(WATCH, report[2:]))
        times = import_self_us(run(code, env, importtime=True)[1])
        part = {p: sum(us for name, us in times.items() if name.split(".")[0] == p)
                for p in ("looptool", "mpmath")}
        print(f"{state:4}  {label:31} wall median {1e3 * statistics.median(walls):6.1f} ms"
              f"  min {1e3 * min(walls):6.1f} ms  peak RSS {statistics.median(rss):5.1f} MB"
              f"  ({loaded})")
        print(f"      self import {sum(times.values()) / 1e3:6.1f} ms: looptool "
              f"{part['looptool'] / 1e3:.1f}, mpmath {part['mpmath'] / 1e3:.1f}; top: "
              + ", ".join(f"{name} {us / 1e3:.1f}" for name, us in
                          sorted(times.items(), key=lambda kv: -kv[1])[:TOP]))


def main():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src", "looptool"), os.path.join(tmp, "src", "looptool"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = os.path.join(tmp, "src")
        print(f"python {sys.version.split()[0]}, {REPEAT} runs per case")
        sweep("cold", dict(base, PYTHONDONTWRITEBYTECODE="1"))
        sweep("warm", dict(base, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache")))


if __name__ == "__main__":
    main()
