#!/usr/bin/env python3
"""Compare every benchmark operation and CLI-matrix run of two source trees.

    python3 scripts/bit_identity.py OTHER_SRC [--seeds 1 2 3] [--groups N]

runs one child process per tree: one on the ``src/`` next to this script
and one on OTHER_SRC (the ``src`` directory of another checkout, for
example a ``git archive`` of the parent commit).  Each child runs the CLI
matrix of ``scripts/cli_matrix.py`` and every operation of the
``hw-normal``, ``poly-small`` and ``diag-kappa`` inputs for each seed,
taking the workloads from this checkout's ``bench/workloads.py`` without
changing it.  Each leaf of a result is digested on its own, keyed
``workload seed group index kind/path``.  The kind is the case's kind and
shape, ``hw-type-poly(8,2)`` for polynomials of size 8 and degree 2 or
``diag(64)`` for a matrix of order 64, and for a CLI run its format and
its arguments other than file names, ``machine:hw,--type``.  The path
names the fields of dataclasses and the positions in tuples, down to a
leaf, which is anything else (a flat tuple of numbers, such as a spectrum,
is one leaf).  A leaf is known by a digest of its ``repr``, with arrays and
quaternion matrices digested by their bytes; an exception by its type and
message, under the path ``raised``.  The digest of each workload's inputs
is compared too.

Each leaf that differs is printed as ``key: digest != digest``, and one
that only one tree has reads ``missing`` on the other side, so a field
added to a result shows as that field alone.  A tally follows, one line
``count workload kind path`` for each workload, case kind and field path
with a differing leaf, so a change can be checked against the results it
claims to change.  The exit code is 1 when anything differs and 0
otherwise.  ``--groups`` sets each workload's group count (default: its
own), whose inputs begin with those of any larger count.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("hw-normal", "poly-small", "diag-kappa")


def _update(h, obj) -> None:
    """Feed the repr of ``obj`` to ``h``, arrays and matrices by their bytes."""
    import numpy as np
    from quathw.qmatrix import QMatrix

    if isinstance(obj, QMatrix):
        for part in (obj.c1, obj.c2):
            _update(h, part)
    elif isinstance(obj, np.ndarray):
        h.update(f"ndarray{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode() + b"(")
        for f in dataclasses.fields(obj):
            h.update(f.name.encode() + b"=")
            _update(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _update(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        _update(h, sorted(obj.items()))
    else:
        h.update(repr(obj).encode())


def _digest(obj) -> str:
    h = hashlib.sha256()
    _update(h, obj)
    return h.hexdigest()[:16]


def _leaves(obj, path: str):
    """``(path, digest)`` of each leaf under ``obj``, as the module docstring says."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{path}/{f.name}")
    elif isinstance(obj, (list, tuple)) and any(
        isinstance(item, (list, tuple)) or dataclasses.is_dataclass(item) for item in obj
    ):
        for k, item in enumerate(obj):
            yield from _leaves(item, f"{path}/{k}")
    else:
        yield path, _digest(obj)


def result_leaves(key: str, run, *args):
    """``(key/path, digest)`` of each leaf of ``run(*args)``, or of its exception."""
    try:
        result = run(*args)
    except Exception as exc:
        return [(f"{key}/raised", _digest(f"{type(exc).__name__}: {exc}"))]
    return list(_leaves(result, key))


def case_kind(case) -> str:
    """The kind and shape of a workload case, as the module docstring says."""
    first = case.args[0]
    shape = f"{first.size},{first.degree}" if hasattr(first, "degree") else case.size
    return f"{case.kind}({shape})"


def cli_kind(argv: list[str]) -> str:
    """The format and the arguments other than file names of a CLI run."""
    return argv[1] + ":" + ",".join(a for a in argv[2:] if not a.endswith(".json"))


def tally(differ: list[str]) -> list[str]:
    """``count workload kind path`` for the differing keys of each workload,
    case kind and field path.  A CLI run has the path ``-``, and a
    workload's inputs the kind ``inputs``."""
    counts = collections.Counter()
    for key in differ:
        result, _, path = key.partition("/")
        workload, *_, kind = result.split(" ")
        counts[workload, kind, path or "-"] += 1
    return [f"{n} {' '.join(group)}" for group, n in sorted(counts.items())]


def child(seeds: list[int], groups: int | None) -> None:
    """Print ``key digest`` for every result of the tree on ``sys.path``."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "scripts")]
    import contextlib
    import io

    import cli_matrix
    import workloads

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_matrix.run_all(cli_matrix.matrix(cli_matrix.fixture_names()))
    for k, line in enumerate(out.getvalue().splitlines()):
        code, sha_out, sha_err, argv = line.split(" ", 3)
        kind = cli_kind(argv.split())
        print(f"cli-matrix - - {k} {kind}\t{code}:{sha_out[:16]}:{sha_err[:16]} {argv}")
    for name in WORKLOADS:
        kind = workloads.WORKLOADS[name]
        workload = kind() if groups is None else kind(groups=groups)
        for seed in seeds:
            inputs = workload.inputs(seed)
            print(f"{name} {seed} - inputs\t{workloads.digest(inputs)[:16]}")
            for g, group in enumerate(inputs):
                for i, case in enumerate(group):
                    prefix = f"{name} {seed} {g} {i} {case_kind(case)}"
                    for key, leaf in result_leaves(prefix, workload.run, case):
                        print(f"{key}\t{leaf}")


def collect(src: Path, seeds: list[int], groups: int | None) -> dict[str, str]:
    argv = [sys.executable, str(Path(__file__).resolve()), str(src), "--child",
            "--seeds", *map(str, seeds)]
    if groups is not None:
        argv += ["--groups", str(groups)]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return dict(line.split("\t") for line in done.stdout.splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src directory of the other tree")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--groups", type=int, default=None)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.seeds, args.groups)
        return 0
    mine = collect(ROOT / "src", args.seeds, args.groups)
    other = collect(args.other_src.resolve(), args.seeds, args.groups)
    keys = mine.keys() | other.keys()
    differ = [key for key in sorted(keys) if mine.get(key) != other.get(key)]
    for key in differ:
        print(f"{key}: {mine.get(key, 'missing')} != {other.get(key, 'missing')}")
    for line in tally(differ):
        print(line)
    results = {key.split("/", 1)[0] for key in keys}
    print(f"{len(differ)} of {len(keys)} leaves differ, "
          f"in {len({key.split('/', 1)[0] for key in differ})} of {len(results)} results")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
