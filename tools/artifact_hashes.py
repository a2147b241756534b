"""Run a tiny command-line chain in a temporary directory and print the
sha256 of every artifact it writes, after a first line naming the BLAS
kernel the hashes hold for.

The chain is pretrain and make-prefs; align under inversion, gaussian,
dpo, sft and fixed_point, with ref_init=sft_winners, with accum_steps=2,
with align.delta.w_inv=2.5 and with schedule.loss_weight=snr; eval with
round trips, invert-demo, and ablate over eight cells. Every run is small
(about a second in all on a 2-vCPU VM). Columns that hold wall times (``wall_ms``,
``seconds``) are blanked before hashing, so the output depends only on
the code, the numpy build and the BLAS kernel. The first line, ``# blas
core: NAME``, is the OpenBLAS core numpy's bundled library runs (the same
(config, seed) can hash differently under another), or ``unknown`` for any
other BLAS. ``--against`` compares two
packages: it runs the chain once under SRC_DIR's and once under
OTHER_SRC's, each in a process of its own, prints only the artifacts whose
hashes differ (the path, then its hash under SRC_DIR and under OTHER_SRC,
``-`` where one does not write it) and exits 1 if any do, or 2 if the
chain fails under either:

    python tools/artifact_hashes.py --against OTHER_TREE/src

Usage: python tools/artifact_hashes.py [--src SRC_DIR] [--against OTHER_SRC]
(SRC_DIR defaults to this tree's src)
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

TINY = {
    "schedule.T": "120", "model.hidden": "16", "model.time_embed_dim": "8", "data.n": "400",
    "pretrain.steps": "60", "pretrain.batch": "32", "prefs.pairs_per_condition": "4",
    "sample.n_steps": "8", "align.steps": "10", "align.batch_pairs": "8",
    "align.warmup_steps": "2", "align.delta.n": "3", "eval.n_trials": "64",
}
ALIGNS = {
    "inversion": {},
    "gaussian": {"align.delta": "gaussian"},
    "dpo": {"align.method": "dpo"},
    "sft": {"align.method": "sft"},
    "fixed_point": {"align.delta": "fixed_point"},
    "sft_winners": {"align.ref_init": "sft_winners"},
    "accum_steps_2": {"align.accum_steps": "2"},
    "w_inv_2.5": {"align.delta.w_inv": "2.5"},
    "snr": {"schedule.loss_weight": "snr"},
}
WALL_TIME_COLUMNS = ("wall_ms", "seconds")


def chain(main, work: Path) -> None:
    """Run every command of the chain into its own directory under ``work``."""

    def run(cmd: str, out: str, seed: int, **sets: str) -> None:
        args = [cmd, "--out", str(work / out), "--seed", str(seed)]
        for key, value in {**TINY, **sets}.items():
            args += ["--set", f"{key}={value}"]
        if main(args) != 0:
            raise SystemExit(f"{cmd} into {out} failed")

    base, pairs = f"{work}/pretrain/base.params", f"{work}/make-prefs/pairs.jsonl"
    run("pretrain", "pretrain", 1)
    run("make-prefs", "make-prefs", 2, **{"prefs.model": base})
    for name, sets in ALIGNS.items():
        run("align", f"align/{name}", 3, **{"align.base": base, "align.pairs": pairs}, **sets)
    run("eval", "eval", 4, **{"eval.model_a": f"{work}/align/inversion/aligned.params",
                              "eval.model_b": base, "eval.roundtrip": "true",
                              "eval.t_target": "96", "eval.ns": "2,4", "eval.samples": "8"})
    run("invert-demo", "invert-demo", 5, **{"demo.model": base, "demo.t_target": "96",
                                            "demo.ns": "2,4", "demo.samples": "8"})
    run("ablate", "ablate", 6, **{"ablate.base": base, "ablate.pairs": pairs,
                                  "ablate.betas": "100,1000", "ablate.ns": "2,3",
                                  "ablate.w_invs": "0,1.5", "ablate.steps": "4",
                                  "ablate.trials": "16"})


def artifact_bytes(path: Path) -> bytes:
    """The file's bytes, with the values of its wall-time columns blanked
    if it is a CSV table."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    blank = [i for i, name in enumerate(rows[0] if rows else []) if name in WALL_TIME_COLUMNS]
    if not blank:
        return data
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(rows[0])
    writer.writerows([("" if i in blank else v for i, v in enumerate(row)) for row in rows[1:]])
    return buf.getvalue().encode()


def blas_core() -> str:
    """The OpenBLAS core the scipy-openblas library bundled with numpy runs,
    by its scipy_openblas_get_corename64_; ``unknown`` for any other BLAS.
    The library numpy loaded is the one opened here, so the name is that of
    the kernel numpy's matmuls run."""
    import numpy

    pkg = Path(numpy.__file__).parent
    bundled = [*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]
    for path in sorted(bundled):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def hashes(src: str) -> dict[str, str]:
    """Each artifact's hash, by path, from the chain run under the package
    in ``src`` in a process of its own."""
    run = subprocess.run([sys.executable, __file__, "--src", src], capture_output=True,
                         text=True)
    if run.returncode:
        sys.stderr.write(f"the chain failed under {src}:\n{run.stderr}")
        raise SystemExit(2)
    lines = run.stdout.splitlines()[1:]  # after the BLAS core's line
    return {path: digest for digest, path in (line.split("  ") for line in lines)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the inpo package to run")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="print only the artifacts whose hashes differ under OTHER_SRC's "
                             "package, and exit 1 if any do")
    args = parser.parse_args(argv)
    if args.against:
        ours, theirs = hashes(args.src), hashes(args.against)
        differ = sorted(p for p in ours.keys() | theirs.keys() if ours.get(p) != theirs.get(p))
        for path in differ:
            print(f"{path}  {ours.get(path, '-')}  {theirs.get(path, '-')}")
        return 1 if differ else 0
    sys.path.insert(0, args.src)
    from inpo.cli import main as inpo_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        chain(inpo_main, work)
        print(f"# blas core: {blas_core()}")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            digest = hashlib.sha256(artifact_bytes(path)).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
