"""Run every shipped config through the CLI and print one SHA-256 per CSV,
or save the CSVs, or compare them numerically with saved ones.

Usage::

    python3 tools/config_digests.py [--save DIR | --compare DIR] [CONFIG ...]

A CONFIG is a path or the stem of a shipped config (``thermo_laminate`` for
``configs/thermo_laminate.cfg``); a config that does not exist is a usage
error (exit 2). Each config (default: all of ``configs/*.cfg``) runs as its
own ``python -m homlab.cli <kind>`` process against this checkout's
``src/``, writing into a fresh temporary directory. The output has one line
per CSV,

    <sha256>  <config stem>/<path of the CSV below the output directory>

sorted by config and path, so two checkouts can be compared with ``diff``.

``--save DIR`` also copies every CSV to ``DIR/<config stem>/<path>``.
``--compare DIR`` compares every CSV with the one saved there instead of
printing digests: each numeric value must match to ``RTOL`` relative plus
``ATOL`` absolute (the benchmark's tolerance), and every other cell must
match exactly. It prints one line per CSV,

    <largest absolute deviation>  <largest relative deviation>  ok|FAIL  <stem>/<path>

which is the gate for a change of solver, where byte-identical output
cannot be expected. The relative deviation is taken only over the values
whose reference exceeds ``ATOL`` in magnitude, the ones the tolerance treats
relatively: a roundoff-level value such as 1e-16 against 2e-16 passes on
``ATOL`` and leaves the column at 0. A run that exits with a status other
than 0, or a comparison that fails, is reported, and the script then exits
1.

``--save`` also records the ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``
and ``MKL_NUM_THREADS`` settings in ``DIR/threads.json``, and ``--compare``
exits 2, naming each variable, when a setting differs from the recorded
one: some outputs move with the BLAS thread count (``evo_two_scale``'s
``gap_strong`` by about 1 %), so both sides must run under the same
threading. A directory without the record is compared without this check.
"""

import argparse
import configparser
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RTOL = 1e-10
ATOL = 1e-12
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_FILE = "threads.json"


def resolve_config(arg):
    """The config a command-line argument names: a path, or a bare stem such
    as ``thermo_laminate`` for ``configs/thermo_laminate.cfg``."""
    if arg.exists() or arg.suffix or len(arg.parts) > 1:
        return arg.resolve()
    return ROOT / "configs" / f"{arg}.cfg"


def run_config(cfg_path, out_dir):
    """Run one config; return the CLI's exit status."""
    parser = configparser.ConfigParser()
    parser.read(cfg_path)
    kind = parser.get("experiment", "kind")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", kind, "--config", str(cfg_path),
         "--out", str(out_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"{cfg_path.name}: exit {proc.returncode}: {proc.stdout.strip()} "
              f"{proc.stderr.strip()}", file=sys.stderr)
    return proc.returncode


def _number(text):
    try:
        return complex(text)
    except ValueError:
        return None


def compare_csv(new, old):
    """(largest absolute deviation, largest relative deviation, ok) over the
    cells of two CSV files; the relative deviation skips references of
    magnitude ``ATOL`` or less."""
    new_rows = [line.split(",") for line in new.read_text().splitlines()]
    old_rows = [line.split(",") for line in old.read_text().splitlines()]
    if [len(r) for r in new_rows] != [len(r) for r in old_rows]:
        return float("inf"), float("inf"), False
    worst_abs = worst_rel = 0.0
    ok = True
    for new_row, old_row in zip(new_rows, old_rows):
        for got_text, ref_text in zip(new_row, old_row):
            got, ref = _number(got_text), _number(ref_text)
            if got is None or ref is None:
                ok &= got_text == ref_text
                continue
            dev = abs(got - ref)
            worst_abs = max(worst_abs, dev)
            if abs(ref) > ATOL:
                worst_rel = max(worst_rel, dev / abs(ref))
            ok &= dev <= RTOL * abs(ref) + ATOL
    return worst_abs, worst_rel, ok


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", type=Path, metavar="DIR", help="copy every CSV to DIR")
    mode.add_argument("--compare", type=Path, metavar="DIR",
                      help="compare every CSV numerically with the ones saved in DIR")
    parser.add_argument("configs", nargs="*", type=Path, metavar="CONFIG",
                        help="a config file, or the stem of one in configs/")
    args = parser.parse_args(argv)
    configs = [resolve_config(c) for c in args.configs] \
        or sorted((ROOT / "configs").glob("*.cfg"))
    missing = [str(c) for c in configs if not c.is_file()]
    if missing:
        parser.error(f"no such config: {', '.join(missing)}")
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        settings = {var: os.environ.get(var) for var in THREAD_VARS}
        (args.save / THREADS_FILE).write_text(json.dumps(settings, indent=1) + "\n")
    if args.compare and (args.compare / THREADS_FILE).is_file():
        saved = json.loads((args.compare / THREADS_FILE).read_text())
        changed = [f"{var}={os.environ.get(var)} here but {saved.get(var)} at --save"
                   for var in THREAD_VARS if os.environ.get(var) != saved.get(var)]
        if changed:
            parser.error("thread settings differ: " + "; ".join(changed))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            out_dir = Path(tmp) / cfg.stem
            failed |= run_config(cfg, out_dir) != 0
            rels = {csv.relative_to(out_dir) for csv in out_dir.rglob("*.csv")}
            if args.compare:
                saved = args.compare / cfg.stem
                rels |= {csv.relative_to(saved) for csv in saved.rglob("*.csv")}
            for rel in sorted(rels):
                name = f"{cfg.stem}/{rel.as_posix()}"
                csv = out_dir / rel
                if args.compare:
                    ref = args.compare / cfg.stem / rel
                    dev_abs, dev_rel, ok = compare_csv(csv, ref) \
                        if csv.exists() and ref.exists() else (float("inf"), float("inf"), False)
                    failed |= not ok
                    print(f"{dev_abs:.3e}  {dev_rel:.3e}  {'ok' if ok else 'FAIL'}  {name}",
                          flush=True)
                    continue
                if args.save:
                    (args.save / cfg.stem / rel).parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(csv, args.save / cfg.stem / rel)
                print(f"{hashlib.sha256(csv.read_bytes()).hexdigest()}  {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
