"""Digest every benchmark item's output, to compare two checkouts byte for byte.

    python3 tools/output_digests.py ROOT > digests.json

ROOT is a checkout (say a ``git archive`` of a parent commit).  The script
imports ``ROOT/perfbench/workloads.py``, builds every workload for seeds 1-3
in a fresh temporary directory, and runs each item through ``ROOT/src``'s
``platform_eq.cli.main`` in this process, as the benchmark does.  It prints
one JSON object: "workload/seed/item" -> the sha256 of the item's exit code,
stdout, stderr and every file the item wrote.  The temporary directory's path
is replaced by a fixed token first, so two checkouts give equal digests
exactly when their outputs are equal.  Nothing under ROOT is changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

SEEDS = (1, 2, 3)


def _load_workloads(root: str):
    path = os.path.join(root, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_digest_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_cli(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    if src not in sys.path:
        sys.path.insert(0, src)
    from platform_eq import cli
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"platform_eq was already imported from {cli.__file__}, not {src}")
    return cli


def _files(work_dir: str) -> dict[str, bytes]:
    out = {}
    for folder, _dirs, names in os.walk(work_dir):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, work_dir)] = fh.read()
    return out


def _run(cli, argv) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests(root: str, workloads=None, seeds=SEEDS) -> dict[str, str]:
    """Map "workload/seed/item" to the sha256 of that item's outputs, for
    every item of the given workloads (all by default) and seeds."""
    wl = _load_workloads(root)
    cli = _load_cli(root)
    result = {}
    for workload in workloads or wl.WORKLOADS:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as work_dir:
                items, _props = wl.build(workload, seed, work_dir)
                for item in items:
                    before = _files(work_dir)
                    code, out, err = _run(cli, item["argv"])
                    written = {path: data for path, data in _files(work_dir).items()
                               if before.get(path) != data}
                    parts = [repr(code).encode(), out.encode(), err.encode()]
                    for path in sorted(written):
                        parts += [path.encode(), written[path]]
                    h = hashlib.sha256()
                    for part in parts:
                        h.update(part.replace(work_dir.encode(), b"<work>") + b"\0")
                    result[f"{workload}/{seed}/{item['name']}"] = h.hexdigest()
    return result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    print(json.dumps(digests(os.path.abspath(sys.argv[1])), indent=1, sort_keys=True))
