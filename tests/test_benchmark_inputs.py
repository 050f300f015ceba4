"""The benchmark's generated inputs still parse.

``perfbench/workloads.py`` writes INI configs and the argv that
``platform_eq.cli.main`` runs on them.  A new config check or a changed flag
that refuses one of them does not fail a benchmark run, it turns that item
into failed units.  This test builds every workload's items for seeds 1-3 and
parses each one as ``main`` does, with the parser and ``load_config``; it
solves nothing.
"""

import importlib.util
from pathlib import Path

import pytest

from platform_eq.cli import FLAGS, _build_parser
from platform_eq.config import load_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_items_parse(tmp_path, seed):
    workloads = _workloads_module()
    for workload in workloads.WORKLOADS:
        work_dir = tmp_path / workload
        work_dir.mkdir()
        items, _props = workloads.build(workload, seed, str(work_dir))
        assert items
        for item in items:
            try:
                args = _build_parser().parse_args(item["argv"])
            except SystemExit as exc:
                pytest.fail(f"{workload} {item['name']}: usage error (exit {exc.code})")
            # raises ConfigError where the config or a flag's text is refused
            load_config(args.config, {FLAGS[flag]: value for flag, value in vars(args).items()
                                      if flag in FLAGS and value is not None})
