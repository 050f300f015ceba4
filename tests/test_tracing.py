"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps package functions by name; a renamed or
removed one does not fail a traced run, it turns that layer's metrics into
null.  This test installs the tracer as the benchmark does, runs a short
sweep, one verify, one classify and all figures, and checks that nothing was
missed.  classify is the one command that goes through the one-cell
classifiers' span.
"""

import importlib.util
from pathlib import Path

from platform_eq.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

MARKET = """\
[market]
n_platforms = 3
beta_b = 1.0
beta_s = 0.9
phi_bb = 0.2
phi_bs = 0.03
phi_sb = -0.02
phi_ss = 0.1
"""


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_report_every_layer(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(MARKET + "\n[sweep]\naxis = u0\nstart = 0\nstop = 1\nstep = 1\n"
                   "\n[verify]\ngrid_n = 11\n\n[grid]\nresolution = 4\n")
    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        codes = [main(["sweep", "--config", str(ini)]),
                 main(["verify", "--config", str(ini)]),
                 main(["classify", "--config", str(ini)]),
                 main(["figures", "--config", str(ini), "--out", str(tmp_path / "figs")])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    assert tracer.missing == []
    assert tracer.warnings == []
    metrics = tracer.take()
    assert [name for name, value in metrics.items() if value is None] == []
    assert metrics["config.load_config.self_s"] > 0
    assert metrics["regions.classify.calls"] > 0
    assert capsys.readouterr().out.count("sign agreement") == 8
