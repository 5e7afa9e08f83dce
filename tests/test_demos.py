"""The demos and the public names: every demo imports, every export resolves.

The demos are the main callers of the public API outside the tests, so a
trimmed or renamed name shows up here first.  Importing a demo runs no
sweep: each one keeps its work behind a ``__main__`` guard and imports
``matplotlib`` only inside ``main``.  The rows of ``demos/reproduce.py``
run here on a shrunk trial policy, which checks what a row prints without
the full report's sweeps.  The benchmark's layer timing reaches the
library through module attributes too, so every layer it times must keep
one attribute that resolves.
"""

import dataclasses
import importlib
import importlib.util
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import mmsediv

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MODULES = sorted(f"mmsediv.{info.name}"
                 for info in pkgutil.iter_modules(mmsediv.__path__))


def load_file(path):
    spec = importlib.util.spec_from_file_location(
        f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_found():
    assert {p.stem for p in DEMOS} == {"haar_sampler_check",
                                       "rate_regime_tables", "reproduce"}


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_and_has_main(path):
    assert callable(load_file(path).main)


def test_rate_regime_tables_runs(capsys):
    load_file(next(p for p in DEMOS if p.stem == "rate_regime_tables")).main()
    out = capsys.readouterr().out
    assert "flat fading, M=2, N=2" in out
    assert "cyclic prefix, M=2, N=2, L=2, K=8" in out


@pytest.mark.parametrize("name, prediction, fit", [
    # 5 and 7.5 dB converge below p_out = 0.05; 10 dB caps
    ("flat 2x2, R = 1.2", "m=2, diversity=4 (tight)",
     "unconverged: slope fit needs at least 3 eligible points, found 2"),
    ("sum tail, M = N = 2, m = 1, b = 1", "m(N-M+m) = 1", "d_hat = "),
], ids=["outage", "tail"])
def test_reproduce_row_prints_every_point(name, prediction, fit, tmp_path,
                                          monkeypatch, capsys):
    report = load_file(ROOT / "demos" / "reproduce.py")
    case = next(case for case in report.CASES if case.name == name)
    case = dataclasses.replace(case, policy=mmsediv.TrialPolicy(
        max_trials=20_000, target_events=10, block_trials=2_000))
    monkeypatch.chdir(tmp_path)
    report.row(case)
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == [name, f"  prediction: {prediction}"]
    assert lines[3].startswith(f"  {fit}")
    assert [line.split(" dB ")[0].strip() for line in lines[4:]] == [
        f"{db:.1f}" for db in case.grid_db]
    assert lines[-1].endswith("(skipped)")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["mmsediv", *MODULES])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("module, names", [
    ("mmsediv.mmse", ["selective_sinrs_oracle", "transfer_function"]),
    ("mmsediv.randmat", ["sample_haar_qr_oracle", "unitarity_residual"]),
])
def test_references_stay_out_of_the_package_namespace(module, names):
    # tests, self-checks and the benchmark reach them through their module
    module = importlib.import_module(module)
    for name in names:
        assert name not in mmsediv.__all__ and not hasattr(mmsediv, name)
        assert callable(getattr(module, name))


def test_benchmark_layer_spans_resolve():
    # `Tracer` skips an attribute that no longer resolves, so a layer whose
    # every attribute is gone would read 0 in the benchmark without an error
    tracing = load_file(ROOT / "benchmarks" / "tracing.py")
    resolved = defaultdict(bool)
    for module, attr, name in (*tracing._FUNCTION_PATCHES,
                               *tracing._KERNEL_PATCHES):
        resolved[name] |= hasattr(module, attr)
    assert len(resolved) >= 5
    assert [name for name, ok in resolved.items() if not ok] == []


@pytest.mark.parametrize("sweep, spans", [
    (lambda policy: mmsediv.estimate_outage(
        mmsediv.SystemConfig(M=2, N=2, R=1.2), [10.0], policy=policy),
     {"randmat.sample", "mmse.capacity", "diversity.kernel"}),
    (lambda policy: mmsediv.estimate_outage(
        mmsediv.SystemConfig(M=2, N=2, R=3.0, L=2, K=8), [10.0], policy=policy),
     {"randmat.sample", "mmse.capacity", "diversity.kernel"}),
    (lambda policy: mmsediv.smallest_eigs_probability(2, 2, 2, 2.0, [10.0],
                                                      policy=policy),
     {"randmat.sample", "wishart.kernel"}),
], ids=["flat", "selective", "min-tail"])
def test_benchmark_layers_record_spans(sweep, spans):
    # a patched attribute that a kernel no longer calls through would still
    # resolve, yet its layer would read 0 in the benchmark
    tracing = load_file(ROOT / "benchmarks" / "tracing.py")
    tracer = tracing.Tracer()
    with tracer.patched():
        sweep(mmsediv.TrialPolicy(max_trials=4000, block_trials=4000))
    assert spans <= {name for name, *_ in tracer.spans}
