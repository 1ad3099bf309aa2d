"""Every config the benchmark and scripts/run_all_figures.py run passes
parse_config: a narrowing of the config surface that breaks one fails here,
not first as a failed benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from cavitysim.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"shipped_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load(ROOT / "bench" / "workloads.py")
FIGURES = _load(ROOT / "scripts" / "run_all_figures.py")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_workload_configs_parse(name):
    workload = WORKLOADS.WORKLOADS[name]
    couplings = [workload.base_g] + [WORKLOADS.draw_g(seed, workload.base_g) for seed in range(5)]
    for g in couplings:
        assert parse_config(workload.config(g)).g_ghz == g


@pytest.mark.parametrize("name, text", FIGURES.RUNS, ids=[name for name, _ in FIGURES.RUNS])
def test_figure_script_configs_parse(name, text):
    parse_config(text)
