"""Shared benchmark fixtures.

Benchmarks run the figure pipelines end to end in each figure's
``fast`` mode, so ``pytest benchmarks/ --benchmark-only`` finishes in
minutes.  ``python -m repro fig11`` (no ``--fast``) runs a figure at
paper scale.

Every benchmark writes its rendered paper-style table to
``benchmarks/results/<name>.txt`` so the rows the paper reports can be
inspected after the run.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_and_show(results_dir: pathlib.Path, name: str, text: str) -> None:
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
