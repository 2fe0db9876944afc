"""Every example script must run end-to-end and keep its promises."""

import contextlib
import functools
import importlib.util
import io
import pathlib
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@functools.lru_cache(maxsize=None)
def _run(path: pathlib.Path) -> str:
    """The example's stdout; each example runs once per test session."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            spec.loader.exec_module(module)
            module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return out.getvalue()


def test_examples_discovered():
    names = [p.stem for p in EXAMPLES]
    assert "quickstart" in names
    assert len(names) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path):
    out = _run(path)
    assert len(out) > 200  # produced a real report


def test_quickstart_output_shape():
    path = next(p for p in EXAMPLES if p.stem == "quickstart")
    out = _run(path)
    for scheme in ("gzip", "compress", "bzip2", "no compression"):
        assert scheme in out


def test_roaming_decision_flips():
    path = next(p for p in EXAMPLES if p.stem == "roaming_advisor")
    out = _run(path)
    assert "raw" in out and "compress" in out
