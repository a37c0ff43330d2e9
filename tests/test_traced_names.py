"""The names the benchmark's tracer wraps must exist, so that a rename fails
here and not only in the traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from polysum import screening


def _spans():
    """``perfbench/spans.py``, loaded from its file without running it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_traced_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr, _, _ in _spans().TRACED:
        owner = importlib.import_module(module_name)
        if "." in attr:  # a method, wrapped in its class's __dict__
            cls_name, method = attr.split(".")
            found = method in vars(getattr(owner, cls_name, object))
        else:
            found = hasattr(owner, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_scan_concrete_hook_reads_its_first_five_parameters():
    # the tracer's hook unpacks (triple, domain, bound, stage, want)
    params = list(inspect.signature(screening._scan_concrete).parameters)
    assert params[:5] == ["triple", "domain", "bound", "stage", "want"]
