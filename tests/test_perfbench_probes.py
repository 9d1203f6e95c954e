"""Every function the benchmark traces still exists under the name it probes.

perfbench/layers.py lists its probes by name; a probe whose target was
renamed or deleted would only fail inside the benchmark's own tests,
which this suite does not collect.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _resolves(layer, target):
    module = importlib.import_module(f"muram.{layer}")
    if "." in target:
        # the tracer wraps the method in the class's own dictionary
        cls_name, attr = target.split(".")
        return callable(vars(getattr(module, cls_name, object)).get(attr))
    return callable(getattr(module, target, None))


def test_every_probe_target_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(ROOT, "perfbench", "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    probes = layers.PROBES
    assert probes
    assert [probe[:2] for probe in probes if not _resolves(*probe[:2])] == []
