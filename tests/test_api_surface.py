"""Public-API surface snapshot: changes to repro.api must be deliberate.

``tests/data/api_surface.json`` commits the exported names of
:mod:`repro.api` and the estimator registry.  A PR that adds, renames or
removes a public name (or a registered estimator) must update the snapshot
in the same change — the failure message below says exactly how — so the
public contract never drifts by accident.  Every name any ``repro`` module
lists in ``__all__`` must also resolve, so a deletion cannot leave a stale
export behind.
"""

import importlib
import json
import pkgutil
from pathlib import Path

SNAPSHOT_PATH = Path(__file__).parent / "data" / "api_surface.json"

REGENERATE_HINT = (
    "the public API surface changed; if that is intentional, regenerate the "
    "snapshot with:\n"
    "  PYTHONPATH=src python - <<'EOF'\n"
    "  import json, repro.api\n"
    "  from repro.api import default_registry\n"
    "  snapshot = {'repro.api': sorted(repro.api.__all__),\n"
    "              'estimators': default_registry().names()}\n"
    "  json.dump(snapshot, open('tests/data/api_surface.json', 'w'),\n"
    "            indent=2, sort_keys=True)\n"
    "  EOF"
)


def _snapshot():
    return json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))


def test_repro_api_all_matches_snapshot():
    import repro.api

    assert sorted(repro.api.__all__) == _snapshot()["repro.api"], REGENERATE_HINT


def test_estimator_registry_names_match_snapshot():
    from repro.api import default_registry

    assert default_registry().names() == _snapshot()["estimators"], REGENERATE_HINT


def test_every_exported_name_resolves():
    import repro.api

    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None


def test_every_module_export_resolves():
    # A deletion that leaves its name in some __all__ breaks
    # ``from module import *`` without failing any direct import.
    import repro

    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    stale = []
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                stale.append(f"{module_name}.{name}")
    assert stale == []


def test_top_level_package_reexports_api_names():
    # The repro package re-exports the api surface (configs/protocols
    # eagerly, the registry lazily); a rename that forgets the top level
    # fails here.
    import repro

    for name in (
        "EstimatorConfig",
        "KGraphConfig",
        "BaselineConfig",
        "Estimator",
        "SupportsServing",
        "ServableState",
        "EstimatorRegistry",
        "EstimatorSpec",
        "default_registry",
    ):
        assert getattr(repro, name) is not None
        assert name in repro.__all__
