"""Export-surface guard: ``__all__`` ≡ the documented public API.

Three invariants, per module (`repro.api`, `repro.schemes`):

* ``__all__`` matches the expected symbol list exactly — adding an export
  is a conscious act that must update this file (and the README);
* every exported name actually exists on the module;
* every exported name is mentioned in the README's Public API docs.
"""

from pathlib import Path

import pytest

import repro
import repro.api
import repro.schemes

README = (Path(__file__).resolve().parents[2] / "README.md").read_text()

API_EXPORTS = [
    "ComparisonOutcome",
    "DEFAULT_BASELINE",
    "MachineLike",
    "SimulationOutcome",
    "SweepOutcome",
    "WorkloadLike",
    "build_comparison",
    "compare",
    "machine_label",
    "resolve_machine",
    "resolve_workload",
    "simulate",
    "sweep",
]

SCHEMES_EXPORTS = [
    "SchemeSpec",
    "UnknownSchemeError",
    "available_schemes",
    "figure_series_schemes",
    "get_scheme",
    "is_registered",
    "register_scheme",
    "scheme_config",
    "scheme_display_labels",
    "scheme_name",
    "scheme_names",
    "unregister_scheme",
]


@pytest.mark.parametrize("module,expected", [
    (repro.api, API_EXPORTS),
    (repro.schemes, SCHEMES_EXPORTS),
], ids=["repro.api", "repro.schemes"])
class TestExportSurface:
    def test_all_matches_documented_surface(self, module, expected):
        assert sorted(module.__all__) == sorted(expected), (
            f"{module.__name__}.__all__ drifted from the documented "
            f"surface; update tests/api/test_export_surface.py and the "
            f"README 'Public API' section together")

    def test_every_export_exists(self, module, expected):
        for name in expected:
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ exports {name!r} but the "
                f"module does not define it")

    def test_every_export_is_documented_in_the_readme(self, module,
                                                      expected):
        undocumented = [name for name in expected if name not in README]
        assert not undocumented, (
            f"{module.__name__} exports {undocumented} but the README "
            f"'Public API' section never mentions them")


class TestPackageSurface:
    def test_package_exposes_api_and_schemes_lazily(self):
        assert "api" in repro.__all__ and "schemes" in repro.__all__
        assert repro.api.simulate is repro.__getattr__("api").simulate

    def test_unknown_package_attribute(self):
        with pytest.raises(AttributeError):
            repro.no_such_attribute

    def test_importing_the_package_does_not_import_numpy(self):
        # No module of the package needs numpy; importing it anyway would
        # cost every CLI call and every service start-up its import time.
        import os
        import subprocess
        import sys
        script = ("import sys, repro, repro.api, repro.__main__, "
                  "repro.harness.campaign, repro.service.server; "
                  "print('numpy' in sys.modules)")
        src = Path(repro.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
        assert completed.stdout.strip() == "False"
