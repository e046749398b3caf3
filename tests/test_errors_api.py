"""Tests for the exception hierarchy and the public package surface."""

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro import errors
from repro.errors import (
    ConfigurationError,
    GraphStructureError,
    ImpossibleInstance,
    MapError,
    PortError,
    ProtocolViolation,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
    ValidationError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            GraphStructureError,
            PortError,
            MapError,
            SimulationError,
            ProtocolViolation,
            RoundLimitExceeded,
            ConfigurationError,
            ImpossibleInstance,
        ):
            assert issubclass(exc, ReproError)

    def test_port_error_is_graph_error(self):
        assert issubclass(PortError, GraphStructureError)

    def test_protocol_violation_is_simulation_error(self):
        assert issubclass(ProtocolViolation, SimulationError)

    def test_impossible_instance_is_configuration_error(self):
        assert issubclass(ImpossibleInstance, ConfigurationError)

    def test_every_error_survives_pickle(self):
        # A sweep cell's exception crosses from its pool worker to the
        # parent; one that does not unpickle breaks the whole pool.
        classes = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, ReproError)]
        assert ValidationError in classes and len(classes) >= 10
        for cls in classes:
            exc = cls("field", "reason") if cls is ValidationError else cls("message")
            clone = pickle.loads(pickle.dumps(exc))
            assert type(clone) is cls
            assert clone.args == exc.args and str(clone) == str(exc)
        clone = pickle.loads(pickle.dumps(ValidationError("graph.n", "too small")))
        assert (clone.field, clone.reason) == ("graph.n", "too small")

    def test_one_except_catches_library_errors(self):
        try:
            from repro.graphs import ring

            ring(1)
        except ReproError:
            pass
        else:
            pytest.fail("expected a ReproError subclass")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.20.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_solvers_exported(self):
        for i in range(1, 8):
            assert callable(getattr(repro, f"solve_theorem{i}"))

    def test_subpackage_all_exports_resolve(self):
        import repro.analysis
        import repro.baselines
        import repro.byzantine
        import repro.core
        import repro.gathering
        import repro.graphs
        import repro.mapping
        import repro.sim

        for module in (
            repro.graphs,
            repro.sim,
            repro.byzantine,
            repro.mapping,
            repro.gathering,
            repro.core,
            repro.baselines,
            repro.analysis,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    @staticmethod
    def _modules_after_import():
        """Module names a fresh ``import repro; import repro.cli`` loads."""
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; import repro; import repro.cli; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        return proc.stdout.split()

    def test_import_loads_no_bench_code(self):
        """A fresh ``import repro`` then ``import repro.cli`` loads no
        benchmark module: wall-clock benchmarking lives in ``perfbench/``."""
        assert [m for m in self._modules_after_import() if "bench" in m] == []

    def test_import_loads_no_networkx(self):
        """networkx loads only when a random family or an nx conversion
        needs it, not on ``import repro`` or ``import repro.cli``."""
        modules = self._modules_after_import()
        assert [m for m in modules if m.split(".")[0] == "networkx"] == []

    def test_table1_importable_from_root(self):
        assert len(repro.TABLE1) == 7
