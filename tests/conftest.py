"""Shared test configuration: storage-backend selection.

The suite honours ``REPRO_DB_BACKEND=python|sqlite`` — every test that
builds its database through :func:`repro.db.engine.create_database`
(directly or via :class:`repro.warp.WarpSystem`) runs against the
selected engine, so CI can execute the same suites across the storage
matrix without test changes.
"""

import gc
import os

import pytest

from repro.db.engine import BACKEND_ENV, resolve_backend
from repro.repair.clusters import ClusteringFutile


def pytest_report_header(config):
    raw = os.environ.get(BACKEND_ENV)
    resolved = resolve_backend()
    suffix = f" ({BACKEND_ENV}={raw})" if raw else " (default)"
    return f"repro storage backend: {resolved}{suffix}"


@pytest.fixture(autouse=True)
def thaw_loaded_histories():
    """A load ends with ``gc.freeze()`` (``repro.store.snapshot.gc_paused``):
    what is alive then is never visited by the collector again, so what of
    it later becomes cyclic garbage — the deployment itself, once dropped —
    stays.  A process loads one deployment; this one loads hundreds."""
    yield
    gc.unfreeze()


@pytest.fixture
def db_backend():
    """The storage backend name the suite is running against."""
    return resolve_backend()


@pytest.fixture
def statement_analyses(monkeypatch):
    """Every per-statement analysis from here on, in order: ``"plan"`` for
    each ``build_plan`` call, ``"template"`` for each read-set template
    constructed."""
    import repro.db.executor as executor_module
    import repro.ttdb.timetravel as timetravel_module

    analyses = []
    build_plan = executor_module.build_plan

    def counted_build(*args):
        analyses.append("plan")
        return build_plan(*args)

    class CountedTemplate(timetravel_module.ReadSetPlan):
        def __init__(self, *args):
            analyses.append("template")
            super().__init__(*args)

    monkeypatch.setattr(executor_module, "build_plan", counted_build)
    monkeypatch.setattr(timetravel_module, "ReadSetPlan", CountedTemplate)
    return analyses


@pytest.fixture
def futile_clustering(monkeypatch):
    """Forces the fallback ``wiki_py`` takes unasked: cluster discovery
    reports futility, so the repair keeps the global scope — the reference
    arm of off ≡ clustered (``monkeypatch.undo()`` restores discovery)."""
    def futile(*args, **kwargs):
        raise ClusteringFutile
    monkeypatch.setattr("repro.repair.controller.compute_repair_groups", futile)
