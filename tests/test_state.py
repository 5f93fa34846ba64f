"""No library call leaves state behind in the calling process: no nsq
module's module-level dict, list or set changes size across a class
search, the Golay pairs, the table and relation checks, or a pooled
search.  The lru_caches of exhaustive_normal_quadruples and
realized_order are pure, bounded memos, and are not module-level
containers."""

import importlib
import pkgutil
import sys

import nsq
from nsq import _engine
from nsq.golay import golay_pairs
from nsq.group import verify_relations
from nsq.search import enumerate_classes
from nsq.tables import verify_tables


def container_sizes() -> dict[str, int]:
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name == "nsq" or name.startswith("nsq."):
            for attr, value in vars(module).items():
                if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_library_calls_leave_no_module_state(monkeypatch):
    for module in pkgutil.iter_modules(nsq.__path__):
        importlib.import_module(f"nsq.{module.name}")
    monkeypatch.setattr(_engine, "POOL_MIN_N", 1)
    before = container_sizes()
    assert "nsq._engine._worker" in before
    enumerate_classes(12)
    golay_pairs(10)
    verify_tables()
    verify_relations(5)
    _engine.search_normal(16, 2)
    assert container_sizes() == before
