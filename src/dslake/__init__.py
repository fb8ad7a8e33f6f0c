"""dslake: a knowledge-based query language and MapReduce engine over a
simulated distributed file storage, shipped with a cyclone-path analysis
domain plugin and a storm-surge surrogate package.

The public names below are imported on first use (PEP 562), so running a
submodule such as ``dslake.cyclone.bsm_cmd`` does not load the engine.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {
    "QueryAst": "dslake.lang.ast",
    "parse": "dslake.lang.parser",
    "tokenize": "dslake.lang.tokens",
    "format_query": "dslake.lang.formatter",
    "validate": "dslake.lang.validate",
    "KnowledgeRegistry": "dslake.registry",
    "StorageLayout": "dslake.storage",
    "DataFile": "dslake.storage",
    "place_all": "dslake.storage",
    "Engine": "dslake.engine",
    "EngineConfig": "dslake.engine",
    "TaskRequest": "dslake.engine",
    "submit": "dslake.engine",
    "ResultDocument": "dslake.report",
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'dslake' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
