"""Synthetic workload generators shaped after the paper's motivating
examples: vehicle part hierarchies (2.3 Example 1), shared electronic
documents (2.3 Example 2), versioned CAD designs (Section 5), and
transaction mixes for the concurrency simulator.

Exports resolve on first use, so a process that builds one workload
loads only its generator.
"""

__all__ = [
    "Corpus",
    "DesignBench",
    "Figure4",
    "Figure5",
    "Figure9",
    "build_figure4",
    "build_figure5",
    "build_figure9",
    "PartTree",
    "REFERENCE_FLAVOURS",
    "Vehicle",
    "build_corpus",
    "build_design_bench",
    "build_fleet",
    "build_part_tree",
    "build_vehicle",
    "composite_mix",
    "define_cad_schema",
    "define_document_schema",
    "define_part_schema",
    "define_vehicle_schema",
    "disjoint_writers",
]


#: Lazily exported name -> the submodule defining it.
_LAZY = {
    "DesignBench": "cad", "build_design_bench": "cad",
    "define_cad_schema": "cad", "Corpus": "documents",
    "build_corpus": "documents", "define_document_schema": "documents",
    "Figure4": "figures", "Figure5": "figures", "Figure9": "figures",
    "build_figure4": "figures", "build_figure5": "figures",
    "build_figure9": "figures", "PartTree": "parts",
    "REFERENCE_FLAVOURS": "parts", "Vehicle": "parts", "build_fleet": "parts",
    "build_part_tree": "parts", "build_vehicle": "parts",
    "define_part_schema": "parts", "define_vehicle_schema": "parts",
    "composite_mix": "txmix", "disjoint_writers": "txmix",
}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
