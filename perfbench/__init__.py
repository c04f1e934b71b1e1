"""perfbench: the repo's one end-to-end + per-layer performance benchmark.

See ``perfbench/README.md``.  The package measures ``repro`` from
outside, through public functions only; nothing under ``src/`` imports
it.
"""
