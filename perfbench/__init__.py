"""perfbench: the one benchmark of the whole DeepSea stack.

Six named workloads, measured end to end and (in a separate traced run)
layer by layer, with every answer verified.  See ``perfbench/README.md``
for the protocol and ``BENCHMARK.json`` at the repository root for the
metric names, units, directions and regression bounds.
"""
