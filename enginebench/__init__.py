"""End-to-end and per-layer benchmark of the transcript quality-filter
engine. Entry point: ``python3 enginebench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``enginebench/README.md``."""
