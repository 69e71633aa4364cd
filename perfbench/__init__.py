"""The repository benchmark: cold planning, steady-state execution and
mixed serving of the XMark queries (run ``python3 perfbench/run.py -h``)."""
