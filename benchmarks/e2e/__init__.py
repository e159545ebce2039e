"""The repo benchmark: fp32-yardsticked end-to-end metrics and a per-layer ledger.

``run.py`` is the one command; ``README.md`` holds the metric and workload
glossary.  Everything here measures the system *from outside* — it times
calls into ``repro``'s public functions and reads the values they return.
"""
