"""The S2S benchmark; run it with ``python3 perfbench/run.py``."""
