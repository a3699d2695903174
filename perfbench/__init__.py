"""End-to-end pipeline benchmark for structkv: corpus in, plan.json out.

Run ``python3 perfbench/run.py`` from the repository root; see README.md.
"""
