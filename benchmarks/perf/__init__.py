"""Seeded wall-clock benchmark of the campaign, fleet and proxy layers.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
