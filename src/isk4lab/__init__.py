"""Structure detectors, decomposition checks and a structural 4-coloring
pipeline for graphs with no induced subdivision of K4."""

__version__ = "0.5.0"
