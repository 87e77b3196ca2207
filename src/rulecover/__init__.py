"""Interpretable DNF rule-set classifiers via regularized coverage maximization."""

__version__ = "0.1.0"
