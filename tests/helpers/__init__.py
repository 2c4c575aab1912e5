"""Shared test fixtures: fault injection (:mod:`helpers.faults`), cluster
builders (:mod:`helpers.clusters`) and random recorded executions
(:mod:`helpers.executions`)."""
