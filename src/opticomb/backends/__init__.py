"""Bundled backend implementations, one module each.

Nothing is imported here: ``matrix`` and ``unitary`` load numpy, so they are
loaded only by code that builds a matrix, unitary or channel value.
"""
