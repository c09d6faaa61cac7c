"""Constructive ReLU-network approximation of Kolmogorov PDE solutions.

Subpackages:
  nets      network calculus (compose, identities, averages, products)
  sde       additive-noise Euler schemes, Feynman-Kac Monte Carlo, L^p norms
  bounds    closed-form constants, error and size bounds, budget planner
  build     assembly of the space-time solution network
  problems  benchmark problems with exact solutions
  cli       batch experiment driver
"""

import os

__version__ = "0.1.0"


def _thread_cap():
    """KOLMONET_THREADS as a positive integer, or None when it is unset or empty.

    Any other value raises ValueError.  Kept free of numpy, because the
    command line reads it before numpy loads, to cap BLAS threads.
    """
    text = os.environ.get("KOLMONET_THREADS", "")
    if not text:
        return None
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise ValueError("KOLMONET_THREADS must be a positive integer, got %r" % text)
    return int(text)
