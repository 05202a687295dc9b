"""grauertlab: the Grauert metric on C*, its pullbacks to complements of
principal divisors in C^n, curvature machinery, and divisor-convergence
experiments.
"""

__version__ = "0.1.0"
