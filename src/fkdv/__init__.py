"""Traveling waves of the fifth-order KdV equation and their stability.

The package builds the four closed-form families (sech^4 and sech^2
solitons, cn^2 and cn^4 cnoidal wave trains), verifies them against the two
conservation laws and the analytic Fourier coefficient formulas, evaluates
the stability functionals (norm derivatives, the Gegenbauer series, PF(2)
minors), and demonstrates orbital stability dynamically with a periodic
pseudospectral solver.
"""

__version__ = "0.1.0"
