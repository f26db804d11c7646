"""Exact tooling for ternary linear codes built from pairs of functions on GF(3)^m.

Submodules:

* :mod:`terncode.gf3` -- vectors over GF(3), enumeration order, lookup tables
* :mod:`terncode.kraw` -- Krawtchouk/Lloyd polynomial evaluation
* :mod:`terncode.spectrum` -- exact Walsh transforms as per-shift value counts
* :mod:`terncode.code` -- the generic code, weights, complete weight enumerators
* :mod:`terncode.minimality` -- covering oracle and the spectral minimality criterion
* :mod:`terncode.hwconstruct` -- the Hamming-weight-shell construction and closed forms
* :mod:`terncode.cli` -- command-line front end
* :mod:`terncode.samples` -- seeded sample pairs for the tests and scripts (not imported here)
"""

from .code import CodeSpec, CompleteWeightEnumerator, WeightDistribution, validate
from .errors import CapacityError, ConsistencyError, ValidationError
from .hwconstruct import HWParams, build_fg, build_spec
from .minimality import MinimalityVerdict, ashikhmin_barg, is_minimal_bruteforce, spectral_check
from .spectrum import CountSpectrum, TernaryFunction

__all__ = [
    "CapacityError",
    "CodeSpec",
    "CompleteWeightEnumerator",
    "ConsistencyError",
    "CountSpectrum",
    "HWParams",
    "MinimalityVerdict",
    "TernaryFunction",
    "ValidationError",
    "WeightDistribution",
    "ashikhmin_barg",
    "build_fg",
    "build_spec",
    "is_minimal_bruteforce",
    "spectral_check",
    "validate",
]

__version__ = "0.1.0"
