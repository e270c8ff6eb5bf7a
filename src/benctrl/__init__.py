"""benctrl: spectral control and stabilization of the linearized Benjamin
equation on a periodic domain.

The toolkit works at a truncated (desk) scale: functions are band-limited
Fourier series, operators are dense matrices in the orthonormal exponential
basis, and every time integral has a closed form, so the controllability and
decay statements can be verified to near machine precision.

Each public name has one import path, through its module.
"""

__version__ = "0.1.0"

from . import (errors, moment_control, operators, spectral, spectrum,
               stabilization)

__all__ = ["errors", "moment_control", "operators", "spectral", "spectrum",
           "stabilization"]
