"""Which kernel runs.

The package has one kernel, the plain-Python ``_kernel`` module, and
nothing selects between backends.  ``backend`` is that module and
``KERNEL_BACKEND`` names it ``"pure"``, the same name ``Engine.kernel_name``
reports.
"""

from . import _kernel

backend = _kernel
KERNEL_BACKEND = "pure"
