"""Rule modules — importing this package registers every checker."""

from repro.analysis.rules import (  # noqa: F401
    rc001_deadline,
    rc002_locks,
    rc003_backends,
    rc004_wire,
    rc005_spawn,
    rc007_faults,
    rc008_csr_owner,
)
