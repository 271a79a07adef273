"""The route oracle: ground-truth checks on every route a run handed out.

Runs outside the timed window.  Collects human-readable violations rather
than raising, so a run can report all of them before it fails.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.validate import audit_planner_state, find_conflicts, find_illegal_cells
from repro.types import Route

#: violations listed per check before the rest are summarised
_REPORT_CAP = 5


class Oracle:
    """Accumulates violations across the checks of one run."""

    def __init__(self) -> None:
        self.violations: List[str] = []
        self.routes_checked = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def _extend(self, label: str, found: Sequence[object]) -> None:
        for item in list(found)[:_REPORT_CAP]:
            self.violations.append(f"{label}: {item}")
        if len(found) > _REPORT_CAP:
            self.violations.append(f"{label}: ... {len(found) - _REPORT_CAP} more")

    def check_routes(self, label: str, routes: Sequence[Route], warehouse) -> None:
        """No vertex or swap conflicts, no rack cells passed through, unit speed."""
        self.routes_checked += len(routes)
        self._extend(f"{label} conflict", find_conflicts(routes))
        self._extend(f"{label} illegal cell", find_illegal_cells(routes, warehouse))
        self._extend(
            f"{label} not unit speed",
            [r.query_id for r in routes if not r.is_unit_speed()],
        )

    def check_planner(self, label: str, planner, routes: Sequence[Route], since: int) -> None:
        """The planner's stores and crossing ledger match the routes exactly."""
        self._extend(f"{label} audit", audit_planner_state(planner, routes, since=since))

    def require(self, label: str, condition: bool, detail: Optional[str] = None) -> None:
        if not condition:
            self.violations.append(f"{label}: {detail or 'failed'}")
