"""Exploration sessions: iterative, mode-switching data exploitation.

"Our DGE model should allow users to start in whatever data-exploitation
mode they deem comfortable (e.g., keyword search, structured querying,
browsing, visualization), then help them move seamlessly into the mode that
is ultimately appropriate ... users often start with an ill-defined
information need, then refine it during the exploration process."

An :class:`ExplorationSession` records the user's trajectory — keyword
searches, suggested reformulations, chosen candidates, executed structured
queries, added refinements — and exposes transitions between modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.userlayer.search import DocumentResult, KeywordSearchEngine
from repro.userlayer.translate import QueryTranslator, TranslationCandidate


@dataclass
class SessionStep:
    """One recorded interaction."""

    mode: str  # "keyword" | "suggest" | "structured" | "refine" | "browse"
    input_text: str
    result_summary: str


@dataclass
class ExplorationSession:
    """One user's iterative exploration over the system.

    Args:
        search: keyword-search service.
        translator: keyword→structured translation service.
        query: runs one SQL statement — ``query(sql,
            deadline_seconds=None)``, the system's
            :meth:`~repro.core.system.StructureManagementSystem.query`:
            every statement the session runs is admitted, cached,
            deadlined, drained on close and counted like any other query.
        deadline_seconds: per-statement deadline override passed to
            ``query`` (None: the query callable's default).
    """

    search: KeywordSearchEngine
    translator: QueryTranslator
    query: Callable[..., list[dict[str, Any]]]
    user: str = "anonymous"
    deadline_seconds: float | None = None
    history: list[SessionStep] = field(default_factory=list)
    _last_candidates: list[TranslationCandidate] = field(default_factory=list)
    _last_sql: str | None = None

    def _run_sql(self, sql: str) -> list[dict[str, Any]]:
        return self.query(sql, deadline_seconds=self.deadline_seconds)

    # -------------------------------------------------------------- modes

    def keyword(self, query: str, k: int = 5) -> list[DocumentResult]:
        """Keyword-search mode: the comfortable starting point."""
        results = self.search.search(query, k=k)
        self.history.append(
            SessionStep("keyword", query, f"{len(results)} documents")
        )
        return results

    def suggest(self, query: str, k: int = 5) -> list[TranslationCandidate]:
        """Guidance mode: show candidate structured reformulations."""
        self._last_candidates = self.translator.translate(query, k=k)
        self.history.append(
            SessionStep("suggest", query,
                        f"{len(self._last_candidates)} candidates")
        )
        return self._last_candidates

    def choose(self, index: int) -> list[dict[str, Any]]:
        """Pick a suggested candidate and run it (mode transition).

        Raises:
            IndexError: no such candidate.
            RuntimeError: :meth:`suggest` was not called first.
        """
        if not self._last_candidates:
            raise RuntimeError("call suggest() before choose()")
        candidate = self._last_candidates[index]
        return self.structured(candidate.sql)

    def structured(self, sql: str) -> list[dict[str, Any]]:
        """Structured-query mode (sophisticated users come here directly)."""
        rows = self._run_sql(sql)
        self._last_sql = sql
        self.history.append(
            SessionStep("structured", sql, f"{len(rows)} rows")
        )
        return rows

    def refine(self, extra_condition: str) -> list[dict[str, Any]]:
        """Refinement mode: AND an extra condition onto the last query.

        Raises:
            RuntimeError: no structured query has run yet.
        """
        if self._last_sql is None:
            raise RuntimeError("no query to refine yet")
        sql = self._last_sql
        lowered = sql.lower()
        for clause in (" group by ", " order by ", " limit "):
            cut = lowered.find(clause)
            if cut >= 0:
                head, tail = sql[:cut], sql[cut:]
                break
        else:
            head, tail = sql, ""
        if " where " in head.lower():
            refined = f"{head} AND {extra_condition}{tail}"
        else:
            refined = f"{head} WHERE {extra_condition}{tail}"
        return self.structured(refined)

    def browse(self, table: str, limit: int = 20) -> list[dict[str, Any]]:
        """Browsing mode: peek at the derived structure."""
        rows = self._run_sql(f"SELECT * FROM {table} LIMIT {limit}")
        self.history.append(
            SessionStep("browse", table, f"{len(rows)} rows")
        )
        return rows

    def visualize(self, sql: str, label_key: str, value_key: str) -> str:
        """Visualization mode: run a query and render a bar chart.

        Raises:
            ValueError: the result is empty or non-numeric in ``value_key``.
        """
        from repro.userlayer.visualize import bar_chart

        rows = self._run_sql(sql)
        chart = bar_chart(rows, label_key, value_key)
        self._last_sql = sql
        self.history.append(
            SessionStep("visualize", sql, f"chart of {len(rows)} rows")
        )
        return chart

    # -------------------------------------------------------------- replay

    def transcript(self) -> str:
        """Readable session log (what the paper calls the exploration
        trajectory)."""
        lines = [f"session for {self.user}:"]
        for i, step in enumerate(self.history, start=1):
            lines.append(
                f"  {i}. [{step.mode}] {step.input_text!r} -> {step.result_summary}"
            )
        return "\n".join(lines)
