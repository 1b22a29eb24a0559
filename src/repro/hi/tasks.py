"""HI task types and the task queue.

A task is a question the system wants a human to answer.  Task types mirror
the paper's examples of "hard for machines, easy for humans" decisions:

* :class:`VerifyMatchTask` — do these two mentions co-refer? (yes/no)
* :class:`SelectCandidateTask` — which of these candidates is correct?
  (index, or -1 for "none of these")
* :class:`ValidateValueTask` — is this extracted value plausible? (yes/no)
* :class:`GenerateAnswerTask` — produce the answer from scratch, no
  candidates (the hard "generation" side of Section 3.3's principle).

The queue orders tasks by priority (lower first) and hands each task to the
requested number of distinct workers (mass collaboration).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class HiTask:
    """Base task: an identifier, a prompt, and a priority."""

    task_id: str
    prompt: str
    priority: int = 10


@dataclass(frozen=True)
class VerifyMatchTask(HiTask):
    """Yes/no: do ``left`` and ``right`` denote the same thing?"""

    left: str = ""
    right: str = ""


@dataclass(frozen=True)
class SelectCandidateTask(HiTask):
    """Pick the correct candidate from a ranked list (or none).

    Attributes:
        candidates: ranked options shown to the worker.
    """

    candidates: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidateValueTask(HiTask):
    """Yes/no: is this (entity, attribute, value) plausible?"""

    entity: str = ""
    attribute: str = ""
    value: Any = None


@dataclass(frozen=True)
class GenerateAnswerTask(HiTask):
    """Open-ended: produce the answer with no candidate support."""


@dataclass(frozen=True)
class TaskResponse:
    """One worker's answer to one task."""

    task_id: str
    worker_id: str
    answer: Any


class TaskQueue:
    """Priority queue of HI tasks with answer collection.

    Tasks with equal priority are served FIFO.  Answers accumulate per task
    until :meth:`responses` is drained by the aggregator.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, HiTask]] = []
        self._counter = itertools.count()
        self._responses: dict[str, list[TaskResponse]] = {}
        self._tasks: dict[str, HiTask] = {}

    def submit(self, task: HiTask) -> None:
        """Enqueue a task.

        Raises:
            ValueError: duplicate task_id.
        """
        if task.task_id in self._tasks:
            raise ValueError(f"duplicate task id {task.task_id!r}")
        self._tasks[task.task_id] = task
        heapq.heappush(self._heap, (task.priority, next(self._counter), task))

    def submit_all(self, tasks: Sequence[HiTask]) -> None:
        for task in tasks:
            self.submit(task)

    def next_task(self) -> HiTask | None:
        """Pop the highest-priority pending task, or None when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def pending(self) -> int:
        return len(self._heap)

    def record(self, response: TaskResponse) -> None:
        """Store a worker's answer."""
        if response.task_id not in self._tasks:
            raise KeyError(response.task_id)
        self._responses.setdefault(response.task_id, []).append(response)

    def responses(self, task_id: str) -> list[TaskResponse]:
        """All collected answers for one task."""
        return list(self._responses.get(task_id, ()))

    def task(self, task_id: str) -> HiTask:
        return self._tasks[task_id]
