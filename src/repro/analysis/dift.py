"""Case study 2 (§VIII): dynamic information-flow tracking (DIFT).

The CPG already records how data flows between sub-computations at page
granularity; DIFT is a policy layer on top: mark some input pages as
sensitive, propagate the taint along the recorded dataflow, and check every
output operation (the glibc output-wrapper shim) against a policy.  As in
the paper, this targets accidental leaks (buggy programs), not a malicious
in-process adversary, because the whole mechanism lives in user space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Set

from repro.core.cpg import ConcurrentProvenanceGraph
from repro.core.queries import TaintResult, propagate_taint
from repro.errors import PolicyViolationError
from repro.inspector.interpose import OutputRecord


class PolicyAction(enum.Enum):
    """What the checker should do when tainted data reaches a sink."""

    ALLOW = "allow"
    WARN = "warn"
    DENY = "deny"


@dataclass(frozen=True)
class TaintPolicy:
    """A DIFT policy.

    Attributes:
        name: Policy name for reports.
        sensitive_pages: Pages considered sensitive sources.
        action: What to do when a sink observes tainted data.
    """

    name: str
    sensitive_pages: frozenset
    action: PolicyAction = PolicyAction.DENY


@dataclass
class SinkReport:
    """The verdict for one output operation.

    Attributes:
        record: The output operation being judged.
        tainted: Whether it observed tainted data.
        reason: Which pages caused the verdict.
    """

    record: OutputRecord
    tainted: bool
    reason: Set[int] = field(default_factory=set)


@dataclass
class DIFTReport:
    """The result of checking a whole run against a policy."""

    policy: TaintPolicy
    taint: TaintResult
    sinks: List[SinkReport] = field(default_factory=list)

    @property
    def violations(self) -> List[SinkReport]:
        """Sink operations that observed tainted data."""
        return [sink for sink in self.sinks if sink.tainted]

    @property
    def clean(self) -> bool:
        """Whether no tainted data reached any sink."""
        return not self.violations


class PolicyChecker:
    """Checks the outputs of an INSPECTOR run against a taint policy.

    The checker is the reproduction of the paper's "policy checker embedded
    at the level of glibc wrappers for the output system calls".
    """

    def __init__(self, policy: TaintPolicy) -> None:
        self.policy = policy

    def check(
        self,
        view,
        outputs: Sequence[OutputRecord],
        enforce: bool = False,
    ) -> DIFTReport:
        """Propagate taint and judge every output operation.

        Args:
            view: The run view (see :mod:`repro.core.queries`): the
                completed CPG of the run, or the stored run.
            outputs: Output records collected by the backend.
            enforce: When true and the policy action is DENY, raise
                :class:`PolicyViolationError` on the first violation.

        Returns:
            The full report (always, unless ``enforce`` raises first).
        """
        taint = propagate_taint(view, self.policy.sensitive_pages, through_thread_state=True)
        report = DIFTReport(policy=self.policy, taint=taint)
        for record in outputs:
            source_pages = set(record.source_pages)
            tainted_sources = source_pages & taint.tainted_pages
            # An output is also suspicious if the emitting sub-computation
            # itself observed tainted data, even when no source addresses
            # were declared (conservative page-level policy).
            node_tainted = taint.is_node_tainted((record.tid, record.subcomputation))
            tainted = bool(tainted_sources) or (not source_pages and node_tainted)
            report.sinks.append(
                SinkReport(record=record, tainted=tainted, reason=tainted_sources)
            )
            if tainted and enforce and self.policy.action is PolicyAction.DENY:
                raise PolicyViolationError(
                    f"policy {self.policy.name!r}: thread {record.tid} attempted to output "
                    f"{len(record.data)} bytes derived from sensitive pages "
                    f"{sorted(tainted_sources) or sorted(self.policy.sensitive_pages)}"
                )
        return report


def make_input_policy(
    cpg: ConcurrentProvenanceGraph,
    input_pages: Iterable[int],
    name: str = "no-input-exfiltration",
    action: PolicyAction = PolicyAction.DENY,
) -> TaintPolicy:
    """Build the common "do not leak raw input" policy from a run's input pages."""
    return TaintPolicy(name=name, sensitive_pages=frozenset(input_pages), action=action)
