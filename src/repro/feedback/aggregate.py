"""Aggregating per-source rule verdicts into single ruleset decisions.

Many sources (experts, clients, automated checks) vote on the same
proposal; the :class:`FeedbackAggregator` folds their votes into one
outcome per rule before anything touches the engine — the fed-popper
idiom of a small outcome-merge table reducing per-client verdicts to a
single constraint-set decision.

Policies live in the :data:`AGGREGATION_POLICIES` registry (the same
``Registry`` seam the engine uses for selectors and the serving layer
uses for scheduling policies), so deployments can register their own
``decide(tally) -> status`` strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.engine.registry import Registry
from repro.feedback.sources import RuleProposal, RuleVerdict
from repro.rules.rule import FeedbackRule

#: Proposal lifecycle states.  Decisions are final: once a proposal is
#: approved or rejected, later votes (including re-delivered duplicates
#: after a crash-resume) are ignored.
PENDING = "pending"
APPROVED = "approved"
REJECTED = "rejected"

_APPROVE = "approve"
_REJECT = "reject"

#: Pairwise outcome-merge table (fed-popper style): folding any vote
#: with a rejection yields rejection — a single dissent poisons the
#: unanimous outcome.
_MERGE = {
    (_APPROVE, _APPROVE): _APPROVE,
    (_APPROVE, _REJECT): _REJECT,
    (_REJECT, _APPROVE): _REJECT,
    (_REJECT, _REJECT): _REJECT,
}

AGGREGATION_POLICIES = Registry("aggregation policy")


def register_aggregation_policy(name: str, obj: Any = None, *, overwrite: bool = False):
    """Register an aggregation policy (usable as a decorator)."""
    return AGGREGATION_POLICIES.register(name, obj, overwrite=overwrite)


@dataclass(frozen=True)
class VoteTally:
    """The votes currently standing on one proposal (latest per source)."""

    proposal_id: str
    approvals: tuple[tuple[str, float], ...]
    rejections: tuple[tuple[str, float], ...]

    @property
    def n_approve(self) -> int:
        """Number of approving votes."""
        return len(self.approvals)

    @property
    def n_reject(self) -> int:
        """Number of rejecting votes."""
        return len(self.rejections)


@register_aggregation_policy("unanimous")
class UnanimousPolicy:
    """Approve only when every vote approves; any rejection rejects.

    ``min_votes`` holds the proposal pending until enough sources have
    weighed in (the proposer's implicit approval counts as one vote).
    """

    def __init__(self, min_votes: int = 1) -> None:
        if min_votes < 1:
            raise ValueError(f"min_votes must be >= 1, got {min_votes}")
        self.min_votes = min_votes

    def decide(self, tally: VoteTally) -> str:
        """Reject on any rejection, approve at ``min_votes`` approvals."""
        votes = [_APPROVE] * tally.n_approve + [_REJECT] * tally.n_reject
        if not votes:
            return PENDING
        outcome = votes[0]
        for vote in votes[1:]:
            outcome = _MERGE[(outcome, vote)]
        if outcome == _REJECT:
            return REJECTED
        return APPROVED if tally.n_approve >= self.min_votes else PENDING


@register_aggregation_policy("quorum")
class QuorumPolicy:
    """First side to reach ``quorum`` votes wins; rejection breaks ties."""

    def __init__(self, quorum: int = 2) -> None:
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        self.quorum = quorum

    def decide(self, tally: VoteTally) -> str:
        """Decide for the first side with ``quorum`` votes, rejection first."""
        if tally.n_reject >= self.quorum:
            return REJECTED
        if tally.n_approve >= self.quorum:
            return APPROVED
        return PENDING


@register_aggregation_policy("priority-weighted")
class PriorityWeightedPolicy:
    """Weighted approve-minus-reject score against a threshold.

    Per-vote weights multiply optional per-source priorities from
    ``weights``; the proposal decides once ``|score| >= threshold``,
    with rejection winning exact standoffs at ``-threshold``.
    """

    def __init__(self, threshold: float = 1.0, weights: dict[str, float] | None = None) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        self.threshold = float(threshold)
        self.weights = dict(weights or {})

    def _weight(self, source: str, weight: float) -> float:
        return float(weight) * float(self.weights.get(source, 1.0))

    def decide(self, tally: VoteTally) -> str:
        """Decide once the weighted score reaches ``±threshold``."""
        score = sum(self._weight(s, w) for s, w in tally.approvals)
        score -= sum(self._weight(s, w) for s, w in tally.rejections)
        if score <= -self.threshold:
            return REJECTED
        if score >= self.threshold:
            return APPROVED
        return PENDING


@dataclass(frozen=True)
class RuleDecision:
    """A proposal transitioning out of ``pending``."""

    proposal_id: str
    rule: FeedbackRule
    status: str
    approvals: tuple[str, ...]
    rejections: tuple[str, ...]


class _Proposal:
    __slots__ = ("rule", "votes", "status")

    def __init__(self, rule: FeedbackRule) -> None:
        self.rule = rule
        #: source -> (approve, weight); latest vote per source wins.
        self.votes: dict[str, tuple[bool, float]] = {}
        self.status = PENDING


class FeedbackAggregator:
    """Folds streamed proposals/verdicts into final ruleset decisions.

    ``policy`` is a registry name (with ``**policy_kwargs`` forwarded to
    its constructor) or an instance exposing ``decide(tally) -> status``.
    Verdicts arriving before their proposal are parked and replayed when
    the proposal lands; re-ingesting already-decided events is a no-op,
    which makes journal-driven re-delivery idempotent.
    """

    def __init__(self, policy: Any = "unanimous", **policy_kwargs: Any) -> None:
        if isinstance(policy, str):
            policy = AGGREGATION_POLICIES.create(policy, **policy_kwargs)
        elif policy_kwargs:
            raise TypeError("policy_kwargs only apply when policy is a registry name")
        if not hasattr(policy, "decide"):
            raise TypeError(f"policy must expose decide(tally); got {type(policy).__name__}")
        self.policy = policy
        self._proposals: dict[str, _Proposal] = {}
        self._orphans: dict[str, list[RuleVerdict]] = {}
        self.decisions: list[RuleDecision] = []

    def ingest(self, events: Iterable[RuleProposal | RuleVerdict]) -> list[RuleDecision]:
        """Apply events in order; return proposals that just decided."""
        touched: dict[str, None] = {}
        for event in events:
            if isinstance(event, RuleProposal):
                self._ingest_proposal(event)
            elif isinstance(event, RuleVerdict):
                self._ingest_verdict(event)
            else:
                raise TypeError(f"cannot ingest {type(event).__name__}")
            touched[event.proposal_id] = None
        out: list[RuleDecision] = []
        for pid in touched:
            entry = self._proposals.get(pid)
            if entry is None or entry.status != PENDING:
                continue
            status = self.policy.decide(self.tally(pid))
            if status == PENDING:
                continue
            if status not in (APPROVED, REJECTED):
                raise ValueError(f"policy returned unknown status {status!r}")
            entry.status = status
            decision = RuleDecision(
                proposal_id=pid,
                rule=entry.rule,
                status=status,
                approvals=tuple(s for s, (ok, _) in entry.votes.items() if ok),
                rejections=tuple(s for s, (ok, _) in entry.votes.items() if not ok),
            )
            self.decisions.append(decision)
            out.append(decision)
        return out

    def _ingest_proposal(self, event: RuleProposal) -> None:
        entry = self._proposals.get(event.proposal_id)
        if entry is None:
            entry = _Proposal(event.rule)
            self._proposals[event.proposal_id] = entry
            entry.votes[event.source or "proposer"] = (True, 1.0)
            for orphan in self._orphans.pop(event.proposal_id, []):
                self._ingest_verdict(orphan)
            return
        if entry.status != PENDING:
            return
        # A repeat proposal from a new source counts as that source's approval.
        entry.votes.setdefault(event.source or "proposer", (True, 1.0))

    def _ingest_verdict(self, event: RuleVerdict) -> None:
        entry = self._proposals.get(event.proposal_id)
        if entry is None:
            self._orphans.setdefault(event.proposal_id, []).append(event)
            return
        if entry.status != PENDING:
            return
        entry.votes[event.source or "anonymous"] = (bool(event.approve), float(event.weight))

    def tally(self, proposal_id: str) -> VoteTally:
        """The votes recorded so far on ``proposal_id``."""
        entry = self._proposals[proposal_id]
        return VoteTally(
            proposal_id=proposal_id,
            approvals=tuple((s, w) for s, (ok, w) in entry.votes.items() if ok),
            rejections=tuple((s, w) for s, (ok, w) in entry.votes.items() if not ok),
        )

    def status(self, proposal_id: str) -> str:
        """The proposal's decision (``PENDING`` for an unknown id)."""
        entry = self._proposals.get(proposal_id)
        return PENDING if entry is None else entry.status

    def pending(self) -> tuple[str, ...]:
        """Ids of the proposals still awaiting a decision, in arrival order."""
        return tuple(pid for pid, e in self._proposals.items() if e.status == PENDING)
