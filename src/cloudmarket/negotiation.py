"""Bilateral price negotiation by alternating offers, and the SLAs it yields.

Both sides concede from an opening price toward a private reservation
price over a bounded number of rounds.  The protocol is deterministic:
same terms, same transcript.  It always terminates within
min(max_rounds) + 1 proposals, and it reaches agreement exactly when
the reservation prices overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Rational

from .engine import SimEngine
from .money import Money, round_ratio

BUYER = "buyer"
SELLER = "seller"

BROKE_OFF_NO_ZONE = "NoZoneOfAgreement"
BROKE_OFF_NO_ROUNDS = "RoundsExhausted"


class InvalidTerms(Exception):
    pass


class SessionTerminated(Exception):
    """step() after the session already reached an outcome."""


@dataclass(frozen=True)
class ConcessionSchedule:
    """Maps round progress p in [0, 1] to concession fraction f(p).

    Linear concedes evenly; poly with exponent > 1 holds firm early and
    concedes late.  Integer exponents keep the arithmetic exact; the
    scenario's schedules are checked by `workload.validate_scenario`.
    """

    kind: str = "linear"
    exponent: int = 1

    def concession(self, done: int, total: int) -> tuple[int, int]:
        """f(done/total) as a (numerator, denominator) pair."""
        if self.kind == "linear":
            return done, total
        return done ** self.exponent, total ** self.exponent


@dataclass(frozen=True)
class NegotiationTerms:
    role: str
    opening: Money
    reservation: Money
    max_rounds: int
    schedule: ConcessionSchedule = field(default_factory=ConcessionSchedule)
    party_id: str = ""

    def __post_init__(self) -> None:
        if self.role not in (BUYER, SELLER):
            raise InvalidTerms(f"role must be buyer or seller, got {self.role!r}")
        if self.max_rounds < 0:
            raise InvalidTerms("max_rounds must be >= 0")
        if self.role == BUYER and self.opening > self.reservation:
            raise InvalidTerms("buyer opening must not exceed reservation")
        if self.role == SELLER and self.opening < self.reservation:
            raise InvalidTerms("seller opening must not fall below reservation")

    def offer_at(self, round_index: int, effective_rounds: int) -> Money:
        """Price this side puts on the table at the given round (1-based)."""
        # progress is (round_index - 1) / (effective_rounds - 1), capped at 1;
        # a single round offers the reservation price at once
        if effective_rounds <= 1:
            done, steps = 1, 1
        else:
            steps = effective_rounds - 1
            done = min(round_index - 1, steps)
        n, d = self.schedule.concession(done, steps)
        return round_ratio(self.opening * d + n * (self.reservation - self.opening), d)


@dataclass(frozen=True)
class Offer:
    round_index: int
    actor: str
    price: Money


@dataclass(frozen=True)
class Agreement:
    price: Money
    round_index: int
    proposals_used: int


@dataclass(frozen=True)
class BrokeOff:
    reason: str
    round_index: int
    proposals_used: int


Outcome = Agreement | BrokeOff


class NegotiationSession:
    """One bilateral session.  step() plays a single proposal and response.

    The buyer proposes in odd rounds and the seller in even ones.
    """

    def __init__(
        self,
        buyer: NegotiationTerms,
        seller: NegotiationTerms,
        engine: SimEngine | None = None,
        session_id: str = "",
    ):
        if buyer.role != BUYER or seller.role != SELLER:
            raise InvalidTerms("pass terms with matching roles")
        self.buyer = buyer
        self.seller = seller
        self.engine = engine
        self.session_id = session_id
        self.effective_rounds = min(buyer.max_rounds, seller.max_rounds)
        self.transcript: list[Offer] = []
        self.outcome: Outcome | None = None
        self._round = 0
        if self.effective_rounds == 0:
            self.outcome = BrokeOff(BROKE_OFF_NO_ROUNDS, 0, 0)
            self._emit_outcome()

    def _terms(self, actor: str) -> NegotiationTerms:
        return self.buyer if actor == BUYER else self.seller

    def _acceptable(self, receiver: str, incoming: Money, round_index: int) -> bool:
        # Accept an incoming price when it is no worse than what the
        # receiver itself would put on the table next round; past the
        # last round that benchmark is the receiver's reservation price.
        terms = self._terms(receiver)
        benchmark = terms.offer_at(
            min(round_index + 1, self.effective_rounds), self.effective_rounds
        )
        if receiver == BUYER:
            return incoming <= benchmark
        return incoming >= benchmark

    @property
    def terminated(self) -> bool:
        return self.outcome is not None

    def step(self) -> Offer | Outcome:
        """Play one proposal and the response to it.

        Returns the Offer while the session continues, or the final
        outcome on the deciding proposal.
        """
        if self.outcome is not None:
            raise SessionTerminated(self.session_id or "<session>")
        self._round += 1
        actor = BUYER if self._round % 2 == 1 else SELLER
        price = self._terms(actor).offer_at(self._round, self.effective_rounds)
        offer = Offer(self._round, actor, price)
        self.transcript.append(offer)
        if self.engine is not None:
            self.engine.emit("negotiation_offer", {
                "session": self.session_id, "round": self._round,
                "actor": actor, "price": price,
            })
        receiver = SELLER if actor == BUYER else BUYER
        if self._acceptable(receiver, price, self._round):
            self.outcome = Agreement(price, self._round, len(self.transcript))
        elif self._round >= self.effective_rounds:
            self.outcome = BrokeOff(BROKE_OFF_NO_ZONE, self._round, len(self.transcript))
        if self.outcome is not None:
            self._emit_outcome()
            return self.outcome
        return offer

    def run_to_completion(self) -> Outcome:
        while self.outcome is None:
            self.step()
        return self.outcome

    def _emit_outcome(self) -> None:
        if self.engine is None or self.outcome is None:
            return
        payload: dict = {"session": self.session_id, "proposals": self.outcome.proposals_used}
        if isinstance(self.outcome, Agreement):
            payload.update(result="agreement", price=self.outcome.price)
        else:
            payload.update(result="broke_off", reason=self.outcome.reason)
        self.engine.emit("negotiation_outcome", payload)


def negotiate_price(
    buyer: NegotiationTerms,
    seller: NegotiationTerms,
    engine: SimEngine | None = None,
    session_id: str = "",
) -> Outcome:
    return NegotiationSession(buyer, seller, engine, session_id).run_to_completion()


# -- service level agreements -------------------------------------------------

@dataclass(frozen=True)
class PenaltySchedule:
    """Linear lateness penalty: rate per tick late, optionally capped."""

    rate: Rational
    cap: Money | None = None

    def penalty_for(self, ticks_late: int) -> Money:
        if ticks_late <= 0:
            return 0
        amount = round_ratio(self.rate.numerator * ticks_late, self.rate.denominator)
        if self.cap is not None:
            amount = min(amount, self.cap)
        return amount


@dataclass
class Sla:
    """A priced promise to finish a request by a given tick.

    `paid` marks agreements whose price moved at formation time (auction
    clearing settles immediately); settlement then only assesses the
    penalty side.
    """

    sla_id: str
    buyer: str
    seller: str
    request_id: str
    price: Money
    promised_completion: int
    penalty: PenaltySchedule
    paid: bool = False
    settled: bool = False

