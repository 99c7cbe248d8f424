"""Alternating-offers bargaining and SLA terms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cloudmarket.negotiation import (
    Agreement,
    BrokeOff,
    BUYER,
    ConcessionSchedule,
    InvalidTerms,
    NegotiationSession,
    NegotiationTerms,
    PenaltySchedule,
    SELLER,
    SessionTerminated,
    negotiate_price,
)
from test_money import round_half_up


def buyer_terms(opening, reservation, rounds, schedule=None, **kwargs):
    return NegotiationTerms(
        BUYER, opening, reservation, rounds,
        schedule or ConcessionSchedule(), party_id="broker-a", **kwargs,
    )


def seller_terms(opening, reservation, rounds, schedule=None, **kwargs):
    return NegotiationTerms(
        SELLER, opening, reservation, rounds,
        schedule or ConcessionSchedule(), party_id="alpine", **kwargs,
    )


def test_fresh_session_has_no_rounds_played():
    session = NegotiationSession(
        buyer_terms(5_000, 9_000, 4), seller_terms(12_000, 8_000, 4)
    )
    assert not session.terminated
    assert session.transcript == []
    assert session.effective_rounds == 4


def test_buyer_opening_above_reservation_is_invalid():
    with pytest.raises(InvalidTerms):
        buyer_terms(10_000, 9_000, 4)


def test_seller_opening_below_reservation_is_invalid():
    with pytest.raises(InvalidTerms):
        seller_terms(7_000, 8_000, 4)


def test_zero_rounds_breaks_off_immediately():
    session = NegotiationSession(
        buyer_terms(5_000, 9_000, 0), seller_terms(12_000, 8_000, 3)
    )
    assert session.terminated
    assert isinstance(session.outcome, BrokeOff)
    assert session.outcome.reason == "RoundsExhausted"
    assert session.outcome.proposals_used == 0


def test_overlapping_zone_agrees_inside_it():
    outcome = negotiate_price(
        buyer_terms(6_000, 12_000, 4), seller_terms(14_000, 8_000, 4)
    )
    assert isinstance(outcome, Agreement)
    assert 8_000 <= outcome.price <= 12_000


def test_disjoint_zone_breaks_off_within_max_rounds():
    outcome = negotiate_price(
        buyer_terms(5_000, 9_000, 6), seller_terms(15_000, 12_000, 6)
    )
    assert isinstance(outcome, BrokeOff)
    assert outcome.reason == "NoZoneOfAgreement"
    assert outcome.proposals_used <= 6


def test_step_after_termination_is_an_error():
    session = NegotiationSession(
        buyer_terms(10_000, 10_000, 1), seller_terms(10_000, 10_000, 1)
    )
    session.run_to_completion()
    with pytest.raises(SessionTerminated):
        session.step()


def test_symmetric_terms_meet_at_the_midpoint():
    # mirrored openings and linear schedules converge on 10_000
    buyer = buyer_terms(8_000, 12_000, 5)
    seller = seller_terms(12_000, 8_000, 5)
    outcome = negotiate_price(buyer, seller)
    assert isinstance(outcome, Agreement)
    assert outcome.price == 10_000
    assert outcome.round_index == 3


def test_offer_sequence_follows_the_concession_formula():
    # closed-form recomputation of each offer
    buyer = buyer_terms(6_000, 12_000, 4)
    seller = seller_terms(14_000, 8_000, 4)
    session = NegotiationSession(buyer, seller)
    session.run_to_completion()
    # the buyer proposes in odd rounds, the seller in even ones
    assert [o.actor for o in session.transcript] == [
        BUYER if o.round_index % 2 else SELLER for o in session.transcript
    ]
    for offer in session.transcript:
        terms = buyer if offer.actor == BUYER else seller
        progress = Fraction(offer.round_index - 1, 3)
        expected = terms.opening + progress * (terms.reservation - terms.opening)
        n, d = expected.numerator, expected.denominator
        assert offer.price == (2 * n + d) // (2 * d)


def reference_offer(terms, round_index, effective_rounds):
    """The offer as exact rational arithmetic, rounded half-up once."""
    if effective_rounds <= 1:
        progress = Fraction(1)
    else:
        progress = min(Fraction(round_index - 1, effective_rounds - 1), Fraction(1))
    if terms.schedule.kind == "poly":
        progress **= terms.schedule.exponent
    return round_half_up(terms.opening + progress * (terms.reservation - terms.opening))


@st.composite
def offer_cases(draw):
    role = draw(st.sampled_from([BUYER, SELLER]))
    low = draw(st.integers(min_value=0, max_value=10**9))
    high = draw(st.integers(min_value=low, max_value=10**9))
    schedule = draw(st.one_of(
        st.just(ConcessionSchedule()),
        st.integers(min_value=1, max_value=6).map(lambda e: ConcessionSchedule("poly", e)),
    ))
    opening, reservation = (low, high) if role == BUYER else (high, low)
    max_rounds = draw(st.integers(min_value=0, max_value=40))
    terms = NegotiationTerms(role, opening, reservation, max_rounds, schedule)
    effective_rounds = draw(st.integers(min_value=0, max_value=40))
    round_index = draw(st.integers(min_value=1, max_value=effective_rounds + 2))
    return terms, round_index, effective_rounds


@settings(max_examples=500, derandomize=True, deadline=None)
@given(offer_cases())
def test_offer_matches_the_rational_formula(case):
    terms, round_index, effective_rounds = case
    assert terms.offer_at(round_index, effective_rounds) == reference_offer(
        terms, round_index, effective_rounds,
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    rate=st.fractions(min_value=0, max_value=10**4, max_denominator=10**6),
    cap=st.none() | st.integers(min_value=0, max_value=10**9),
    ticks_late=st.integers(min_value=-10, max_value=10**6),
)
def test_penalty_matches_the_rational_formula(rate, cap, ticks_late):
    expected = 0 if ticks_late <= 0 else round_half_up(rate * ticks_late)
    if cap is not None:
        expected = min(expected, cap)
    assert PenaltySchedule(rate, cap).penalty_for(ticks_late) == expected


def test_polynomial_concession_holds_back_early():
    linear = buyer_terms(0, 10_000, 5)
    shy = buyer_terms(0, 10_000, 5, schedule=ConcessionSchedule("poly", 2))
    for round_index in (2, 3, 4):
        assert shy.offer_at(round_index, 5) < linear.offer_at(round_index, 5)
    assert shy.offer_at(5, 5) == linear.offer_at(5, 5) == 10_000


def test_single_round_jumps_to_reservations():
    outcome = negotiate_price(
        buyer_terms(1_000, 10_000, 1), seller_terms(20_000, 9_000, 1)
    )
    assert isinstance(outcome, Agreement)
    assert outcome.price == 10_000  # buyer leads with its reservation
    assert outcome.proposals_used == 1


def test_effective_rounds_is_the_smaller_side():
    session = NegotiationSession(
        buyer_terms(5_000, 9_000, 3), seller_terms(12_000, 8_000, 9)
    )
    assert session.effective_rounds == 3


price = st.integers(min_value=0, max_value=50_000)
rounds = st.integers(min_value=1, max_value=9)
schedule = st.sampled_from([
    ConcessionSchedule(),
    ConcessionSchedule("poly", 2),
    ConcessionSchedule("poly", 3),
])


@settings(max_examples=400)
@given(
    data=st.data(),
    buyer_res=price, seller_res=price,
    buyer_rounds=rounds, seller_rounds=rounds,
    buyer_schedule=schedule, seller_schedule=schedule,
)
def test_zone_decides_the_outcome(
    data, buyer_res, seller_res, buyer_rounds, seller_rounds,
    buyer_schedule, seller_schedule,
):
    buyer_open = data.draw(st.integers(min_value=0, max_value=buyer_res))
    seller_open = data.draw(st.integers(min_value=seller_res, max_value=60_000))
    buyer = buyer_terms(buyer_open, buyer_res, buyer_rounds, schedule=buyer_schedule)
    seller = seller_terms(seller_open, seller_res, seller_rounds, schedule=seller_schedule)
    outcome = negotiate_price(buyer, seller)
    effective = min(buyer_rounds, seller_rounds)
    if buyer_res >= seller_res:
        assert isinstance(outcome, Agreement)
        assert seller_res <= outcome.price <= buyer_res
        assert outcome.proposals_used <= effective + 1
    else:
        assert isinstance(outcome, BrokeOff)
        assert outcome.proposals_used <= effective


# -- penalties and SLA paperwork ------------------------------------------------------


def test_penalty_schedule_is_linear_in_lateness():
    schedule = PenaltySchedule(rate=Fraction(20))
    assert schedule.penalty_for(0) == 0
    assert schedule.penalty_for(10) == 200


def test_penalty_cap_binds():
    schedule = PenaltySchedule(rate=Fraction(20), cap=1_000)
    assert schedule.penalty_for(500) == 1_000


def test_early_completion_carries_no_penalty():
    schedule = PenaltySchedule(rate=Fraction(20))
    assert schedule.penalty_for(-3) == 0

