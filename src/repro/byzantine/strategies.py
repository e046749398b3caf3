"""The adversary strategy zoo.

A *strategy* is a generator factory ``(api, rng) -> Iterator[Action]``
run by a Byzantine robot.  Strategies receive a
:class:`~repro.sim.robot.ByzantineAPI` — full world read access (worst-case
adaptive adversary) plus, in the strong model, ID faking — and may do
anything a robot physically can: lie in the public record, squat, desert,
spam flags and messages, chase honest robots.  They may **not** teleport
(robots move one edge per round) or, in the weak model, fake IDs
(Section 1.1's weak Byzantine definition, after [24]).  A strategy that
stays put for good yields :class:`~repro.sim.robot.Wait` rather than a
loop of ``STAY``: the engine counts its rounds without resuming it, and
the robot behaves exactly as the loop would.

The zoo is organised around the attack surfaces of the paper's algorithms:

==================  =====================================================
strategy            attack surface
==================  =====================================================
crash / idle        liveness: do robots wait forever for a peer?
squatter            Dispersion-Using-Map Step 3 (deny nodes by claiming
                    ``Settled``)
ghost_squatter      Step 4 blacklisting (settle claims at many nodes)
flag_spammer        Step 2b/3b flag dance (force the observe branch)
random_walker       generic noise; corrupts mapping runs it takes part in
stalker             follows the smallest honest robot to contaminate its
                    every negotiation
false_commander     token-mapping: forged ``cmd`` quorums (Sections 3–4)
decoy_token         token-mapping: fake token presence at a decoy node
sleeper(...)        composition: behave dead, then switch to any attack
impersonator        strong model: claim an honest robot's ID and squat
id_cycler           strong model: new fake ID every round
==================  =====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional

import numpy as np

from ..errors import ConfigurationError
from ..sim.robot import MOVES, SETTLED, STAY, TOBESETTLED, Action, ByzantineAPI, Wait

__all__ = [
    "Strategy",
    "STRATEGIES",
    "get_strategy",
    "crash",
    "idle",
    "squatter",
    "ghost_squatter",
    "flag_spammer",
    "random_walker",
    "stalker",
    "false_commander",
    "decoy_token",
    "sleeper",
    "impersonator",
    "id_cycler",
]

Strategy = Callable[[ByzantineAPI, np.random.Generator], Iterator[Action]]


def crash(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Die instantly (Byzantine subsumes crash faults)."""
    return
    yield  # pragma: no cover - makes this a generator


def idle(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Sit still forever claiming ``tobeSettled`` and never settle.

    With a small ID this blocks honest robots' Step 1 minimality at every
    shared node, forcing them through the flag dance each time.
    """
    while True:
        yield Wait()


def squatter(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Claim ``Settled`` at the start node and stay forever.

    Steals one node from the honest robots (legal: Definition 1 bounds
    honest settlers only), exercising Step 3c recording.
    """
    api.set_state(SETTLED)
    while True:
        yield Wait()


def ghost_squatter(api: ByzantineAPI, rng, period: int = 3) -> Iterator[Action]:
    """Claim ``Settled``, but relocate every ``period`` rounds.

    The canonical Step 4 trigger: the same ID observed settled at two
    different nodes proves it Byzantine, and honest robots blacklist it.
    Each relocation port equals numpy's ``int(rng.integers(1, degree +
    1))``, value for value; the draws come from :func:`_port_draws`,
    so ``rng`` must serve this program alone.
    """
    draw_port = _port_draws(rng)
    api.set_state(SETTLED)
    r = 0
    while True:
        r += 1
        if r % period == 0 and (deg := api.degree()) > 0:
            port = draw_port(deg)
            api.set_state(SETTLED)
            yield MOVES[port]
        else:
            yield STAY


#: Raw 64-bit words :func:`_port_draws` fetches per refill.
_RAW_BLOCK = 64


def _port_draws(rng: np.random.Generator) -> Callable[[int], int]:
    """Return ``draw(d)``, equal to ``int(rng.integers(1, d + 1))`` for
    every ``1 <= d <= 2**32``, draw for draw.

    A scalar ``rng.integers`` call spends ~2 µs in numpy's argument
    handling.  For a PCG64 generator this reproduces its draws from raw
    words fetched in blocks instead: each 64-bit word is two
    ``next_uint32`` outputs, low half first (a half the generator has
    already buffered comes first), and each draw is Lemire's bounded
    method with numpy's rejection threshold ``(2**32 - d) % d``;
    ``d == 1`` consumes nothing, as in numpy.  The blocks run ahead of
    the draws, so ``rng`` must not be drawn from any other way once
    ``draw`` is in use.  Other bit generators get ``rng.integers``.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        return lambda d: int(rng.integers(1, d + 1))
    next_half = _pcg64_uint32s(bitgen).__next__

    def draw(d: int) -> int:
        if d == 1:
            return 1
        m = next_half() * d
        if (m & 0xFFFFFFFF) < d:
            threshold = (0x100000000 - d) % d
            while (m & 0xFFFFFFFF) < threshold:
                m = next_half() * d
        return 1 + (m >> 32)

    return draw


def _pcg64_uint32s(bitgen: np.random.PCG64) -> Iterator[int]:
    """PCG64's ``next_uint32`` stream, from :meth:`random_raw` blocks."""
    state = bitgen.state
    if state["has_uint32"]:
        yield state["uinteger"]
    while True:
        for word in bitgen.random_raw(_RAW_BLOCK).tolist():
            yield word & 0xFFFFFFFF
            yield word >> 32


def flag_spammer(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Permanently raise the intent flag while never settling.

    Forces every honest co-located robot into the Step 2b observe branch;
    the procedure must still settle them (tests assert it does).
    """
    while True:
        api.set_flag(1)
        yield STAY


def random_walker(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Move uniformly at random every round with random flags.

    Also the default saboteur inside mapping runs: a random-walking token
    partner makes the agent's candidate checks incoherent.
    """
    while True:
        api.set_flag(int(rng.integers(0, 2)))
        deg = api.degree()
        if deg > 0 and rng.random() < 0.8:
            yield MOVES[int(rng.integers(1, deg + 1))]
        else:
            yield STAY


def stalker(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Chase the smallest-ID honest robot and contaminate its nodes.

    Uses world omniscience to aim, but moves one edge per round like any
    robot.  Claims ``tobeSettled`` with flag 1 at all times, keeping the
    target in perpetual flag dances.
    """
    world = api.world
    honest = world.honest_ids
    target = honest[0] if honest else None
    from ..graphs.traversal import navigate  # local import: avoid cycle at module load

    while True:
        api.set_flag(1)
        if target is None:
            yield STAY
            continue
        target_node = world.robots[target].node
        me = world.robots[api.id].node
        if me == target_node:
            yield STAY
        else:
            ports = navigate(world.graph, me, target_node)
            yield MOVES[ports[0]]


def false_commander(api: ByzantineAPI, rng, port: int = 1) -> Iterator[Action]:
    """Forge token-mapping commands ordering "move through port 1".

    Mirrors any genuine command visible in its sub-round (copying the run
    tag and tick — the strongest forgery available without breaking
    synchrony) and falls back to blind spam otherwise.  If false
    commanders reach a token group's believe-threshold (only possible
    when a group's Byzantine count exceeds the paper's bound), they
    hijack the token and corrupt that run's map — the exact failure mode
    Section 3.2's majority-of-three argument tolerates.
    """
    while True:
        mirrored = False
        for _sender, payload in api.messages():
            if (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "cmd"
            ):
                api.say(("cmd", payload[1], payload[2], port))
                mirrored = True
                break
        if not mirrored:
            api.say(("cmd", None, api.round // 2, port))
        yield STAY


def decoy_token(api: ByzantineAPI, rng, walk_rounds: int = 3) -> Iterator[Action]:
    """Walk a few steps away, then sit pretending to be the token.

    Against group mapping the agent requires a *quorum* of distinct
    token-group IDs, which at most ``f < threshold`` decoys can never
    assemble; tests assert presence checks are not fooled.
    """
    for _ in range(walk_rounds):
        deg = api.degree()
        if deg > 0:
            yield MOVES[int(rng.integers(1, deg + 1))]
        else:
            yield STAY
    api.set_state(SETTLED)
    while True:
        yield Wait()


def sleeper(delay: int, inner: Strategy) -> Strategy:
    """Combinator: behave dead for ``delay`` rounds, then run ``inner``.

    Models adversaries that cooperate through early phases and defect
    later (e.g. behave until maps are built, then squat during dispersion).
    """
    if delay < 0:
        raise ConfigurationError("delay must be >= 0")

    def program(api: ByzantineAPI, rng) -> Iterator[Action]:
        for _ in range(delay):
            yield STAY
        yield from inner(api, rng)

    program.__name__ = f"sleeper({delay},{getattr(inner, '__name__', 'inner')})"
    return program


def impersonator(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Strong model: steal the smallest honest ID and squat with it.

    Attacks ID-based trust: under Dispersion-Using-Map this would get an
    honest ID blacklisted (which is why the paper's Section 4 switches to
    rank-based dispersion with quorum checks — our tests show both sides).
    """
    honest = api.world.honest_ids
    if honest:
        api.set_claimed_id(honest[0])
    api.set_state(SETTLED)
    while True:
        yield Wait()


def id_cycler(api: ByzantineAPI, rng) -> Iterator[Action]:
    """Strong model: present a different fake ID every round."""
    world = api.world
    all_ids = sorted(world.robots.keys())
    i = 0
    while True:
        api.set_claimed_id(all_ids[i % len(all_ids)])
        api.set_state(SETTLED if i % 2 == 0 else TOBESETTLED)
        api.set_flag(i % 2)
        i += 1
        yield STAY


#: Name -> strategy registry used by experiment configs and benchmarks.
STRATEGIES: Dict[str, Strategy] = {
    "crash": crash,
    "idle": idle,
    "squatter": squatter,
    "ghost_squatter": ghost_squatter,
    "flag_spammer": flag_spammer,
    "random_walker": random_walker,
    "stalker": stalker,
    "false_commander": false_commander,
    "decoy_token": decoy_token,
    "impersonator": impersonator,
    "id_cycler": id_cycler,
}

#: Strategies legal in the weak model (no ID faking).
WEAK_STRATEGIES = [
    "crash",
    "idle",
    "squatter",
    "ghost_squatter",
    "flag_spammer",
    "random_walker",
    "stalker",
    "false_commander",
    "decoy_token",
]

#: Additional strong-model strategies.
STRONG_STRATEGIES = WEAK_STRATEGIES + ["impersonator", "id_cycler"]


def get_strategy(name: str) -> Strategy:
    """Look up a strategy by registry name."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGIES)}"
        ) from None
