"""Deterministic synchronous execution engine.

One execution runs one configuration against one adversary script:
lockstep rounds deliver exactly the obligated messages, the script may
corrupt or withhold anything a faulty processor sends, and every
observable event lands in a canonical JSON-lines transcript. At the end
`check.judge` lists any violations of the agreement properties, the cost
ledger is summed from the transcript's traffic events, and the
transcript's verdict records both, so that failing adversarial runs stay
inspectable and replayable.
"""

from __future__ import annotations

import json
import random
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from functools import lru_cache
from hashlib import sha256
from itertools import groupby
from typing import Any, Iterable, Iterator, Sequence

from .check import judge
from .consensus import (
    ALG1,
    ALG2,
    OUTCOME_DECIDED,
    OUTCOME_DEFAULT,
    OUTCOME_DIAGNOSED,
    OUTCOME_TERMINATED,
    RULE_SILENT_MATCH_VECTOR,
    STEP_HELPER,
    STEP_OWN,
    STEP_RECONSTRUCTED,
    TAG_CODED,
    TAG_DETECTED,
    TAG_MATCH_BITS,
    TAG_RECEIVED,
    Claims,
    MatchingPlan,
    Run,
    detection_flag,
    flag_key,
    matching_obligations,
    reconstruction_sources,
    run_diagnosis,
)
from .diagnosis import ConfigurationError, TrustGraph
from .quorum import compute_match_bits, find_match_set
from .rs import (
    CodeParams,
    InsufficientSymbolsError,
    ParameterError,
    decode,
    encode,
    parse_word,
    reconstruct_position,
    word_hex,
)

# plans, least recently used first, and the sends they hold; a budget in
# sends keeps every state of a small-n sweep yet caps n=255 (up to about
# 86k sends a plan) at three plans
_PLANS: OrderedDict[tuple, MatchingPlan] = OrderedDict()
_PLAN_BUDGET = 1 << 18
_plans_held = 0
# own waves by (n, removed edges), which alone fix them, shared by the plans
# of a state; an entry leaves with any plan of its state
_OWN_WAVES: dict[tuple, tuple[Run, ...]] = {}


def _matching_plan(graph: TrustGraph, p_match: Sequence[int]) -> MatchingPlan:
    """The plan of `p_match` on `graph`, derived on the first request."""
    global _plans_held
    key = (graph.n, graph.removed, tuple(p_match))
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
        return plan
    plan = _PLANS[key] = matching_obligations(graph, p_match, _OWN_WAVES.get(key[:2]))
    _OWN_WAVES[key[:2]] = plan.own
    _plans_held += plan.size
    # the plan just derived stays even when it alone exceeds the budget
    while _plans_held > _PLAN_BUDGET and len(_PLANS) > 1:
        old_key, old = _PLANS.popitem(last=False)
        _OWN_WAVES.pop(old_key[:2], None)
        _plans_held -= old.size
    return plan


def _generation_words(
    params: CodeParams, padded: bytes, generations: int
) -> list[bytes]:
    """The n wide slots of one padded input's G generations, from one
    `encode`: byte b of data symbol j in generation g is lane b*G + g-1
    of wide symbol j, so slot j of generation g is `words[j-1][g-1::G]`.
    """
    k, s = params.k, params.sym_bytes
    data = b"".join(
        padded[j * s + b :: k * s] for j in range(k) for b in range(s)
    )
    return encode(CodeParams(params.n, k, s * generations), data)


# --------------------------------------------------------------- config


def _require_object(what: str, value: Any) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    return value


def require_known_keys(what: str, data: Any, known: Iterable[str]) -> dict:
    """`data` if it is a JSON object; any key outside `known` is named."""
    if unknown := set(_require_object(what, data)) - set(known):
        raise ConfigurationError(f"unknown {what} keys {sorted(unknown)}")
    return data


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything that determines an execution besides the adversary."""

    algorithm: str
    n: int
    t: int
    l_bits: int
    d_bits: int
    inputs: tuple[str, ...]
    q: int | None = None
    seed: int = 0
    broadcast_coefficient: int = 1
    # each input decoded once and zero-padded, for slicing blocks every generation
    _padded_inputs: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.algorithm not in (ALG1, ALG2):
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if self.t < 0 or self.n < 3 * self.t + 1 or self.n < 2:
            raise ConfigurationError(f"need n >= 3t+1, got n={self.n}, t={self.t}")
        if self.algorithm == ALG2:
            if self.q is None:
                raise ConfigurationError("alg2 requires q")
            if not self.t + 1 <= self.q <= self.n - self.t:
                raise ConfigurationError(
                    f"need t+1 <= q <= n-t, got q={self.q}, n={self.n}, t={self.t}"
                )
        if self.l_bits < 1 or self.l_bits % 8:
            raise ConfigurationError("l_bits must be a positive multiple of 8")
        unit = 8 * self.k
        if self.d_bits < unit or self.d_bits % unit:
            raise ConfigurationError(
                f"d_bits must be a positive multiple of {unit} (8 x code dimension)"
            )
        if len(self.inputs) != self.n:
            raise ConfigurationError(f"need {self.n} inputs, got {len(self.inputs)}")
        want = self.l_bits // 8
        padded = []
        for i, value in enumerate(self.inputs, start=1):
            try:
                raw = bytes.fromhex(value)
            except ValueError as exc:
                raise ConfigurationError(f"input {i} is not valid hex") from exc
            if len(raw) != want:
                raise ConfigurationError(
                    f"input {i} must be exactly {want} bytes of hex"
                )
            padded.append(raw.ljust(self.padded_bytes, b"\x00"))
        # one spelling per value (lowercase hex), so equal inputs compare equal
        object.__setattr__(self, "inputs", tuple(p[:want].hex() for p in padded))
        object.__setattr__(self, "_padded_inputs", tuple(padded))
        if self.broadcast_coefficient < 1:
            raise ConfigurationError("broadcast coefficient must be >= 1")

    @property
    def k(self) -> int:
        return (self.n - self.t) if self.algorithm == ALG1 else self.q

    @property
    def sym_bytes(self) -> int:
        return self.d_bits // (8 * self.k)

    @property
    def generations(self) -> int:
        return -(-self.l_bits // self.d_bits)

    @property
    def block_bytes(self) -> int:
        return self.d_bits // 8

    @property
    def padded_bytes(self) -> int:
        return self.generations * self.block_bytes

    def padded_input(self, i: int) -> bytes:
        return self._padded_inputs[i - 1]

    def input_block(self, i: int, g: int) -> bytes:
        size = self.block_bytes
        return self._padded_inputs[i - 1][(g - 1) * size : g * size]

    def code_params(self) -> CodeParams:
        return CodeParams(self.n, self.k, self.sym_bytes)

    def to_jsonable(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {**doc, "inputs": list(self.inputs)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "ExecutionConfig":
        known = [f.name for f in fields(cls) if f.init]
        data = require_known_keys("config", data, known)
        if not isinstance(inputs := data.get("inputs"), (list, tuple)):
            raise ConfigurationError("config inputs must be a list of hex")
        return cls(**{**data, "inputs": tuple(inputs)})


# --------------------------------------------------------------- script


SEND_HONEST = "honest"
SEND_SILENT = "silent"
SEND_CORRUPT = "corrupt"
SEND_REPLACE = "replace"

BCAST_SILENT = "silent"
BCAST_REPLACE = "replace"

_HONEST_SEND = (SEND_HONEST, None)
_STEPS = (STEP_OWN, STEP_HELPER, STEP_RECONSTRUCTED)
_TAGS = (TAG_DETECTED, TAG_MATCH_BITS, TAG_CODED, TAG_RECEIVED)


class AdversaryScript:
    """Scripted misbehavior for the faulty set, keyed by round position.

    Send rules are keyed (generation, step, sender, receiver) and apply
    to every slot of that message; broadcast rules are keyed
    (generation, tag, sender). Anything without a rule is sent
    honestly. A script can only speak for faulty senders: rules for
    other processors are rejected at construction, and the engine asks
    `send` and `broadcast` for faulty senders only.
    """

    def __init__(self, faulty: Iterable[int] = ()):
        # checked before the set, where True and 1.0 would merge into 1
        faulty = tuple(faulty)
        if bad := [p for p in faulty if type(p) is not int]:
            raise ConfigurationError(f"faulty id {bad[0]!r} is not an integer")
        self.faulty = frozenset(faulty)
        self._sends: dict[tuple[int, str, int, int], tuple[str, bytes | None]] = {}
        self._bcasts: dict[tuple[int, str, int], tuple[str, Any]] = {}
        self._named: set[int] = set()  # the generations some rule names

    def _require_faulty(self, sender: int) -> None:
        if sender not in self.faulty:
            raise ValueError(f"processor {sender} is not in the faulty set")

    def add_send(
        self,
        generation: int,
        step: str,
        sender: int,
        receiver: int,
        kind: str,
        data: bytes | None = None,
    ) -> "AdversaryScript":
        self._require_faulty(sender)
        if step not in _STEPS:
            raise ValueError(f"unknown step {step!r}")
        if kind not in (SEND_HONEST, SEND_SILENT, SEND_CORRUPT, SEND_REPLACE):
            raise ValueError(f"unknown send action {kind!r}")
        if kind in (SEND_CORRUPT, SEND_REPLACE) and not data:
            raise ValueError(f"{kind} needs a byte argument")
        self._sends[(generation, step, sender, receiver)] = (kind, data)
        self._named.add(generation)
        return self

    def add_broadcast(
        self, generation: int, tag: str, sender: int, kind: str, payload: Any = None
    ) -> "AdversaryScript":
        self._require_faulty(sender)
        if tag not in _TAGS:
            raise ValueError(f"unknown broadcast tag {tag!r}")
        if kind not in (BCAST_SILENT, BCAST_REPLACE):
            raise ValueError(f"unknown broadcast action {kind!r}")
        if kind == BCAST_REPLACE:
            if tag == TAG_DETECTED and not isinstance(payload, bool):
                raise ValueError("detected override must be a bool")
            if tag == TAG_MATCH_BITS:
                if not isinstance(payload, (list, tuple)) or not all(
                    isinstance(b, bool) for b in payload
                ):
                    raise ValueError("match_bits override must be a list of bools")
                payload = list(payload)
            if tag in (TAG_CODED, TAG_RECEIVED):
                if not isinstance(payload, (list, tuple)) or not all(
                    v is None or isinstance(v, str) for v in payload
                ):
                    raise ValueError("vector override must be a list of hex or None")
                payload = list(payload)
        self._bcasts[(generation, tag, sender)] = (kind, payload)
        self._named.add(generation)
        return self

    def send(
        self, generation: int, step: str, sender: int, receiver: int,
        honest: bytes, skip: bool,
    ) -> bytes | None:
        """The symbol `sender` sends for `honest`, or None for silence.

        Without a rule that is `honest`, or nothing when the protocol
        has the sender `skip` the message; a corrupt or replace rule
        applies either way.
        """
        kind, data = self._sends.get((generation, step, sender, receiver), _HONEST_SEND)
        if kind == SEND_CORRUPT:
            return bytes(a ^ b for a, b in zip(honest, data))
        if kind == SEND_REPLACE:
            return data
        return None if kind == SEND_SILENT or skip else honest

    def broadcast(self, generation: int, tag: str, sender: int, honest: Any) -> Any:
        """The payload `sender` broadcasts for `honest`, or None for
        silence; a vector override is parsed into a word shaped like
        `honest`, whose own slot the sender always holds, and a match-bit
        override into a mask."""
        rule = self._bcasts.get((generation, tag, sender))
        if rule is None:
            return honest
        kind, payload = rule
        if kind == BCAST_SILENT:
            return None
        if tag in (TAG_CODED, TAG_RECEIVED):
            return parse_word(len(honest), len(honest[sender - 1]), payload)
        if tag == TAG_MATCH_BITS:
            return sum(1 << j for j, bit in enumerate(payload) if bit)
        return payload

    def quiet_until(self, g: int, last: int) -> int:
        """The end of the quiet generations g..h, h <= last, that no rule
        names: g - 1 if a rule names g. A subclass that answers `send` or
        `broadcast` itself is asked about every generation: none is quiet."""
        if g in self._named or (type(self).send, type(self).broadcast) != self._ANSWERS:
            return g - 1
        return min((h for h in self._named if h > g), default=last + 1) - 1

    _ANSWERS = (send, broadcast)  # a subclass that overrides either answers itself

    def validate_shapes(self, config: ExecutionConfig) -> None:
        """Fail fast if any rule does not fit the configuration."""
        if len(self.faulty) > config.t:
            raise ConfigurationError(
                f"script declares {len(self.faulty)} faulty, bound is t={config.t}"
            )
        n, sym, gens = config.n, config.sym_bytes, config.generations
        for p in self.faulty:
            if not 1 <= p <= n:
                raise ConfigurationError(f"faulty id {p} out of range")
        for key in [*self._sends, *self._bcasts]:
            rule = _rule_text(key)
            if not 1 <= key[0] <= gens:
                raise ConfigurationError(f"rule {rule}: generation outside 1..{gens}")
            if len(key) == 4 and (key[3] == key[2] or not 1 <= key[3] <= n):
                raise ConfigurationError(f"send rule {rule}: receiver not a peer in 1..{n}")
        for key, (kind, data) in self._sends.items():
            if kind in (SEND_CORRUPT, SEND_REPLACE) and len(data) != sym:
                raise ConfigurationError(
                    f"send rule {_rule_text(key)} carries {len(data)} bytes, need {sym}"
                )
        for key, (kind, payload) in self._bcasts.items():
            if kind != BCAST_REPLACE:
                continue
            rule, tag = f"broadcast rule {_rule_text(key)}", key[1]
            if tag == TAG_MATCH_BITS and len(payload) != n:
                raise ConfigurationError(f"{rule} carries {len(payload)} bits, need {n}")
            if tag in (TAG_CODED, TAG_RECEIVED):
                try:
                    parse_word(n, sym, payload)
                except (ParameterError, ValueError) as exc:
                    raise ConfigurationError(f"{rule} does not fit: {exc}") from exc

    def to_jsonable(self) -> dict:
        sends = {
            _rule_text(key): {"kind": kind, "data": None if data is None else data.hex()}
            for key, (kind, data) in sorted(self._sends.items())
        }
        bcasts = {
            _rule_text(key): {"kind": kind, "payload": payload}
            for key, (kind, payload) in sorted(self._bcasts.items())
        }
        return {"faulty": sorted(self.faulty), "sends": sends, "broadcasts": bcasts}

    @classmethod
    def from_jsonable(cls, data: dict) -> "AdversaryScript":
        require_known_keys("script", data, ("faulty", "sends", "broadcasts"))
        faulty = data.get("faulty", [])
        if not isinstance(faulty, list):
            raise ConfigurationError(f"faulty must be a JSON list, got {faulty!r}")
        script = cls(faulty)
        for table, what, form, value_key, add in (
            ("sends", "send rule", "g|step|sender|receiver", "data", script.add_send),
            ("broadcasts", "broadcast rule", "g|tag|sender", "payload",
             script.add_broadcast),
        ):
            for key, rule in _require_object(table, data.get(table, {})).items():
                name = f"{what} {key}"
                require_known_keys(name, rule, ("kind", value_key))
                if "kind" not in rule:
                    raise ConfigurationError(f"{name} has no kind")
                try:
                    # every part but the step or tag is an integer
                    parts = [p if i == 1 else int(p) for i, p in enumerate(key.split("|"))]
                except ValueError:
                    parts = []
                # written as to_jsonable writes it, so no two keys name one rule
                if len(parts) != form.count("|") + 1 or _rule_text(tuple(parts)) != key:
                    raise ConfigurationError(f"{name} is not of the form {form}")
                value = rule.get(value_key)
                try:
                    if value_key == "data" and value is not None:
                        value = bytes.fromhex(value)
                    add(*parts, rule["kind"], value)
                except (TypeError, ValueError) as exc:
                    raise ConfigurationError(f"{name}: {exc}") from exc
        return script


@lru_cache(maxsize=4096)
def _rule_text(key: tuple) -> str:
    """A rule's key as scripts write it: g|step|sender|receiver or g|tag|sender."""
    return "|".join(map(str, key))


# --------------------------------------------------------------- ledger


# the stage each broadcast tag is charged to; every point-to-point symbol
# is matching-stage data
_STAGE_OF_TAG = {
    TAG_MATCH_BITS: "matching",
    TAG_DETECTED: "checking",
    TAG_CODED: "diagnosis",
    TAG_RECEIVED: "diagnosis",
}


class CostLedger:
    """Bit and symbol counts per (generation, stage), summed from the
    traffic events of a finished run: nothing is charged during it.

    Each `WAVE` is `count` matching-stage symbols of 8 x sym_bytes bits
    and each faulty `SYMBOL_SENT` one. Each `ROUND` and `BROADCAST`
    charges its `payload_bits` x `broadcast_coefficient` x n^2 transport
    bits to the stage of its tag, the scale at which bit-by-bit
    error-free broadcast constructions run; every round opens its cell,
    at zero bits if all its senders were silent. So any transcript, read
    back from its text, sums to its `VERDICT` totals.
    """

    FIELDS = ("p2p_symbols", "p2p_bits", "bcast_payload_bits", "bcast_charged_bits")

    def __init__(self, config: ExecutionConfig, events: Iterable[dict]) -> None:
        symbols: dict[tuple[int, str], int] = {}
        payload_bits: dict[tuple[int, str], int] = {}
        for event in events:
            kind = event["type"]
            if kind == "ROUND" or kind == "BROADCAST":
                key = (event["g"], _STAGE_OF_TAG[event["tag"]])
                payload_bits[key] = payload_bits.get(key, 0) + event["payload_bits"]
            elif kind == "WAVE" or kind == "SYMBOL_SENT":
                key = (event["g"], "matching")
                symbols[key] = symbols.get(key, 0) + event.get("count", 1)
        symbol_bits = 8 * config.sym_bytes
        scale = config.broadcast_coefficient * config.n * config.n
        # each cell holds FIELDS in order; both bit fields scale its counts
        self._cells: dict[tuple[int, str], tuple[int, ...]] = {}
        for key in symbols.keys() | payload_bits.keys():
            sent, bits = symbols.get(key, 0), payload_bits.get(key, 0)
            self._cells[key] = (sent, sent * symbol_bits, bits, bits * scale)

    def total(self, fieldname: str) -> int:
        i = self.FIELDS.index(fieldname)
        return sum(cell[i] for cell in self._cells.values())

    def totals(self) -> dict[str, int]:
        return {name: self.total(name) for name in self.FIELDS}

    def per_generation(self, fieldname: str) -> dict[int, int]:
        i = self.FIELDS.index(fieldname)
        out: dict[int, int] = {}
        for (g, _), cell in sorted(self._cells.items()):
            out[g] = out.get(g, 0) + cell[i]
        return out

    def to_jsonable(self) -> dict:
        return {
            f"{g}:{stage}": dict(zip(self.FIELDS, cell))
            for (g, stage), cell in sorted(self._cells.items())
        }


# ------------------------------------------------------------ transcript


# one stateless encoder for every event; json.dumps would build one per call
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Transcript:
    """Ordered event log with a canonical byte serialization."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def lines(self) -> Iterator[str]:
        """Each event as one line of JSON with sorted keys and no spaces."""
        encode = _JSONL_ENCODER.encode
        for e in self.events:
            yield encode(e) + "\n"

    def of_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e["type"] == event_type]


# --------------------------------------------------------------- results


@dataclass
class ExecutionResult:
    config: ExecutionConfig
    verdict: str
    violations: list[str]
    outputs: dict[int, bytes]
    outcomes: list[dict]
    diagnosis_count: int
    ledger: CostLedger
    transcript: Transcript
    graph: TrustGraph

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


# ---------------------------------------------------------------- engine


class Execution:
    """One deterministic run of one protocol against one script."""

    def __init__(self, config: ExecutionConfig, script: AdversaryScript):
        script.validate_shapes(config)
        self.config = config
        self.script = script
        self.params = config.code_params()
        self.graph = TrustGraph(config.n, config.t)
        self.transcript = Transcript()
        self.diagnosis_count = 0
        # each generation's outcome, recorded as it is settled
        self.outcomes: list[dict] = []
        self.fault_free = [
            p for p in range(1, config.n + 1) if p not in script.faulty
        ]
        # per fault-free processor, the blocks decided so far
        self.decided: dict[int, list[bytes]] = {p: [] for p in self.fault_free}
        # alg1's carried match set; the step's lines, a list per generation
        # until it settles, and the faulty senders it asks about
        self.p_match = list(range(1, config.n + 1))
        self._lines, self._asked = [[]], script.faulty
        # each processor's first holder of its input, and the wide words of
        # each first holder: one encode per distinct input for the whole run
        holders: dict[bytes, int] = {}
        self._first_holder = [
            holders.setdefault(config.padded_input(i), i)
            for i in range(1, config.n + 1)
        ]
        self._wide = {
            i: _generation_words(self.params, padded, config.generations)
            for padded, i in holders.items()
        }

    # ------------------------------------------------------- primitives

    def _send_wave(
        self, g: int, step: str, runs: tuple[Run, ...],
        coded: dict[int, list], received: dict[int, list],
        suppressed: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        """Deliver one wave of a plan, run by run; `suppressed` senders
        stay silent.

        A faulty sender's run asks the script's `send` once per receiver;
        each symbol must be sym_bytes long. An honest sender's run reads
        its slot once and stores it into every receiver's word. Every
        symbol equal to its sender's slot, from a sender not suppressed,
        is recorded in one `WAVE` event per generation after the rest:
        their count and the SHA-256 of their records `bytes((sender,
        receiver, slot)) + value` in plan order, `value.join(prefixes) +
        value` for an honest run; a prefix byte fills every lane, so lane
        j is generation g+j's. Any other faulty symbol is its own
        `SYMBOL_SENT` event.
        """
        script, faulty = self.script, self._asked
        sym, width = self.params.sym_bytes, len(self._lines)
        records: list[bytes] = []
        honest_sent = 0
        if width > 1:
            runs = _spread(runs, width)
        for sender, slot, receivers, prefixes in runs:
            honest = coded[sender][slot - 1]
            if sender in faulty:
                skip = sender in suppressed
                for receiver, prefix in zip(receivers, prefixes):
                    value = script.send(g, step, sender, receiver, honest, skip)
                    if value is None:
                        continue
                    if len(value) != sym:
                        raise ParameterError(
                            f"macro-symbol must be {sym} bytes, got {len(value)}"
                        )
                    received[receiver][slot - 1] = value
                    if value == honest and not skip:
                        records += (prefix, value)
                        honest_sent += 1
                        continue
                    self._lines[0].append({
                        "type": "SYMBOL_SENT", "g": g, "step": step, "sender": sender,
                        "receiver": receiver, "slot": slot, "value": value.hex(),
                    })
            elif sender not in suppressed:
                for receiver in receivers:
                    received[receiver][slot - 1] = honest
                records += (honest.join(prefixes), honest)
                honest_sent += len(receivers)
        if honest_sent:
            data = b"".join(records)
            for j, lines in enumerate(self._lines):
                lines.append({
                    "type": "WAVE", "g": g + j, "step": step, "count": honest_sent,
                    "sha256": sha256(data[j::width]).hexdigest(),
                })

    def _round(self, g: int, tag: str, honest: dict[int, Any]) -> dict[int, Any]:
        """One broadcast round: each sender in `honest` broadcasts its
        honest payload, or what the script makes of it if faulty; returns
        every payload observed, None for silence.

        Both protocols assume a black-box broadcast with two guarantees:
        every processor observes the identical payload, and the sender
        cannot be forged. The transcript records what everyone observes,
        so the script may pick a faulty sender's payload or withhold it,
        but never split it. What is left to model is cost, which
        `CostLedger` reads from `payload_bits`: a flag is 1 bit, match
        bits n and a word `_word_bits`, whatever a faulty sender put in.

        It is a `ROUND` line per generation. A `detected` round's `payload` has
        character j-1 `0` or `1` for processor j's flag, `-` when j sent
        none; a `match_bits` round's `payload` holds each vector as a
        hex mask (bit j-1 for slot j), null when none was sent. A claim
        (`coded`, `received`) equal to its sender's word joins the round's
        `count` and `sha256`, the SHA-256 of one record per claim in sender
        order: the sender's id byte, then per slot 01 and its bytes, or
        1 + sym_bytes zero bytes for an empty slot. Any other claim is
        its own `BROADCAST` line, written before the round's line.
        """
        script, n = self.script, self.config.n
        observed = dict(honest)
        for p in sorted(self._asked.intersection(honest)):
            observed[p] = script.broadcast(g, tag, p, honest[p])
        line = {"type": "ROUND", "g": g, "tag": tag}
        sent = [p for p, v in observed.items() if v is not None]
        if tag == TAG_DETECTED:
            flags = ["-"] * n
            for p in sent:
                flags[p - 1] = "1" if observed[p] else "0"
            line.update(payload="".join(flags), payload_bits=len(sent))
        elif tag == TAG_MATCH_BITS:
            masks: list[str | None] = [None] * n
            for p in sent:
                masks[p - 1] = format(observed[p], f"0{-(-n // 4)}x")
            line.update(payload=masks, payload_bits=n * len(sent))
        else:
            absent = bytes(1 + self.params.sym_bytes)
            records: list[bytes] = []
            count = bits = 0
            for p, word in honest.items():
                claim, size = observed[p], _word_bits(word)
                if claim == word:
                    records.append(bytes((p,)))
                    records += (absent if v is None else b"\x01" + v for v in word)
                    count, bits = count + 1, bits + size
                    continue
                self._emit({
                    "type": "BROADCAST", "g": g, "tag": tag, "sender": p,
                    "payload": None if claim is None else word_hex(claim),
                    "payload_bits": 0 if claim is None else size,
                })
            line.update(
                count=count, payload_bits=bits,
                sha256=sha256(b"".join(records)).hexdigest(),
            )
        self._emit(line)
        return observed

    def _emit(self, line: dict) -> None:
        """`line` in each lane's lines, with the lane's generation."""
        self._lines[0].append(line)
        for j in range(1, len(self._lines)):
            self._lines[j].append({**line, "g": line["g"] + j})

    def _graph_events(self, g: int, tagged: list[tuple[str, tuple]]) -> None:
        """`CONVICTED` and `EDGE_REMOVED` lines. A conviction drops every
        remaining edge of its processor, and writes none of them: those
        are the edges after it that touch a processor convicted in the
        list, since a convicted processor has no edge left to dispute."""
        convicted: set[int] = set()
        for rule, event in tagged:
            if event[0] != "edge":
                convicted.add(event[1])
                self._emit({"type": "CONVICTED", "g": g, "processor": event[1], "rule": rule})
            elif not convicted.intersection(event[1:]):
                self._emit({
                    "type": "EDGE_REMOVED", "g": g, "i": event[1], "j": event[2], "rule": rule
                })

    def _decode_accepted(self, vec: list[bytes | None], blocks: dict[tuple, bytes]) -> bytes:
        """Block of a word flagged FALSE (a codeword of k symbols or more), decoded
        unchecked once per distinct word of `blocks`; a failure is a bug the judge reports."""
        word = tuple(vec)
        if word not in blocks:
            try:
                blocks[word] = decode(self.params, vec, checked=True)
            except InsufficientSymbolsError:
                blocks[word] = b""
        return blocks[word]

    # ---------------------------------------------------- matching waves

    def _fresh_state(
        self, g: int, width: int = 1
    ) -> tuple[dict[int, list], dict[int, list]]:
        """Coded words of generations g..g+width-1, byte b of g+j at lane
        b*width + j, a copy for each further holder of an input, and
        received words holding each own slot."""
        n, gens = self.config.n, self.config.generations
        coded, received = {}, {}
        for i, first in enumerate(self._first_holder, start=1):
            coded[i] = list(coded[first]) if first != i else [
                _lanes(w, g - 1, g - 1 + width, gens) for w in self._wide[i]
            ]
            received[i] = [None] * n
            received[i][i - 1] = coded[i][i - 1]
        return coded, received

    def _helper_and_reconstruct(
        self, g: int, p_match: Sequence[int], plan: MatchingPlan,
        coded: dict[int, list], received: dict[int, list],
    ) -> None:
        """Helper wave, non-member reconstruction, re-send wave."""
        cfg = self.config
        members = set(p_match)
        self._send_wave(g, STEP_HELPER, plan.helper, coded, received)
        for r, slot in plan.copies:
            received[r][slot - 1] = coded[r][slot - 1]
        # a non-member that cannot gather enough match-set symbols keeps
        # its own-input slot and skips the re-send wave entirely
        failed: set[int] = set()
        for j in range(1, cfg.n + 1):
            if j in members:
                continue
            sources = reconstruction_sources(received[j], p_match, self.params.k)
            if sources is None:
                failed.add(j)
                continue
            coded[j][j - 1] = reconstruct_position(self.params, received[j], j, sources)
        self._send_wave(
            g, STEP_RECONSTRUCTED, plan.reconstructed, coded, received, failed
        )
        for j in range(1, cfg.n + 1):
            if j not in members:
                received[j][j - 1] = coded[j][j - 1]

    # ------------------------------------------------------- generations

    def _stretch(self, g: int, width: int, quiet: bool) -> tuple[int, int]:
        """Generations g..g+width-1 at one graph state, byte b of g+j at lane
        b*width + j of every word, where every codec call and check acts
        lane by lane. Returns the generations settled and how many after
        them hold one that is not uniform (0: none known). A range of two or
        more lanes settles only uniform ones (alg1: every flag FALSE; alg2: no
        match set or every flag FALSE, a lane with match vectors of its own
        going on alone from the match-bit round); one lane diagnoses in place.

        Each generation matches, checks, then decodes with every flag FALSE
        or diagnoses everyone's claims. alg1 carries its match set (the
        last decide set, less the convicted), terminates below n-t and
        decides among it at threshold n-t. alg2 broadcasts match bits
        after a full matching stage, takes the smallest q-clique or
        defaults, convicts silent match vectors before diagnosis and
        decides among everyone at threshold q, counting convicted claims.
        An empty decide set terminates alg1 and defaults alg2.
        """
        cfg = self.config
        # a quiet generation's script answers every question honestly
        self._asked = frozenset() if quiet else self.script.faulty
        self.params = _code_params(cfg.n, cfg.k, cfg.sym_bytes * width)
        self._lines = [[] for _ in range(width)]
        coded, received = self._fresh_state(g, width)
        if cfg.algorithm == ALG1:
            # patched runs only: the carried decide set holds no convicted processor
            p_match = [p for p in self.p_match if p not in self.graph.convicted]
            if len(p_match) < cfg.n - cfg.t:
                return self._terminate(g), 0
            plan = _matching_plan(self.graph, p_match)
            self._send_wave(g, STEP_OWN, plan.own, coded, received)
            return self._check(g, p_match, plan, coded, received, {})
        plan = _matching_plan(self.graph, range(1, cfg.n + 1))
        self._send_wave(g, STEP_OWN, plan.own, coded, received)
        self._send_wave(g, STEP_HELPER, plan.helper, coded, received)
        candidates = self.graph.unconvicted()
        vectors = {p: compute_match_bits(received[p], coded[p]) for p in candidates}
        # each lane's match vectors, the wide ones but where an unset bit of
        # two present slots is set in lane j: their XOR's rows OR to 0 at j
        lanes, mask = [vectors] * width, (1 << 8 * width) - 1
        for p, bits in vectors.items() if width > 1 else ():
            for slot, (r, c) in enumerate(zip(received[p], coded[p])):
                if bits >> slot & 1 or r is None or c is None:
                    continue
                x, fold = int.from_bytes(r, "big") ^ int.from_bytes(c, "big"), 0
                while x:
                    fold, x = fold | x & mask, x >> 8 * width
                row, j = fold.to_bytes(width, "big"), -1
                while (j := row.find(0, j + 1)) >= 0:
                    lanes[j] = dict(vectors) if lanes[j] is vectors else lanes[j]
                    lanes[j][p] |= 1 << slot
        # lanes a..b-1 of the same vectors go on together, and only a match
        # set needs their own words, cut out of the step's
        a, lines, episodes = 0, self._lines, self.diagnosis_count
        for _, run in groupby(lanes, id):
            b = a + len(run := list(run))
            if b - a < width:
                self._lines = lines[a:b]
                self.params = _code_params(cfg.n, cfg.k, cfg.sym_bytes * (b - a))
            vectors = self._round(g + a, TAG_MATCH_BITS, run[0])
            p_match = find_match_set(vectors, candidates, cfg.q)
            self._emit({"type": "MATCH_SET", "g": g + a, "members": p_match})
            if p_match is None:
                self._settle(g + a, OUTCOME_DEFAULT)
            elif cut := self._check(g + a, p_match, _matching_plan(self.graph, p_match), *(
                words if b - a == width else
                {p: [v and _lanes(v, a, b, width) for v in word] for p, word in words.items()}
                for words in (coded, received)
            ), vectors)[1]:
                return a, cut
            a = b
            if self.diagnosis_count > episodes:  # the lanes after ran at the old graph
                break
        return a, 0

    def _check(
        self, g: int, p_match: Sequence[int], plan: MatchingPlan,
        coded: dict[int, list], received: dict[int, list], vectors: dict[int, Any],
    ) -> tuple[int, int]:
        """From the match set: helper and re-send waves, flags, then decode or diagnose."""
        cfg = self.config
        alg1 = cfg.algorithm == ALG1
        self._helper_and_reconstruct(g, p_match, plan, coded, received)
        members = set(p_match)
        # this step's codeword verdicts, flags and accepted blocks, each
        # computed once per distinct word and shared by its holders; a
        # member's coded word is still the codeword its input encodes to
        verdicts = dict.fromkeys((tuple(coded[m]) for m in members), True)
        live_flags: dict[tuple, bool] = {}
        live: dict[int, bool] = {}
        for p in self.graph.unconvicted():
            in_match = p in members
            key = flag_key(received[p], coded[p], in_match)
            if key not in live_flags:
                live_flags[key] = detection_flag(
                    self.params, received[p], coded[p], in_match, members, verdicts
                )
            live[p] = live_flags[key]
        # lanes of a wide step settle only with every flag FALSE: a wide
        # flag is TRUE when any lane's is, and does not say which
        if len(self._lines) > 1 and any(live.values()):
            return 0, len(self._lines)
        flags = self._round(g, TAG_DETECTED, live)
        if all(v is False for v in flags.values()):
            blocks: dict[tuple, bytes] = {}
            values = {
                p: self._decode_accepted(received[p], blocks) for p in self.fault_free
            }
            return self._settle(g, OUTCOME_DECIDED, values)
        self.diagnosis_count += 1
        if not alg1:
            for p in list(self.graph.unconvicted()):
                if vectors.get(p) is None:
                    convicted = self.graph.convict(p)
                    self._graph_events(
                        g, [(RULE_SILENT_MATCH_VECTOR, ev) for ev in convicted]
                    )
        live = self.graph.unconvicted()
        coded_obs = self._round(g, TAG_CODED, {p: coded[p] for p in live})
        received_obs = self._round(g, TAG_RECEIVED, {p: received[p] for p in live})
        claims = {p: Claims(flags.get(p), coded_obs[p], received_obs[p]) for p in live}
        result = run_diagnosis(
            self.params, self.graph, p_match, plan.sends(), claims,
            p_match if alg1 else range(1, cfg.n + 1),
            cfg.n - cfg.t if alg1 else cfg.q,
            count_convicted=not alg1, verdicts=verdicts,
        )
        self._graph_events(g, result.events)
        if result.decide_ids:
            self._emit({"type": "DECIDE_SET", "g": g, "members": result.decide_ids})
            self.p_match = result.decide_ids
            values = dict.fromkeys(self.fault_free, result.decide_value)
            return self._settle(g, OUTCOME_DIAGNOSED, values, result.decide_ids)
        if alg1:
            return self._terminate(g), 0
        return self._settle(g, OUTCOME_DEFAULT)

    def _terminate(self, g: int) -> int:
        """alg1 stops at `g`, settling the generations left; outputs are zeros.
        Only a step of one lane has written lines when it stops."""
        self.transcript.events += [*self._lines[0], {"type": OUTCOME_TERMINATED, "g": g}]
        self.outcomes += (
            {"g": h, "kind": OUTCOME_TERMINATED, "value": None, "decide_set": []}
            for h in range(g, self.config.generations + 1)
        )
        return self.config.generations + 1 - g

    def _settle(
        self, g: int, kind: str, values: dict[int, bytes] | None = None,
        decide_set: Sequence[int] = (),
    ) -> tuple[int, int]:
        """Settle each generation of the step: store each fault-free processor's
        block, its lane of `values` (zeros when None), and move the lane's lines
        into the transcript, then the outcome, whose event maps them if they differ."""
        width = len(self._lines)
        if values is None:
            values = dict.fromkeys(self.fault_free, bytes(self.config.block_bytes * width))
        for j, lines in enumerate(self._lines):
            lane = {p: v[j::width] for p, v in values.items()} if width > 1 else values
            for p in self.fault_free:
                self.decided[p].append(lane[p])
            value = lane[self.fault_free[0]].hex()
            outcome = {"g": g + j, "kind": kind, "value": value, "decide_set": [*decide_set]}
            self.outcomes.append(outcome)
            lines.append({"type": "DECIDED", **outcome})
            if len({lane[p] for p in self.fault_free}) > 1:
                lines[-1]["values"] = {str(p): lane[p].hex() for p in self.fault_free}
            self.transcript.events += lines
        return width, 0

    # ----------------------------------------------------------- driver

    def run(self) -> ExecutionResult:
        cfg = self.config
        inputs, input_values = _distinct_values(cfg.inputs)
        self.transcript.events.append({
            "type": "header",
            "config": {**cfg.to_jsonable(), "inputs": inputs},
            "input_values": input_values,
            "script": self.script.to_jsonable(),
            "original_l_bits": cfg.l_bits,
            "padded_bits": cfg.generations * cfg.d_bits,
            "padding": "zero-fill-tail",
            "generations": cfg.generations,
        })
        # a step per stretch of quiet generations, half as wide after one that
        # finds a generation not uniform among `bad` from g but cannot name it
        g, bad = 1, 0
        while g <= cfg.generations:
            quiet = self.script.quiet_until(g, cfg.generations) - g + 1
            width = min(quiet, bad // 2) if bad else quiet
            done, cut = self._stretch(g, max(width, 1), quiet > 0)
            g, bad = g + done, cut or max(bad - done, 0)
        # only alg1 terminates, and then every output is the all-zero default
        terminated = any(o["kind"] == OUTCOME_TERMINATED for o in self.outcomes)
        outputs = {
            p: bytes(cfg.padded_bytes) if terminated else b"".join(self.decided[p])
            for p in self.fault_free
        }
        violations = judge(cfg, self.script.faulty, self.transcript.events, outputs)
        ledger = CostLedger(cfg, self.transcript.events)
        verdict = "PASS" if not violations else "VERDICT_FAIL"
        holders = sorted(outputs)
        indices, output_values = _distinct_values(outputs[p] for p in holders)
        self.transcript.events.append({
            "type": "VERDICT",
            "verdict": verdict,
            "violations": list(violations),
            "outputs": dict(zip(map(str, holders), indices)),
            "output_sha256": [sha256(v).hexdigest() for v in output_values],
            "diagnosis_count": self.diagnosis_count,
            "ledger": ledger.totals(),
            "graph": self.graph.to_jsonable(),
        })
        return ExecutionResult(
            config=cfg,
            verdict=verdict,
            violations=violations,
            outputs=outputs,
            outcomes=self.outcomes,
            diagnosis_count=self.diagnosis_count,
            ledger=ledger,
            transcript=self.transcript,
            graph=self.graph,
        )


def _distinct_values(values: Iterable[Any]) -> tuple[list[int], list[Any]]:
    """Each value as an index into the distinct values, in first-seen order:
    the transcript writes a value held by many processors once."""
    table: dict[Any, int] = {}
    return [table.setdefault(v, len(table)) for v in values], list(table)


_code_params = lru_cache(maxsize=256)(CodeParams)  # one per step width


@lru_cache(maxsize=64)
def _spread(runs: tuple[Run, ...], width: int) -> tuple[Run, ...]:
    """`runs` with each record prefix byte repeated over `width` lanes."""
    top = max((max(s, k, *rs) for s, k, rs, _ in runs), default=0)
    lane = [bytes((v,)) * width for v in range(top + 1)]
    return tuple((s, k, rs, tuple(lane[s] + lane[r] + lane[k] for r in rs))
                 for s, k, rs, _ in runs)


def _lanes(symbol: bytes, a: int, b: int, width: int) -> bytes:
    """Lanes a..b-1 of a symbol `width` lanes wide, as a symbol b-a lanes wide."""
    if b - a == 1:
        return symbol[a::width]
    return b"".join(symbol[r + a : r + b] for r in range(0, len(symbol), width))


def _word_bits(word: list[bytes | None]) -> int:
    """Broadcast size of a word: one presence bit per slot plus the present bytes."""
    return len(word) + 8 * sum(len(v) for v in word if v is not None)


def run_execution(config: ExecutionConfig, script: AdversaryScript) -> ExecutionResult:
    return Execution(config, script).run()


# ------------------------------------------------------------ complexity


@dataclass
class ComplexityReport:
    data_bits: int
    data_formula_bits: int
    overhead_bits: int
    alg2_symbols_per_generation: dict[int, int]
    alg2_symbol_bound: int | None

    @property
    def data_matches_formula(self) -> bool:
        return self.data_bits == self.data_formula_bits

    @property
    def alg2_within_bound(self) -> bool:
        if self.alg2_symbol_bound is None:
            return True
        return all(
            v <= self.alg2_symbol_bound
            for v in self.alg2_symbols_per_generation.values()
        )

    def to_jsonable(self) -> dict:
        return {
            "data_bits": self.data_bits,
            "data_formula_bits": self.data_formula_bits,
            "data_matches_formula": self.data_matches_formula,
            "overhead_bits": self.overhead_bits,
            "alg2_symbols_per_generation": {
                str(g): v for g, v in self.alg2_symbols_per_generation.items()
            },
            "alg2_symbol_bound": self.alg2_symbol_bound,
            "alg2_within_bound": self.alg2_within_bound,
        }


def check_complexity(result: ExecutionResult) -> ComplexityReport:
    """Ledger readback against the closed-form traffic identities."""
    cfg = result.config
    padded_l = cfg.generations * cfg.d_bits
    if cfg.algorithm == ALG1:
        formula = cfg.n * (cfg.n - 1) * padded_l // (cfg.n - cfg.t)
        bound = None
        per_gen: dict[int, int] = {}
    else:
        formula = (2 * cfg.n - cfg.q) * (cfg.n - 1) * padded_l // cfg.q
        bound = (2 * cfg.n - cfg.q) * (cfg.n - 1)
        per_gen = result.ledger.per_generation("p2p_symbols")
    return ComplexityReport(
        data_bits=result.ledger.total("p2p_bits"),
        data_formula_bits=formula,
        overhead_bits=result.ledger.total("bcast_charged_bits"),
        alg2_symbols_per_generation=per_gen,
        alg2_symbol_bound=bound,
    )


# ---------------------------------------------------------- random cases


def random_inputs(
    rng: random.Random, n: int, l_bits: int, sharers: Sequence[int] | None = None
) -> tuple[str, ...]:
    """Random per-processor inputs; `sharers` all get the first value.

    With sharers=None every processor gets the same value.
    """
    size = l_bits // 8
    shared = rng.randbytes(size)
    out = []
    for p in range(1, n + 1):
        if sharers is None or p in sharers:
            out.append(shared.hex())
        else:
            out.append(rng.randbytes(size).hex())
    return tuple(out)


def random_script(
    config: ExecutionConfig, seed: int, faulty: Sequence[int] | None = None
) -> AdversaryScript:
    """A script drawn from the closed action grammar, up to t faulty.

    With faulty=None the corrupt set is sampled as well; pass an explicit
    set to randomize only the behaviour.
    """
    rng = random.Random(seed)
    n, t = config.n, config.t
    if faulty is None:
        count = rng.randint(1, t) if t else 0
        faulty = sorted(rng.sample(range(1, n + 1), count))
    else:
        faulty = sorted(faulty)
    script = AdversaryScript(faulty)
    sym = config.sym_bytes
    tags = [TAG_DETECTED, TAG_CODED, TAG_RECEIVED]
    if config.algorithm == ALG2:
        tags.append(TAG_MATCH_BITS)
    for s in faulty:
        for g in range(1, config.generations + 1):
            if rng.random() < 0.45:
                for _ in range(rng.randint(1, 2)):
                    receiver = rng.choice([p for p in range(1, n + 1) if p != s])
                    kind = rng.choice((SEND_SILENT, SEND_CORRUPT, SEND_REPLACE))
                    data = None
                    if kind == SEND_CORRUPT:
                        data = bytes([rng.randint(1, 255)]) + rng.randbytes(sym - 1)
                    elif kind == SEND_REPLACE:
                        data = rng.randbytes(sym)
                    script.add_send(g, rng.choice(_STEPS), s, receiver, kind, data)
            if rng.random() < 0.30:
                tag = rng.choice(tags)
                if rng.random() < 0.35:
                    script.add_broadcast(g, tag, s, BCAST_SILENT)
                elif tag == TAG_DETECTED:
                    script.add_broadcast(
                        g, tag, s, BCAST_REPLACE, bool(rng.getrandbits(1))
                    )
                elif tag == TAG_MATCH_BITS:
                    script.add_broadcast(
                        g, tag, s, BCAST_REPLACE,
                        [bool(rng.getrandbits(1)) for _ in range(n)],
                    )
                else:
                    slots = [
                        None if rng.random() < 0.2 else rng.randbytes(sym).hex()
                        for _ in range(n)
                    ]
                    script.add_broadcast(g, tag, s, BCAST_REPLACE, slots)
    return script


# ---------------------------------------------------------------- replay


def serialize_case(config: ExecutionConfig, script: AdversaryScript) -> str:
    return json.dumps(
        {"config": config.to_jsonable(), "script": script.to_jsonable()},
        sort_keys=True,
        indent=2,
    )


def load_case(text: str) -> tuple[ExecutionConfig, AdversaryScript]:
    data = require_known_keys("case", json.loads(text), ("config", "script"))
    return (
        ExecutionConfig.from_jsonable(data["config"]),
        AdversaryScript.from_jsonable(data["script"]),
    )


def replay_identical(
    config: ExecutionConfig, script: AdversaryScript
) -> tuple[str, bool]:
    """Run, serialize, reload, re-run: the first run's verdict, and whether
    the two transcripts are byte-identical."""
    first = run_execution(config, script)
    config2, script2 = load_case(serialize_case(config, script))
    second = run_execution(config2, script2).transcript.to_jsonl()
    return first.verdict, first.transcript.to_jsonl() == second
