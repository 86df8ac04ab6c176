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
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache
from hashlib import sha256
from itertools import groupby
from typing import Any, Iterable, Iterator, Sequence

from .check import judge, span
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
    code_dimension,
    detection_flag,
    flag_key,
    generation_symbols,
    matching_obligations,
    reconstruction_sources,
    run_diagnosis,
    wave_run,
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

# plans, least recently used first: a budget on their sends keeps every state of a
# small-n sweep yet caps n=255 (up to about 86k sends a plan) at three plans; the
# cache's `held` attribute is the running total of their sends
_PLANS: OrderedDict[tuple, MatchingPlan] = OrderedDict()
_PLAN_BUDGET = 1 << 18


def _matching_plan(graph: TrustGraph, p_match: Sequence[int] | None = None) -> MatchingPlan:
    """The plan of `p_match` on `graph`, or with None the plan of its own wave
    alone, held under its state (n, removed edges), which alone fixes that wave;
    a match set's plan is derived on its first request with that held own wave."""
    state = (graph.n, graph.removed)
    key = state if p_match is None else (*state, tuple(p_match))
    plan = _PLANS.get(key)
    if plan is not None:
        _PLANS.move_to_end(key)
        return plan
    own = None if p_match is None else _matching_plan(graph).own
    plan = _PLANS[key] = matching_obligations(graph, p_match, own)
    # the plan just derived stays even when it alone exceeds the budget; a
    # cache that was never filled here has no total yet, and holds nothing else
    held = getattr(_PLANS, "held", 0) + plan.size
    while held > _PLAN_BUDGET and len(_PLANS) > 1:
        held -= _PLANS.popitem(last=False)[1].size
    _PLANS.held = held
    return plan


def _generation_words(
    params: CodeParams, inputs: Sequence[bytes], generations: int
) -> list[list[bytes]]:
    """The n wide slots of each padded input's G generations, from one
    `encode` of them all side by side: byte b of data symbol j in generation
    g is lane b*G + g-1 of the input's wide symbol j, so slot j of
    generation g is `words[i][j-1][g-1::G]` for input i.
    """
    k, s, size = params.k, params.sym_bytes, params.sym_bytes * generations
    data = b"".join(p[j * s + b :: k * s] for j in range(k) for p in inputs for b in range(s))
    words = encode(CodeParams(params.n, k, size * len(inputs)), data)
    return [[w[i * size : (i + 1) * size] for w in words] for i in range(len(inputs))]


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
    # each distinct input once, decoded and zero-padded, in the order of its
    # lowest holder; and processor p's index into it at position p-1: the
    # engine encodes, the header writes and the judge slices inputs by index
    distinct: tuple[bytes, ...] = field(init=False, repr=False, compare=False)
    index: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        elif self.q is not None:
            raise ConfigurationError(f"alg1 takes no q, got q={self.q}")
        if self.l_bits < 1 or self.l_bits % 8:
            raise ConfigurationError("l_bits must be a positive multiple of 8")
        unit = 8 * self.k
        if self.d_bits < unit or self.d_bits % unit:
            raise ConfigurationError(
                f"d_bits must be a positive multiple of {unit} (8 x code dimension)"
            )
        if len(self.inputs) != self.n:
            raise ConfigurationError(f"need {self.n} inputs, got {len(self.inputs)}")
        want, table, index = self.l_bits // 8, {}, []
        for i, value in enumerate(self.inputs, start=1):
            try:
                raw = bytes.fromhex(value)
            except ValueError as exc:
                raise ConfigurationError(f"input {i} is not valid hex") from exc
            if len(raw) != want:
                raise ConfigurationError(
                    f"input {i} must be exactly {want} bytes of hex"
                )
            index.append(table.setdefault(raw, len(table)))
        # one spelling per value (lowercase hex), one string object per value
        hexes = [raw.hex() for raw in table]
        object.__setattr__(self, "inputs", tuple(hexes[x] for x in index))
        object.__setattr__(self, "distinct", tuple(
            raw.ljust(self.padded_bytes, b"\x00") for raw in table))
        object.__setattr__(self, "index", tuple(index))
        if self.broadcast_coefficient < 1:
            raise ConfigurationError("broadcast coefficient must be >= 1")

    @property
    def k(self) -> int:
        return code_dimension(self.n, self.t, self.q)

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

    def input_block(self, i: int, g: int) -> bytes:
        size = self.block_bytes
        return self.distinct[self.index[i - 1]][(g - 1) * size : g * size]

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
        self._named: set[int] = set()  # the generations a rule but a claim names

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
        if tag in (TAG_DETECTED, TAG_MATCH_BITS):  # claims are asked only in a diagnosis
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
        """The end of the quiet generations g..h, h <= last, that no rule names
        but a claim rule, which only a diagnosis asks: g - 1 if one names g. A
        step over them asks `broadcast` once, keyed by g, and a wide one asks no `send`;
        none is quiet to a subclass that answers `send` or `broadcast` itself."""
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
    """Bit and symbol counts per (generations, stage), summed from the
    traffic events of a finished run: nothing is charged during it.

    Each `WAVE` is `count` matching-stage symbols of 8 x sym_bytes bits
    and each faulty `SYMBOL_SENT` one. Each `ROUND` and `BROADCAST`
    charges its `payload_bits` x `broadcast_coefficient` x n^2 transport
    bits to the stage of its tag, the scale at which bit-by-bit
    error-free broadcast constructions run; every round opens its cell,
    at zero bits if all its senders were silent. A line of a range of
    generations charges each of them, in one cell per range. So any
    transcript, read back from its text, sums to its `VERDICT` totals.
    """

    FIELDS = ("p2p_symbols", "p2p_bits", "bcast_payload_bits", "bcast_charged_bits")

    def __init__(self, config: ExecutionConfig, events: Iterable[dict]) -> None:
        # [symbols, payload bits] per (first generation, last, stage)
        counts: dict[tuple[int, int, str], list[int]] = {}
        for event in events:
            kind = event["type"]
            if kind == "ROUND" or kind == "BROADCAST":
                stage, i, add = _STAGE_OF_TAG[event["tag"]], 1, event["payload_bits"]
            elif kind == "WAVE" or kind == "SYMBOL_SENT":
                stage, i, add = "matching", 0, event.get("count", 1)
            else:
                continue
            counts.setdefault((*span(event["g"]), stage), [0, 0])[i] += add
        symbol_bits = 8 * config.sym_bytes
        scale = config.broadcast_coefficient * config.n * config.n
        # each cell holds FIELDS in order, per generation of its range; both
        # bit fields scale its counts
        self._cells = {key: (sent, sent * symbol_bits, bits, bits * scale)
                       for key, (sent, bits) in counts.items()}
        # each field summed once, column by column, from a row of zeros on
        weighted = [[c * (b - a + 1) for c in cell] for (a, b, _), cell in self._cells.items()]
        self._totals = dict(zip(self.FIELDS, map(sum, zip((0,) * 4, *weighted))))

    def total(self, fieldname: str) -> int:
        return self._totals[fieldname]

    def totals(self) -> dict[str, int]:
        return dict(self._totals)

    def per_generation(self, fieldname: str) -> dict[int, int]:
        i = self.FIELDS.index(fieldname)
        out: dict[int, int] = {}
        for (a, b, _), cell in sorted(self._cells.items()):
            for g in range(a, b + 1):
                out[g] = out.get(g, 0) + cell[i]
        return out

    def to_jsonable(self) -> dict:
        """Each cell keyed `g:stage`, or `a-b:stage` for a range."""
        return {
            f"{a}{'' if a == b else f'-{b}'}:{stage}": dict(zip(self.FIELDS, cell))
            for (a, b, stage), cell in sorted(self._cells.items())
        }


# ------------------------------------------------------------ transcript


# one stateless encoder for every event, built once: json.dumps and
# JSONEncoder.encode build one per call; both forms take (event, 0) and
# return the line's chunks
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_encode_line = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _JSONL_ENCODER.default, json.encoder.encode_basestring_ascii,
    None, ":", ",", True, False, True,
) or _JSONL_ENCODER.iterencode


class Transcript:
    """Ordered event log with a canonical byte serialization."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def lines(self) -> Iterator[str]:
        """Each event as one line of JSON with sorted keys and no spaces."""
        for e in self.events:
            if e["type"] != "header":
                yield "".join(_encode_line(e, 0)) + "\n"
                continue
            hexes = ",".join(f'"{v}"' for v in e["input_values"])  # hex needs no escaping
            yield "".join(_encode_line({**e, "input_values": []}, 0)).replace(
                '"input_values":[]', f'"input_values":[{hexes}]', 1) + "\n"

    def of_type(self, event_type: str) -> list[dict]:
        return [e for e in self.events if e["type"] == event_type]


# ---------------------------------------------------------------- engine


class Execution:
    """One deterministic run of one protocol against one script. `run()`
    returns the execution itself, with the judge's `verdict` and
    `violations`, the fault-free `outputs` and the `ledger` set."""

    def __init__(self, config: ExecutionConfig, script: AdversaryScript):
        script.validate_shapes(config)
        self.config = config
        self.script = script
        self.params = config.code_params()
        self.graph = TrustGraph(config.n, config.t)
        self.transcript = Transcript()
        self.diagnosis_count = 0
        self.fault_free = [
            p for p in range(1, config.n + 1) if p not in script.faulty
        ]
        # per fault-free processor, the bytes decided so far, one piece a settle
        self.decided: dict[int, list[bytes]] = {p: [] for p in self.fault_free}
        self.p_match = list(range(1, config.n + 1))  # alg1's carried match set
        # the step's lines, written once for its `_width` generations, and per
        # `WAVE` line its records in each; then each settled block of generations
        # a..b alike as [a, b, lines, records per `WAVE` line], written at the end
        self._lines: list[dict] = []
        self._waves: list[list[bytes]] = []
        self._width = 1
        self._blocks: list[list] = []
        # one encode of every distinct input for the whole run, in index order
        self._wide = _generation_words(self.params, config.distinct, config.generations)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    @property
    def outcomes(self) -> list[dict]:
        """Each generation's outcome, read from the written `DECIDED` and
        `TERMINATED_DEFAULT` lines."""
        out: list[dict] = []
        for e in self.transcript.events:
            if e["type"] == "DECIDED" or e["type"] == OUTCOME_TERMINATED:
                a, b = span(e["g"])
                b = b if e["type"] == "DECIDED" else self.config.generations
                out += ({"g": g, "kind": e.get("kind", OUTCOME_TERMINATED),
                         "decide_set": e.get("decide_set", [])} for g in range(a, b + 1))
        return out

    # ------------------------------------------------------- primitives

    def _send_wave(
        self, g: int, step: str, runs: tuple[Run, ...],
        coded: dict[int, list], received: dict[int, list],
        suppressed: frozenset[int] | set[int] = frozenset(),
    ) -> None:
        """Deliver one wave of a plan, run by run; `suppressed` senders
        stay silent.

        A faulty sender's run in a wave one lane wide asks the script's `send` once per
        receiver; each symbol must be sym_bytes long. An honest sender's run, or a
        faulty one's in a wider wave, which is quiet, reads its slot once and stores it
        into every receiver's word. Every symbol equal to its sender's slot, from a
        sender not suppressed, is recorded in one `WAVE` line after the rest: their
        count, and per generation the records of its runs in plan order,
        `bytes((sender, slot, m, *receivers)) + value` over the m receivers that got the
        slot, which the run hashes; a header byte fills every lane, so lane j is
        generation g+j's. Any other faulty symbol is its own `SYMBOL_SENT` line.
        """
        script, sym, width = self.script, self.params.sym_bytes, self._width
        faulty = () if width > 1 else script.faulty  # a wide wave is quiet
        records: list[bytes] = []
        honest_sent = 0
        if width > 1:
            runs = _spread(runs, width)
        for sender, slot, receivers, header in runs:
            honest = coded[sender][slot - 1]
            if sender in faulty:
                skip, got = sender in suppressed, []
                for receiver in receivers:
                    value = script.send(g, step, sender, receiver, honest, skip)
                    if value is None:
                        continue
                    if len(value) != sym:
                        raise ParameterError(
                            f"macro-symbol must be {sym} bytes, got {len(value)}"
                        )
                    received[receiver][slot - 1] = value
                    if value == honest and not skip:
                        got.append(receiver)
                        continue
                    self._lines.append({
                        "type": "SYMBOL_SENT", "step": step, "sender": sender,
                        "receiver": receiver, "slot": slot, "value": value.hex(),
                    })
                if got:  # unspread: a step that asks `send` is one generation wide
                    records += (wave_run(sender, slot, got)[3], honest)
                    honest_sent += len(got)
            elif sender not in suppressed:
                for receiver in receivers:
                    received[receiver][slot - 1] = honest
                records += (header, honest)
                honest_sent += len(receivers)
        if honest_sent:
            data = b"".join(records)
            self._lines.append({"type": "WAVE", "step": step, "count": honest_sent})
            self._waves.append([data[j::width] for j in range(width)])

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

        It is a `ROUND` line. A `detected` round's `payload` has
        character j-1 `0` or `1` for processor j's flag, `-` when j sent
        none; a `match_bits` round's `payload` holds each vector as a
        hex mask (bit j-1 for slot j), null when none was sent, or is the
        one mask that every processor sent. A claim
        (`coded`, `received`) equal to its sender's word joins the round's
        `count` and `sha256`, the SHA-256 of one record per claim in sender
        order: the sender's id byte, then per slot 01 and its bytes, or
        1 + sym_bytes zero bytes for an empty slot. Any other claim is
        its own `BROADCAST` line, written before the round's line.
        """
        script, n = self.script, self.config.n
        observed = dict(honest)
        for p in sorted(script.faulty.intersection(honest)):
            observed[p] = script.broadcast(g, tag, p, honest[p])
        line = {"type": "ROUND", "tag": tag}
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
            if len(sent) == n and len(set(masks)) == 1:
                masks = masks[0]
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
                self._lines.append({
                    "type": "BROADCAST", "tag": tag, "sender": p,
                    "payload": None if claim is None else word_hex(claim),
                    "payload_bits": 0 if claim is None else size,
                })
            line.update(
                count=count, payload_bits=bits,
                sha256=sha256(b"".join(records)).hexdigest(),
            )
        self._lines.append(line)
        return observed

    def _graph_events(self, tagged: list[tuple[str, tuple]]) -> None:
        """A `CONVICTED` or `EDGE_REMOVED` line per event, in order."""
        for rule, event in tagged:
            if event[0] == "edge":
                self._lines.append({
                    "type": "EDGE_REMOVED", "i": event[1], "j": event[2], "rule": rule
                })
            else:
                self._lines.append({"type": "CONVICTED", "processor": event[1], "rule": rule})

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

    def _fresh_state(
        self, g: int, width: int = 1
    ) -> tuple[dict[int, list], dict[int, list]]:
        """Coded words of generations g..g+width-1, byte b of g+j at lane
        b*width + j (the run's own symbols at full width), cut once per
        distinct input and copied for each processor, and received words
        holding each own slot."""
        n, gens = self.config.n, self.config.generations
        cut = self._wide if width == gens else [[
            w[g - 1::gens] if width == 1 else _lanes(w, g - 1, g - 1 + width, gens)
            for w in words
        ] for words in self._wide]
        coded, received = {}, {}
        for i, x in enumerate(self.config.index, start=1):
            coded[i] = list(cut[x])
            received[i] = [None] * n
            received[i][i - 1] = coded[i][i - 1]
        return coded, received

    # ------------------------------------------------------- generations

    def _stretch(self, g: int, width: int) -> tuple[int, int]:
        """Generations g..g+width-1 at one graph state, byte b of g+j at lane
        b*width + j of every word, where every codec call and check acts
        lane by lane. Returns the generations settled and how many after
        them hold one that is not uniform (0: none known). A range of two or
        more lanes settles only uniform ones (alg1: every flag FALSE; alg2: no
        match set or every flag FALSE, a lane with match vectors of its own
        going on alone from the match-bit round); one lane diagnoses in place.

        Each generation matches, checks, then decodes with every flag FALSE
        or diagnoses everyone's claims, at threshold k (n-t or q). alg1
        carries its match set (the last decide set, less the convicted),
        terminates below k and decides among it. alg2 broadcasts match
        bits over the own wave alone, takes the smallest q-clique or
        defaults, convicts silent match vectors before diagnosis and
        decides among everyone, counting convicted claims.
        An empty decide set terminates alg1 and defaults alg2.
        """
        cfg = self.config
        self.params = _code_params(cfg.n, cfg.k, cfg.sym_bytes * width)
        self._lines, self._waves, self._width = [], [], width
        coded, received = self._fresh_state(g, width)
        if cfg.algorithm == ALG1:
            # patched runs only: the carried decide set holds no convicted processor
            p_match = [p for p in self.p_match if p not in self.graph.convicted]
            if len(p_match) < cfg.k:
                return self._terminate(g), 0
            plan = _matching_plan(self.graph, p_match)
            self._send_wave(g, STEP_OWN, plan.own, coded, received)
            return self._check(g, p_match, plan, coded, received, {})
        self._send_wave(g, STEP_OWN, _matching_plan(self.graph).own, coded, received)
        candidates = self.graph.unconvicted()
        vectors = {p: compute_match_bits(received[p], coded[p]) for p in candidates}
        # lanes a..b-1 of the same vectors go on together, each range with its
        # own copy of the waves' lines, and only a match set needs their own
        # words, cut out of the step's
        runs = [[vectors]] if width == 1 else [list(run) for _, run in groupby(
            _lane_vectors(vectors, received, coded, cfg.sym_bytes, width), id)]
        a, lines, waves, episodes = 0, self._lines, self._waves, self.diagnosis_count
        for run in runs:
            b = a + len(run)
            if b - a < width:
                self._lines = [dict(line) for line in lines]
                self._waves, self._width = [d[a:b] for d in waves], b - a
                self.params = _code_params(cfg.n, cfg.k, cfg.sym_bytes * (b - a))
            vectors = self._round(g + a, TAG_MATCH_BITS, run[0])
            p_match = find_match_set(vectors, candidates, cfg.q)
            self._lines.append({"type": "MATCH_SET", "members": p_match})
            if p_match is None:
                self._settle(g + a, OUTCOME_DEFAULT)
            elif cut := self._check(g + a, p_match, _matching_plan(self.graph, p_match), *(
                (coded, received) if b - a == width else (
                    {p: [v and _lanes(v, a, b, width) for v in word] for p, word in words.items()}
                    for words in (coded, received))
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
        """From the match set: the helper wave, non-member reconstruction and
        the re-send wave, flags, then decode or diagnose."""
        cfg = self.config
        alg1 = cfg.algorithm == ALG1
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
        # this step's codeword verdicts, flags and accepted blocks, each
        # computed once per distinct word and shared by all that hold it; a
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
        if self._width > 1 and any(live.values()):
            return 0, self._width
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
                    events = self.graph.convict(p)
                    self._graph_events([(RULE_SILENT_MATCH_VECTOR, ev) for ev in events])
        live = self.graph.unconvicted()
        coded_obs = self._round(g, TAG_CODED, {p: coded[p] for p in live})
        received_obs = self._round(g, TAG_RECEIVED, {p: received[p] for p in live})
        claims = {p: Claims(flags.get(p), coded_obs[p], received_obs[p]) for p in live}
        result = run_diagnosis(
            self.params, self.graph, p_match, plan.sends(), claims,
            p_match if alg1 else range(1, cfg.n + 1),
            cfg.k, count_convicted=not alg1, verdicts=verdicts,
        )
        self._graph_events(result.events)
        if result.decide_ids:
            self._lines.append({"type": "DECIDE_SET", "members": result.decide_ids})
            self.p_match = result.decide_ids
            values = dict.fromkeys(self.fault_free, result.decide_value)
            return self._settle(g, OUTCOME_DIAGNOSED, values, result.decide_ids)
        if alg1:
            return self._terminate(g), 0
        return self._settle(g, OUTCOME_DEFAULT)

    def _terminate(self, g: int) -> int:
        """alg1 stops at `g`, settling the generations left; outputs are zeros,
        so no processor keeps a piece. Only a step of one lane has written lines."""
        self.decided = dict.fromkeys(self.fault_free, ())
        self._blocks.append([g, g, [*self._lines, {"type": OUTCOME_TERMINATED}], self._waves])
        return self.config.generations + 1 - g

    def _settle(
        self, g: int, kind: str, values: dict[int, bytes] | None = None,
        decide_set: Sequence[int] = (),
    ) -> tuple[int, int]:
        """Settle the step's generations g..g+width-1: store each fault-free
        processor's blocks of `values` (zeros when None), and close the step's
        lines with a `DECIDED` line once per run of generations whose blocks
        are named alike; a run joins the block before when their lines are
        equal. A block is named by the index of the lowest input whose block
        it is, else written in hex, and the processors' blocks are mapped when
        they differ."""
        width = self._width
        if values is None:
            values = dict.fromkeys(self.fault_free, bytes(self.config.block_bytes * width))
        # each distinct value's blocks in generation order and names, once for all that hold it
        flat, decided, decide_set = {}, self.decided, [*decide_set]
        for p, v in values.items():
            if v not in flat:
                flat[v] = self._names(g, v, width)
            decided[p].append(flat[v][0])
        # each run of generations whose blocks are named alike, its names by value
        # and length: it writes the step's lines once, a later run copies of them,
        # as a block is written in place
        if width == 1:
            runs, copies = [({v: f[1][0] for v, f in flat.items()}, 1)], [self._lines]
        else:
            names = zip(*(f[1] for f in flat.values()))
            runs = [(dict(zip(flat, key)), len([*lanes])) for key, lanes in groupby(names)]
            copies = [self._lines] + [[dict(e) for e in self._lines] for _ in runs[1:]]
        first, a, blocks = values[self.fault_free[0]], g, self._blocks
        for lines, (named, lanes) in zip(copies, runs):
            line = {"type": "DECIDED", "kind": kind, "value": named[first],
                    "decide_set": decide_set}
            if len(named) > 1 and len(set(named.values())) > 1:
                line["values"] = {str(p): named[v] for p, v in values.items()}
            lines.append(line)
            b = a + lanes - 1
            waves = self._waves if lanes == width else [d[a - g : b + 1 - g] for d in self._waves]
            if blocks and blocks[-1][2] == lines:  # alike: the block before goes on to b
                blocks[-1][1] = b
                for records, more in zip(blocks[-1][3], waves):
                    records += more
            else:
                blocks.append([a, b, lines, waves])
            a = b + 1
        return width, 0

    def _names(self, g: int, v: bytes, width: int) -> tuple[bytes, list[int | str]]:
        """Value `v` of generations g..g+width-1 as its blocks in generation order
        and the name of each: the index of the lowest distinct input whose block
        it is, else its hex (empty if undecodable). A wide `v` that is an input's
        k data slots in the step's lanes is its slice; another is transposed."""
        size, inputs = len(v) // width, self.config.distinct
        start, end = (g - 1) * size, (g - 1) * size + len(v)
        if width == 1:
            for i, padded in enumerate(inputs) if v else ():
                if padded[start:end] == v:
                    return v, [i]
            return v, [v.hex()]
        gens, zero = self.config.generations, v == bytes(len(v))  # zero: its own transposition
        # each distinct input's k data slots in the step's lanes, laid out as `v` is
        data = (b"".join(w if width == gens else _lanes(w, g - 1, g - 1 + width, gens)
                         for w in words[: self.params.k]) for words in self._wide)
        whole = None if zero else next((i for i, d in enumerate(data) if d == v), None)
        if whole is not None:
            flat, names = inputs[whole][start:end], [whole] * width
        else:
            flat = v if zero else b"".join(v[j::width] for j in range(width))
            names = [flat[j * size : (j + 1) * size].hex() for j in range(width)]
        # a lower input names each block it shares, the lowest last
        for i in reversed(range(len(inputs) if whole is None else whole) if flat else ()):
            for j in _equal_blocks(inputs[i][start:end], flat, size):
                names[j] = i
        return flat, names

    # ----------------------------------------------------------- driver

    def run(self) -> Execution:
        cfg = self.config
        self.transcript.events.append({
            "type": "header",
            "config": {**cfg.to_jsonable(), "inputs": list(cfg.index)},
            "input_values": [*dict.fromkeys(cfg.inputs)],
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
            done, cut = self._stretch(g, max(width, 1))
            g, bad = g + done, cut or max(bad - done, 0)
        # each block's lines with `g` its generation or range [a, b], and a
        # `WAVE` line's `sha256` the SHA-256 of its generations' records in order
        for a, b, lines, waves in self._blocks:
            g, records = a if a == b else [a, b], iter(waves)
            for line in lines:
                line["g"] = g
                if line["type"] == "WAVE":
                    line["sha256"] = sha256(b"".join(next(records))).hexdigest()
            self.transcript.events += lines
        # each distinct list of pieces joined once; none, all zero, if alg1 terminated
        indices, pieces = _distinct_values(tuple(self.decided[p]) for p in self.fault_free)
        joined = [b"".join(v) if v else bytes(cfg.padded_bytes) for v in pieces]
        self.outputs = outputs = {p: joined[i] for p, i in zip(self.fault_free, indices)}
        self.violations = judge(cfg, self.script.faulty, self.transcript.events, outputs)
        self.ledger = CostLedger(cfg, self.transcript.events)
        self.verdict = "PASS" if not self.violations else "VERDICT_FAIL"
        indices, output_values = _distinct_values(outputs.values())
        self.transcript.events.append({
            "type": "VERDICT",
            "verdict": self.verdict,
            "violations": list(self.violations),
            "outputs": dict(zip(map(str, outputs), indices)),
            "output_sha256": [sha256(v).hexdigest() for v in output_values],
            "diagnosis_count": self.diagnosis_count,
            "ledger": self.ledger.totals(),
            "graph": {
                "convicted": sorted(self.graph.convicted),
                "edges_removed": len(self.graph.removed),
            },
        })
        return self


def _distinct_values(values: Iterable[Any]) -> tuple[list[int], list[Any]]:
    """Each value as an index into the distinct values, in first-seen order:
    the transcript writes a value held by many processors once."""
    table: dict[Any, int] = {}
    return [table.setdefault(v, len(table)) for v in values], list(table)


_code_params = lru_cache(maxsize=256)(CodeParams)  # one per step width


@lru_cache(maxsize=64)
def _spread(runs: tuple[Run, ...], width: int) -> tuple[Run, ...]:
    """`runs` with each record header byte repeated over `width` lanes."""
    return tuple((s, k, rs, b"".join(bytes((v,)) * width for v in header))
                 for s, k, rs, header in runs)


def _lane_vectors(
    vectors: dict[int, int], received: dict, coded: dict, rows: int, width: int
) -> list[dict[int, int]]:
    """Each lane's match vectors on words of `rows` rows of `width` >= 2 lanes:
    the wide `vectors`, or a copy where an unset bit of two present slots has byte
    j of its XOR zero in every row. Per processor, its received word, read once
    per distinct word, is XORed with its coded word slot for slot; with each
    slot's rows OR-folded into its last, and the other rows, the set bits and
    the absent slots masked, each zero byte names a (slot, lane) by its position."""
    lanes, size = [vectors] * width, rows * width
    words: dict[tuple, tuple[int, int]] = {}  # a received word's int and absent slots
    for p, bits in vectors.items():
        own = coded[p]
        if bits.bit_count() == len(own):  # every slot matched: nothing to name
            continue
        got = tuple(received[p])
        if got not in words:
            words[got] = _word_int(got, size)
        (x, absent), (y, missing) = words[got], _word_int(own, size)
        x ^= y
        for _ in range(rows - 1):
            x |= x >> 8 * width
        mask = _slot_mask(bits | absent | missing, len(own), rows, width)
        row, j = (x | mask).to_bytes(len(own) * size, "big"), -1
        while (j := row.find(0, j + 1)) >= 0:
            lane = j % width
            lanes[lane] = dict(vectors) if lanes[lane] is vectors else lanes[lane]
            lanes[lane][p] |= 1 << j // size
    return lanes


def _word_int(word: Sequence[bytes | None], size: int) -> tuple[int, int]:
    """A word's slots as one big-endian int, an absent slot as zeros, and the
    mask of its absent slots."""
    if None not in word:
        return int.from_bytes(b"".join(word), "big"), 0
    zero = bytes(size)
    return (int.from_bytes(b"".join(zero if v is None else v for v in word), "big"),
            sum(1 << i for i, v in enumerate(word) if v is None))


@lru_cache(maxsize=256)
def _slot_mask(skip: int, n: int, rows: int, width: int) -> int:
    """0xff over n slots of `rows` rows of `width` lanes: every byte of the
    slots in `skip`, every row but the last of the others."""
    keep, whole = b"\xff" * (rows - 1) * width + bytes(width), b"\xff" * rows * width
    return int.from_bytes(b"".join(whole if skip >> i & 1 else keep for i in range(n)), "big")


def _equal_blocks(a: bytes, b: bytes, size: int) -> Iterator[int]:
    """The index of each `size`-byte block in which `a` and `b` agree: each
    aligned run of `size` zero bytes in their XOR."""
    x = (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
    zero, j = bytes(size), 0
    while (j := x.find(zero, j)) >= 0:
        if j % size:  # a run that starts inside a block: go on from the next
            j += size - j % size
            continue
        yield j // size
        j += size


def _lanes(symbol: bytes, a: int, b: int, width: int) -> bytes:
    """Lanes a..b-1 of a symbol `width` lanes wide, as a symbol b-a lanes wide."""
    if b - a == 1:
        return symbol[a::width]
    return b"".join(symbol[r + a : r + b] for r in range(0, len(symbol), width))


def _word_bits(word: list[bytes | None]) -> int:
    """Broadcast size of a word: one presence bit per slot plus the present bytes."""
    return len(word) + 8 * sum(len(v) for v in word if v is not None)


def run_execution(config: ExecutionConfig, script: AdversaryScript) -> Execution:
    return Execution(config, script).run()


# ------------------------------------------------------------ complexity


@dataclass
class ComplexityReport:
    data_bits: int
    data_formula_bits: int
    data_matches_formula: bool
    overhead_bits: int
    alg2_symbols_per_generation: dict[int, int]
    alg2_symbol_bound: int | None
    alg2_within_bound: bool

    def to_jsonable(self) -> dict:
        per_gen = {str(g): v for g, v in self.alg2_symbols_per_generation.items()}
        return {**asdict(self), "alg2_symbols_per_generation": per_gen}


def check_complexity(result: Execution) -> ComplexityReport:
    """Ledger readback against the closed-form traffic identities."""
    cfg = result.config
    symbols = generation_symbols(cfg.n, cfg.q)
    formula = symbols * cfg.generations * cfg.d_bits // cfg.k
    bound = None if cfg.q is None else symbols
    per_gen = {} if bound is None else result.ledger.per_generation("p2p_symbols")
    data_bits = result.ledger.total("p2p_bits")
    return ComplexityReport(
        data_bits=data_bits,
        data_formula_bits=formula,
        data_matches_formula=data_bits == formula,
        overhead_bits=result.ledger.total("bcast_charged_bits"),
        alg2_symbols_per_generation=per_gen,
        alg2_symbol_bound=bound,
        alg2_within_bound=all(v <= bound for v in per_gen.values()),
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
