"""The steps an engine takes, pinned to width 1 or recorded, and the
calls it makes.

The engine runs each stretch of quiet generations, those no script rule
names, as one step over words that hold one generation per byte lane.
Tests compare it against the engine pinned to width 1, where every step
is one generation and the script is asked about each.
"""

from codedbft import sim


def width_one(monkeypatch) -> None:
    """Make no generation quiet, so every step is one generation wide."""
    monkeypatch.setattr(sim.AdversaryScript, "quiet_until", lambda self, g, last: g - 1)


def recorded_steps(monkeypatch) -> list:
    """(g, width, settled, cut) of every step the engine takes, in the
    order the steps start."""
    real, steps = sim.Execution._stretch, []

    def stretch(self, g, width):
        at = len(steps)
        steps.append(None)
        steps[at] = (g, width, *real(self, g, width))
        return steps[at][2:]
    monkeypatch.setattr(sim.Execution, "_stretch", stretch)
    return steps


def recorded_ranges(monkeypatch, steps: list) -> list:
    """(step, g, lanes) of every match-bit round: alg2 goes on from its
    match vectors in ranges of lanes, and the round of one range writes
    the lines of `lanes` generations from g on, in `steps[step]`, which
    `recorded_steps` fills."""
    real, ranges = sim.Execution._round, []

    def round_(self, g, tag, honest):
        if tag == sim.TAG_MATCH_BITS:
            ranges.append((len(steps) - 1, g, self._width))
        return real(self, g, tag, honest)
    monkeypatch.setattr(sim.Execution, "_round", round_)
    return ranges


def questions(script) -> list:
    """(generation, step or tag, sender) of every question the engine asks
    `script`, kept by instance attributes over its `send` and `broadcast`, so
    that `quiet_until` still sees the class's own and finds quiet stretches."""
    send, broadcast, asked = script.send, script.broadcast, []

    def ask_send(generation, step, sender, receiver, honest, skip):
        asked.append((generation, step, sender))
        return send(generation, step, sender, receiver, honest, skip)

    def ask_broadcast(generation, tag, sender, honest):
        asked.append((generation, tag, sender))
        return broadcast(generation, tag, sender, honest)
    script.send, script.broadcast = ask_send, ask_broadcast
    return asked


def counted(monkeypatch, name) -> list:
    """The argument tuples of every call the engine makes to `sim.<name>`."""
    real, calls = getattr(sim, name), []

    def wrapper(*args, **kw):
        calls.append(args)
        return real(*args, **kw)
    monkeypatch.setattr(sim, name, wrapper)
    return calls
