"""Shared fixtures: acceptance verdict reporting and test doubles.

The acceptance tests each produce one ``ACCEPTANCE <tag>: PASS|FAIL``
line. Printing alone is not enough — pytest captures file descriptors,
so a passing test's output vanishes. The ``acceptance`` fixture both
prints the line (visible under ``-s``) and stashes it; the terminal
summary hook then replays every collected line after the test table,
where capture cannot eat it.
"""

import sys

import numpy as np
import pytest

from prva.samplers import OpCounter

_LINES = pytest.StashKey()


class ScriptedStream:
    """Stream double that hands out the given uniforms in order.

    Each draw is charged to ``counter`` as a real draw is, and a draw of
    more values than remain fails the test.
    """

    def __init__(self, values):
        self._values = np.array(values, dtype=float).ravel()
        self.counter = OpCounter()

    def uniforms(self, size):
        assert size <= self._values.size, f"drew {size}, only {self._values.size} scripted"
        out, self._values = self._values[:size].copy(), self._values[size:]
        self.counter.uniform_draws += size
        return out


@pytest.fixture
def scripted_stream():
    """The :class:`ScriptedStream` class: call it with the uniforms to hand out."""
    return ScriptedStream


@pytest.fixture
def strip_timing():
    """Drop a benchmark report dict's wall-clock fields, in place, and return it."""

    def strip(report_dict):
        for s in report_dict["sources"]:
            s.pop("mean_time_s")
            s.pop("time_ci90")
        return report_dict

    return strip


@pytest.fixture
def acceptance(request):
    lines = request.config.stash.setdefault(_LINES, [])

    def report(tag, passed, detail):
        line = f"ACCEPTANCE {tag}: {'PASS' if passed else 'FAIL'} - {detail}"
        lines.append(line)
        print(line, file=sys.__stdout__, flush=True)
        return passed

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(_LINES, [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
