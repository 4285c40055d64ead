import random

import pytest

from zorro import dlog
from zorro.dlog import MAX_BABY_STEPS, DlogWindow, _tables, bsgs
from zorro.errors import NotInWindow
from zorro import groups

TOY = groups.toy_group()
MOD = groups.test_group()


def test_window_validation():
    with pytest.raises(ValueError):
        DlogWindow(5, 4)
    assert DlogWindow(-3, 3).size == 7


@pytest.mark.parametrize("size", [1, 2, 4, 5, 9, 10, 65_536**2, 65_536**2 + 1, 2**65 - 1])
def test_baby_steps_are_the_ceiling_of_the_square_root(size):
    steps = DlogWindow(0, size - 1).baby_steps
    assert (steps - 1) ** 2 < size <= steps**2


def test_bsgs_refuses_a_window_over_the_cap_before_any_table(monkeypatch):
    def build(*args):
        raise AssertionError("baby table built for a window over MAX_BABY_STEPS")

    monkeypatch.setattr(dlog, "_baby_table", build)
    widest = DlogWindow(0, MAX_BABY_STEPS**2 - 1)
    assert widest.baby_steps == MAX_BABY_STEPS
    widest.check_width()
    wider = DlogWindow(0, MAX_BABY_STEPS**2)
    with pytest.raises(ValueError, match=f"{MAX_BABY_STEPS + 1} baby steps"):
        bsgs(MOD, MOD.g, wider)


def test_identity_is_zero():
    assert bsgs(TOY, TOY.identity, DlogWindow(0, 100)) == 0


def test_known_toy_value():
    assert bsgs(TOY, TOY.g ** 5, DlogWindow(0, 10)) == 5  # 2^5 mod 23 = 9


def test_signed_window():
    target = TOY.g ** (-3 % TOY.q)
    assert bsgs(TOY, target, DlogWindow(-5, 5)) == -3


def test_exhaustive_small_window():
    window = DlogWindow(0, 5000)
    point = MOD.identity
    for m in range(0, 5001):
        assert bsgs(MOD, point, window) == m
        point = point * MOD.g


def test_signed_randomized():
    rng = random.Random(1)
    window = DlogWindow(-500, 500)
    for _ in range(50):
        m = rng.randrange(-500, 501)
        assert bsgs(MOD, MOD.g ** (m % MOD.q), window) == m


def test_not_in_window():
    with pytest.raises(NotInWindow):
        bsgs(MOD, MOD.g ** 50, DlogWindow(0, 10))
    with pytest.raises(NotInWindow):
        bsgs(MOD, MOD.g ** 5, DlogWindow(6, 10))


def test_window_offsets():
    assert bsgs(MOD, MOD.g ** 7, DlogWindow(7, 7)) == 7
    assert bsgs(MOD, MOD.g ** 123, DlogWindow(100, 200)) == 123


def test_baby_table_memoized():
    window = DlogWindow(0, 9999)
    bsgs(MOD, MOD.g ** 17, window)
    width = 100  # isqrt(9999) + 1
    assert (MOD.group_id, width) in _tables
    table = _tables[(MOD.group_id, width)]
    bsgs(MOD, MOD.g ** 23, window)
    assert _tables[(MOD.group_id, width)] is table
