"""Deterministic fault schedules.

A :class:`FaultSchedule` is a *plan*, not a dice roll: it lists which
images fail-stop and when (simulated seconds), and parameterizes a
seeded link-fault model (message drop → bounded retransmit delay,
message delay jitter).  The same schedule object run twice produces
byte-identical simulations — all randomness flows through one
``random.Random(seed)`` stream consumed in deterministic engine order.

Message *drops* are modeled as the sender-visible effect of a reliable
transport recovering from loss: each dropped attempt costs one
retransmit timeout, bounded by ``max_retransmits``, after which the
message goes through.  This keeps drop schedules live (no message is
lost forever, so no artificial hangs) while still stressing every
timing assumption in the collectives.

Fail-stops are *silent*: the failed image stops executing and stops
acknowledging, exactly the Fortran 2018 failed-image model.  Survivors
learn about the failure only through the runtime (``stat=`` returns,
``image_status()``, ``failed_images()``) — never by magic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ImageFailure", "FaultSchedule", "parse_schedule"]


@dataclass(frozen=True)
class ImageFailure:
    """Fail-stop of one image (1-based global index) at simulated ``time``."""

    image: int
    time: float

    def __post_init__(self) -> None:
        if self.image < 1:
            raise ValueError(f"image index must be >= 1, got {self.image}")
        if self.time < 0:
            raise ValueError(f"failure time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class FaultSchedule:
    """One deterministic fault plan for a run.

    ``failures``
        Fail-stop events, applied in schedule order at their times.
    ``drop_rate`` / ``max_retransmits`` / ``retransmit_timeout``
        Probability a network message attempt is dropped, how many
        consecutive drops the reliable transport absorbs, and the
        sender-visible cost of each retransmit.
    ``delay_rate`` / ``delay_max``
        Probability a network message is delayed, and the uniform upper
        bound of that extra delay.
    ``seed``
        Seeds the single RNG stream behind drops and delays.
    """

    failures: Tuple[ImageFailure, ...] = ()
    drop_rate: float = 0.0
    max_retransmits: int = 3
    retransmit_timeout: float = 5e-6
    delay_rate: float = 0.0
    delay_max: float = 2e-6
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.max_retransmits < 0:
            raise ValueError("max_retransmits must be >= 0")
        if self.retransmit_timeout < 0 or self.delay_max < 0:
            raise ValueError("fault delays must be >= 0")
        # normalize: deterministic application order regardless of how the
        # caller listed the failures
        object.__setattr__(
            self, "failures",
            tuple(sorted(self.failures, key=lambda f: (f.time, f.image))),
        )

    @property
    def is_null(self) -> bool:
        """True when this schedule injects nothing — a null schedule is
        promised to be byte-identical to running with no schedule at all."""
        return (not self.failures and self.drop_rate == 0.0
                and self.delay_rate == 0.0)

    @property
    def has_link_faults(self) -> bool:
        return self.drop_rate > 0.0 or self.delay_rate > 0.0

    def describe(self) -> str:
        parts = [f"fail(image{f.image}@{f.time:.3g}s)" for f in self.failures]
        if self.drop_rate > 0.0:
            parts.append(f"drop({self.drop_rate:g}, "
                         f"retx<={self.max_retransmits}x"
                         f"{self.retransmit_timeout:.3g}s)")
        if self.delay_rate > 0.0:
            parts.append(f"delay({self.delay_rate:g}, "
                         f"max {self.delay_max:.3g}s)")
        if not parts:
            return "none"
        return " + ".join(parts) + f" seed={self.seed}"


def parse_schedule(text: str) -> FaultSchedule:
    """Parse the CLI fault-schedule mini-language.

    Comma-separated clauses::

        fail:IMAGE@TIME      fail-stop image IMAGE at TIME seconds
        drop:RATE            message-drop probability (retransmit model)
        delay:RATE           message-delay probability
        seed:N               RNG seed for drops/delays

    Example: ``fail:3@50e-6,fail:7@80e-6,drop:0.1,seed:42``.
    """
    failures = []
    kwargs: dict = {}
    for clause in filter(None, (c.strip() for c in text.split(","))):
        try:
            key, _, arg = clause.partition(":")
            if key == "fail":
                img, _, when = arg.partition("@")
                failures.append(ImageFailure(int(img), float(when)))
            elif key == "drop":
                kwargs["drop_rate"] = float(arg)
            elif key == "delay":
                kwargs["delay_rate"] = float(arg)
            elif key == "seed":
                kwargs["seed"] = int(arg)
            else:
                raise ValueError(f"unknown clause {key!r}")
        except (TypeError, ValueError) as err:
            raise ValueError(
                f"bad fault-schedule clause {clause!r}: {err} "
                f"(expected fail:IMAGE@TIME, drop:RATE, delay:RATE, seed:N)"
            ) from None
    return FaultSchedule(failures=tuple(failures), **kwargs)
