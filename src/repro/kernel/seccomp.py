"""Seccomp-BPF-like syscall filters.

Paper § 3(2): *"We leverage Linux Seccomp BPF to avoid functions which
operate on PD to perform syscalls that can leak data."*

A filter is an ordered rule program, evaluated first-match like a BPF
classifier: each rule matches a syscall name (or ``*``) and yields an
action.  Actions mirror seccomp's return values:

* ``ALLOW``  — let the syscall proceed to the LSM layer;
* ``ERRNO``  — deny with an error (the common deny mode);
* ``KILL``   — deny and mark the process for termination;
* ``LOG``    — allow but flag the event in the filter's log.

:func:`pd_function_profile` builds the F_pd^r profile: the leak-prone
syscalls are denied, the PD pipeline's own entry points and pure
computation remain allowed.  A simulated process gets it through
:meth:`~repro.kernel.syscalls.SyscallTable.attach_seccomp`; the DED
installs no filter, since ``PurposeMatcher``'s static check at
registration already holds F_pd code inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import errors
from .syscalls import (
    ALL_SYSCALLS,
    LEAKY_SYSCALLS,
    SYS_EXIT,
    SYS_GETPID,
    SYS_READ,
    SyscallContext,
)

ACTION_ALLOW = "allow"
ACTION_ERRNO = "errno"
ACTION_KILL = "kill"
ACTION_LOG = "log"
_ACTIONS = frozenset({ACTION_ALLOW, ACTION_ERRNO, ACTION_KILL, ACTION_LOG})

MATCH_ANY = "*"


@dataclass(frozen=True)
class FilterRule:
    """One rule: syscall pattern → action (+ human-readable reason)."""

    syscall: str
    action: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise errors.KernelError(f"unknown seccomp action {self.action!r}")
        if self.syscall != MATCH_ANY and self.syscall not in ALL_SYSCALLS:
            raise errors.KernelError(
                f"seccomp rule names unknown syscall {self.syscall!r}"
            )

    def matches(self, syscall: str) -> bool:
        return self.syscall == MATCH_ANY or self.syscall == syscall


@dataclass
class SeccompFilter:
    """An ordered rule program with a default action.

    Use as the seccomp guard of a :class:`~repro.kernel.syscalls.
    SyscallTable` via :meth:`as_guard`.
    """

    rules: Tuple[FilterRule, ...]
    default_action: str = ACTION_ERRNO
    name: str = "filter"
    logged: List[str] = field(default_factory=list)
    killed: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.default_action not in _ACTIONS:
            raise errors.KernelError(
                f"unknown default action {self.default_action!r}"
            )

    def evaluate(self, syscall: str) -> Tuple[str, str]:
        """Return ``(action, reason)`` for one syscall, first match wins."""
        for rule in self.rules:
            if rule.matches(syscall):
                return rule.action, rule.reason
        return self.default_action, "default action"

    def as_guard(self):
        """Adapt this filter to the SyscallTable guard protocol."""

        def guard(context: SyscallContext) -> Optional[str]:
            action, reason = self.evaluate(context.syscall)
            if action == ACTION_ALLOW:
                return None
            if action == ACTION_LOG:
                self.logged.append(context.syscall)
                return None
            if action == ACTION_KILL:
                self.killed = True
                return f"killed by seccomp filter {self.name!r}: {reason}"
            return f"denied by seccomp filter {self.name!r}: {reason}"

        return guard


def allow_all_profile(name: str = "unconfined") -> SeccompFilter:
    """The profile of ordinary processes on the general-purpose kernel."""
    return SeccompFilter(rules=(), default_action=ACTION_ALLOW, name=name)


def pd_function_profile(name: str = "ded-fpd") -> SeccompFilter:
    """The sandbox profile for F_pd^r functions inside the DED.

    Deny-by-default; explicit denials for the leak-prone set carry
    reasons so audit logs explain themselves; read-like and process
    housekeeping calls are allowed (the function must still be able to
    compute and terminate).  DBFS and PS syscalls are *not* allowed:
    an F_pd^r function talks to DBFS only through the DED, never
    directly.
    """
    rules = [
        FilterRule(
            syscall, ACTION_ERRNO,
            reason="PD-processing functions may not perform leak-prone syscalls",
        )
        for syscall in sorted(LEAKY_SYSCALLS)
    ]
    rules.extend(
        [
            FilterRule(SYS_READ, ACTION_ALLOW),
            FilterRule(SYS_GETPID, ACTION_ALLOW),
            FilterRule(SYS_EXIT, ACTION_ALLOW),
        ]
    )
    return SeccompFilter(
        rules=tuple(rules), default_action=ACTION_ERRNO, name=name
    )


def application_profile(name: str = "rgpdos-app") -> SeccompFilter:
    """The profile of a main application on rgpdOS (f1 / main()).

    It may use the PS entry points and ordinary non-PD IO, but can
    never reach DBFS syscalls directly (defense in depth with the LSM
    policy, which enforces the same thing by label).
    """
    from .syscalls import SYS_DBFS_QUERY, SYS_DBFS_STORE

    rules = (
        FilterRule(SYS_DBFS_QUERY, ACTION_ERRNO, reason="DBFS is DED-only"),
        FilterRule(SYS_DBFS_STORE, ACTION_ERRNO, reason="DBFS is DED-only"),
        FilterRule(MATCH_ANY, ACTION_ALLOW),
    )
    return SeccompFilter(rules=rules, default_action=ACTION_ALLOW, name=name)
