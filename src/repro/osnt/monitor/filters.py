"""Wildcard packet filters (the monitor's TCAM filter bank).

The OSNT monitor provides "wildcard-enabled packet filters" in hardware:
a small TCAM matching on the 5-tuple, where any field may be masked.
Entries are priority-ordered (lowest index wins, like TCAM rows); a
packet matching an entry takes that entry's action, otherwise the bank's
default action applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ...errors import CaptureError, PacketError
from ...net.ethernet import ETHERTYPE_IPV4
from ...net.fields import ipv4_to_int
from ...net.flows import FiveTuple
from ...net.ipv4 import PROTO_ICMP
from ...net.parser import header_offsets

#: Hardware bank depth on the NetFPGA-10G design.
DEFAULT_BANK_SIZE = 16


@dataclass
class FilterRule:
    """One TCAM row. ``None`` in a field means wildcard.

    IPv4 prefixes are expressed with ``*_prefix_len`` (0-32); a prefix
    length of 32 matches the exact address.
    """

    src_ip: Optional[str] = None
    src_prefix_len: int = 32
    dst_ip: Optional[str] = None
    dst_prefix_len: int = 32
    protocol: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    action_pass: bool = True

    def __post_init__(self) -> None:
        for length in (self.src_prefix_len, self.dst_prefix_len):
            if not 0 <= length <= 32:
                raise CaptureError(f"bad prefix length {length}")

    @classmethod
    def from_spec(cls, spec: Union["FilterRule", Dict[str, Any], str]) -> "FilterRule":
        """Build a rule from a declarative spec.

        Accepts an existing rule (pass-through), a JSON object string,
        or a dict using either the dataclass field names or the CLI
        shorthand: ``"src"``/``"dst"`` take ``"a.b.c.d/len"`` prefix
        strings (bare address = /32) and ``"action"`` takes ``"pass"``
        or ``"drop"``.

        >>> FilterRule.from_spec({"src": "10.0.0.0/8", "action": "drop"})
        ... # doctest: +SKIP
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise CaptureError(f"filter rule is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise CaptureError(
                f"filter rule spec must be a dict, got {type(spec).__name__}"
            )
        known = {f.name for f in dataclass_fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in spec.items():
            if key in ("src", "dst"):
                address, slash, length = str(value).partition("/")
                kwargs[f"{key}_ip"] = address
                if slash:
                    if not length.isdigit():
                        raise CaptureError(
                            f"filter rule field {key!r}: bad prefix length {length!r}"
                        )
                    kwargs[f"{key}_prefix_len"] = int(length)
            elif key == "action":
                if value not in ("pass", "drop"):
                    raise CaptureError(f"filter action must be pass/drop, got {value!r}")
                kwargs["action_pass"] = value == "pass"
            elif key in known:
                kwargs[key] = value
            else:
                raise CaptureError(f"unknown filter rule field {key!r}")
        return cls(**kwargs)

    def compile(self) -> tuple:
        """This rule as integer compares, like one TCAM row.

        Returns ``(all_wildcard, protocol, src_port, dst_port, src_value,
        src_mask, dst_value, dst_mask, action_pass)``; a ``None``
        protocol or port and a zero mask are wildcards. A bad address
        raises :class:`CaptureError` naming its field.
        """
        all_wildcard = (
            self.src_ip is None
            and self.dst_ip is None
            and self.protocol is None
            and self.src_port is None
            and self.dst_port is None
        )
        return (
            all_wildcard,
            self.protocol,
            self.src_port,
            self.dst_port,
            *_prefix("src_ip", self.src_ip, self.src_prefix_len),
            *_prefix("dst_ip", self.dst_ip, self.dst_prefix_len),
            self.action_pass,
        )

    def matches(self, tup: Optional[FiveTuple]) -> bool:
        """Reference match on a decoded 5-tuple (``None`` for non-IP)."""
        (
            all_wildcard, protocol, src_port, dst_port,
            src_value, src_mask, dst_value, dst_mask, __,
        ) = self.compile()
        if tup is None:
            # Non-IP traffic only matches the all-wildcard rule.
            return all_wildcard
        if protocol is not None and tup.protocol != protocol:
            return False
        if src_port is not None and tup.src_port != src_port:
            return False
        if dst_port is not None and tup.dst_port != dst_port:
            return False
        # An IPv6 address never matches a non-empty IPv4 prefix.
        for address, value, mask in (
            (tup.src_ip, src_value, src_mask),
            (tup.dst_ip, dst_value, dst_mask),
        ):
            if mask and (":" in address or ipv4_to_int(address) & mask != value):
                return False
        return True


def _prefix(field: str, address: Optional[str], prefix_len: int) -> Tuple[int, int]:
    """``(value, mask)`` of an IPv4 prefix; ``(0, 0)`` is the wildcard."""
    if address is None:
        return 0, 0
    try:
        value = ipv4_to_int(str(address))
    except PacketError as exc:
        raise CaptureError(f"filter rule field {field!r}: bad IPv4 address {address!r}") from exc
    mask = ((1 << prefix_len) - 1) << (32 - prefix_len)
    return value & mask, mask


class FilterBank:
    """Priority-ordered rule table with a default action."""

    def __init__(self, size: int = DEFAULT_BANK_SIZE, default_pass: bool = True) -> None:
        if size < 1:
            raise CaptureError("filter bank needs at least one entry")
        self.size = size
        self.default_pass = default_pass
        self.rules: List[FilterRule] = []
        self._compiled: List[tuple] = []  # FilterRule.compile() rows
        self.matched = 0
        self.passed = 0
        self.filtered = 0

    @classmethod
    def from_rules(
        cls,
        rules: Union[Sequence, str],
        size: int = DEFAULT_BANK_SIZE,
        default_pass: Optional[bool] = None,
    ) -> "FilterBank":
        """Build a populated bank declaratively.

        ``rules`` is a sequence of rule specs (anything
        :meth:`FilterRule.from_spec` accepts) or a JSON array string.
        ``default_pass=None`` picks the conventional default: drop
        what no rule matched when any *pass* rule exists (capture only
        what you asked for), otherwise pass — the same behaviour the
        ``osnt-mon`` CLI and :meth:`TrafficMonitor.add_filter` apply.
        """
        if isinstance(rules, str):
            try:
                rules = json.loads(rules)
            except json.JSONDecodeError as exc:
                raise CaptureError(f"filter rules are not valid JSON: {exc}") from exc
        if not isinstance(rules, (list, tuple)):
            raise CaptureError(
                f"filter rules must be a list, got {type(rules).__name__}"
            )
        parsed = [FilterRule.from_spec(spec) for spec in rules]
        if default_pass is None:
            default_pass = not any(rule.action_pass for rule in parsed)
        bank = cls(size=size, default_pass=default_pass)
        for rule in parsed:
            bank.add_rule(rule)
        return bank

    def add_rule(self, rule: FilterRule) -> int:
        """Append a rule; returns its row index."""
        if len(self.rules) >= self.size:
            raise CaptureError(f"filter bank full ({self.size} entries)")
        self._compiled.append(rule.compile())
        self.rules.append(rule)
        return len(self.rules) - 1

    def clear(self) -> None:
        self.rules.clear()
        self._compiled.clear()

    def decide(self, data: bytes) -> bool:
        """True if the frame should pass to the capture path."""
        action = self._first_match(data) if self._compiled else None
        if action is None:
            verdict = self.default_pass
        else:
            self.matched += 1
            verdict = action
        if verdict:
            self.passed += 1
        else:
            self.filtered += 1
        return verdict

    def _first_match(self, data: bytes) -> Optional[bool]:
        """Action of the first row matching ``data``, ``None`` if none does."""
        l3, ethertype, protocol, l4, __ = header_offsets(data)
        if protocol is None:  # non-IP: only an all-wildcard row matches
            return next((row[-1] for row in self._compiled if row[0]), None)
        src_port = dst_port = 0
        if l4 is not None and protocol != PROTO_ICMP:
            src_port = (data[l4] << 8) | data[l4 + 1]
            dst_port = (data[l4 + 2] << 8) | data[l4 + 3]
        ipv4 = ethertype == ETHERTYPE_IPV4
        if ipv4:
            src_ip = int.from_bytes(data[l3 + 12 : l3 + 16], "big")
            dst_ip = int.from_bytes(data[l3 + 16 : l3 + 20], "big")
        for (
            __, row_protocol, row_src_port, row_dst_port,
            src_value, src_mask, dst_value, dst_mask, action,
        ) in self._compiled:
            if row_protocol is not None and row_protocol != protocol:
                continue
            if row_src_port is not None and row_src_port != src_port:
                continue
            if row_dst_port is not None and row_dst_port != dst_port:
                continue
            if src_mask and (not ipv4 or src_ip & src_mask != src_value):
                continue
            if dst_mask and (not ipv4 or dst_ip & dst_mask != dst_value):
                continue
            return action
        return None
