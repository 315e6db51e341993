"""Check reports: the record types every exhaustive check returns.

A leaf module: it imports only ``collections.namedtuple``, so a command
whose checks report through it loads no strategy or kernel code for them.
"""

from collections import namedtuple


class Violation(namedtuple("Violation", "where kind detail")):
    __slots__ = ()

    def line(self):
        return f"{self.kind} at {self.where}: {self.detail}"


class Report(namedtuple("Report", "title checked violations")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        head = "pass" if self.ok else f"FAIL ({len(self.violations)})"
        out = [f"{self.title}: {head} [{self.checked} checks]"]
        out.extend("  " + v.line() for v in self.violations[:50])
        if len(self.violations) > 50:
            out.append(f"  ... {len(self.violations) - 50} more")
        return out

    def __str__(self):
        return "\n".join(self.lines())
