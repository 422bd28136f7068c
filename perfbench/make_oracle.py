#!/usr/bin/env python3
"""Regenerate ``perfbench/oracle.json`` from the program in this checkout.

    python3 perfbench/make_oracle.py

It records, for every invocation any seed can draw, the digest of the
report's content fields (``verify`` and ``scan``) or the closed form of the
quartic integral (``integral``).  The stored oracle was made at the commit
named in its ``generated_from`` field, whose verdicts the acceptance tests
check.  A change that alters a verdict, witness, range or note on purpose
regenerates it and says why; a change that only makes things faster must
leave it alone.
"""

from __future__ import annotations

import json
import sys

import harness
import workloads


def main() -> int:
    harness.require_program()
    sys.path.insert(0, str(harness.SRC))
    from quartint.quadrature import closed_form

    digests, closed_forms = {}, {}
    for inv in workloads.oracle_menu():
        if inv.kind == "integral":
            m, a = int(inv.args[inv.args.index("--m") + 1]), float(inv.args[inv.args.index("--a") + 1])
            closed_forms[inv.key] = closed_form(m, a)
            continue
        res = harness.run_cold(inv.args, timeout=600)
        if res.returncode != 0:
            print(f"{inv.key}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
            return 1
        digests[inv.key] = workloads.report_digest(res.stdout)
        print(f"{digests[inv.key][:12]}  {inv.key}", flush=True)
    oracle = {
        "generated_from": harness.git_sha(),
        "source_sha256": harness.source_digest(),
        "digests": digests,
        "closed_forms": closed_forms,
    }
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
