"""Spans around posetdual's layer entry points, installed from outside.

The tracer swaps each traced function for a wrapper in every posetdual
module namespace that binds it, records one span per call (name, start,
end, parent span, job id and a few counters) in memory, and puts the
originals back on uninstall. run.py adds to each span the machine-speed
scale of its job, and durations here are read at that scale.
"""

import functools
import inspect
import sys
import time

# (defining module, attribute) of every traced function. Per-element
# helpers such as lambda_of stay unwrapped: their calls are too many and
# too short to time without distorting what they are called from.
TRACED = (
    ("textio", "parse_poset"),
    ("textio", "build_poset"),
    ("poset", "poset_from_relations"),
    ("poset", "transitive_reduction"),
    ("dual", "enumerate_dual"),
    ("dual", "DualLattice._intervals"),
    ("dual", "irreducibles"),
    ("ideals", "prime_principal_pairs"),
    ("ideals", "is_prime_ideal"),
    ("ideals", "is_prime_filter"),
    ("seconddual", "verify_isomorphism"),
    ("seconddual", "evaluation_hom"),
    ("seconddual", "point_of_hom"),
    ("seconddual", "enumerate_second_dual_bruteforce"),
    ("report", "build_verification_report"),
    ("report", "render"),
    ("dot", "emit_lattice_dot"),
    ("cli", "run_cli"),
)


# Unit of every per-layer metric, in report order.
UNITS = {
    "dual.enumerate_s": "s",
    "dual.members_per_enumerate_s": "1/s",
    "dual.enumerate_calls_per_job": "count",
    "dual.index_s": "s",
    "dual.index_bytes": "B",
    "dual.irreducibles_s": "s",
    "ideals.prime_pairs_s": "s",
    "ideals.prime_checks_s": "s",
    "ideals.pairs_scanned": "count",
    "seconddual.evaluation_hom_s": "s",
    "seconddual.point_of_hom_s": "s",
    "seconddual.verify_isomorphism_self_s": "s",
    "seconddual.bruteforce_s": "s",
    "seconddual.bruteforce_candidates": "count",
    "seconddual.bruteforce_hit_ratio": "ratio",
    "seconddual.bruteforce_skipped_jobs": "count",
    "report.checks_self_s": "s",
    "report.render_s": "s",
    "dot.emit_self_s": "s",
    "dot.closure_s": "s",
    "dot.edges": "count",
    "textio.parse_s": "s",
    "poset.build_s": "s",
    "poset.transitive_reduction_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


def _counters(name, arguments, result):
    # Work counts measured at the boundary where the work happens.
    if name == "dual.enumerate_dual":
        return {"members": len(result)}
    if name == "ideals.prime_principal_pairs":
        return {"pairs_scanned": len(arguments["lattice"]) ** 2}
    if name == "seconddual.enumerate_second_dual_bruteforce":
        # Only maps sending the bottom to 0 are candidates.
        return {"candidates": 1 << (len(arguments["lattice"]) - 1), "homs": len(result)}
    if name == "seconddual.verify_isomorphism":
        return {"brute_force": bool(arguments["use_bruteforce"])}
    if name == "dot.emit_lattice_dot":
        return {"edges": result.count("->")}
    return None


_COUNTED = (
    "dual.enumerate_dual",
    "ideals.prime_principal_pairs",
    "seconddual.enumerate_second_dual_bruteforce",
    "seconddual.verify_isomorphism",
    "dot.emit_lattice_dot",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if name in _COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "job": self.job,
                "parent": stack[-1] if stack else None,
                "start": clock(),
            }
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = clock()
                stack.pop()
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.update(_counters(name, bound.arguments, result))
                except (KeyError, TypeError) as exc:
                    # A changed signature loses the counter, not the job.
                    span["counter_error"] = repr(exc)
            return result

        return traced

    def _wrap_intervals(self, fn):
        # The member index is built once per lattice and then served from
        # its cache; only the build is a span, so the brute-force oracle's
        # one cached lookup per candidate map adds no span.
        traced = self._wrap("dual.DualLattice._intervals", fn)

        @functools.wraps(fn)
        def intervals(lattice):
            if getattr(lattice, "_down_intervals", None) is not None:
                return fn(lattice)
            index_start = len(self.spans)
            result = traced(lattice)
            m = len(lattice.members)
            self.spans[index_start]["bytes"] = 2 * m * ((m + 7) // 8)
            return result

        return intervals

    def install(self):
        """Wrap every traced function; returns the ones the program lacks."""
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == "posetdual" or name.startswith("posetdual.")
        ]
        missing = []
        for module, attr in TRACED:
            owner = sys.modules.get(f"posetdual.{module}")
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
            else:
                original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
            elif cls_name:
                setattr(cls, method, self._wrap_intervals(original))
                self._restore.append((cls, method, original))
            else:
                wrapper = self._wrap(f"{module}.{attr}", original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapper)
                            self._restore.append((mod, name, original))
        return missing

    def uninstall(self):
        for obj, name, original in reversed(self._restore):
            setattr(obj, name, original)
        self._restore.clear()


def duration(span):
    """A span's duration, scaled to the reference machine speed."""
    return (span["end"] - span["start"]) * span.get("scale", 1.0)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += duration(span)
    return [duration(s) - c for s, c in zip(spans, child)]


def layer_metrics(spans, selfs, first, last, jobs):
    """Per-layer metrics over spans[first:last], one pass of `jobs` jobs."""
    total = {}
    calls = {}
    for i in range(first, last):
        name = spans[i]["name"]
        total[name] = total.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1

    def self_s(*names):
        return sum(total.get(n, 0.0) for n in names)

    def under_dot(i):
        parent = spans[i]["parent"]
        return parent is not None and spans[parent]["name"] == "dot.emit_lattice_dot"

    enum_members = enum_time = 0
    index_bytes = pairs = candidates = homs = edges = skipped = 0
    dot_closure = build = reduction = 0.0
    has_bruteforce_child = set()
    for i in range(first, last):
        s = spans[i]
        name = s["name"]
        if name == "dual.enumerate_dual" and "members" in s:
            enum_members += s["members"]
            enum_time += selfs[i]
        index_bytes += s.get("bytes", 0)
        pairs += s.get("pairs_scanned", 0)
        candidates += s.get("candidates", 0)
        homs += s.get("homs", 0)
        edges += s.get("edges", 0)
        if name == "seconddual.enumerate_second_dual_bruteforce":
            has_bruteforce_child.add(s["parent"])
        if name == "poset.transitive_reduction":
            # Also the lattice DOT's reduction, which dot.closure_s includes
            # too: nothing else in the workloads reaches it.
            reduction += selfs[i]
        if name.startswith("poset."):
            if under_dot(i):
                dot_closure += duration(s)
            elif name == "poset.poset_from_relations":
                build += selfs[i]
    build += self_s("textio.build_poset")
    for i in range(first, last):
        if spans[i].get("brute_force") and i not in has_bruteforce_child:
            skipped += 1

    return {
        "dual.enumerate_s": self_s("dual.enumerate_dual"),
        "dual.members_per_enumerate_s": enum_members / enum_time if enum_time else 0.0,
        "dual.enumerate_calls_per_job": calls.get("dual.enumerate_dual", 0) / jobs,
        "dual.index_s": self_s("dual.DualLattice._intervals"),
        "dual.index_bytes": index_bytes,
        "dual.irreducibles_s": self_s("dual.irreducibles"),
        "ideals.prime_pairs_s": self_s("ideals.prime_principal_pairs"),
        "ideals.prime_checks_s": self_s("ideals.is_prime_ideal", "ideals.is_prime_filter"),
        "ideals.pairs_scanned": pairs,
        "seconddual.evaluation_hom_s": self_s("seconddual.evaluation_hom"),
        "seconddual.point_of_hom_s": self_s("seconddual.point_of_hom"),
        "seconddual.verify_isomorphism_self_s": self_s("seconddual.verify_isomorphism"),
        "seconddual.bruteforce_s": self_s("seconddual.enumerate_second_dual_bruteforce"),
        "seconddual.bruteforce_candidates": candidates,
        "seconddual.bruteforce_hit_ratio": homs / candidates if candidates else 0.0,
        "seconddual.bruteforce_skipped_jobs": skipped,
        "report.checks_self_s": self_s("report.build_verification_report"),
        "report.render_s": self_s("report.render"),
        "dot.emit_self_s": self_s("dot.emit_lattice_dot"),
        "dot.closure_s": dot_closure,
        "dot.edges": edges,
        "textio.parse_s": self_s("textio.parse_poset"),
        "poset.build_s": build,
        "poset.transitive_reduction_s": reduction,
        "cli.self_s": self_s("cli.run_cli"),
    }
