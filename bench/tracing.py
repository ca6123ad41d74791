"""In-memory spans at spintail's module boundaries, and the per-layer metrics derived from them.

A span is ``(name, start, end, parent, info)``; names are
``"<module>.<function>"`` so self time can be summed per spintail module.
The wrappers are installed on the module (or class) attributes through which
one spintail module calls another and are removed by :meth:`Tracer.uninstall`;
no file under ``src/`` is touched.  A few boundaries are counted rather than
spanned (``localops.commutator`` per term pair, each ``gram_apply``) because a
span there would cost more than the work it measures.

A module's self time is the time inside its spans not covered by child
spans.  Work in unwrapped helpers (``from_site_factors``, ``_make_op``, ...)
lands on the innermost wrapped caller.
"""

from __future__ import annotations

import collections
import functools
import json
import statistics
import time

MODULES = (
    "cli",
    "report",
    "asymptotics",
    "sequences",
    "shifts",
    "localops",
    "matrices",
    "states",
    "classical",
)

# (name, unit) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = [
    ("cli.parse_s", "s"),
    ("report.emit_s", "s"),
    ("report.bytes", "bytes"),
    ("asymptotics.classify_s", "s"),
    ("sequences.eval_s", "s"),
    ("sequences.eval_calls", "count"),
    ("sequences.terms_out", "count"),
    ("shifts.gamma_average_s", "s"),
    ("shifts.shifted_terms", "count"),
    ("localops.sum_commutator_s", "s"),
    ("localops.commutator_pairs", "count"),
    ("localops.commutator_nonzero_ratio", "ratio"),
    ("localops.capacity_fallbacks", "count"),
    ("localops.sum_product_s", "s"),
    ("localops.product_pairs", "count"),
    ("localops.norm_s", "s"),
    ("localops.norm_share", "ratio"),
    ("localops.norm_exact_calls", "count"),
    ("localops.norm_dense_calls", "count"),
    ("localops.norm_iterative_calls", "count"),
    ("localops.norm_dense_s", "s"),
    ("localops.dense_assembly_s", "s"),
    ("localops.norm_dim_max", "dim"),
    ("localops.norm_iterative_s", "s"),
    ("localops.norm_iterations", "count"),
    ("localops.gram_applies", "count"),
    ("localops.norm_unconverged", "count"),
    ("matrices.operator_norm_dense_s", "s"),
    ("matrices.dense_bytes", "bytes_computed"),
    ("states.expectation_s", "s"),
    ("states.average_variance_s", "s"),
    ("states.terms_contracted", "count"),
    ("classical.cyclic_average_s", "s"),
    ("classical.poisson_bracket_s", "s"),
    ("classical.coeff_pairs", "count"),
    ("classical.bracket_nonzero_ratio", "ratio"),
] + [(f"{m}.self_s", "s") for m in MODULES] + [
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


class Tracer:
    """Records spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Start a new pass: a fresh span list (the old one stays with its owner)."""
        self.spans = []
        self.counts.clear()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span; return (result, span record)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs), rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _patch(self, owner, attr, wrapper_factory):
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, name, after=None):
        """Span every call of ``owner.attr``; ``after(rec, result, args)`` adds info."""

        def factory(original):
            def wrapper(*args, **kwargs):
                out, rec = self.call(name, original, *args, **kwargs)
                if after is not None:
                    after(rec, out, args)
                return out

            return wrapper

        self._patch(owner, attr, factory)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, *, cli, asymptotics, sequences, shifts, localops, states, classical):
        """Attach spans and counters to the boundaries between spintail modules."""
        asym, seqs, lo, cl = asymptotics, sequences, localops, classical
        counts = self.counts

        def info(**fields):
            def after(rec, out, args):
                rec[4] = {k: f(out, args) for k, f in fields.items()}

            return after

        def n_terms(out, args):
            return len(out.terms)

        # asymptotics entry points and the classifier, where cli and the
        # estimators reach them
        for owner in (cli, asym, cl):
            self.wrap(owner, "classify_trace", "asymptotics.classify_trace")
        for fn in ("vanishing_test", "commutant_membership", "gamma_bound_check",
                   "mutual_commutator_trace"):
            self.wrap(cli, fn, f"asymptotics.{fn}")
        for owner in (cli, asym):
            self.wrap(owner, "equivalence_test", "asymptotics.equivalence_test")
        self.wrap(cli, "seq_norm_trace", "sequences.seq_norm_trace")

        # sequence evaluation, as every caller reaches it: through the classes
        for cls in vars(seqs).values():
            if (isinstance(cls, type) and issubclass(cls, seqs.ObservableSequence)
                    and "eval" in vars(cls)):
                self.wrap(cls, "eval", "sequences.eval", info(terms=n_terms))

        # shift averages
        for owner in (asym, seqs):
            self.wrap(owner, "eval_gamma_sequence", "shifts.eval_gamma_sequence")
        for owner in (shifts, states):
            self.wrap(owner, "gamma_average", "shifts.gamma_average",
                      info(terms=n_terms))

        # term algebra
        self.wrap(asym, "sum_commutator", "localops.sum_commutator")
        for owner in (lo, seqs):
            self.wrap(owner, "sum_product", "localops.sum_product",
                      info(pairs=lambda out, args: len(args[0].terms) * len(args[1].terms)))

        def commutator_counter(original):
            def wrapper(*args, **kwargs):
                counts["commutator_pairs"] += 1
                try:
                    out = original(*args, **kwargs)
                except lo.CapacityError:
                    counts["capacity_fallbacks"] += 1
                    raise
                if not out.is_zero:
                    counts["commutator_nonzero"] += 1
                return out

            return wrapper

        self._patch(lo, "commutator", commutator_counter)

        # norms: route evidence is what the call did (an eigensolve directly
        # under the norm span, or a nonzero iteration count), not the router rule
        for owner in (asym, seqs, shifts):
            self.wrap(owner, "norm", "localops.norm",
                      info(iterations=lambda out, args: out.iterations,
                           converged=lambda out, args: out.converged))
        self.wrap(lo.LocalOperator, "norm_exact", "localops.norm_exact")
        self.wrap(lo, "operator_norm_dense", "matrices.operator_norm_dense",
                  info(dim=lambda out, args: args[0].shape[0]))

        def power_iteration(original):
            def wrapper(gram_apply, dim, *args, **kwargs):
                def counted(v):
                    counts["gram_applies"] += 1
                    return gram_apply(v)

                out, rec = self.call("localops.power_iteration", original,
                                     counted, dim, *args, **kwargs)
                rec[4] = {"dim": dim}
                return out

            return wrapper

        self._patch(lo, "_power_iteration_norm", power_iteration)

        # product-state statistics
        for owner in (cli, states):
            self.wrap(owner, "expectation", "states.expectation",
                      info(terms=lambda out, args: len(getattr(args[1], "terms", (None,)))))
        self.wrap(cli, "average_variance", "states.average_variance")

        # classical mirror
        self.wrap(cl, "bracket_decay_test", "classical.bracket_decay_test")
        self.wrap(cl, "cyclic_average_eval", "classical.cyclic_average_eval")
        self.wrap(cl, "poisson_bracket", "classical.poisson_bracket",
                  info(pairs=lambda out, args: len(args[0].coeffs) * len(args[1].coeffs),
                       out=lambda out, args: len(out.coeffs)))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, pass_seconds) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every name in LAYER_METRICS but trace.overhead_s)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)

    def outermost(i):
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    incl = collections.Counter()
    self_s = collections.Counter()
    for i in range(n):
        name = spans[i][0]
        if outermost(i):
            incl[name] += dur[i]
        self_s[name.split(".")[0]] += dur[i] - sum(dur[c] for c in children[i])

    def infos(name, outer_only=False):
        return [spans[i][4] or {} for i in range(n)
                if spans[i][0] == name and (not outer_only or outermost(i))]

    routes = collections.Counter()
    route_s = collections.Counter()
    assembly = iterations = unconverged = dim_max = 0
    for i in range(n):
        if spans[i][0] != "localops.norm":
            continue
        res = spans[i][4] or {}
        eig = [c for c in children[i] if spans[c][0] == "matrices.operator_norm_dense"]
        power = [c for c in children[i] if spans[c][0] == "localops.power_iteration"]
        if eig:
            route = "dense"
            assembly += dur[i] - sum(dur[c] for c in eig)
        elif res.get("iterations", 0) > 0 or power:
            route = "iterative"
            iterations += res.get("iterations", 0)
        else:
            route = "exact"
        routes[route] += 1
        route_s[route] += dur[i]
        unconverged += not res.get("converged", True)
        for c in eig + power:
            dim_max = max(dim_max, spans[c][4]["dim"])

    eig_dims = [d["dim"] for d in infos("matrices.operator_norm_dense")]
    seq_terms = [d["terms"] for d in infos("sequences.eval", outer_only=True)]
    brackets = infos("classical.poisson_bracket")
    bracket_pairs = sum(d["pairs"] for d in brackets)

    out = {
        "cli.parse_s": incl["cli.parse_config"],
        "report.emit_s": incl["report.emit"],
        "report.bytes": counts["report_bytes"],
        "asymptotics.classify_s": incl["asymptotics.classify_trace"],
        "sequences.eval_s": incl["sequences.eval"],
        "sequences.eval_calls": len(seq_terms),
        "sequences.terms_out": sum(seq_terms),
        "shifts.gamma_average_s": incl["shifts.gamma_average"],
        "shifts.shifted_terms": sum(d["terms"] for d in infos("shifts.gamma_average")),
        "localops.sum_commutator_s": incl["localops.sum_commutator"],
        "localops.commutator_pairs": counts["commutator_pairs"],
        "localops.commutator_nonzero_ratio": _ratio(
            counts["commutator_nonzero"], counts["commutator_pairs"]),
        "localops.capacity_fallbacks": counts["capacity_fallbacks"],
        "localops.sum_product_s": incl["localops.sum_product"],
        "localops.product_pairs": sum(d["pairs"] for d in infos("localops.sum_product")),
        "localops.norm_s": incl["localops.norm"],
        "localops.norm_share": _ratio(incl["localops.norm"], pass_seconds),
        "localops.norm_exact_calls": routes["exact"],
        "localops.norm_dense_calls": routes["dense"],
        "localops.norm_iterative_calls": routes["iterative"],
        "localops.norm_dense_s": route_s["dense"],
        "localops.dense_assembly_s": assembly,
        "localops.norm_dim_max": dim_max,
        "localops.norm_iterative_s": route_s["iterative"],
        "localops.norm_iterations": iterations,
        "localops.gram_applies": counts["gram_applies"],
        "localops.norm_unconverged": unconverged,
        "matrices.operator_norm_dense_s": incl["matrices.operator_norm_dense"],
        # the input matrix and its Gram product, 16 bytes per complex entry
        "matrices.dense_bytes": sum(2 * 16 * d * d for d in eig_dims),
        "states.expectation_s": incl["states.expectation"],
        "states.average_variance_s": incl["states.average_variance"],
        "states.terms_contracted": sum(d["terms"] for d in infos("states.expectation")),
        "classical.cyclic_average_s": incl["classical.cyclic_average_eval"],
        "classical.poisson_bracket_s": incl["classical.poisson_bracket"],
        "classical.coeff_pairs": bracket_pairs,
        "classical.bracket_nonzero_ratio": _ratio(
            sum(d["out"] for d in brackets), bracket_pairs),
        "trace.spans": n,
    }
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_s[mod]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, passes):
    """Write the spans of every traced pass as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for i, (name, start, end, parent, _) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
