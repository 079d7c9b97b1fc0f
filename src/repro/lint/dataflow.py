"""Worklist dataflow over the project call graph.

The interprocedural rules (:mod:`repro.lint.interproc`) all reduce to two
graph questions, answered here:

- **Reachability with provenance** (:func:`reachable`): which functions can
  a set of roots transitively call, and — for diagnostics — through which
  chain?  Rule messages print the chain (``run_sweep -> _run_instance_group
  -> _solve_unit_tasks``) so a violation three hops from its root is
  actionable without the reader re-deriving the path.

- **Effect closure** (:func:`effect_closure`): for each root, every effect
  fact (wall-clock read, raw write, global mutation, ...) observable in its
  transitive callees, tagged with the file/line where the effect lives and
  the chain that reaches it.  The kernel-purity certificate is exactly the
  statement that this closure, filtered to the impure kinds, is empty.

Both run a plain breadth-first worklist: the graph is a few hundred nodes,
so asymptotics are irrelevant, but determinism is not — iteration order is
sorted everywhere so two runs over the same extracts emit findings in the
same order (the lint report is committed JSON; nondeterministic ordering
would make every CI run a spurious diff).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallGraph, Effect


@dataclass(frozen=True)
class Reached:
    """One function in a closure, with the chain that proves membership."""

    qual: str
    root: str
    #: Call chain from root to this function, inclusive of both ends.
    chain: Tuple[str, ...]


def reachable(graph: CallGraph, roots: Sequence[str]) -> Dict[str, Reached]:
    """BFS closure of *roots* with one (shortest, first-found) chain each.

    Roots absent from the graph are skipped silently: a rule may list
    aspirational entry points (e.g. a registry decorator no file uses yet)
    without failing.  BFS from the sorted root list makes the retained
    chain deterministic: shortest first, lexicographically earliest root
    wins ties.
    """
    closure: Dict[str, Reached] = {}
    queue: deque[Reached] = deque()
    for root in sorted(set(roots)):
        if root in graph.symbols and root not in closure:
            entry = Reached(qual=root, root=root, chain=(root,))
            closure[root] = entry
            queue.append(entry)
    while queue:
        current = queue.popleft()
        for callee in graph.callees(current.qual):
            if callee in closure:
                continue
            entry = Reached(
                qual=callee,
                root=current.root,
                chain=current.chain + (callee,),
            )
            closure[callee] = entry
            queue.append(entry)
    return closure


@dataclass(frozen=True)
class ReachedEffect:
    """One effect fact observed somewhere in a root's call closure."""

    effect: Effect
    #: Function whose body contains the effect.
    qual: str
    rel: str
    #: Chain from the closure root to ``qual``.
    chain: Tuple[str, ...]


def effect_closure(
    graph: CallGraph,
    roots: Sequence[str],
    kinds: Optional[Set[str]] = None,
) -> List[ReachedEffect]:
    """Every effect of the given *kinds* in the closure of *roots*.

    Sorted by (rel, line, kind) so the emitting rule's findings are stable
    across runs and machines.
    """
    closure = reachable(graph, roots)
    out: List[ReachedEffect] = []
    for qual in sorted(closure):
        fn = graph.functions.get(qual)
        if fn is None:
            continue
        rel = graph.symbols[qual].rel
        for effect in fn.effects:
            if kinds is not None and effect.kind not in kinds:
                continue
            out.append(
                ReachedEffect(
                    effect=effect,
                    qual=qual,
                    rel=rel,
                    chain=closure[qual].chain,
                )
            )
    out.sort(key=lambda r: (r.rel, r.effect.line, r.effect.kind, r.effect.detail))
    return out


def format_chain(chain: Tuple[str, ...], root_name: str) -> str:
    """Render a call chain compactly, stripping the common root prefix.

    ``repro.experiments.sweep.run_sweep`` inside root ``repro`` renders as
    ``experiments.sweep.run_sweep`` — shorter, and identical across fixture
    packages and the real tree (golden-test friendly).
    """
    prefix = f"{root_name}."
    trimmed = [
        qual[len(prefix):] if qual.startswith(prefix) else qual
        for qual in chain
    ]
    return " -> ".join(trimmed)
