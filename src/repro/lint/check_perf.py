"""SL9xx: hot-path performance rules (the profile-guided family).

PR 9's engine rewrite bought its speedups from a handful of structural
invariants — no per-event closure allocation, flat native-comparable
heap tuples, ``__slots__`` engine objects, lazy wait/trace label
formatting, and a hybrid network fast path that stays armed only while
no process-global tracer/fault-plan/profiler is installed. Benchmarks
catch regressions after the fact; this family catches them at lint
time:

* **SL901** — a lambda (or other closure) allocated as a callback
  argument inside a *process-classified* function: every loop iteration
  of a process body re-allocates it, and scheduling closures defeats
  the engine's bound-method fast paths. Autofix (where mechanical):
  ``lambda: self.meth()`` → ``self.meth``.
* **SL902** — hot-path data contract violations: an attribute write on
  ``self`` that is not in the class's ``__slots__`` declaration, or a
  ``heappush`` of an entry that is not a flat tuple literal (the
  EventQueue heap compares entries natively; wrapping them in objects
  re-introduces ``__lt__`` dispatch per sift).
* **SL903** — eager string formatting for a wait description or trace
  label: hot-path code must store the *command object* and format lazily
  (``_describe``-style thunks), or guard the formatting behind an
  ``is not None`` check on the tracer so untraced runs never pay it.
* **SL904** — module-import-time tracer/fault-plan/profiler
  installation: a process-global ``install()`` at import time silently
  disables the hybrid network fast path for every subsequent run in the
  process. Install inside the run (``faults_from`` / ``tracing_to`` /
  ``profiling_to`` context managers) instead.
* **SL905** — linear membership scans (``x in some_list``) inside loops
  of process-classified functions: O(n) per event; use a set or dict.

All five are *program* rules: SL901/SL903/SL905 need the interprocedural
process classification, SL904 needs the module's import alias table.
Whether the fast path actually fires at run time is checked on the
drivers themselves through :func:`repro.network.simnet.transfer_totals`
(``tests/lint/test_eligibility.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.core import Finding, Fix, call_name, register_program
from repro.lint.program import Program, _body_nodes, _class_map, _finding

#: Dotted call targets that install a process-global observer and thereby
#: disable the hybrid network fast path for every subsequent run. Both
#: the defining module's name and the package re-export are listed so a
#: module's own import aliases resolve without the target package being
#: in the linted file set.
INSTALLER_TARGETS = frozenset(
    {
        "repro.obs.tracer.install",
        "repro.obs.tracer.installed",
        "repro.obs.install",
        "repro.obs.installed",
        "repro.faults.plan.install_plan",
        "repro.faults.plan.installed_plan",
        "repro.faults.install_plan",
        "repro.faults.installed_plan",
        "repro.prof.profiler.install_profiler",
        "repro.prof.profiler.installed_profiler",
        "repro.prof.install_profiler",
        "repro.prof.installed_profiler",
    }
)


# -- shared helpers ----------------------------------------------------------

def _eager_format(node: ast.AST) -> bool:
    """True for expressions that format a string at evaluation time."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(v, ast.FormattedValue) for v in node.values)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "format":
            return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Mod) and isinstance(node.left, ast.Constant) \
                and isinstance(node.left.value, str):
            return True
        if isinstance(node.op, ast.Add):
            return _eager_format(node.left) or _eager_format(node.right)
    return False


def _assign_targets(node: ast.AST) -> Iterator[ast.expr]:
    """Flattened assignment targets of an Assign/AnnAssign/AugAssign."""
    if isinstance(node, ast.Assign):
        targets: Sequence[ast.expr] = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        else:
            yield t


def _function_key(program: Program, filename: str, func: ast.FunctionDef,
                  class_name: Optional[str]) -> str:
    qual = f"{class_name}.{func.name}" if class_name else func.name
    return f"{program.module_of(filename)}:{qual}"


def _own_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    yield from _body_nodes(body)


@register_program
class PerfChecker:
    """SL9xx: statically guard the PR-9 hot-path invariants."""

    family = "perf"
    rules = {
        "SL901": "per-event closure/lambda allocated in a process "
        "function (hoist to a bound method)",
        "SL902": "hot-path contract violation: non-__slots__ attribute "
        "write, or non-flat entry pushed to a heap",
        "SL903": "eager string formatting for a wait description / trace "
        "label (store the object, format lazily, or guard on the tracer)",
        "SL904": "module-import-time tracer/fault-plan/profiler "
        "installation disables the hybrid fast path process-wide",
        "SL905": "linear membership scan ('x in list') inside a process "
        "loop (use a set or dict)",
    }

    def check(
        self, tree: ast.Module, filename: str, program: Program
    ) -> Iterator[Finding]:
        yield from self._check_import_time_installs(tree, filename, program)
        yield from self._check_slots_classes(tree, filename)
        for func, class_name in _class_map(tree).items():
            key = _function_key(program, filename, func, class_name)
            is_process = program.classifier.is_process(key)
            yield from self._check_tracer_labels(func, filename, is_process)
            yield from self._check_heap_pushes(func, filename)
            if not is_process:
                continue
            yield from self._check_closures(func, filename)
            yield from self._check_membership_scans(func, filename)

    # -- SL901: closure allocation in process functions ----------------------

    #: Call targets that *defer* their callable argument: a lambda handed
    #: to one of these is retained and invoked later, per event. Lambdas
    #: passed elsewhere (sort keys, cost functions, combiners) are called
    #: inline and are not per-event allocations.
    CALLBACK_SINKS = frozenset(
        {"schedule", "push", "add_callback", "call_later", "call_at",
         "defer", "timeout_event", "spawn"}
    )

    def _check_closures(
        self, func: ast.FunctionDef, filename: str
    ) -> Iterator[Finding]:
        for node in _own_nodes(func.body):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in self.CALLBACK_SINKS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for arg in values:
                if isinstance(arg, ast.Lambda):
                    yield _finding(
                        self, "SL901", arg, filename,
                        f"lambda allocated per event inside process "
                        f"function '{func.name}' — every resumption "
                        f"re-allocates the closure; hoist to a bound "
                        f"method or module function",
                        fix=self._hoist_fix(arg),
                    )

    @staticmethod
    def _hoist_fix(lam: ast.Lambda) -> Optional[Fix]:
        """``lambda: self.meth()`` → ``self.meth`` (receiver must be
        ``self`` and the call argument-free, so re-binding is a pure
        notation change)."""
        if lam.args.args or lam.args.posonlyargs or lam.args.kwonlyargs \
                or lam.args.vararg or lam.args.kwarg:
            return None
        body = lam.body
        if not (isinstance(body, ast.Call) and not body.args
                and not body.keywords):
            return None
        target = body.func
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return None
        end_line = getattr(lam, "end_lineno", None)
        end_col = getattr(lam, "end_col_offset", None)
        if end_line is None or end_col is None:
            return None
        from repro.lint.core import Edit

        return Fix(
            (Edit(lam.lineno, lam.col_offset, end_line, end_col,
                  ast.unparse(target)),),
            "replace the lambda with the bound method",
        )

    # -- SL902a: __slots__ attribute discipline ------------------------------
    def _check_slots_classes(
        self, tree: ast.Module, filename: str
    ) -> Iterator[Finding]:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            # Inherited slots/dict are invisible here: only check classes
            # with no bases (engine value classes are exactly that shape).
            if node.bases or node.keywords:
                continue
            slots = self._slots_of(node)
            if slots is None:
                continue
            declared = slots | self._class_level_names(node)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield from self._check_self_writes(
                        item, node.name, declared, filename
                    )

    @staticmethod
    def _slots_of(cls_node: ast.ClassDef) -> Optional[Set[str]]:
        for stmt in cls_node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "__slots__"
                and isinstance(stmt.value, (ast.Tuple, ast.List))
                and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in stmt.value.elts
                )
            ):
                return {e.value for e in stmt.value.elts}
        return None

    @staticmethod
    def _class_level_names(cls_node: ast.ClassDef) -> Set[str]:
        """Names a slotted class's methods may still assign through:
        descriptors (properties) and other class-level definitions."""
        names: Set[str] = set()
        for stmt in cls_node.body:
            if isinstance(stmt, ast.FunctionDef):
                names.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
        return names

    def _check_self_writes(
        self, meth: ast.FunctionDef, cls: str, declared: Set[str], filename: str
    ) -> Iterator[Finding]:
        for node in _own_nodes(meth.body):
            for target in _assign_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in declared
                ):
                    yield _finding(
                        self, "SL902", target, filename,
                        f"'{cls}.{meth.name}' writes 'self.{target.attr}' "
                        f"but {cls}.__slots__ does not declare it — the "
                        f"write raises AttributeError at runtime; add it "
                        f"to __slots__ or drop the dynamic attribute",
                    )

    # -- SL902b: flat heap entries -------------------------------------------
    def _check_heap_pushes(
        self, func: ast.FunctionDef, filename: str
    ) -> Iterator[Finding]:
        pushes: List[ast.Call] = []
        tuple_names: Dict[str, bool] = {}  # name → all assignments are tuples
        for node in _own_nodes(func.body):
            if isinstance(node, ast.Call) and call_name(node) == "heappush" \
                    and len(node.args) >= 2:
                pushes.append(node)
            else:
                for target in _assign_targets(node):
                    if isinstance(target, ast.Name):
                        value = getattr(node, "value", None)
                        if value is None:
                            continue
                        flat = isinstance(value, ast.Tuple)
                        prev = tuple_names.get(target.id, True)
                        tuple_names[target.id] = prev and flat
        for push in pushes:
            item = push.args[1]
            if isinstance(item, ast.Tuple):
                continue
            if isinstance(item, ast.Name) and tuple_names.get(item.id, False):
                continue
            if isinstance(item, ast.Name) and item.id not in tuple_names:
                continue  # parameter / outer binding: shape unknown, stay quiet
            yield _finding(
                self, "SL902", push, filename,
                "heappush of a non-flat entry — the event heap compares "
                "entries natively, so push flat tuples of native-"
                "comparable fields (see repro.simengine.queue)",
            )

    # -- SL903: lazy wait descriptions / trace labels ------------------------
    _LABELISH = ("desc", "label", "wait")

    def _check_tracer_labels(
        self, func: ast.FunctionDef, filename: str, is_process: bool
    ) -> Iterator[Finding]:
        guarded = self._none_guard_spans(func)
        for node in _own_nodes(func.body):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("begin", "complete"):
                receiver = node.func.value
                if not self._tracerish(receiver):
                    continue
                values = list(node.args) + [kw.value for kw in node.keywords]
                if not any(_eager_format(v) for v in values):
                    continue
                if self._is_guarded(receiver, node.lineno, guarded):
                    continue
                yield _finding(
                    self, "SL903", node, filename,
                    "eagerly formatted trace label on an unguarded tracer "
                    "call — untraced runs pay the formatting; guard with "
                    "'if tracer is not None:' or format lazily",
                )
            elif is_process and isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                if value is None or not _eager_format(value):
                    continue
                for target in _assign_targets(node):
                    name = target.attr if isinstance(target, ast.Attribute) \
                        else target.id if isinstance(target, ast.Name) else ""
                    if any(tok in name.lower() for tok in self._LABELISH):
                        yield _finding(
                            self, "SL903", node, filename,
                            f"wait description/label '{name}' is formatted "
                            f"eagerly in a process function — store the "
                            f"command object and format on demand "
                            f"(_describe-style), as most waits never "
                            f"surface in a report",
                        )
                        break

    @staticmethod
    def _tracerish(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return "tracer" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "tracer" in node.attr.lower()
        return False

    @staticmethod
    def _none_guard_spans(
        func: ast.FunctionDef,
    ) -> List[Tuple[str, int, int]]:
        """(dump of guarded expr, first line, last line) for every region
        in which a tracer-ish expression is known non-None: the body of
        ``if X is not None:`` / ``if X:``, and everything after an
        ``if X is None: return`` early exit."""
        spans: List[Tuple[str, int, int]] = []
        func_end = getattr(func, "end_lineno", func.lineno) or func.lineno
        for node in _own_nodes(func.body):
            if not isinstance(node, ast.If):
                continue
            tested: Set[str] = set()
            if isinstance(node.test, (ast.Name, ast.Attribute)):
                tested.add(ast.dump(node.test))
            for sub in ast.walk(node.test):
                if (
                    isinstance(sub, ast.Compare)
                    and len(sub.ops) == 1
                    and isinstance(sub.ops[0], ast.IsNot)
                    and isinstance(sub.comparators[0], ast.Constant)
                    and sub.comparators[0].value is None
                ):
                    tested.add(ast.dump(sub.left))
            if tested:
                lo = node.lineno
                hi = max(
                    (getattr(s, "end_lineno", s.lineno) or s.lineno)
                    for s in node.body
                )
                for dump in tested:
                    spans.append((dump, lo, hi))
                continue
            # early exit: `if X is None: return` guards the rest of the
            # function
            test = node.test
            if (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and node.body
                and isinstance(node.body[-1], (ast.Return, ast.Raise,
                                               ast.Continue, ast.Break))
                and not node.orelse
            ):
                hi = getattr(node, "end_lineno", node.lineno) or node.lineno
                spans.append((ast.dump(test.left), hi + 1, func_end))
        return spans

    @staticmethod
    def _is_guarded(
        receiver: ast.expr, lineno: int, spans: List[Tuple[str, int, int]]
    ) -> bool:
        dump = ast.dump(receiver)
        return any(d == dump and lo <= lineno <= hi for d, lo, hi in spans)

    # -- SL904: import-time installation -------------------------------------
    def _check_import_time_installs(
        self, tree: ast.Module, filename: str, program: Program
    ) -> Iterator[Finding]:
        summary = program.table.modules.get(program.module_of(filename))
        aliases = summary.aliases if summary is not None else {}
        stack: List[ast.AST] = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue  # not import time
            if isinstance(node, ast.Call):
                dotted = self._dotted_target(node, aliases)
                if dotted in INSTALLER_TARGETS:
                    leaf = dotted.rsplit(".", 1)[1]
                    yield _finding(
                        self, "SL904", node, filename,
                        f"module-import-time '{leaf}(...)' installs a "
                        f"process-global observer and silently disables "
                        f"the hybrid network fast path for every run in "
                        f"this process — install inside the run "
                        f"(faults_from/tracing_to/profiling_to)",
                    )
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _dotted_target(call: ast.Call, aliases: Dict[str, str]) -> Optional[str]:
        func = call.func
        parts: List[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        parts.append(aliases.get(func.id, func.id))
        return ".".join(reversed(parts))

    # -- SL905: membership scans in process loops ----------------------------
    def _check_membership_scans(
        self, func: ast.FunctionDef, filename: str
    ) -> Iterator[Finding]:
        list_names: Set[str] = set()
        nonlist_names: Set[str] = set()
        for node in _own_nodes(func.body):
            for target in _assign_targets(node):
                if not isinstance(target, ast.Name):
                    continue
                value = getattr(node, "value", None)
                if value is None:
                    continue
                if isinstance(value, ast.List) or (
                    isinstance(value, ast.Call) and call_name(value) == "list"
                ):
                    list_names.add(target.id)
                else:
                    nonlist_names.add(target.id)
        list_names -= nonlist_names  # re-bound to something else: unknown
        seen: Set[Tuple[int, int]] = set()
        for loop in _own_nodes(func.body):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in _body_nodes(loop.body):
                if not (
                    isinstance(node, ast.Compare)
                    and len(node.ops) == 1
                    and isinstance(node.ops[0], (ast.In, ast.NotIn))
                ):
                    continue
                where = (node.lineno, node.col_offset)
                if where in seen:
                    continue
                right = node.comparators[0]
                scanned = None
                if isinstance(right, ast.List):
                    scanned = "a list literal"
                elif isinstance(right, ast.Name) and right.id in list_names:
                    scanned = f"list '{right.id}'"
                if scanned is None:
                    continue
                seen.add(where)
                yield _finding(
                    self, "SL905", node, filename,
                    f"membership test against {scanned} inside a loop of "
                    f"process function '{func.name}' — O(n) per event; "
                    f"use a set or dict",
                )
