"""The library's design rules, checked on its source.

RULES is the table of pattern guards. Each guard names a code shape that
was removed from `src/fddp` and must not come back, with the reason, and
holds one or more checks. A check is a regular expression (written in
grep's extended dialect, or as `bre(...)` in its basic one), the scope it
applies to, the number of lines of that scope it must match (0 unless
stated) and a planted line that it must flag. A scope is every file under
`src/fddp`, one file, or one top-level function of a file
(`"file::function"`, its source segment cut out with `ast`). Every check
runs twice: on the source, where it must hold, and with its planted line
added to its scope, where it must fail.

The planted-defect catalogue (`tests/defects.py`) is checked here only for
freshness, with no test run: every entry still applies to the source.

The caller check scans `src/fddp` with `ast`: every function, class and
method defined there must be named by library code outside its own body
(the command line is library code), or be on ALLOWED with its reason.
Dunder methods are exempt, since the language calls them. The scan is by
name, so a definition counts as called when anything of the same name is:
it finds code that nothing reaches, not every path that is dead.
"""

import ast
import re
from collections import namedtuple
from pathlib import Path

import pytest
from defects import DEFECTS

REPO = Path(__file__).resolve().parents[1]
LIBRARY = "src/fddp"


# {path relative to the repository: text} of every file under src/fddp.
SOURCES = {
    path.relative_to(REPO).as_posix(): path.read_text()
    for path in sorted((REPO / LIBRARY).rglob("*"))
    if path.is_file() and "__pycache__" not in path.parts
}


def bre(pattern):
    """A grep basic regular expression in Python's syntax, where ( ) { } | + ?
    are literal characters. The table's basic patterns use none of the
    backslash operators of that dialect."""
    return re.sub(r"([(){}|+?])", r"\\\1", pattern)


Check = namedtuple("Check", "scope pattern planted count", defaults=(0,))

MANIFOLDS = f"{LIBRARY}/manifolds.py"

# Guard name: (reason, checks).
RULES = {
    "One Cholesky path in the library": (
        "Every factorization goes through contact._cholesky/_cholesky_solve; scipy's "
        "cho_factor/cho_solve wrappers must not come back beside it.",
        (Check(LIBRARY, r"cho_factor|cho_solve", "factor = cho_factor(M)"),),
    ),
    "LAPACK without scipy.linalg's package": (
        "contact._load_flapack loads LAPACK's Cholesky pair from scipy's compiled extension "
        "without running scipy/linalg/__init__; an import of scipy.linalg, which costs more "
        "memory and import time than a solve, must not come back. Docstrings may name the "
        "package. test_contact.test_a_solve_leaves_scipy_linalg_unimported checks the imports "
        "of a solve and of the command line.",
        (
            Check(
                LIBRARY,
                r"^\s*(from scipy\.linalg|import scipy\.linalg|from scipy import linalg)",
                "    from scipy import linalg",
            ),
        ),
    ),
    "No manifold Jacobian operators in the library": (
        "The Jacobians of integrate and difference are identities (up to sign) and are used in "
        "closed form; jintegrate/jdifference and the identity products they fed must not come "
        "back.",
        (Check(LIBRARY, r"jintegrate|jdifference", "Jx, Jdx = state.jintegrate(x, dx)"),),
    ),
    "No per-node KKT derivative loop in the library": (
        "Contact and impulse nodes take their derivatives from one stacked elimination per "
        "run (contact._kkt_solve_stacked); the per-node _kkt_partials path must not come back.",
        (Check(LIBRARY, bre("_kkt_partials"), "partials = _kkt_partials(M, Jc, rhs)"),),
    ),
    "One shared system evaluation per forward step": (
        "Each node's forward step takes M, the bias and its frame terms from one "
        "system.forward_terms call; the per-contact _assemble loop, which evaluated the "
        "monoped's basis five times per node, must not come back.",
        (Check(LIBRARY, bre("_assemble"), "rows = self._assemble(q, v)"),),
    ),
    "No per-node cost evaluation in the library": (
        "Node costs come from one stacked model.cost call per run after each sweep; the "
        "per-node _cost_value and a sum of per-node `.cost` fields must not come back.",
        (Check(LIBRARY, r"_cost_value|\.cost \+=|\+=.*\.cost *$", "total += data.cost"),),
    ),
    "One policy product per forward node": (
        "The forward passes take each node's [k | K] from ws.node_rows and form "
        "u = U_k + [k | K] [alpha; dx] in one product; re-slicing the padded k_ff[k][:nu] and "
        "K_fb[k][:nu] per node must not come back.",
        (Check(f"{LIBRARY}/solver.py", r"(k_ff|K_fb)\[k\]\[:", "u = U[k] + k_ff[k][:nu]"),),
    ),
    "No unread timers or gap copies in the solve report": (
        "SolveReport carries the rows and the termination only; the benchmark times solves "
        "with its own clock, and per-iteration timers or gap copies that nothing reads must not "
        "come back.",
        (Check(LIBRARY, r"gap_history|iter_times|deriv_times|\.timings", "report.timings = t"),),
    ),
    "One trajectory layout in the solve": (
        "Inside the solve a trajectory is the stacked states and the zero-padded controls "
        "(ShootingProblem.stack_controls, once, on entry), and the one data set is the "
        "problem's (running containers, stacks); per-node control lists, their re-stacking "
        "and a terminal container must not come back.",
        (Check(LIBRARY, r"terminal_data|U_new|_control_array", "U_new = [u.copy() for u in U]"),),
    ),
    "One control-Jacobian path": (
        "The quasi-static warm start takes each run's control Jacobian from the columns "
        "after column 0 of its one checked saddle-point solve at rest (the dynamics' stacked "
        "partials only where that solve gives up), in one Gauss-Newton step; the per-node "
        "Newton loop, its hand-written control Jacobians and the factors contact nodes kept "
        "for them must not come back.",
        (
            Check(
                LIBRARY,
                r"control_jacobian|apply_inverse|ContactWorkspace|QUASI_STATIC_MAX_ITERS"
                r"|QuasiStaticFailure",
                "B = dynamics.control_jacobian(x)",
            ),
        ),
    ),
    "One reader per scenario object": (
        "load_scenario reads, checks and converts each object of a scenario document once; the "
        "second conversion pass with its own cost dispatch and validators, the per-node impulse "
        "workspace and the initial-regularization option, each with one value in use, must not "
        "come back.",
        (
            Check(
                LIBRARY,
                r"make_cost_term|_validate_costs|_validate_contacts|ImpulseWorkspace"
                r"|regularization_init",
                "term = make_cost_term(entry, system)",
            ),
        ),
    ),
    "One planar-leg model": (
        "The monoped and the double pendulum are one two-link leg (systems._PlanarLeg) on a "
        "floating or a welded base; the double pendulum's hand-written closed forms, their "
        "helpers and the node label that nothing read must not come back.",
        (
            Check(
                LIBRARY,
                r"_matrices|_coupling|_gravity_torque|self\.label"
                r"|class DoublePendulum\(MechanicalSystem\)",
                "class DoublePendulum(MechanicalSystem):",
            ),
        ),
    ),
    "One stacked forward step per group in the warm start": (
        "calc_diff reads the dynamics' solutions from the stack (stack.dyn), where calc and "
        "calc_stack write them, and the quasi-static warm start takes a run's accelerations "
        "at rest from one checked saddle-point solve (a flow's from one flow_stack call); the "
        "per-node gather of data.dyn and a per-node acceleration or flow loop in the warm start "
        "must not come back.",
        (
            Check(LIBRARY, bre(r"data\.dyn for data in"), "dyn = [data.dyn for data in nodes]"),
            Check(
                f"{LIBRARY}/action.py::quasi_static_control",
                r"\.(acceleration|flow)\(",
                "a0 = [dynamics.acceleration(x, u) for x, u in zip(X, U)]",
            ),
        ),
    ),
    "One failure path in the warm start's batched solve": (
        "A warm start whose checked solve gives up falls back to the one node-by-node loop, "
        "ActionModelBase.calc_stack; a linear flow is its LinearDynamics system itself. A "
        "second node loop over a stack, the removed _replay and the LinearFlow pass-through "
        "wrapper must not come back.",
        (
            Check(LIBRARY, r"LinearFlow|_replay", "return self._replay(stack, X, U)"),
            Check(
                f"{LIBRARY}/action.py",
                bre("zip(stack.nodes, X, U)"),
                "for data, x, u in zip(stack.nodes, X, U):",
                count=1,
            ),
        ),
    ),
    "One rollout, and batching only where set-up batches": (
        "ShootingProblem._sweep is the one chained node sweep: the ddp start, rollout and both "
        "forward passes run through it, so the problem's _rollout and a node step in the solver "
        "must not come back. Only the base defines calc_stack (node by node); the batched "
        "forward step over mechanical dynamics (acceleration_stack and its calc_stack "
        "override) must not come back.",
        (
            Check(f"{LIBRARY}/problem.py", bre("def _rollout"), "def _rollout(self, x0, U):"),
            Check(f"{LIBRARY}/solver.py", bre(r"\.calc("), "model.calc(data, x, u)"),
            Check(LIBRARY, bre("acceleration_stack"), "a = dynamics.acceleration_stack(X, U)"),
            Check(
                f"{LIBRARY}/action.py",
                bre("def calc_stack"),
                "def calc_stack(self, stack, X, U):",
                count=1,
            ),
        ),
    ),
    "No library code that only tests reach": (
        "The point mass, value equality and hashing of contacts, and the manifolds' normalize "
        "and zero_tangent had no caller in the library; the tests use the monoped, the "
        "pendulum, integrate(q, 0) and zeros.",
        (
            Check(
                LIBRARY,
                r"PointMass|point_mass|def normalize|def zero_tangent|def __hash__",
                "def __hash__(self):",
            ),
        ),
    ),
    "One manifold class": (
        "A state space is its size and its angle coordinates: Manifold alone defines equality, "
        "and VectorSpace, Rotation2D and CompositeManifold are only constructors. Per-class "
        "equality, repr and the neutral() origin (np.zeros(nx) everywhere) must not come back, "
        "nor sampling, which only the tests' inputs use (tests/sampling.py).",
        (
            Check(MANIFOLDS, bre("def __eq__("), "def __eq__(self, other):", count=1),
            Check(MANIFOLDS, bre("def random_point("), "def random_point(self, rng):"),
            Check(MANIFOLDS, bre("def random_tangent("), "def random_tangent(self, rng):"),
            Check(MANIFOLDS, r"def (neutral|__repr__)\b", "def neutral(self):"),
        ),
    ),
    "Node views and warm-start states cut in bulk": (
        "A stack's node containers come from one pass over the rows of its arrays, and the "
        "quasi-static warm start's states from one stacked integrate call; the per-index "
        "ActionData(stack, i) construction and a per-node integrate comprehension in "
        "build_warm_start must not come back.",
        (
            Check(LIBRARY, r"ActionData\((self|stack), ", "data = ActionData(stack, k)"),
            Check(
                f"{LIBRARY}/scenarios.py::build_warm_start",
                r"integrate\(.*\bfor\b|\(k / M\)",
                "X = [state.integrate(x0, (k / M) * step) for k in range(M)]",
            ),
        ),
    ),
    "One data set per problem": (
        "A problem builds its nodes' one data set with itself, and every sweep of a solve, its "
        "trials included, writes there: a node's calc writes only xnext and dyn, so the "
        "iterate's derivatives outlive a rejected search. A second set per solve "
        "(create_datas), its swap on acceptance, a data-set argument and the per-set cache of "
        "Riccati rows must not come back.",
        (
            Check(
                LIBRARY,
                r"create_datas|_riccati_rows|\bdatas=|def \w+\([^)]*\b(datas|stacks)\b",
                "def calc_diff(self, X, U, datas=None):",
            ),
        ),
    ),
    "One node layout": (
        "ShootingProblem.runs, (model, lo, hi) for each run of consecutive nodes that share a "
        "model, is the problem's only node layout: every stacked pass takes the slice lo:hi, "
        "and the stacks' rows are the nodes' in node order. The index-array groups "
        "(problem.groups, group_of and the labels they were cut from) must not come back.",
        (
            Check(
                LIBRARY,
                r"\.groups\b|group_of|flatnonzero\(labels",
                "for model, nodes in problem.groups:",
            ),
        ),
    ),
    "One node step at given points": (
        "ActionModelBase.calc_stack is the one loop that steps nodes at given points: the fddp "
        "start makes one call per run and the derivative audit one per finite-difference "
        "perturbation over all its samples; ShootingProblem._sweep, the one chained rollout, is the "
        "only other node step in problem.py. A per-node loop in _calc, a lone-node container "
        "(create_data) and the scalar numdiff.gradient, which only that per-sample audit "
        "called, must not come back.",
        (
            Check(LIBRARY, r"create_data|def gradient", "d = model.create_data()"),
            Check(
                f"{LIBRARY}/problem.py",
                bre(r"\.calc("),
                "model.calc(data, X[k], U[k, : model.nu])",
                count=1,
            ),
        ),
    ),
    "Riccati rows and scratch cut once per solve": (
        "backward_pass reads each node's [f_x | f_u]^T from SolverWorkspace.riccati_rows, cut "
        "once from the problem's one data set when the workspace is built, and writes its "
        "temporaries into the workspace's scratch; a transposed product formed per node must "
        "not come back.",
        (
            Check(
                f"{LIBRARY}/solver.py::backward_pass",
                r"\]\.T @|\.T @ W",
                "Q_u = data.Fz[k].T @ V_x",
            ),
        ),
    ),
}

ROWS = [
    pytest.param(name, check, id=name if len(checks) == 1 else f"{name} ({i})")
    for name, (_, checks) in RULES.items()
    for i, check in enumerate(checks, 1)
]


def top_level_functions(source):
    return {node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def scope_texts(scope, sources):
    """(path, number of the first line, text) of each part of the scope."""
    path, _, function = scope.partition("::")
    if function:
        node = top_level_functions(sources[path])[function]
        return [(path, node.lineno, ast.get_source_segment(sources[path], node))]
    return [(p, 1, text) for p, text in sources.items() if p == path or p.startswith(f"{path}/")]


def matches(check, sources):
    """The lines of the check's scope that its pattern matches, as path:line: text."""
    pattern = re.compile(check.pattern)
    return [
        f"{path}:{first + i}: {line}"
        for path, first, text in scope_texts(check.scope, sources)
        for i, line in enumerate(text.splitlines())
        if pattern.search(line)
    ]


def planted(check, sources, inside=True):
    """The sources with the check's planted line added to its scope: as a new
    module under src/fddp, at the end of a file, or as the last line of a
    function's body (after the function, at module level, when not `inside`)."""
    sources = dict(sources)
    path, _, function = check.scope.partition("::")
    if path == LIBRARY:
        sources[f"{LIBRARY}/planted.py"] = check.planted + "\n"
    elif function:
        lines = sources[path].splitlines()
        end = top_level_functions(sources[path])[function].end_lineno
        lines.insert(end, ("    " if inside else "") + check.planted)
        sources[path] = "\n".join(lines) + "\n"
    else:
        sources[path] += check.planted + "\n"
    return sources


@pytest.mark.parametrize("name, check", ROWS)
def test_the_library_keeps_the_design_rule(name, check):
    found = matches(check, SOURCES)
    assert len(found) == check.count, (
        f"{name}: {RULES[name][0]}\n{check.scope} has {len(found)} lines matching "
        f"{check.pattern!r}, not {check.count}:\n" + "\n".join(found)
    )


@pytest.mark.parametrize("name, check", ROWS)
def test_the_design_rule_flags_its_planted_violation(name, check):
    found = len(matches(check, SOURCES))
    assert len(matches(check, planted(check, SOURCES))) == found + 1
    if "::" in check.scope:
        # The scope is the function: the same line after it is not counted.
        assert len(matches(check, planted(check, SOURCES, inside=False))) == found


# ---------------------------------------------------------------------------
# every definition has a caller
# ---------------------------------------------------------------------------

# Public entry points that no library code calls, with their reasons.
ALLOWED = {
    "problem.ShootingProblem.rollout": "a checked public entry point that README documents: "
    "the states that a control sequence reaches from x0; solve runs the same sweep unchecked",
    "problem.ShootingProblem.calc": "a checked public entry point that README documents: "
    "the costs and gaps of a guess; solve runs the same evaluation unchecked",
}


def definitions(module, tree):
    """(qualified name, node) of every function, class and method in the tree."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, module + ".")
    return found


def without_caller(sources, allowed):
    """Qualified names of the definitions in the Python sources that no code
    outside their own body names, less the allowed ones and the dunders."""
    trees = {Path(p).stem: ast.parse(text) for p, text in sources.items() if p.endswith(".py")}
    named = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                named.setdefault(name, []).append((module, node.lineno))
    return [
        qualname
        for module, tree in trees.items()
        for qualname, node in definitions(module, tree)
        if qualname not in allowed
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and all(
            m == module and node.lineno <= line <= node.end_lineno
            for m, line in named.get(node.name, ())
        )
    ]


def test_every_library_definition_has_a_caller_or_a_reason():
    assert without_caller(SOURCES, ALLOWED) == []
    defined = {
        qualname
        for path, text in SOURCES.items()
        if path.endswith(".py")
        for qualname, _ in definitions(Path(path).stem, ast.parse(text))
    }
    assert set(ALLOWED) <= defined


def test_the_caller_check_flags_exactly_the_uncalled_definition():
    # `countdown` names only itself; `entry` is allowed; `helper` is called.
    module = (
        "def helper():\n    return 1\n\n\n"
        "def countdown(n):\n    return countdown(n - 1) if n else helper()\n\n\n"
        "def entry():\n    return 2\n"
    )
    allowed = {"synthetic.entry": "an entry point"}
    assert without_caller({f"{LIBRARY}/synthetic.py": module}, allowed) == ["synthetic.countdown"]
    problem = f"{LIBRARY}/problem.py"
    orphan = dict(SOURCES, **{problem: SOURCES[problem] + "\n\ndef orphan():\n    pass\n"})
    new = set(without_caller(orphan, ALLOWED)) - set(without_caller(SOURCES, ALLOWED))
    assert new == {"problem.orphan"}


# ---------------------------------------------------------------------------
# the planted-defect catalogue still applies
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("defect", DEFECTS, ids=[defect.name for defect in DEFECTS])
def test_the_planted_defect_applies_to_the_source(defect):
    # A refactor that moves planted code updates its entry in the same change.
    text = (REPO / defect.file).read_text()
    assert text.count(defect.old) == 1, f"{defect.name}: old text not once in {defect.file}"
    assert defect.new != defect.old
    compile(text.replace(defect.old, defect.new), defect.file, "exec")
    assert [d.name for d in DEFECTS].count(defect.name) == 1
