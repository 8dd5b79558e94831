(** Rewrite-based secure read path: evaluate a user query directly on the
    shared source document, in product with the user's visibility, with
    no per-user view materialisation.

    A downward query ({!Xpath.Ast.is_downward}) compiles to one
    {!Xpath.Compile} automaton; {!select} runs it with the
    {!Lazy_view}'s visibility oracle and label remapping as the view
    callback — hidden subtrees are pruned wholesale and position-only
    nodes present their [RESTRICTED] label to the automaton's name
    tests.  The run over the lazy view's snapshot takes one of two
    plans, chosen per query from the
    snapshot's posting-list lengths ({!anchor}): an {e anchored} run
    over the label-index candidates of every union branch
    ({!Xpath.Compile.anchor_ranges}; only candidates the oracle shows
    under their source label), each re-threaded down its ancestor
    chain, or a {e scan} of every visible row
    ({!Xpath.Compile.fold_view_flat}) when some branch has no name test,
    a name test asks for [RESTRICTED], or the candidates are too dense.
    Both give the same answers.  Non-downward queries (predicates, upward
    axes, [$USER]) fall back to the general evaluator over
    {!Lazy_view.source}, which enforces the same axioms per axis call on
    the same snapshot and visibility oracle (and answers [//a[b]] from
    the label index, see {!Xpath.Eval.select}).  Either way the answers
    are exactly those of evaluating the query on the materialised view,
    in document order — the equivalence [test/test_rewrite.ml] checks
    differentially on seeded (policy, document, query) triples, against
    axioms 15–17 derived on the node map.

    A plan mentions neither the user nor the policy: downward queries
    cannot reference [$USER], so one compiled plan is shared across all
    sessions (see [Serve]'s plan cache). *)

type t
(** A planned query: the parsed expression plus, when the query is
    downward, its compiled automaton. *)

val plan : Xpath.Ast.expr -> t

val plan_str : string -> t
(** @raise Xpath.Parser.Error *)

val compiled : t -> bool
(** Did the query compile (downward fragment), i.e. will {!select} take
    the one-pass product path rather than the lazy-view fallback? *)

val expr : t -> Xpath.Ast.expr

val anchorable : t -> Xmldoc.Flat.t -> Xpath.Compile.anchor option
(** The query's label-index anchor on this snapshot, whatever it would
    cost; [None] when the plan did not compile, when some branch has no
    name test, or when a name test asks for [RESTRICTED]. *)

val anchor : t -> Xmldoc.Flat.t -> Xpath.Compile.anchor option
(** The anchored plan {!select} takes on this snapshot: {!anchorable},
    kept when {!Xpath.Compile.anchor_pays}.  [None] means a scan (or,
    for a plan that did not compile, the fallback). *)

val select :
  ?vars:(string * Xpath.Value.t) list -> ?stats:Xpath.Compile.stats ->
  t -> Lazy_view.t -> Ordpath.t list
(** Answers on the virtual view, ascending document order.  [vars]
    ([$USER]) only affects the fallback path — a compiled plan is
    variable-free by construction.  [?stats] fills traversal counters for
    plan explainability: on the compiled path exactly as
    {!Xpath.Compile.fold_ranges_flat} defines them, with [anchors] naming
    the labels an anchored plan read; on the fallback path
    [visited] is the number of nodes the view's source handed to the
    evaluator ({!Xpath.Source.counting}; [states] and [pruned] stay
    untouched — there is no automaton product). *)

val select_str :
  ?vars:(string * Xpath.Value.t) list -> Lazy_view.t -> string ->
  Ordpath.t list
(** [plan_str] + {!select} (one-shot; callers with repeated queries
    should cache the plan). *)
