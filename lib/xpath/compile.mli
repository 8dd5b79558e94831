(** One-pass compiled matcher for the downward fragment ({!Ast.is_downward}).

    [compile] merges any number of payload-carrying downward paths into a
    single NFA keyed by label tests; a traversal then resolves {e all}
    payloads for {e every} node in one top-down pass over the document,
    threading the automaton state from parent to child, instead of one
    {!Eval.select} per path.  Matching agrees with {!Eval.select}
    membership on the fragment (starting context = document node, the
    tree axes skipping attribute nodes and their text values).

    The compiled value is immutable — it can be shared freely across
    domains (see [Core.Pool]); the determinised state-set memo is private
    to each traversal, except on a {!shared} run. *)

type 'a t
(** An automaton whose accepting states carry ['a] payloads. *)

val compile : ('a * Ast.expr) list -> 'a t
(** Merge the given (payload, path) pairs — each expression a union of
    downward paths — into one automaton.
    @raise Invalid_argument if an expression is outside the downward
    fragment (guard with {!Ast.is_downward}). *)

val state_count : 'a t -> int
(** Number of NFA states (diagnostics). *)

val fold :
  'a t -> Xmldoc.Document.t -> init:'b ->
  f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** Single document-order pass over the node map; [f] is called exactly
    once for every node at least one payload accepts (document node
    included), with the accepted payloads.  Payload order within the
    list is unspecified and a payload may repeat when several of its
    paths accept the node.  The map folds serve transaction staging only
    ([Core.Perm.update] without a snapshot); every other traversal runs
    on a snapshot (see below). *)

type stats = {
  mutable visited : int;  (** nodes the automaton consumed *)
  mutable pruned : int;
      (** nodes skipped wholesale — a pruned root plus every node inside
          its contiguous ordpath range *)
  mutable states : int;  (** distinct determinised state sets interned *)
  mutable anchors : string list;
      (** the labels an anchored run read its candidates from ([[]] for a
          full scan); set by the caller that chose the plan *)
}
(** Per-traversal counters for plan explainability.  This library sits
    below the observability layer, so the counters are a plain mutable
    record; callers aggregate them (see [Obs.Planlog]). *)

val stats : unit -> stats
(** A fresh all-zero counter record. *)

val fold_subtree :
  'a t -> Xmldoc.Document.t -> root:Ordpath.t -> init:'b ->
  f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** {!fold} restricted to the subtree rooted at [root] (inclusive): the
    automaton state is re-threaded down the ancestor chain of [root] and
    the traversal then covers only the subtree — the delta-locality path
    of [Core.Perm.update] on a staged document.  No-op returning [init]
    when [root] is not in the document. *)

(** {1 Flat-snapshot traversals}

    The same runs over an {!Xmldoc.Flat} columnar snapshot.  Answers
    coincide with the map-backed {!fold} over the frozen document; the
    traversal itself is an index scan — the ancestor stack pops on one
    integer compare per node and a pruned subtree is skipped by jumping
    to its [subtree_end] instead of visiting it. *)

val fold_flat :
  'a t -> Xmldoc.Flat.t -> init:'b ->
  f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** {!fold} over a flat snapshot. *)

val fold_view_flat :
  ?stats:stats ->
  'a t -> Xmldoc.Flat.t ->
  view:(int -> Xmldoc.Node.t -> Xmldoc.Node.t option) ->
  init:'b -> f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** {!fold_flat} over the {e virtual} document induced by [view]: a
    node for which [view] returns [None] is pruned together with its
    whole subtree, at O(1) cost; otherwise the returned node (which must
    keep the source identifier, but may carry a different label — e.g.
    [RESTRICTED]) is what the automaton consumes and what [f] receives.
    Equivalent to materialising the virtual document and running
    {!fold_flat} on it — the product of the query automaton with the
    visibility predicate, computed in one shared pass ([Core.Rewrite]'s
    read path).  The callback receives the node's flat index, so a
    caller holding a per-index visibility oracle (e.g.
    [Core.Perm.flat_visibility]) answers in O(1) with no ordpath
    hashing.  When [?stats] is given its counters are incremented in
    place.  This is {!fold_ranges_flat} over the single range of all
    rows. *)

val fold_ranges_flat :
  ?stats:stats ->
  ?view:(int -> Xmldoc.Node.t -> Xmldoc.Node.t option) ->
  'a t -> Xmldoc.Flat.t -> ranges:(int * int) list -> init:'b ->
  f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** The rows inside [ranges] — half-open [[lo, hi)] row spans, disjoint
    and ascending — in one shared run.  Before each range the automaton
    is re-threaded down the ancestor chain of [lo] without folding [f]
    over it; [f] then sees exactly what {!fold_view_flat} would report
    for the rows inside the range.  The determinised-set memo and the
    ancestor stack persist across ranges, so ranges that share
    ancestors re-thread only below the deepest shared frame.  [view]
    (default: every node shown, unchanged) prunes and relabels as in
    {!fold_view_flat}; a range below a pruned node yields nothing.
    [?stats] counts the threaded ancestors as visited too. *)

type 'a shared
(** An automaton together with one determinisation run that outlives
    its traversals, guarded by a mutex. *)

val share : 'a t -> 'a shared

val fold_ranges_shared :
  'a shared -> Xmldoc.Flat.t -> ranges:(int * int) list -> init:'b ->
  f:('b -> Xmldoc.Node.t -> 'a list -> 'b) -> 'b
(** {!fold_ranges_flat} (every node shown) on the shared run: the state
    sets and transitions earlier traversals determinised are reused, not
    rebuilt, and a payload list handed to [f] is physically the same
    across traversals whenever its state set is.  Traversals on several
    threads or domains take turns on the run's mutex, held while [f]
    runs. *)

(** {1 Anchored runs}

    A downward branch's answers lie on or below the nodes its name tests
    matched, so a snapshot's posting lists ({!Xmldoc.Flat.by_label_ix})
    bound where they can be.  An {!anchor} picks, per union branch, the
    cheaper of two candidate sets: the rows of the last step's name (the
    answers are among them; when the last step is a child or attribute
    step after a name test, only the rows whose parent carries that
    name) or the subtrees of the rows of the rarest earlier name (the
    answers are inside them).  {!fold_ranges_flat}
    over {!anchor_ranges} then gives exactly the answers of a full run,
    in document order and without duplicates.

    The estimate is one cost rule shared by every caller: a run costs
    the rows it visits plus a fixed charge per range for re-threading its
    ancestor chain, and is worth taking when that is at most one pass
    over the snapshot ({!anchor_pays}).  Posting lists hold source
    labels: callers running over a view that renames nodes must not
    anchor on the renamed label (see [Core.Rewrite]). *)

type anchor

val anchor : 'a t -> Xmldoc.Flat.t -> anchor option
(** The anchor of every branch of the automaton; [None] when some branch
    has no name test ([//node()], [/a/*]). *)

val anchor_pays : Xmldoc.Flat.t -> anchor -> bool
(** Does the anchored run's estimate stay within one full pass? *)

val anchor_names : anchor -> string list
(** The labels the anchor reads, first-use order, no duplicates. *)

val anchor_ranges :
  ?shown:(int -> bool) -> Xmldoc.Flat.t -> anchor -> (int * int) list
(** The candidate ranges for {!fold_ranges_flat}: one [(ix, ix + 1)] per
    row of a last-step label (whose parent, if the anchor names it,
    carries the parent's name and passes [shown]), one
    [(ix, subtree_end ix)] per row of an earlier-step label, rows failing
    [shown] dropped (default: none), nested ranges folded into the
    outermost.  [shown] may drop only rows that do not carry their label
    in the run's view — hidden or renamed ones. *)
