(** Query filtering without view materialisation — the implementation
    direction the paper's §5 sketches ("applying filters reflecting the
    user privileges on the queries and then evaluating the queries on the
    source document").

    A lazy view wraps the source database and the user's resolved
    permissions behind the {!Xpath.Source} interface: every axis call
    filters out invisible nodes and remaps position-only labels to
    [RESTRICTED] on the fly.  Queries evaluated through it return
    exactly the answers the materialised {!View.derive} view would give
    — including RESTRICTED labels, the compatibility question §5 raises
    — without building that view.

    Two representations answer the same questions:
    - {b with a snapshot} ([?flat], what [Serve] always supplies):
      {!source}, {!select}, {!visible} and {!label} read the snapshot's
      byte-per-node visibility oracle ({!flat_visibility}).  Axes run on
      {!Xmldoc.Flat} index arrays and jump over hidden subtrees via
      [subtree_end]; the label index is available to descendant name
      tests (RESTRICTED answers from a scan, as position-only nodes
      carry that name only in the view).  The memo is never touched.
    - {b without one}: every axis call runs on the node map and decides
      visibility per node, memoised by ordpath — the demand-driven form
      whose work {!probed_nodes} measures. *)

type t

val create : ?flat:Xmldoc.Flat.t -> Xmldoc.Document.t -> Perm.t -> t
(** [?flat], when given, must be a frozen snapshot of the document;
    every read then runs on it (see above), and the compiled read path
    ({!Rewrite.select}) folds its columnar arrays. *)

val of_session : ?flat:Xmldoc.Flat.t -> Session.t -> t

val visible : t -> Ordpath.t -> bool
(** The node and all its ancestors are selected by axioms 15–17: an
    oracle lookup with a snapshot, memoised otherwise. *)

val label : t -> Ordpath.t -> string option
(** The view label: the source label under [read], [RESTRICTED] under
    position-only; [None] if invisible. *)

val source : t -> Xpath.Source.t
(** The virtual {!Xpath.Source} for {!Xpath.Eval.env_of_source}. *)

val doc : t -> Xmldoc.Document.t
(** The underlying shared source database (trusted callers only — the
    compiled {!Rewrite} read path folds over it with {!visible}/{!remap}
    applied per node). *)

val flat : t -> Xmldoc.Flat.t option
(** The frozen columnar snapshot of {!doc}, when one was supplied at
    creation/rebase time. *)

val flat_visibility : t -> (Xmldoc.Flat.t * Bytes.t) option
(** The snapshot paired with its byte-per-index visibility oracle
    ({!Perm.flat_visibility}): byte [i] is [0] (hidden), [1] (visible,
    source label) or [2] (visible as RESTRICTED).  Built on first demand
    and cached; a {!rebase} keeps it across an empty delta onto the
    physically same snapshot and otherwise patches it along a local
    delta ({!Perm.patch_visibility}).  [None] without a snapshot. *)

val oracle : t -> Bytes.t option
(** The visibility oracle when one is held — built by a read or patched
    by a {!rebase} — without building it. *)

val remap : t -> Xmldoc.Node.t -> Xmldoc.Node.t
(** The node as the view presents it: unchanged under [read], label
    replaced by [RESTRICTED] under position-only.  Does {e not} check
    {!visible} — pair it with a visibility test.  Decided from the
    permission store, for the flat-less compiled read path. *)

val select :
  ?vars:(string * Xpath.Value.t) list -> t -> Xpath.Ast.expr ->
  Ordpath.t list

val select_str :
  ?vars:(string * Xpath.Value.t) list -> t -> string -> Ordpath.t list

val materialize : t -> Xmldoc.Document.t
(** The equivalent materialised view (for testing and benchmarks). *)

val probed_nodes : t -> int
(** How many distinct nodes have had their visibility decided so far —
    the work-saving measure the E13 bench reports.  Always [0] with a
    snapshot, whose oracle decides every node at once. *)

val rebase :
  ?flat:Xmldoc.Flat.t -> t -> Xmldoc.Document.t -> Perm.t -> Delta.t -> t
(** [rebase t doc perm delta] carries the memoised visibility decisions
    over to the updated source and permissions, evicting only the entries
    inside [delta] (a decision depends on the node and its ancestors
    only, so entries outside an affected subtree are still valid for a
    session whose rules are downward — widen to {!Delta.all} otherwise,
    e.g. when {!Session.policy_local} is false).  The memo table is
    shared, not copied: the old value must not be used after a rebase.
    Hit/miss counters survive the rebase.  A held visibility oracle
    survives an empty delta onto the physically same snapshot — e.g. a
    policy commit that moved no read or position decision
    ({!Session.apply_policy}) — and is patched into fresh bytes along any
    other local delta, given that the old snapshot was the one the
    delta's document change started from ({!Perm.patch_visibility});
    {!Delta.All}, a patch too large for a commit, or no oracle leave it
    to be rebuilt on demand. *)

val hits : t -> int
(** Memo lookups answered from the cache since creation (or the last
    {!reset_stats}); flat-less views only. *)

val misses : t -> int
(** Memo lookups that had to decide visibility afresh. *)

val reset_stats : t -> unit
