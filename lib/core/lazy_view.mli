(** Query filtering without view materialisation — the implementation
    direction the paper's §5 sketches ("applying filters reflecting the
    user privileges on the queries and then evaluating the queries on the
    source document").

    A lazy view wraps a frozen snapshot of the source database
    ({!Xmldoc.Flat}) and the user's resolved permissions behind the
    {!Xpath.Source} interface: every axis call filters out invisible
    nodes and remaps position-only labels to [RESTRICTED] on the fly.
    Queries evaluated through it return exactly the answers the
    materialised {!View.derive} view would give — including RESTRICTED
    labels, the compatibility question §5 raises — without building that
    view.

    Every read consults the snapshot's byte-per-node visibility oracle
    ({!flat_visibility}).  Axes run on the snapshot's index arrays and
    jump over hidden subtrees via [subtree_end]; the label index is
    available to descendant name tests (RESTRICTED answers from a scan,
    as position-only nodes carry that name only in the view).  The
    compiled read path ({!Rewrite.select}) folds the same arrays. *)

type t

val create : Xmldoc.Flat.t -> Perm.t -> t
(** [create flat perm]: [flat] must be a frozen snapshot of the document
    [perm] was resolved on. *)

val of_session : Xmldoc.Flat.t -> Session.t -> t
(** [create flat (Session.perm session)]; [flat] must be a frozen
    snapshot of the session's source. *)

val visible : t -> Ordpath.t -> bool
(** The node and all its ancestors are selected by axioms 15–17: an
    oracle lookup. *)

val label : t -> Ordpath.t -> string option
(** The view label: the source label under [read], [RESTRICTED] under
    position-only; [None] if invisible. *)

val source : t -> Xpath.Source.t
(** The virtual {!Xpath.Source} for {!Xpath.Eval.env_of_source}. *)

val flat : t -> Xmldoc.Flat.t
(** The frozen snapshot every read runs on. *)

val flat_visibility : t -> Xmldoc.Flat.t * Bytes.t
(** The snapshot paired with its byte-per-index visibility oracle
    ({!Perm.flat_visibility}): byte [i] is [0] (hidden), [1] (visible,
    source label) or [2] (visible as RESTRICTED).  Built on first demand
    and cached; a {!rebase} keeps it across an empty delta onto the
    physically same snapshot and otherwise patches it along a local
    delta ({!Perm.patch_visibility}). *)

val oracle : t -> Bytes.t option
(** The visibility oracle when one is held — built by a read or patched
    by a {!rebase} — without building it. *)

val select :
  ?vars:(string * Xpath.Value.t) list -> t -> Xpath.Ast.expr ->
  Ordpath.t list

val select_str :
  ?vars:(string * Xpath.Value.t) list -> t -> string -> Ordpath.t list

val rebase : t -> Xmldoc.Flat.t -> Perm.t -> Delta.t -> t
(** [rebase t flat perm delta] is the lazy view over the updated snapshot
    and permissions, given that [delta] covers every node whose document
    facts or read/position decisions differ between [t] and them (widen
    to {!Delta.all} otherwise, e.g. when {!Session.policy_local} is
    false).  Pure: [t] is left as it was and stays usable.  A held
    visibility oracle survives an empty delta onto the physically same
    snapshot — e.g. a policy commit that moved no read or position
    decision ({!Session.apply_policy}) — and is patched into fresh bytes
    along any other local delta, given that [t]'s snapshot was the one
    the delta's document change started from ({!Perm.patch_visibility});
    {!Delta.All}, a patch too large for a commit, or no oracle leave it
    to be rebuilt on demand. *)

(** {1 Retired counters}

    The memo these counted is gone; they remain so that existing readers
    still build. *)

val hits : t -> int
(** Always [0]. *)

val misses : t -> int
(** Always [0]. *)

val reset_stats : t -> unit
(** Does nothing. *)
