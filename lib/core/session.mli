(** A user session: the logged subject (the [logged(s)] predicate of
    §4.4.1), the source it works on and its resolved permissions.  The
    view it is permitted to see (axioms 15–17) stays virtual: queries
    run against {!View.source} of the source and permissions, and secure
    updates (see {!Secure_update}) select their targets on a virtual
    view too.  {!view} derives the whole view on demand. *)

type t

exception Unknown_user of string

val login :
  ?flat:Xmldoc.Flat.t -> Policy.t -> Xmldoc.Document.t -> user:string -> t
(** Resolves the user's permissions ({!Perm.compute}) on a frozen
    snapshot of the source: [?flat] when the caller already froze one,
    otherwise one frozen here.
    @raise Unknown_user if the user is not declared in the policy's
    subject hierarchy. *)

val impersonate : t -> user:string -> t
(** [impersonate t ~user] is [t] with the identity swapped to [user]; the
    permission store and source are shared physically (no
    recomputation).  Sound exactly when [user] has the same
    {!Perm.profile} as [t]'s user — the sharing primitive behind
    {!Serve}'s permission-equivalence classes.
    @raise Unknown_user if [user] is not in the policy's hierarchy. *)

val user : t -> string
val policy : t -> Policy.t
val source : t -> Xmldoc.Document.t
val perm : t -> Perm.t
val view : t -> Xmldoc.Document.t
(** The materialised view, derived on demand ({!View.derive} on a fresh
    snapshot of the source): O(n) per call, for display and checks. *)

val holds : t -> Privilege.t -> Ordpath.t -> bool

val query : t -> string -> Ordpath.t list
(** Evaluates an XPath expression {e on the view}, with [$USER] bound:
    on {!View.source} of the session's source and permissions, which
    answers like the derived view without building it.
    @raise Xpath.Parser.Error
    @raise Xpath.Eval.Error *)

val query_expr : t -> Xpath.Ast.expr -> Ordpath.t list

val query_source : t -> string -> Ordpath.t list
(** Trusted evaluation on the source database — what a security officer
    (not a regular subject) would see.  Used by baselines and tests. *)

val refresh : ?quiet:bool -> ?flat:Xmldoc.Flat.t -> t -> Xmldoc.Document.t -> t
(** Re-resolves permissions after the source database changed.  [quiet]
    (default [false]) suppresses the session counters — {!Txn} stages
    speculative rebases that must leave the metrics registry untouched if
    the transaction aborts.  Like {!login} it runs on a snapshot of the
    {e new} source: [?flat] when the caller has one, otherwise one frozen
    here. *)

val apply_delta :
  ?quiet:bool -> ?flat:Xmldoc.Flat.t -> ?matched:Perm.matched ->
  t -> Xmldoc.Document.t -> Delta.t -> t
(** [apply_delta t source delta] rebases the session onto the updated
    source, re-resolving permissions ({!Perm.update}) only inside the
    affected range.  Equivalent to [refresh t source] whenever [delta]
    covers the differences between the old and new source; sessions
    whose rules are not all downward (see {!policy_local}) silently
    widen a non-empty delta and pay the full {!refresh}.  An empty delta
    never widens: an unchanged document cannot change a decision.  [?flat], when given,
    must be a frozen snapshot of the new source; without one
    (transaction staging) the range is re-resolved on the node map, and
    only a full {!refresh} freezes.  [?matched] is the commit's shared
    rule match of [delta] on [?flat] ({!Perm.match_delta}), which
    {!Perm.update} then picks from. *)

val apply_policy :
  ?quiet:bool -> ?flat:Xmldoc.Flat.t -> t -> Policy.t -> t * Delta.t
(** [apply_policy t policy] rebases the session onto a changed policy
    over the {e unchanged} source, re-resolving permissions with
    {!Perm.update_policy}.  The returned delta is what a lazy view over
    the session must invalidate: the span the perm store re-resolved
    ({!Delta.all} when a non-downward rule forced a full recompute).  A
    session whose applicable rules are untouched by the change costs two
    rule list comparisons.  The view depends on read and position
    decisions only (axioms 15–17): when the user's applicable read and
    position rules are unchanged — only insert, update or delete rules
    moved — the permissions are still re-resolved, but the returned
    delta is empty.  [?flat], when given, must be the frozen snapshot of
    the session's current source; without one the change is re-resolved
    on the node map, and the source is frozen once when a full recompute
    needs it. *)

val policy_local : t -> bool
(** Are all the rules applicable to this session downward paths
    ({!Delta.local_rules}), i.e. does {!apply_delta} actually work
    incrementally for it? *)

val user_vars : t -> (string * Xpath.Value.t) list
(** The variable bindings of this session ([$USER]). *)
