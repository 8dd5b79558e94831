(** Conflict resolution (axiom 14): computes the actual privileges
    [perm(s, n, r)] a user holds on every node, from the accept/deny rules
    applicable to the user.  Because priorities are unique timestamps,
    axiom 14 is equivalent to "the most recent applicable rule covering
    [(r, n)] decides", which is how the computation proceeds. *)

type t

val compute : Policy.t -> Xmldoc.Flat.t -> user:string -> t
(** Resolves every applicable rule against a frozen snapshot of the
    source document.  Rules in the downward fragment — in practice almost
    all of them — are merged into one {!Xpath.Compile} automaton and
    resolved for all five privileges in a single top-down pass over the
    columnar store ({!Xpath.Compile.fold_flat}); the rest are evaluated
    individually with [$USER] bound to [user].  The two result streams
    merge by rule priority, reproducing the ascending most-recent-wins
    order of axiom 14.  A caller holding only a document freezes it
    ({!Xmldoc.Flat.of_document}). *)

val compute_per_rule : Policy.t -> Xmldoc.Document.t -> user:string -> t
(** The pre-compilation implementation: one [Eval.select] per applicable
    rule over the node map, ascending priority.  Semantically equal to
    {!compute}; kept as the differential-testing and benchmarking
    baseline. *)

val user : t -> string

val with_user : t -> string -> t
(** Renames the store's user without recomputing anything: the decision
    arrays are shared physically.  Sound exactly when both users have the
    same {!profile} — see {!Session.impersonate}. *)

val profile : Policy.t -> user:string -> string
(** The user's permission-equivalence signature.  Two users with equal
    profiles provably receive identical decision stores from {!compute}
    on any document: priorities are unique, so the signature's priority
    list identifies the applicable rule list, and when no applicable rule
    mentions [$USER] (see {!Rule.uses_user_variable}) rule selections
    cannot depend on the user.  Users carrying a [$USER] rule have their
    name folded into the signature, i.e. they form singleton classes. *)

type matched
(** One commit's delta matched once for every permission class. *)

val match_delta : Policy.index -> Xmldoc.Flat.t -> Ordpath.t list -> matched
(** [match_delta index fl roots] runs the index's downward automaton
    ({!Policy.matcher}) once over the subtrees rooted at [roots] (a local
    {!Delta}'s roots) on the snapshot [fl], in one range run, and keeps
    every row some rule selects with the positions of the rules that
    select it.  Runs inside a [perm.match_delta] trace span. *)

val update :
  ?flat:Xmldoc.Flat.t -> ?matched:matched ->
  t -> Policy.t -> Xmldoc.Document.t -> Delta.t -> t
(** [update t policy doc delta] re-resolves the permissions on the new
    document [doc], re-evaluating rules only for nodes inside [delta]
    (decisions outside an affected subtree cannot have changed when every
    applicable rule path is downward — see {!Delta.local_rules}).  Falls
    back to a full {!compute} on {!Delta.All} or when a non-downward rule
    applies.  Equivalent to [compute policy (Flat.of_document doc)
    ~user:(user t)] whenever [delta] covers the differences between the
    old and new document.

    [?flat], when given, must be a frozen snapshot of [doc], and every
    traversal runs on it.  Without one — transaction staging, whose
    staged document has no snapshot yet — the delta's subtrees are
    re-matched on the node map, and a full recompute freezes [doc].

    [?matched], when given, must be [match_delta index flat roots] for
    [delta = Local roots] on that snapshot.  If [index] was built from
    [policy] itself, the user's winners are picked from the matched rows
    by the user's applicable-rule bitset ({!Policy.applicable}), cached
    per physical position list, and nothing is matched again; otherwise
    [?matched] is ignored. *)

val update_policy :
  ?flat:Xmldoc.Flat.t ->
  t -> old_policy:Policy.t -> Policy.t -> Xmldoc.Document.t -> t * Delta.t
(** [update_policy t ~old_policy policy doc] re-resolves after a policy
    change on an {e unchanged} document, recomputing only the spans
    whose applicable-rule decisions can differ: the nodes selected by
    added or changed rules (one path evaluation each) plus the nodes the
    removed or changed rules currently decide (read off the stores).
    The affected subtrees are re-matched through the same compiled
    {!Xpath.Compile} machinery as {!update}.  Returns the new store and
    the delta it re-resolved — what view maintenance must cover
    ({!Delta.empty} when the user's applicable rules are untouched by
    the change; {!Delta.all} when a non-downward rule forces the full
    {!compute} fallback, or when a changed rule decides the document node
    and every node is re-matched).  Equivalent to
    [compute policy (Flat.of_document doc) ~user:(user t)] whenever [t]
    agrees with the same for [old_policy].  Axiom 14 resolves each
    privilege from that privilege's rules alone: only the stores of the
    added and removed rules' privileges are re-matched, and the others
    come back physically unchanged.  [?flat] as for {!update}. *)

val decisions : t -> Privilege.t -> (Ordpath.t * Rule.t) list
(** The privilege's decision store in document order: every node some
    applicable rule covers, with the rule that decided it. *)

val holds : t -> Privilege.t -> Ordpath.t -> bool
(** [perm(user, n, r)]. *)

val permitted : t -> Privilege.t -> Ordpath.Set.t
(** All nodes on which the privilege is held. *)

val flat_visibility : t -> Xmldoc.Flat.t -> Bytes.t
(** Axioms 15-17 over a frozen snapshot of the source document, one byte
    per flat index: [0] hidden, [1] visible with its source label, [2]
    visible as RESTRICTED (position-only).  The decision stores and the
    snapshot share document order, so the whole array costs one merge
    scan — no per-node binary search.  Byte [i] is non-zero iff node [i]
    is in the {!View.derive} materialisation; the secure read paths
    consume it as an O(1) per-node visibility oracle.  Runs inside a
    [perm.flat_visibility] trace span. *)

val patch_visibility :
  t -> Xmldoc.Flat.t -> prev:Xmldoc.Flat.t * Bytes.t -> Ordpath.t list ->
  Bytes.t option
(** [patch_visibility t fl ~prev:(pfl, pvis) roots] is
    [Some (flat_visibility t fl)], computed from the previous snapshot's
    oracle [pvis] instead of from scratch, given that [pfl]'s document
    and the decisions [pvis] was built from differ from [fl]'s and [t]'s
    only inside the subtrees rooted at [roots] (a local {!Delta}, sorted
    and disjoint).  Rows outside those subtrees keep their byte, shifted
    to their new index; rows inside are recomputed from their parent's
    byte.  Cost: a copy of the bytes, a few short searches per root, and
    the subtrees' rows.  [pvis] is never mutated.  [None] when the
    subtrees' rows plus a fixed charge per root come to more than an
    eighth of [fl]'s rows and more than 4096 (a full build is then left
    to the first read), when the roots do not ascend without nesting,
    or when the row counts outside the subtrees disagree between [pfl]
    and [fl]. *)

val deciding_rule : t -> Privilege.t -> Ordpath.t -> Rule.t option
(** The rule that decided the privilege on this node ([None] when no
    applicable rule covers it — the closed-world default deny). *)

val facts : t -> Xmldoc.Document.t -> (Privilege.t * Ordpath.t) list
(** All [perm] facts over nodes of the document, for display and for the
    Datalog parity checks. *)
