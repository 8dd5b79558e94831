(** Write access controls (§4.4.2, axioms 18–25): XUpdate operations whose
    target selection happens {e on the user's view}, with the paper's
    per-operation privilege requirements:

    - [xupdate:rename] — [update] on each addressed node, which must not
      be shown [RESTRICTED] (prose of §4.4.2, consistent with axioms
      20–21), i.e. [read] is required too;
    - [xupdate:update] — [update] {e and} [read] on each view-child of an
      addressed node;
    - [xupdate:append] — [insert] on the addressed node;
    - [xupdate:insert-before] / [insert-after] — [insert] on the {e parent}
      of the addressed node;
    - [xupdate:remove] — [delete] on the addressed node; the whole source
      subtree is removed, including invisible descendants (axiom 25:
      confidentiality over integrity).

    Selecting targets on the view closes the §2.2 covert channel: an
    operation can never be influenced by — and therefore can never
    reveal — data outside the view. *)

type denial = {
  target : Ordpath.t;  (** the node addressed by [PATH] *)
  node : Ordpath.t;
      (** the node the privilege was required on (a child or parent of
          [target] for update/insert-before/insert-after) *)
  privilege : Privilege.t;
  reason : string;
}

type report = {
  op : Xupdate.Op.t;
  targets : Ordpath.t list;  (** nodes selected by [PATH] on the view *)
  relabelled : Ordpath.t list;
  removed : Ordpath.t list;
  inserted : Ordpath.t list;  (** roots of freshly numbered copies *)
  denied : denial list;
  skipped : (Ordpath.t * string) list;
  delta : Delta.t;
      (** the affected ordpath range — what other sessions sharing the
          document must invalidate (see {!Serve}) *)
}

val apply : Session.t -> Xupdate.Op.t -> Session.t * report
(** Applies the operation and returns the rebased session: permissions
    are maintained incrementally inside the report's [delta]
    ({!Session.apply_delta}) rather than re-derived from scratch.  The
    op reads the session's view through {!View.source}, virtually.  The
    operation may succeed on some targets and be denied on others
    (§4.4.2). *)

val stage :
  defer:(unit -> unit) Queue.t -> view:Xpath.Source.t -> Session.t ->
  Xupdate.Op.t -> Session.t * report
(** [apply] with {e zero} registry side effects — the building block of
    {!Txn}.  The semantics (target selection on the view, per-axiom
    privilege checks, incremental rebase of the returned session) are
    identical, but no metric counter moves and every audit event is
    pushed onto [defer] instead of the ring; a transaction runs the
    queued events only at its commit point, so an aborted batch is
    observationally absent.  [view] is the session's view as a source
    (a {!Lazy_view} of a snapshot of the session's source, or
    {!View.source} of the source itself, with the session's decisions):
    the op selects its targets on it, instantiates value-of content
    against it and lists an update target's view-children on it. *)

val record_committed : report list -> unit
(** Folds staged reports into the per-op counters
    ([secure_update_ops_total] / [..._denials_total] / [..._skips_total])
    — the metrics half of the commit point.  [apply] is exactly
    [stage] + [record_committed] + audit flush. *)

val apply_all : Session.t -> Xupdate.Op.t list -> Session.t * report list

val fully_applied : report -> bool
(** No denials and no skips. *)

val pp_report : Format.formatter -> report -> unit
