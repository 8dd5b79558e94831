(** Atomic transactions over the secure update pipeline.

    The paper formalises each XUpdate operation as a single derivation
    step (axioms 18–25); an [<xupdate:modifications>] document is a
    {e sequence} of such steps.  A transaction stages a sequence of
    {!Core.Op.t} — document mutations and policy mutations in one commit
    order — op-by-op on the submitting user's session: each op sees the
    effects of the previous one, so a document op staged after an
    [Add_rule] selects and checks against the {e new} policy, exactly as
    the paper's administration timestamps imply.  The staged document is
    then validated end-to-end and the batch commits atomically.

    Rollback is observationally complete: staging happens on persistent
    values with the registry silenced ({!Secure_update.stage},
    [Session.apply_delta ~quiet:true], [Session.apply_policy
    ~quiet:true]), so an aborted batch leaves the source, the policy,
    every session, the audit ring and all metrics bit-for-bit untouched
    except for one [txn_aborts_total] increment.  Audit events of the
    staged privilege checks are queued and run only at the commit point
    (their decision and deciding-rule strings are captured at check
    time). *)

type policy_denial = { index : int; op : Op.policy_op; reason : string }
(** A tolerated policy-op denial: position in the batch, the op, and a
    human-readable reason (no authority, unknown subject, duplicate or
    missing timestamp, cycle, missing isa edge). *)

type committed = {
  session : Session.t;  (** the rebased writer session *)
  reports : Secure_update.report list;
      (** one per {e document} op, in order *)
  policy_denials : policy_denial list;
      (** policy ops denied and skipped under [`Tolerate] *)
  applied : Op.t list;
      (** the effective batch in commit order: document ops that staged
          plus policy ops that applied (denied-and-skipped ops are
          absent) — this is what {!Serve} journals, so recovery replay
          never re-litigates authority *)
  delta : Delta.t;
      (** union of the per-op {e document} deltas — what one broadcast
          must cover (see {!Serve}) *)
  policy_delta : Delta.t;
      (** union of the spans over which the writer's own decisions were
          re-resolved by staged policy ops ({!Perm.update_policy});
          [Delta.all] when any policy op forced a full recompute *)
  policy : Policy.t;  (** the policy after the batch *)
  policy_changed : bool;
      (** at least one policy op applied — {!Serve} re-keys
          permission-equivalence classes iff this is set *)
}

type error =
  | Denied of {
      index : int;
      op : Xupdate.Op.t;
      denials : Secure_update.denial list;
    }  (** a document op hit a privilege denial under [`Abort] *)
  | Policy_denied of { index : int; op : Op.policy_op; reason : string }
      (** a policy op was denied under [`Abort]: no administrative
          authority, unknown subject, duplicate or missing timestamp,
          isa cycle, or missing isa edge *)
  | Invalid of {
      reports : Secure_update.report list;
      violations : string list;
    }
      (** end-to-end validation rejected the staged document; the staged
          reports are returned for diagnosis (nothing was applied) *)
  | Failed of { index : int; op : Xupdate.Op.t; exn : exn }
      (** a document op raised (e.g. {!Xpath.Eval.Error}) *)

exception Aborted of error

val commit_ops :
  ?on_denial:[ `Abort | `Tolerate ] ->
  ?validate:(Xmldoc.Document.t -> string list) ->
  ?admin:Admin.t ->
  ?view:Lazy_view.t ->
  Session.t -> Op.t list ->
  (committed, error) result
(** [commit_ops session ops] stages, validates and commits a mixed
    batch of document and policy operations.

    [on_denial] (default [`Abort]) selects between strict atomicity and
    the paper's §4.4.2 semantics: [`Tolerate] lets a document op succeed
    on some targets and be denied on others (the denials stay in its
    report) and lets a denied policy op be skipped (recorded in
    [policy_denials]) while the rest of the batch proceeds.

    [admin] activates administrative authority checks (§4.3 via
    {!Admin}) with the session user as issuer: the owner may do
    anything; a delegate may issue rules within its delegated
    (privilege, node set) authority — the rule path is evaluated against
    the staged source with [$USER] bound to the issuer — and retract its
    own rules; only the owner may touch the subject hierarchy.  Without
    [admin] the transaction trusts its caller (recovery replay does,
    because journaled batches hold only ops that already passed the
    live check).

    [validate] runs on the staged final document; any returned violation
    aborts.  {!Validated} passes schema validation here, and a caller's
    [validate] always sees the whole document.  The default is the
    structural check ({!Xmldoc.Invariants}), scoped to the batch's merged
    delta when the batch's input document is one the check already
    accepted (recognised by physical identity — the document of the
    previous commit, in a server or a recovery replay):
    {!Xmldoc.Invariants.check_scoped} then returns exactly what the full
    {!Xmldoc.Invariants.check} would, at the cost of the delta, and a
    batch that left the document untouched checks nothing.  Any other
    input — the first batch after start, a store built by hand — gets the
    full check, so no commit publishes a document the full check
    rejects.

    Every document op reads the writer's view — to select its targets,
    instantiate value-of content and list an update target's
    view-children — virtually, on one of two sources.  [view], when
    given, must be a lazy view of the session: a snapshot of its source
    with its decisions.  The ops staged while the staged session still
    has that source and those decisions read it, and the policy ops
    staged while the staged document is still that source re-resolve on
    its snapshot ([Session.apply_policy ~flat]).  Every later op — and
    every op when [view] is absent — reads {!View.source} of the staged
    document and decisions, and re-resolves on the node map.  No op
    freezes a snapshot of its own. *)

val commit :
  ?on_denial:[ `Abort | `Tolerate ] ->
  ?validate:(Xmldoc.Document.t -> string list) ->
  Session.t -> Xupdate.Op.t list ->
  (committed, error) result
(** [commit session ops] = [commit_ops session (Op.docs ops)] — the
    historical document-only entry point. *)

val commit_exn :
  ?on_denial:[ `Abort | `Tolerate ] ->
  ?validate:(Xmldoc.Document.t -> string list) ->
  Session.t -> Xupdate.Op.t list -> committed
(** @raise Aborted instead of returning [Error]. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Crash recovery} *)

type recovered = {
  doc : Xmldoc.Document.t;  (** the state at the last commit boundary *)
  policy : Policy.t;
      (** the seed policy with every journaled policy op replayed in
          commit order *)
  seq : int;  (** sequence number of the last replayed transaction *)
  snapshot_seq : int;  (** the snapshot recovery started from *)
  replayed : int;  (** journal records replayed on top of it *)
  torn_bytes : int;  (** bytes of torn final record(s) discarded *)
}

val recover : Policy.t -> string -> recovered
(** [recover policy dir] = {!Store.recover} with the secure replay:
    latest valid snapshot + deterministic re-execution of the journal
    tail through {!commit_ops} (per-record mode preserved, sessions
    cached, rebased across records and re-keyed onto each record's
    resulting policy).  [policy] seeds the replay; the returned
    [recovered.policy] reflects all journaled policy ops.  Replay needs
    no renumbering because ordpath identifiers are persistent — the
    snapshot serialisation keeps them and insertion re-derives the same
    fresh labels — and needs no authority state because journaled
    batches hold only ops that passed the live check.
    @raise Store.Error on a corrupt store or a replay divergence. *)
