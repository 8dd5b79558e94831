(** A multi-session server: N logged sessions share one source document,
    and every write broadcasts its {!Delta.t} so each session invalidates
    only the affected ordpath range instead of re-deriving its
    permissions and view from scratch — the update-aware enforcement the
    §5 outlook calls for once several subjects query the same database
    concurrently.

    Sessions are grouped into {e permission-equivalence classes}
    ({!Perm.profile}): users whose applicable rules are identical and
    [$USER]-free provably resolve to the same decisions, so they share
    one session state — one decision store, one {!Lazy_view}, one
    broadcast rebase.  Logins, fan-out work and memory scale with the
    number of distinct permission profiles, not the number of logged
    users; users carrying a [$USER] rule form singleton classes and
    behave exactly as dedicated sessions.

    A class is its profile, a representative session (source and
    decisions, maintained by {!Session.apply_delta}) and a {!Lazy_view}
    over the published snapshot, rebased on each broadcast.  The view
    stays virtual: {!query} answers through the compiled {!Rewrite} read
    path on the lazy view (plans cached per query text, shared by every
    session), and a write batch staged on the published document selects
    its first document op's targets on the writer class's lazy view too
    (see {!Txn.commit_ops}).  No class materialises its view; {!view}
    derives one on demand.  Classes whose rules are not downward
    ({!Session.policy_local}) transparently fall back to full
    re-resolution on every write — same answers, no locality.

    {2 Concurrency}

    A server runs one writer at a time, as the paper's updates form one
    serial chain from [db] to [dbnew].  The writer calls are
    {!commit_ops} (so {!commit}, {!update} and {!update_all}),
    {!login_many} (so {!login}), {!logout}, and the login that a first
    {!query}, {!session}, {!lazy_view} or {!view} of a user performs.
    Each holds the server's writer mutex for its whole run, so they run
    one after another, and the journal's order is their publication
    order.  Between writer calls every permission class is on the
    published epoch: the published document with its frozen snapshot.

    Every other call may run at any time, from any domain or thread, at
    the same time as other calls and as a writer call: {!query},
    {!session}, {!lazy_view} and {!view} of a logged-in user, {!users},
    {!classes}, {!source}, {!policy}, {!writes} and {!fresh_priority}.
    These reads take at most a short table lock and never wait for the
    writer, except a read that logs its user in.  A read that overlaps a
    commit answers on one published epoch, the one before the commit or
    the one after it.

    An observer that runs inside a writer call, on its thread (an audit
    sink or tap, or an event tap), must not call a writer function of
    the same server: the writer mutex is not reentrant, and the nested
    call raises [Sys_error]. *)

type t

val create : ?pool:Pool.t -> ?persist:Store.t -> Policy.t -> Xmldoc.Document.t -> t
(** [?pool] (default: {!Pool.of_env}, i.e. sequential unless [POOL_SIZE]
    says otherwise) runs the write-broadcast fan-out and {!login_many}
    batches on its workers, inside the writer call that owns them.  Each
    class is owned by one worker at a time and the workers never touch
    the session and class tables, so answers are identical for every
    pool size.

    [?persist] attaches a write-ahead journal: every committed batch is
    appended ({!Store.append}) before it becomes visible to readers, so
    {!Txn.recover} reproduces the exact pre-crash state.  The caller is
    responsible for opening the store on the matching document (fresh
    store initialised from [source], or [source] = recovered state). *)

val pool : t -> Pool.t
val persist : t -> Store.t option

val login : t -> user:string -> unit
(** [login_many t [ user ]]: registers a session for [user];
    already-logged users keep their session (and its caches).  Joining an
    existing permission class costs O(1) — conflict resolution runs only
    when [user]'s profile is new, inline, since one task spawns no pool
    domain.
    @raise Session.Unknown_user *)

val login_many : t -> string list -> unit
(** Batch {!login}: conflict resolution runs once per {e new} permission
    class on the pool (one task per class, not per user); every other
    fresh user binds to its class in O(1).  If any representative login
    raises (e.g. [Session.Unknown_user]), no fresh session from this
    batch is registered.
    @raise Session.Unknown_user *)

val logout : t -> user:string -> unit

val users : t -> string list
(** Logged users, sorted. *)

val classes : t -> int
(** Number of distinct permission-equivalence classes among the logged
    sessions — what server memory actually scales with. *)

val source : t -> Xmldoc.Document.t
(** The current shared source database. *)

val policy : t -> Policy.t
(** The current policy — rewritten by every committed batch carrying
    policy ops. *)

val writes : t -> int
(** Number of update operations applied since {!create}. *)

val fresh_priority : t -> int
(** The next administration timestamp (paper §4.3: rule priorities ARE
    timestamps).  Monotonic and never reused, even across retracts and
    aborted batches — each call burns the returned value.  Use it to
    build [Op.Add_rule] payloads for {!commit_ops}. *)

val session : t -> user:string -> Session.t
(** The user's session — the class representative impersonated to
    [user] (see {!Session.impersonate}); permissions and views are the
    shared class state.
    @raise Session.Unknown_user if the user is not logged in. *)

val lazy_view : t -> user:string -> Lazy_view.t
(** The user's {e class}'s lazy view — shared by every member. *)

val view : t -> user:string -> Xmldoc.Document.t
(** The user's view, derived on demand from the class's decisions
    ({!Session.view}): O(n) per call, for display and checks. *)

val query : t -> user:string -> string -> Ordpath.t list
(** Evaluates through the {!Rewrite} read path on the user's class state
    ([$USER] bound on the fallback path; compiled plans are cached per
    query text and shared across sessions).  Logs the user in on first
    use.
    @raise Session.Unknown_user
    @raise Xpath.Parser.Error
    @raise Xpath.Eval.Error *)

type committed = {
  reports : Secure_update.report list;
      (** one per {e document} op, in order *)
  delta : Delta.t;  (** merged — what the single broadcast covered *)
  policy_denials : Txn.policy_denial list;
      (** policy ops denied and skipped under [`Tolerate] *)
  policy_changed : bool;
      (** the batch applied at least one policy op (the
          permission-equivalence classes were re-keyed) *)
}

val commit_ops :
  ?on_denial:[ `Abort | `Tolerate ] ->
  ?admin:Admin.t ->
  t -> user:string -> Op.t list ->
  (committed, Txn.error) result
(** The authoritative write path, generalised to mixed batches of
    document and policy mutations: stages the batch as one
    {!Txn.commit_ops} on [user]'s session and its class's lazy view
    (later ops see earlier ops' effects, including rule changes),
    journals the {e applied} ops (when
    [?persist] is attached), then publishes the new epoch.  A
    document-only batch broadcasts the merged delta once per class; a
    batch carrying policy ops re-keys the permission-equivalence classes
    instead — sessions regroup by their new {!Perm.profile}, classes
    split or merge as rule applicability changes
    ([serve_class_splits_total] / [serve_class_merges_total]), and each
    class is rebased exactly once against the new (document, policy)
    epoch, reusing incremental re-resolution ({!Perm.update_policy}) and
    rebasing the lazy view of the class each group's representative came
    from.

    [?admin] activates §4.3 administrative authority checks with [user]
    as issuer (see {!Txn.commit_ops}).

    On [Error] nothing is observable: no source or policy change, no
    journal record, no broadcast, no metric beyond [txn_aborts_total].
    Logs the user in on first use. *)

val commit :
  ?on_denial:[ `Abort | `Tolerate ] ->
  t -> user:string -> Xupdate.Op.t list ->
  (committed, Txn.error) result
(** [commit t ~user ops] = [commit_ops t ~user (Op.docs ops)] — the
    historical document-only write path. *)

val update : t -> user:string -> Xupdate.Op.t -> Secure_update.report
(** Thin wrapper: [commit ~on_denial:`Tolerate] of the single op — the
    paper's §4.4.2 semantics, where an op may succeed on some targets
    and be denied on others.  Re-raises the op's exception if it failed
    (matching the historical behaviour of the per-op path). *)

val update_all :
  t -> user:string -> Xupdate.Op.t list -> Secure_update.report list
(** [commit ~on_denial:`Tolerate] of the whole batch: per-target denial
    semantics per op, one broadcast for the batch. *)
