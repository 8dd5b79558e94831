(** Structured transaction event log.

    A bounded {!Ring} of typed events, each carrying a
    per-transaction {e correlation id}: one id is allocated when a
    transaction enters the pipeline and every event the transaction
    causes — staging, denial, journal append, fsync, snapshot, commit,
    broadcast, per-session rebase — is stamped with it, so
    [by_txn id] reconstructs the full story of one write after the
    fact (Dapper-style, but in-process).

    The id travels ambiently in domain-local storage ({!with_txn});
    pipeline stages call {!emit} with no id argument.  Code running on
    another domain (pool workers) passes [?txn] explicitly, because
    domain-local state does not cross domains.

    Recording is off by default; a disabled {!emit} is a single boolean
    load. *)

type kind =
  | Txn_begin of { user : string; ops : int }
  | Stage of { index : int; op : string }
  | Denial of { index : int; op : string; denied : int }
  | Validation_failure of { violations : int }
  | Journal_append of { seq : int; bytes : int }
  | Fsync of { seconds : float }
  | Snapshot of { seq : int }
  | Commit of { ops : int; denied : int }
  | Abort of { reason : string }
  | Broadcast of { sessions : int }
  | Rebase of { user : string; mode : string }
  | Replay of { seq : int }
  | Policy_stage of { index : int; op : string }
      (** a policy op staged inside a transaction ([op] is the
          {!Core.Op.policy_kind} label) *)
  | Policy_denial of { index : int; op : string; reason : string }
      (** a policy op denied (aborting or tolerated, per the
          transaction mode) *)
  | Rekey of { classes : int; splits : int; merges : int }
      (** permission-equivalence classes re-keyed after policy churn *)
  | Custom of { name : string; detail : string }

type event = {
  id : int;  (** ring-wide sequence number, 1-based *)
  txn : int;  (** correlation id; 0 = outside any transaction *)
  time : float;  (** wall-clock ([Unix.gettimeofday]) — display only *)
  mono : float;
      (** {!Mono.now} at emission — ordering and intervals between
          events come from this clock, so an NTP step between two
          pipeline stages cannot reorder a transaction's timeline *)
  kind : kind;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Correlation ids} *)

val next_txn : unit -> int
(** A fresh correlation id (1-based, process-wide). *)

val with_txn : int -> (unit -> 'a) -> 'a
(** Runs the thunk with [txn] as this domain's ambient correlation id;
    restores the previous ambient id on exit (even on raise). *)

val current_txn : unit -> int
(** This domain's ambient correlation id; 0 when none is in flight. *)

(** {1 Recording} *)

val emit : ?txn:int -> kind -> unit
(** Appends an event stamped [?txn] (default: the ambient id).  No-op
    while disabled.  The oldest event is dropped once the ring exceeds
    its capacity. *)

val default_capacity : int

val set_capacity : int -> unit
(** @raise Invalid_argument on a non-positive capacity. *)

val set_sink : (event -> unit) option -> unit
(** The ring's sink slot ({!Ring.set_sink}), e.g.
    [set_sink (Some (jsonl_sink stderr))]. *)

val jsonl_sink : out_channel -> event -> unit
(** One JSON object per line; pair with {!set_sink}. *)

val set_tap : name:string -> (event -> unit) option -> unit
(** Named observers ({!Ring.set_tap}) after the sink — how {!Anomaly}
    listens for aborts without occupying the sink slot. *)

(** {1 Queries} *)

val events : unit -> event list
(** Retained events, oldest first. *)

val by_txn : int -> event list
(** Retained events carrying the given correlation id, oldest first. *)

val length : unit -> int
val dropped : unit -> int

val clear : unit -> unit
(** Forgets retained events and resets the ring sequence (the
    correlation-id counter keeps running so ids stay unique). *)

(** {1 Rendering} *)

val kind_name : kind -> string
val event_to_json : event -> string
val to_jsonl : ?txn:int -> unit -> string
val to_json : ?txn:int -> unit -> string
