(** Security audit log: a bounded in-memory {!Ring} of access decisions
    plus its observers.

    Recording is off by default; every instrumented call site guards on
    {!enabled} before building an event, so a disabled log costs a single
    boolean load.  When enabled, every access decision the enforcement
    pipeline takes — privilege checks with their deciding rule, query
    evaluations, logins, denied or downgraded secure updates — lands in
    the ring (oldest events dropped past {!capacity}) and is offered to
    the sink, then the taps. *)

type decision = Allowed | Denied

type event = {
  seq : int;  (** global sequence number, 0-based *)
  time : float;  (** [Unix.gettimeofday] at recording — display only *)
  mono : float;
      (** {!Mono.now} at recording — ordering and intervals; wall-clock
          steps cannot reorder or corrupt it *)
  user : string;
  action : string;
      (** what was being decided: ["login"], ["query"],
          ["xupdate:rename"], … *)
  privilege : string;  (** [""] when no single privilege applies *)
  target : string;  (** ordpath of the node decided on, or a path *)
  decision : decision;
  rule : string;
      (** the deciding rule (via [Perm.deciding_rule] / [Explain]), or
          [""] when not rule-driven *)
  detail : string;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 1024. @raise Invalid_argument on capacity < 1. *)

val default : t

val set_enabled : bool -> unit
(** Global switch shared by every log (call sites guard on it). *)

val enabled : unit -> bool

val set_capacity : t -> int -> unit
(** Shrinks/grows the ring, dropping oldest events as needed.
    @raise Invalid_argument on capacity < 1. *)

val capacity : t -> int

val set_sink : t -> (event -> unit) option -> unit
(** The sink slot ({!Ring.set_sink}) belongs to the durable journal. *)

val set_tap : t -> name:string -> (event -> unit) option -> unit
(** Named observers ({!Ring.set_tap}) after the sink, e.g. {!Anomaly}'s. *)

val record :
  t ->
  user:string ->
  action:string ->
  ?privilege:string ->
  ?target:string ->
  ?rule:string ->
  ?detail:string ->
  decision ->
  unit
(** Unconditional recording — callers are expected to guard on
    {!enabled} so disabled instrumentation stays allocation-free. *)

val events : t -> event list
(** Retained events, oldest first. *)

val length : t -> int
val seen : t -> int
(** Total events ever recorded (including dropped ones). *)

val dropped : t -> int
val clear : t -> unit

val event_to_string : event -> string
(** One line: seq, user, action, privilege, target, decision, rule,
    detail. *)

val event_to_json : event -> string
val to_json : t -> string
