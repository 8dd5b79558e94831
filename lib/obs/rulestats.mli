(** Per-rule decision telemetry: runtime rule coverage under axiom 14.

    Every conflict resolution ([Core.Perm.compute]/[update]) counts, per
    security rule, how many nodes the rule's path {e matched} and how
    many of those it actually {e decided} (won the most-recent-wins
    resolution for its privilege).  [matched - decided] is the number of
    nodes where the rule was overridden by a more recent rule; a rule
    with zero decisions despite matches is a {e runtime-shadowed}
    candidate — dead weight the planned [xmlsecu lint] static analyser
    can cross-check.

    Rules are keyed by their priority (unique within a policy).
    Counters are process-wide atomics, safe to bump from [Core.Pool]
    worker domains; recording is off by default and call sites guard on
    {!enabled}, so a disabled registry costs one boolean load. *)

type entry
(** A registered rule's counter cell. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val register : key:int -> privilege:string -> desc:string -> entry
(** Idempotent by [key] (the rule priority): re-registering returns the
    existing cell, so cumulative counts survive re-resolution. *)

val add_matched : entry -> int -> unit
(** The rule's path selected [n] more nodes (whether or not it won). *)

val add_decided : entry -> int -> unit
(** The rule won the most-recent-wins resolution on [n] more nodes. *)

val note_class : profile:string -> keys:int list -> unit
(** Associates a permission-equivalence class ({!Core.Perm.profile})
    with the priorities of its applicable rules.  Idempotent. *)

val note_member : profile:string -> unit
(** One more session joined the class (no-op for unknown profiles). *)

val retire : key:int -> unit
(** The rule issued at this timestamp was retracted: forget its
    counters (it must not be reported as shadowed forever) and drop the
    timestamp from every class's rule list.  Unknown keys are a no-op;
    re-registering the key later starts from zero. *)

(** {1 Reporting} *)

type report = {
  r_key : int;
  r_privilege : string;
  r_desc : string;
  r_matched : int;
  r_decided : int;
  r_overridden : int;  (** [max 0 (matched - decided)] *)
}

val reports : unit -> report list
(** All registered rules, ascending priority. *)

val shadowed : unit -> report list
(** Rules with zero decisions so far — runtime-shadowed candidates. *)

type class_report = {
  c_profile : string;
  c_keys : int list;
  c_members : int;
}

val class_reports : unit -> class_report list

val clear : unit -> unit
(** Forgets every registered rule and class. *)

val to_json : unit -> string
(** [{"rules":[...],"classes":[...]}] — what [/rulez] serves. *)

val to_string : unit -> string
(** Human-readable coverage table, shadowed rules flagged. *)
