(** Query-plan explainability and the slow-query log.

    Each served query records a structured {!plan} — the chosen read
    path (compiled rewrite vs lazy-view fallback) and, for a rewrite,
    its plan (a scan of the snapshot, or a run anchored on the label
    index and the labels it read), determinised
    automaton product-state count, nodes visited and pruned by ordpath
    contiguity, the deciding-rule set over the answers, the permission
    class, and the latency from the monotonic clock — into a bounded
    {!Ring}.  Plans at or above the configurable latency
    {!threshold} are additionally retained in a dedicated slow ring
    (what [/slowz] and [xmlsecu slow] serve), so fast traffic cannot
    evict the evidence of a slow query.

    Recording is off by default; call sites guard on {!enabled}. *)

type plan = {
  seq : int;
  time : float;  (** wall clock ([Unix.gettimeofday]), display only *)
  mono : float;  (** monotonic stamp — ordering and intervals *)
  user : string;
  query : string;
  compiled : bool;  (** [true] = rewrite product, [false] = fallback *)
  anchors : string list;
      (** the labels an anchored rewrite read its candidates from; [[]]
          for a scan of the whole snapshot (and for a fallback) *)
  states : int;  (** distinct determinised automaton state sets *)
  visited : int;  (** nodes the traversal consumed *)
  pruned : int;  (** nodes skipped wholesale by ordpath contiguity *)
  answers : int;
  rules : string list;  (** deciding rules over the answer set *)
  cls : string;  (** [Perm.profile] class id *)
  seconds : float;  (** latency on the monotonic clock *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val default_threshold : float
(** 10 ms. *)

val set_threshold : float -> unit
(** Plans with [seconds >= threshold] also land in the slow ring. *)

val threshold : unit -> float

val default_capacity : int

val set_capacity : int -> unit
(** Applies to both rings. @raise Invalid_argument when non-positive. *)

val record :
  user:string -> query:string -> compiled:bool -> anchors:string list ->
  states:int ->
  visited:int -> pruned:int -> answers:int -> rules:string list ->
  cls:string -> seconds:float -> plan
(** Unconditional — callers guard on {!enabled}. *)

val recent : unit -> plan list
(** Retained plans, oldest first. *)

val slow : unit -> plan list
(** Retained at-or-above-threshold plans, oldest first. *)

val seen : unit -> int
val clear : unit -> unit

val plan_name : plan -> string
(** ["anchored"] or ["scan"] for a rewrite, ["fallback"] otherwise. *)

val plan_to_json : plan -> string
(** Carries the read path (["path": "rewrite" | "fallback"]), the
    {!plan_name} (["plan"]) and the anchor labels (["anchors"]). *)

val plan_to_string : plan -> string
val recent_json : unit -> string
val slow_json : unit -> string
