(** The one bounded buffer behind every observability stream ({!Audit},
    {!Events}, {!Planlog}, {!Trace}'s finished roots, {!Anomaly}'s
    alert timeline): a fixed-capacity circular buffer, O(1) per push,
    safe to push to and read from any domain.

    Each record gets its sequence number (0-based, reset by {!clear})
    under the ring's lock, so snapshots are always in push order.  The
    ring also holds its stream's observers: one sink slot (the durable
    journal's) and any number of named taps.  They run outside the lock,
    the sink first, so a slow observer stalls no other pusher and an
    observer may read its own ring. *)

type 'a t

val create : int -> 'a t
(** @raise Invalid_argument on a capacity below 1. *)

val push : 'a t -> (int -> 'a) -> 'a
(** [push r make] stores [make seq] and hands it to the observers.
    [make] runs under the lock: it must not raise or touch [r]. *)

val add : 'a t -> 'a -> unit
(** {!push} for records that carry no sequence number. *)

val to_list : 'a t -> 'a list
(** Retained records, oldest first. *)

val length : 'a t -> int
val seen : 'a t -> int
(** Records pushed since the last {!clear}, evicted ones included. *)

val dropped : 'a t -> int
(** [seen - length]: records evicted by newer ones or by a shrink. *)

val capacity : 'a t -> int

val set_capacity : 'a t -> int -> unit
(** Keeps the newest records that fit.
    @raise Invalid_argument on a capacity below 1. *)

val clear : 'a t -> unit
(** Forgets every record and restarts the sequence at 0; observers
    stay. *)

val set_sink : 'a t -> ('a -> unit) option -> unit
(** The sink slot: runs before every tap.  [None] empties it. *)

val set_tap : 'a t -> name:string -> ('a -> unit) option -> unit
(** Registers, replaces or (with [None]) removes the tap [name]. *)
