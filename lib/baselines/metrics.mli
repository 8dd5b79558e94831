(** Availability / leakage metrics comparing the core model's views with
    the §2 baselines, for the E11 experiment: the two failure modes the
    paper motivates its [position] privilege with, made measurable. *)

type comparison = {
  source_nodes : int;  (** nodes in the source, document node excluded *)
  readable_nodes : int;  (** nodes with the [read] privilege *)
  core_visible : int;  (** core-model view size *)
  core_restricted : int;  (** of which RESTRICTED *)
  deny_subtree_visible : int;  (** [11]-style view size *)
  deny_subtree_lost : int;
      (** readable nodes the [11]-style view loses (availability gap) *)
  structure_preserving_visible : int;
  structure_preserving_leaked : int;
      (** unreadable labels the [7]-style view reveals (leakage) *)
}

val compare_models : Core.Session.t -> comparison
(** The session's view against the baselines' views of its source, built
    from the session's resolved permissions. *)

val core_leaked : Xmldoc.Document.t -> Core.Perm.t -> int
(** Labels revealed by the core view without [read] — always 0
    (RESTRICTED masks them); included so the invariant is executable. *)

val pp : Format.formatter -> comparison -> unit
(** One table row per model: visible / lost / leaked. *)

val header : string
