(** View derivation (axioms 15–17): the pruned copy of the source database
    a user is permitted to see.  A node is selected iff its parent is
    selected and the user holds [read] or [position] on it; position-only
    nodes are shown with the {!restricted} label.  Selected nodes keep
    their source identifiers (the paper: "selected nodes are not
    renumbered in the view"). *)

val restricted : string
(** ["RESTRICTED"] — the label of §2.1, after Sandhu & Jajodia. *)

val derive : Xmldoc.Flat.t -> Perm.t -> Xmldoc.Document.t
(** [derive flat perm]: the view of the source [flat] is a frozen
    snapshot of, as a first-class document — every query facility works
    on it unchanged.  The selection reads {!Perm.flat_visibility}'s
    oracle row by row.  A caller holding only a document freezes it
    ({!Xmldoc.Flat.of_document}).  Nothing on the serving path derives
    a view: reads and writes run on {!Lazy_view} or {!source}. *)

val source :
  ?prior:(Xmldoc.Flat.t * Bytes.t) * Ordpath.t list ->
  Xmldoc.Document.t -> Perm.t -> Xpath.Source.t
(** [source doc perm]: the view of [doc] as a virtual {!Xpath.Source},
    read straight off the node map — for a document with no snapshot,
    such as a transaction's staged document.  Queries through it answer
    exactly as on [derive (Xmldoc.Flat.of_document doc) perm], without
    building that view: every axis keeps the nodes axioms 15–17 select
    and shows position-only ones as {!restricted}.  Each node is decided
    once, from the decision stores and its parent's decision, and the
    decision is kept for the source's lifetime; a snapshot's
    {!Lazy_view} answers the same reads faster.

    [?prior] is [((fl, vis), roots)]: a snapshot of an earlier version
    of [doc] with its visibility oracle ({!Perm.flat_visibility}), and
    the roots of a normalised local delta ({!Delta.Local}) outside whose
    subtrees neither the two documents nor [perm] and the decisions
    [vis] was built from differ — what a downward session's staged
    document and decisions satisfy against the snapshot its batch
    started from.  A child list under a node outside those subtrees then
    comes off the snapshot and its oracle, with the delta's roots taken
    from the map; the answers are the same. *)

val is_restricted : Xmldoc.Document.t -> Ordpath.t -> bool
(** Is the node shown with the [RESTRICTED] label in this view?  (Checks
    the label, so apply it to view documents only.) *)

val visible_count : Xmldoc.Document.t -> int
(** Number of nodes excluding the document node. *)
