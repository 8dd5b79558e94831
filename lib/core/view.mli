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
    ({!Xmldoc.Flat.of_document}). *)

val patch :
  Xmldoc.Document.t -> view:Xmldoc.Document.t -> Perm.t -> Delta.t ->
  Xmldoc.Document.t
(** [patch source ~view perm delta] re-derives the view incrementally on
    the node map — the path of staged documents, which have no snapshot:
    nodes of the old [view] outside [delta] are kept, nodes inside are
    re-selected by axioms 15–17 against the new [source] and [perm].
    Equal to [derive (Flat.of_document source) perm] whenever [delta]
    covers the update and the session's rules are downward (see
    {!Delta.local_rules}); pass {!Delta.all} otherwise, which freezes
    [source] and derives in full. *)

val is_restricted : Xmldoc.Document.t -> Ordpath.t -> bool
(** Is the node shown with the [RESTRICTED] label in this view?  (Checks
    the label, so apply it to view documents only.) *)

val visible_count : Xmldoc.Document.t -> int
(** Number of nodes excluding the document node. *)
