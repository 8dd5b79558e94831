(** Axioms 15–17 on the node map: the definitional view derivation, one
    top-down fold that decides each node from its parent's selection and
    the user's read and position decisions.  It shares nothing with the
    snapshot (no {!Xmldoc.Flat}, no {!Core.Perm.flat_visibility}), so it
    is the reference every snapshot read path — {!Core.View.derive},
    {!Core.Lazy_view}, {!Core.Rewrite} and the oracles a rebase patches —
    is checked against. *)

val derive : Xmldoc.Document.t -> Core.Perm.t -> Xmldoc.Document.t
(** [derive source perm]: a node is selected iff its parent is selected
    and the user holds [read] (kept with its label) or [position] (shown
    as {!Core.View.restricted}) on it; the document node always is. *)

val visibility : Xmldoc.Flat.t -> Xmldoc.Document.t -> Core.Perm.t -> Bytes.t
(** [visibility flat source perm]: the byte-per-row oracle {!derive}
    implies on [flat], a frozen snapshot of [source] — [0] hidden, [1]
    shown under its source label, [2] shown as RESTRICTED — the encoding
    of {!Core.Perm.flat_visibility}. *)
