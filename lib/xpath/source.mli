(** The node source an XPath evaluation runs against.  The usual source is
    a materialised {!Xmldoc.Document}; [Core.Lazy_view] provides a virtual
    one that filters and relabels the source database on the fly — the
    "apply filters reflecting the user privileges on the queries"
    implementation direction of the paper's §5. *)

type t = {
  find : Ordpath.t -> Xmldoc.Node.t option;
  children : Ordpath.t -> Xmldoc.Node.t list;
  parent : Ordpath.t -> Xmldoc.Node.t option;
  descendants : Ordpath.t -> Xmldoc.Node.t list;
  descendant_or_self : Ordpath.t -> Xmldoc.Node.t list;
  ancestors : Ordpath.t -> Xmldoc.Node.t list;
  ancestor_or_self : Ordpath.t -> Xmldoc.Node.t list;
  following_siblings : Ordpath.t -> Xmldoc.Node.t list;
  preceding_siblings : Ordpath.t -> Xmldoc.Node.t list;
  following : Ordpath.t -> Xmldoc.Node.t list;
  preceding : Ordpath.t -> Xmldoc.Node.t list;
  attributes : Ordpath.t -> Xmldoc.Node.t list;
  string_value : Ordpath.t -> string;
  by_label : string -> Xmldoc.Node.t list;
  (** Per-label index: all nodes carrying the label, in document order.
      It must return every node whose {e visible} label matches, or
      descendant name-tests go wrong. *)
}

val of_document : Xmldoc.Document.t -> t

val of_flat : Xmldoc.Flat.t -> t
(** A source over a flat columnar snapshot ({!Xmldoc.Flat}): axis
    answers coincide with {!of_document} over the frozen document, but
    run on index arrays instead of map walks. *)

val counting : (int -> unit) -> t -> t
(** [counting note src] answers exactly like [src] and calls [note k]
    whenever a call hands [k] nodes to the evaluator: the traversal work
    of an evaluation, for read paths with no automaton to count. *)
