(** Immutable struct-of-arrays snapshot of a {!Document} in document
    order: interned labels, kind bytes, packed binary ordpath keys
    ({!Ordpath.pack}) and [parent]/[first_child]/[next_sibling]/
    [subtree_end] index arrays.  Every §3.2 axis is an O(1) index step or
    a linear scan, and an ordpath-contiguous subtree prune is a single
    jump to [subtree_end] — this is the hot read path behind
    [Xpath.Source] and the compiled-NFA folds.

    A snapshot is immutable: writers keep mutating the map-backed
    {!Document}; an epoch publisher (e.g. [Core.Serve.commit]) publishes
    a new snapshot per committed delta, {!splice}d from the previous one
    at the cost of the delta plus flat array copies, or frozen whole by
    {!of_document}, the reference.  All axis answers coincide exactly
    with {!Document}'s, and every spliced snapshot equals the fresh
    freeze of its document (both checked differentially in
    [test/test_flat.ml]). *)

type t

(** {1 Building}

    Nodes must be appended in document order with every parent before
    its children — the order {!Document.iter} and the streaming parser
    both produce. *)

module Builder : sig
  type b

  val create : unit -> b

  val add : b -> id:Ordpath.t -> kind:Node.kind -> label:string -> unit
  (** Append the next node in document order. *)

  val finish : b -> t
end

val of_document : Document.t -> t
(** Freeze: one document-order walk of the map-backed store. *)

val splice : t -> Document.t -> roots:Ordpath.t list -> t
(** [splice t doc ~roots] is a snapshot of [doc] — equal to
    [of_document doc] on every column and posting list, pool ids aside —
    given that [t] is a snapshot of a document that differs from [doc]
    only inside the subtrees rooted at [roots] (a [Core.Delta]).  Rows
    outside those subtrees are copied from [t] with their index columns
    shifted; rows inside are read from [doc]; the only geometry
    recomputed is the subtree spans of the roots' ancestors and the
    child chains of the roots' parents.  Cost: the changed rows, a
    search per root, the array copies, and the posting lists that hold
    rows after the first root.  [t] is never mutated.

    Copied rows keep their boxed nodes; new rows get fresh node records
    carrying the pool's interned label strings, as a full freeze gives.
    A label whose last row goes stays in the pool as a dead entry; when
    dead entries would make the pool larger than [2 × live labels + 64],
    the splice freezes [doc] afresh instead.  A root equal to the
    document node does too. *)

val to_document : t -> Document.t
(** Thaw: rebuild the map-backed store ([to_document (of_document d)] is
    {!Document.equal} to [d]). *)

(** {1 Columns and index arrays}

    Index-based accessors; [0 <= i < size t], index order is document
    order, index [0] is the document node. *)

val size : t -> int
val node : t -> int -> Node.t
val id : t -> int -> Ordpath.t
val kind_ix : t -> int -> Node.kind
val label_ix : t -> int -> string
val key : t -> int -> string
(** The packed ordpath key ({!Ordpath.pack}). *)

val parent_ix : t -> int -> int
(** [-1] at the document node. *)

val first_child_ix : t -> int -> int
(** [-1] when childless. *)

val next_sibling_ix : t -> int -> int
(** [-1] at a last child. *)

val subtree_end : t -> int -> int
(** Exclusive end of the subtree span: the strict descendants of [i] are
    exactly the indexes [i+1 .. subtree_end t i - 1]. *)

val pool_size : t -> int
(** Number of labels in the string pool: the distinct labels of a fresh
    freeze, plus the dead ones a {!splice} left behind. *)

val pool_label : t -> int -> string
(** The label of a pool id, [0 <= id < pool_size t]. *)

val find_ix : t -> Ordpath.t -> int option
(** Binary search over the packed key column. *)

val lower_bound : t -> string -> int
(** First index whose packed key is [>=] the given key ([size t] when
    none). *)

(** {1 Document-compatible reads} *)

val find : t -> Ordpath.t -> Node.t option
val mem : t -> Ordpath.t -> bool
val label : t -> Ordpath.t -> string option
val kind : t -> Ordpath.t -> Node.kind option
val fold : (Node.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Node.t -> unit) -> t -> unit
val nodes : t -> Node.t list
val to_seq : t -> Node.t Seq.t
val root_element : t -> Node.t option

val by_label_ix : t -> string -> int array
(** Indexes of all nodes carrying the label, document order. *)

val by_label : t -> string -> Ordpath.t list
val labelled : t -> string -> Node.t list
val find_labelled : t -> string -> Node.t option

val parent : t -> Ordpath.t -> Node.t option
val children : t -> Ordpath.t -> Node.t list
val children_ix : t -> int -> int list
val element_children : t -> Ordpath.t -> Node.t list
val attributes : t -> Ordpath.t -> Node.t list
val last_child : t -> Ordpath.t -> Node.t option
val descendants : t -> Ordpath.t -> Node.t list
val descendant_or_self : t -> Ordpath.t -> Node.t list
val ancestors : t -> Ordpath.t -> Node.t list
val ancestor_or_self : t -> Ordpath.t -> Node.t list
val following_siblings : t -> Ordpath.t -> Node.t list
val preceding_siblings : t -> Ordpath.t -> Node.t list
val following : t -> Ordpath.t -> Node.t list
val preceding : t -> Ordpath.t -> Node.t list
val is_child : t -> child:Ordpath.t -> Ordpath.t -> bool
val is_descendant : t -> descendant:Ordpath.t -> Ordpath.t -> bool
val string_value : t -> Ordpath.t -> string

(** {1 Size accounting} *)

val bytes : t -> int
(** Approximate heap footprint of the snapshot in bytes: keys, boxed
    nodes, pool labels (dead ones included) and the flat columns.
    Carried with the snapshot and updated by each {!splice} from the rows
    it drops and adds, so reading it is O(1). *)

val bytes_per_node : t -> float
