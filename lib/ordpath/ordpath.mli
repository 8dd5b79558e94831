(** Persistent node labels for ordered trees, in the style of ORDPATH
    (O'Neil et al., SIGMOD 2004) and of the persistent labelling scheme the
    paper relies on ([12] in its bibliography).

    A label is a sequence of integer components.  Odd components mark tree
    levels; even components are insertion "carets" that glue to the
    components following them without adding a level.  The scheme supports
    {!append}, {!insert_before}, {!insert_after} and arbitrary
    {!between}-sibling insertion while guaranteeing that labels already
    assigned are never changed ("no renumbering after an update", §3.1 of
    the paper), and that every tree axis (parent, ancestor, sibling order,
    document order) is derivable from the labels alone. *)

type t
(** A node label.  The document node is {!document}. *)

val document : t
(** Label of the (unique) document node, printed ["/"]. *)

val root : t
(** Label of the conventional root element, the first child of
    {!document}. *)

val of_components : int list -> t
(** [of_components cs] builds a label from raw components.
    @raise Invalid_argument if [cs] is not a well-formed label: every
    level must consist of zero or more even components followed by exactly
    one odd component, and the whole list must end on an odd component
    (except for the empty list, which is {!document}). *)

val to_components : t -> int list

val compare : t -> t -> int
(** Total order = document order.  An ancestor precedes its
    descendants; siblings are ordered left to right. *)

val equal : t -> t -> bool
val hash : t -> int

val depth : t -> int
(** Number of levels: [depth document = 0], [depth root = 1]. *)

val parent : t -> t option
(** [parent t] is [None] iff [t] is {!document}. *)

val is_ancestor : ancestor:t -> t -> bool
(** Strict: [is_ancestor ~ancestor:t t = false]. *)

val is_ancestor_or_self : ancestor:t -> t -> bool

val is_child : parent:t -> t -> bool

val is_sibling : t -> t -> bool
(** Same parent and distinct. *)

val first_child : t -> t
(** The label given to the first child inserted under an empty node. *)

val append_after : t -> last:t option -> t
(** [append_after p ~last] is a fresh label for a new last child of [p],
    where [last] is the label of the current last child (or [None] if [p]
    has no children).
    @raise Invalid_argument if [last] is not a child of [p]. *)

val insert_before : t -> t
(** [insert_before n] is a fresh label for a new immediately-preceding
    sibling of [n] assuming [n] is currently the first child; use
    {!between} when [n] has a preceding sibling.
    @raise Invalid_argument if [n] is {!document}. *)

val between : left:t -> right:t -> t
(** A fresh label strictly between two sibling labels.
    @raise Invalid_argument if [left] and [right] are not siblings or
    [left >= right]. *)

val child_under : parent:t -> left:t option -> right:t option -> t
(** Generic allocation: a fresh child label of [parent] strictly between
    the sibling labels [left] and [right] (either may be [None] meaning
    no bound on that side).
    @raise Invalid_argument on non-children bounds or [left >= right]. *)

val outermost : t list -> t list
(** The labels in document order, without duplicates and without those
    that descend from another label of the list: the roots of a union of
    subtrees, pairwise disjoint. *)

val relationship : t -> t -> [ `Self | `Ancestor | `Descendant
                             | `Preceding | `Following ]
(** [relationship a b] classifies [b] relative to [a]: e.g. [`Ancestor]
    means [b] is an ancestor of [a]. *)

val to_string : t -> string
(** Dotted components, e.g. ["1.3.2.1"]; the document node is ["/"]. *)

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

(** {2 Packed binary keys}

    A packed key is a compact byte string whose byte-wise lexicographic
    order coincides with {!compare} (document order) and whose string
    prefixes coincide with label prefixes (ancestry).  Packed keys let a
    columnar store compare and range-scan labels with [memcmp]-style
    string comparison instead of walking boxed int lists. *)

val pack : t -> string
(** Order-preserving binary encoding of a label.  The document node packs
    to the empty string.
    @raise Invalid_argument if a component exceeds 55 bits. *)

val unpack : string -> t
(** Inverse of {!pack}. @raise Invalid_argument on malformed input. *)

val compare_packed : string -> string -> int
(** [compare_packed (pack a) (pack b) = compare a b]; implemented as a
    plain string comparison. *)

val is_packed_prefix : string -> string -> bool
(** [is_packed_prefix (pack a) (pack b)] iff [a] is an ancestor-or-self
    of [b]. *)

val is_packed_strict_prefix : string -> string -> bool
(** [is_packed_strict_prefix (pack a) (pack b)] iff [a] is a strict
    ancestor of [b]. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
