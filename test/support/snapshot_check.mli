(** Differential checks for columnar snapshots: a snapshot spliced from
    an earlier one must equal a fresh {!Xmldoc.Flat.of_document} of its
    document on every column and every posting list. *)

val recount_bytes : Xmldoc.Flat.t -> int
(** The snapshot's size accounting recounted by walking every row and
    pool label — the O(n) definition that {!Xmldoc.Flat.bytes} carries
    incrementally. *)

val check :
  string -> Xmldoc.Document.t -> expected:Xmldoc.Flat.t -> got:Xmldoc.Flat.t ->
  unit
(** [check what doc ~expected ~got] compares every column row by row
    (labels as strings: pool ids may differ), the posting list of every
    label either pool holds, and [Flat.bytes got] with
    {!recount_bytes}.  It also requires each of [got]'s node records to
    carry the pool's label string itself and not to be one of [doc]'s
    records.
    @raise Failure naming [what] and the first difference. *)

val check_served : string -> Core.Serve.t -> unit
(** Every logged-in user's lazy view holds a snapshot that passes
    {!check} against [of_document (Serve.source serve)], the
    [flat_bytes] gauge equals that snapshot's {!Xmldoc.Flat.bytes}, and
    a visibility oracle the lazy view holds ({!Core.Lazy_view.oracle}:
    built by a read, or patched by a rebase) equals
    {!Core.Perm.flat_visibility} of the user's permissions on that
    snapshot, byte for byte, which in turn equals the oracle the map
    derivation implies ({!View_oracle.visibility}).  Every user's five
    decision stores equal {!Core.Perm.compute} under the served policy
    on that snapshot, entry for entry, each decided by the same rule.
    @raise Failure as {!check}. *)
