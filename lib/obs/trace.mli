(** Span tracing: a lightweight scope API turning a request into a tree
    of timed spans.

    Tracing is off by default; a disabled {!with_span} is a single
    boolean load and the direct call of the thunk — no allocation, no
    clock read.  When enabled, spans nest along the dynamic extent of
    {!with_span} calls, closed spans attach to their parent (or to a
    {!Ring} of completed root spans), and {!annotate} hangs
    key/value metadata on the innermost open span. *)

type span = {
  name : string;
  start : float;  (** {!Mono.now} at entry (monotonic; arbitrary epoch) *)
  mutable elapsed : float;  (** seconds; set when the span closes *)
  mutable children : span list;  (** in execution order once closed *)
  mutable meta : (string * string) list;  (** in annotation order *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a fresh span.  The span closes (and records its
    duration) even when the thunk raises.  When tracing is disabled this
    is just [f ()]. *)

val annotate : string -> string -> unit
(** Attaches [key=value] to the innermost open span; no-op when tracing
    is disabled or no span is open. *)

val roots : unit -> span list
(** Completed root spans, oldest first.  At most {!max_roots} are
    retained; older ones are dropped (counted by {!dropped}). *)

val max_roots : int

val dropped : unit -> int
(** Roots overwritten since the last {!clear}. *)

val clear : unit -> unit
(** Forgets completed roots and the dropped count (open spans are
    unaffected). *)

val to_string : span -> string
(** Indented tree rendering, durations in microseconds. *)

val span_to_json : span -> string
val roots_to_json : unit -> string

val to_chrome_json : unit -> string
(** Completed roots in Chrome trace-event format (one [ph:"X"] complete
    event per span, µs timestamps rebased to the earliest root, one tid
    per root tree); loadable in [chrome://tracing] or Perfetto. *)
