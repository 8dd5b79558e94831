(** Metrics registry: named monotonic counters, gauges, labelled counter
    families and latency histograms with Prometheus-style text exposition
    and JSON dumps.

    A registry is a flat namespace of instruments; registering the same
    name twice returns the same instrument, so modules can resolve their
    counters once at initialisation and increment a plain record field on
    the hot path.  Counter increments and histogram observations never
    allocate.  Durations fed into histograms by {!time} are measured on
    the monotonic clock ({!Mono.now}) so wall-clock jumps cannot corrupt
    them. *)

type t
(** A registry. *)

type counter
type gauge
type family
type histogram

val create : unit -> t

val default : t
(** The process-wide registry every instrumented module reports into. *)

(** {1 Counters} *)

val counter : ?help:string -> t -> string -> counter
(** Registers (or finds) the monotonic counter [name].  [help] is kept
    first-wins for exposition. *)

val inc : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative amount (counters are
    monotonic). *)

val value : counter -> int
val counter_name : counter -> string

(** {1 Gauges}

    Gauges are instantaneous levels (queue depth, live sessions, bytes on
    disk): they move both ways and are exposed as floats. *)

val gauge : ?help:string -> t -> string -> gauge
(** Registers (or finds) the settable gauge [name]. *)

val set_gauge : gauge -> float -> unit

val add_gauge : gauge -> float -> unit
(** Adds [d] (either sign) atomically. *)

val gauge_value : gauge -> float
val gauge_name : gauge -> string

val gauge_fn : ?help:string -> t -> string -> (unit -> float) -> unit
(** Registers a callback gauge sampled at exposition time (e.g.
    seconds-since-last-snapshot).  First registration under a name wins;
    the callback must be domain-safe and non-blocking. *)

(** {1 Labelled counter families}

    A family is one metric name with a fixed list of label names; each
    distinct label-value vector owns an independent counter cell exposed
    as [name{k="v",...}].  Cells are created on first use and live
    forever (label values must therefore be low-cardinality — privilege
    names, outcome kinds, not user ids). *)

val family : ?help:string -> t -> string -> labels:string list -> family
(** Registers (or finds) the family [name] with the given label names.
    @raise Invalid_argument if [labels] is empty or the name was already
    registered with different label names. *)

val labels : family -> string list -> counter
(** The cell for one label-value vector (positional, matching the
    family's label names); creates it at zero on first use.  The
    returned counter's {!counter_name} is the full rendered
    [name{k="v"}] sample name.
    @raise Invalid_argument on a value-count mismatch. *)

val family_name : family -> string
val family_labels : family -> string list

val family_cells : family -> (string list * int) list
(** Every cell as [(label values, value)], sorted. *)

(** {1 Histograms} *)

val histogram : ?help:string -> t -> string -> histogram
(** Registers (or finds) a latency histogram with fixed log-scale buckets
    (powers of two from 1µs to ~8s, plus +Inf).  Observations are in
    seconds. *)

val observe : histogram -> float -> unit
val count : histogram -> int
val sum : histogram -> float

val buckets : histogram -> (float * int) list
(** Cumulative [(upper_bound_seconds, count)] pairs, +Inf last
    (represented as [infinity]). *)

val bucket_bounds : float array
(** The ladder's finite upper bounds (read-only), shared with
    {!Timeseries}' sketches. *)

val bucket_index : float -> int
(** The ladder bucket a value falls in; [Array.length bucket_bounds] is
    the overflow bucket. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Runs the thunk and observes its duration on the monotonic clock;
    observes even when the thunk raises. *)

(** {1 Exposition} *)

val counters : t -> (string * int) list
(** Plain (unlabelled) counters, sorted by name.  Family cells are
    reported by {!families}. *)

val gauges : t -> (string * float) list
(** Settable and callback gauges, sampled now, sorted by name. *)

val families : t -> (string * (string * string) list * int) list
(** Every family cell as [(family name, label pairs, value)], sorted. *)

val histogram_names : t -> string list

val to_prometheus : t -> string
(** Prometheus text exposition format: counters, gauges, labelled
    families, then histograms, each sorted by name, with [# HELP]
    / [# TYPE] headers.  HELP text and label values are escaped per the
    exposition format (backslash, double quote, newline). *)

val to_json : t -> string

val reset : t -> unit
(** Zeroes every instrument (registrations survive; callback gauges are
    left to their callbacks).  For tests and benches only — production
    counters are monotonic. *)

(** {1 JSON plumbing} *)

val json_string : string -> string
(** Escapes and quotes a string for JSON; shared by the other [Obs]
    emitters. *)
