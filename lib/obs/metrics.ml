(* Instruments are shared across domains (the Core.Pool fan-out
   increments them from workers): counters and gauges are atomics,
   histograms take a per-instrument mutex, labelled-family child lookup
   takes the family mutex, and registration itself is serialised. *)
type counter = {
  c_name : string;
  c_help : string;
  c_value : int Atomic.t;
}

type gauge = {
  g_name : string;
  g_help : string;
  g_value : float Atomic.t;
}

type family = {
  f_name : string;
  f_help : string;
  f_labels : string list;
  f_lock : Mutex.t;
  f_children : (string list, counter) Hashtbl.t; (* label values -> cell *)
}

(* Fixed log-scale bucket bounds, in seconds: 1µs, 2µs, 4µs, … ~8.4s,
   then +Inf.  Fixed bounds keep exposition comparable across runs and
   make observation a constant-time scan with no allocation. *)
let bucket_bounds =
  Array.init 24 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

let bucket_index v =
  let n = Array.length bucket_bounds in
  let rec slot i = if i >= n || v <= bucket_bounds.(i) then i else slot (i + 1) in
  slot 0

type histogram = {
  h_name : string;
  h_help : string;
  h_lock : Mutex.t;
  h_counts : int array; (* one per bound, non-cumulative; overflow last *)
  mutable h_sum : float;
  mutable h_count : int;
}

type t = {
  reg_lock : Mutex.t;
  mutable counters : counter list; (* insertion order, newest first *)
  mutable gauges : gauge list;
  mutable gauge_fns : (string * string * (unit -> float)) list;
  mutable families : family list;
  mutable histograms : histogram list;
}

let create () =
  {
    reg_lock = Mutex.create ();
    counters = [];
    gauges = [];
    gauge_fns = [];
    families = [];
    histograms = [];
  }

let default = create ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let counter ?(help = "") t name =
  locked t.reg_lock @@ fun () ->
  match List.find_opt (fun c -> String.equal c.c_name name) t.counters with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
    t.counters <- c :: t.counters;
    c

let inc c = Atomic.incr c.c_value

let add c n =
  if n < 0 then invalid_arg "Obs.Metrics.add: negative amount";
  ignore (Atomic.fetch_and_add c.c_value n)

let value c = Atomic.get c.c_value
let counter_name c = c.c_name

let gauge ?(help = "") t name =
  locked t.reg_lock @@ fun () ->
  match List.find_opt (fun g -> String.equal g.g_name name) t.gauges with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_help = help; g_value = Atomic.make 0. } in
    t.gauges <- g :: t.gauges;
    g

let set_gauge g v = Atomic.set g.g_value v

let add_gauge g d =
  (* CAS loop: gauges move both ways, so no fetch_and_add shortcut. *)
  let rec go () =
    let old = Atomic.get g.g_value in
    if not (Atomic.compare_and_set g.g_value old (old +. d)) then go ()
  in
  go ()

let gauge_value g = Atomic.get g.g_value
let gauge_name g = g.g_name

let gauge_fn ?(help = "") t name f =
  locked t.reg_lock @@ fun () ->
  if not (List.exists (fun (n, _, _) -> String.equal n name) t.gauge_fns)
  then t.gauge_fns <- (name, help, f) :: t.gauge_fns

let render_labels names values =
  let buf = Buffer.create 32 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      String.iter
        (fun ch ->
          match ch with
          | '\\' -> Buffer.add_string buf "\\\\"
          | '"' -> Buffer.add_string buf "\\\""
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        v;
      Buffer.add_char buf '"')
    (List.combine names values);
  Buffer.add_char buf '}';
  Buffer.contents buf

let family ?(help = "") t name ~labels =
  if labels = [] then invalid_arg "Obs.Metrics.family: no label names";
  locked t.reg_lock @@ fun () ->
  match List.find_opt (fun f -> String.equal f.f_name name) t.families with
  | Some f ->
    if f.f_labels <> labels then
      invalid_arg
        (Printf.sprintf
           "Obs.Metrics.family: %s re-registered with different labels" name);
    f
  | None ->
    let f =
      {
        f_name = name;
        f_help = help;
        f_labels = labels;
        f_lock = Mutex.create ();
        f_children = Hashtbl.create 8;
      }
    in
    t.families <- f :: t.families;
    f

let labels f values =
  if List.length values <> List.length f.f_labels then
    invalid_arg
      (Printf.sprintf "Obs.Metrics.labels: %s wants %d label values"
         f.f_name
         (List.length f.f_labels));
  locked f.f_lock @@ fun () ->
  match Hashtbl.find_opt f.f_children values with
  | Some c -> c
  | None ->
    let c =
      {
        c_name = f.f_name ^ render_labels f.f_labels values;
        c_help = f.f_help;
        c_value = Atomic.make 0;
      }
    in
    Hashtbl.add f.f_children values c;
    c

let family_name f = f.f_name
let family_labels f = f.f_labels

let family_cells f =
  let cells =
    locked f.f_lock @@ fun () ->
    Hashtbl.fold
      (fun values c acc -> (values, Atomic.get c.c_value) :: acc)
      f.f_children []
  in
  List.sort compare cells

let histogram ?(help = "") t name =
  locked t.reg_lock @@ fun () ->
  match List.find_opt (fun h -> String.equal h.h_name name) t.histograms with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_help = help;
        h_lock = Mutex.create ();
        h_counts = Array.make (Array.length bucket_bounds + 1) 0;
        h_sum = 0.;
        h_count = 0;
      }
    in
    t.histograms <- h :: t.histograms;
    h

let observe h v =
  let i = bucket_index v in
  locked h.h_lock @@ fun () ->
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let count h = h.h_count
let sum h = h.h_sum

let buckets h =
  let acc = ref 0 in
  let cumulative =
    Array.to_list
      (Array.mapi
         (fun i c ->
           acc := !acc + c;
           let bound =
             if i < Array.length bucket_bounds then bucket_bounds.(i)
             else infinity
           in
           (bound, !acc))
         h.h_counts)
  in
  cumulative

let time h f =
  let t0 = Mono.now () in
  Fun.protect ~finally:(fun () -> observe h (Mono.now () -. t0)) f

let by_name name_of l = List.sort (fun a b -> compare (name_of a) (name_of b)) l

let counters t =
  List.map
    (fun c -> (c.c_name, Atomic.get c.c_value))
    (by_name (fun c -> c.c_name) t.counters)

let gauges t =
  let settable =
    List.map (fun g -> (g.g_name, Atomic.get g.g_value)) t.gauges
  in
  let sampled = List.map (fun (n, _, f) -> (n, f ())) t.gauge_fns in
  List.sort compare (settable @ sampled)

let families t =
  List.concat_map
    (fun f ->
      List.map
        (fun (values, v) -> (f.f_name, List.combine f.f_labels values, v))
        (family_cells f))
    (by_name (fun f -> f.f_name) t.families)

let histogram_names t =
  List.map (fun h -> h.h_name) (by_name (fun h -> h.h_name) t.histograms)

let le_label bound =
  if bound = infinity then "+Inf" else Printf.sprintf "%g" bound

(* Exposition-format escaping: in HELP text, backslash and newline are
   escaped; label values additionally escape the double quote (done in
   [render_labels], which child cells bake into their names). *)
let escape_help s =
  if String.exists (fun c -> c = '\\' || c = '\n') s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun ch ->
        match ch with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let gauge_text v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun c ->
      header c.c_name c.c_help "counter";
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_value)))
    (by_name (fun c -> c.c_name) t.counters);
  let sampled =
    List.map (fun g -> (g.g_name, g.g_help, Atomic.get g.g_value)) t.gauges
    @ List.map (fun (n, h, f) -> (n, h, f ())) t.gauge_fns
  in
  List.iter
    (fun (name, help, v) ->
      header name help "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" name (gauge_text v)))
    (List.sort compare sampled);
  List.iter
    (fun f ->
      header f.f_name f.f_help "counter";
      List.iter
        (fun (values, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" f.f_name
               (render_labels f.f_labels values)
               v))
        (family_cells f))
    (by_name (fun f -> f.f_name) t.families);
  List.iter
    (fun h ->
      header h.h_name h.h_help "histogram";
      List.iter
        (fun (bound, c) ->
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" h.h_name
               (le_label bound) c))
        (buckets h);
      Buffer.add_string buf (Printf.sprintf "%s_sum %.9f\n" h.h_name h.h_sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" h.h_name h.h_count))
    (by_name (fun h -> h.h_name) t.histograms);
  Buffer.contents buf

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_float v =
  if v = infinity then "\"+Inf\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%.9g" v

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (json_string name) v))
    (counters t);
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:%s" (json_string name) (json_float v)))
    (gauges t);
  Buffer.add_string buf "},\"families\":[";
  List.iteri
    (fun i (name, pairs, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":%s,\"labels\":{" (json_string name));
      List.iteri
        (fun j (k, lv) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "%s:%s" (json_string k) (json_string lv)))
        pairs;
      Buffer.add_string buf (Printf.sprintf "},\"value\":%d}" v))
    (families t);
  Buffer.add_string buf "],\"histograms\":{";
  List.iteri
    (fun i h ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"count\":%d,\"sum\":%s,\"buckets\":["
           (json_string h.h_name) h.h_count (json_float h.h_sum));
      List.iteri
        (fun j (bound, c) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"le\":%s,\"count\":%d}" (json_float bound) c))
        (buckets h);
      Buffer.add_string buf "]}")
    (by_name (fun h -> h.h_name) t.histograms);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let reset t =
  List.iter (fun c -> Atomic.set c.c_value 0) t.counters;
  List.iter (fun g -> Atomic.set g.g_value 0.) t.gauges;
  List.iter
    (fun f ->
      locked f.f_lock @@ fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) f.f_children)
    t.families;
  List.iter
    (fun h ->
      locked h.h_lock @@ fun () ->
      Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
      h.h_sum <- 0.;
      h.h_count <- 0)
    t.histograms
