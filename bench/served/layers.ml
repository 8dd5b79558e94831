(* Per-layer totals over the spans the program itself records with
   Obs.Trace.  A traced pass enables tracing around each measured request
   and calls [drain] after it: Obs.Trace keeps only its last 256 root
   spans, and with the pool at size 1 every request is exactly one root
   tree (serve.commit or serve.query), so draining after each request
   keeps every span.  Layers are named by span name.  The spans of the
   first [chrome_requests] requests are also kept as Chrome trace events,
   tagged with their request id. *)

let roots = [ "serve.commit"; "serve.query" ]
let chrome_requests = 500

type layer = {
  mutable calls : int;
  mutable self_s : float;  (** duration minus the direct children's *)
  mutable total_s : float;
  mutable durations : float list;  (** per call, seconds *)
}

type t = {
  layers : (string, layer) Hashtbl.t;
  events : Buffer.t;
  mutable t0 : float;  (** start of the first span, the events' origin *)
  mutable requests : int;
}

let empty () = { calls = 0; self_s = 0.; total_s = 0.; durations = [] }

let create () =
  { layers = Hashtbl.create 32; events = Buffer.create 65536; t0 = Float.nan; requests = 0 }

let add t (root : Obs.Trace.span) =
  if Float.is_nan t.t0 then t.t0 <- root.start;
  let rec go ~parent (s : Obs.Trace.span) =
    let l =
      match Hashtbl.find_opt t.layers s.name with
      | Some l -> l
      | None ->
        let l = empty () in
        Hashtbl.add t.layers s.name l;
        l
    in
    let children = List.fold_left (fun acc (c : Obs.Trace.span) -> acc +. c.elapsed) 0. s.children in
    l.calls <- l.calls + 1;
    l.self_s <- l.self_s +. s.elapsed -. children;
    l.total_s <- l.total_s +. s.elapsed;
    l.durations <- s.elapsed :: l.durations;
    if t.requests < chrome_requests then
      Printf.bprintf t.events
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%d,\"parent\":%S}}"
        (if Buffer.length t.events = 0 then "" else ",")
        s.name
        (1e6 *. (s.start -. t.t0))
        (1e6 *. s.elapsed) t.requests parent;
    List.iter (go ~parent:s.name) s.children
  in
  go ~parent:"" root

(* Takes the spans of the request that just ended out of Obs.Trace. *)
let drain t =
  if Obs.Trace.dropped () > 0 then failwith "served: Obs.Trace dropped root spans";
  List.iter (add t) (Obs.Trace.roots ());
  Obs.Trace.clear ();
  t.requests <- t.requests + 1

let find t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None -> empty ()

let calls t name = (find t name).calls
let self t name = (find t name).self_s
let total t name = (find t name).total_s
let durations t name = (find t name).durations

(* Summed self time of every layer below the request roots: the share of
   the requests' wall time that some layer's span accounts for. *)
let covered t =
  Hashtbl.fold (fun name l acc -> if List.mem name roots then acc else acc +. l.self_s) t.layers 0.

let table t ~wall =
  let rows = Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.layers [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.self_s a.self_s) rows in
  let b = Buffer.create 2048 in
  Printf.bprintf b "%-22s %10s %8s %7s %12s\n" "layer" "self_ms" "calls" "share" "p50_call_ms";
  List.iter
    (fun (name, l) ->
      Printf.bprintf b "%-22s %10.1f %8d %6.1f%% %12.3f\n" name (1000. *. l.self_s) l.calls
        (100. *. l.self_s /. wall)
        (1000. *. Stats.median l.durations))
    rows;
  Buffer.contents b

(* Chrome trace-event format (chrome://tracing, Perfetto). *)
let write_chrome t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      Buffer.output_buffer oc t.events;
      output_string oc "\n]}\n")
