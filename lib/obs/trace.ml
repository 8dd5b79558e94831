type span = {
  name : string;
  start : float;
  mutable elapsed : float;
  mutable children : span list;
  mutable meta : (string * string) list;
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Innermost-first stack of open spans, one stack per domain: a span
   opened inside a Core.Pool worker nests under whatever that worker has
   open (usually nothing, so it finishes as its own root), never under a
   span of another domain. *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let max_roots = 256

(* Finished roots, shared across domains. *)
let finished : span Ring.t = Ring.create max_roots

let dropped () = Ring.dropped finished
let clear () = Ring.clear finished

let close span =
  span.elapsed <- Mono.now () -. span.start;
  span.children <- List.rev span.children;
  span.meta <- List.rev span.meta;
  match !(stack ()) with
  | parent :: _ -> parent.children <- span :: parent.children
  | [] -> Ring.add finished span

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let span =
      { name; start = Mono.now (); elapsed = 0.; children = [];
        meta = [] }
    in
    let stack = stack () in
    stack := span :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
         | s :: rest when s == span -> stack := rest
         | other ->
           (* Defensive: unwind to below this span if inner spans leaked
              (Fun.protect makes this unreachable in practice). *)
           let rec pop = function
             | s :: rest -> if s == span then rest else pop rest
             | [] -> []
           in
           stack := pop other);
        close span)
      f
  end

let annotate key value =
  if Atomic.get enabled_flag then
    match !(stack ()) with
    | [] -> ()
    | span :: _ -> span.meta <- (key, value) :: span.meta

let roots () = Ring.to_list finished

let to_string span =
  let buf = Buffer.create 256 in
  let rec go indent span =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %.1fus%s\n" indent span.name
         (span.elapsed *. 1e6)
         (match span.meta with
          | [] -> ""
          | kvs ->
            " ["
            ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
            ^ "]"));
    List.iter (go (indent ^ "  ")) span.children
  in
  go "" span;
  Buffer.contents buf

let rec span_to_json span =
  Printf.sprintf
    "{\"name\":%s,\"elapsed_seconds\":%.9f,\"meta\":{%s},\"children\":[%s]}"
    (Metrics.json_string span.name) span.elapsed
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf "%s:%s" (Metrics.json_string k)
              (Metrics.json_string v))
          span.meta))
    (String.concat "," (List.map span_to_json span.children))

let roots_to_json () =
  "[" ^ String.concat "," (List.map span_to_json (roots ())) ^ "]"

(* Chrome trace-event format (chrome://tracing, Perfetto, speedscope):
   one complete event (ph "X") per span, timestamps and durations in
   microseconds.  Span starts are monotonic-clock readings, so we rebase
   them against the earliest start across all roots — viewers only care
   about relative placement.  Each root tree gets its own tid so
   concurrent requests land on separate rows. *)
let to_chrome_json () =
  let roots = roots () in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity roots
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit tid span =
    let rec go span =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
           (Metrics.json_string span.name)
           ((span.start -. base) *. 1e6)
           (span.elapsed *. 1e6)
           tid
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "%s:%s" (Metrics.json_string k)
                     (Metrics.json_string v))
                 span.meta)));
      List.iter go span.children
    in
    go span
  in
  List.iteri (fun i root -> emit (i + 1) root) roots;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf
