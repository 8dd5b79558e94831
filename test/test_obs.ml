(* The observability layer itself: metrics registry semantics, span
   nesting well-formedness, audit ring bounding, and the differential
   guarantee that enabling full instrumentation changes no enforcement
   answer. *)

module P = Core.Paper_example
module M = Obs.Metrics

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Strict recursive-descent JSON well-formedness check: exactly one value
   spanning the whole input, with full string-escape validation.  Used on
   every JSON surface the observability layer exposes. *)
let json_well_formed s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Exit in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c = if peek () = c then advance () else raise Exit in
  let is_digit c = c >= '0' && c <= '9' in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> obj ()
    | '[' -> arr ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | '-' | '0' .. '9' -> number ()
    | _ -> raise Exit
  and lit w = String.iter expect w
  and number () =
    if peek () = '-' then advance ();
    let digits () =
      if not (is_digit (peek ())) then raise Exit;
      while !pos < n && is_digit s.[!pos] do
        advance ()
      done
    in
    digits ();
    if !pos < n && s.[!pos] = '.' then (advance (); digits ());
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      advance ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then advance ();
      digits ()
    end
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> advance (); go ()
         | 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> advance ()
             | _ -> raise Exit
           done;
           go ()
         | _ -> raise Exit)
      | c when Char.code c >= 0x20 -> advance (); go ()
      | _ -> raise Exit
    in
    go ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); members ()
        | '}' -> advance ()
        | _ -> raise Exit
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | ',' -> advance (); elems ()
        | ']' -> advance ()
        | _ -> raise Exit
      in
      elems ()
  in
  match
    value ();
    skip_ws ()
  with
  | () -> !pos = n
  | exception Exit -> false

(* -- counters ----------------------------------------------------------- *)

let test_counter_monotonic () =
  let r = M.create () in
  let c = M.counter r "requests_total" in
  Alcotest.(check int) "starts at zero" 0 (M.value c);
  let prev = ref 0 in
  for i = 1 to 100 do
    if i mod 3 = 0 then M.add c i else M.inc c;
    Alcotest.(check bool) "value never decreases" true (M.value c > !prev);
    prev := M.value c
  done;
  Alcotest.(check bool) "add 0 is allowed" true
    (M.add c 0;
     M.value c = !prev);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Metrics.add: negative amount") (fun () ->
      M.add c (-1))

let test_counter_same_name () =
  let r = M.create () in
  let a = M.counter r "shared" ~help:"first" in
  let b = M.counter r "shared" ~help:"second" in
  M.inc a;
  M.inc b;
  Alcotest.(check int) "one instrument behind one name" 2 (M.value a);
  Alcotest.(check int) "registry lists it once" 1 (List.length (M.counters r))

(* -- histograms --------------------------------------------------------- *)

let test_histogram_consistency () =
  let r = M.create () in
  let h = M.histogram r "latency_seconds" in
  let samples = [ 1e-7; 3e-6; 5e-3; 0.25; 2.0; 100. ] in
  List.iter (M.observe h) samples;
  Alcotest.(check int) "count" (List.length samples) (M.count h);
  Alcotest.(check (float 1e-9)) "sum" (List.fold_left ( +. ) 0. samples)
    (M.sum h);
  let buckets = M.buckets h in
  let counts = List.map snd buckets in
  Alcotest.(check bool) "cumulative counts are non-decreasing" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length counts - 1) counts)
       (List.tl counts));
  (match List.rev buckets with
   | (bound, total) :: _ ->
     Alcotest.(check bool) "+Inf bucket holds every observation" true
       (bound = infinity && total = List.length samples)
   | [] -> Alcotest.fail "no buckets");
  let x = M.time h (fun () -> 42) in
  Alcotest.(check int) "time returns the thunk's value" 42 x;
  Alcotest.(check int) "time observes once" (List.length samples + 1)
    (M.count h)

let test_exposition () =
  let r = M.create () in
  M.inc (M.counter r "hits_total" ~help:"Cache hits");
  M.observe (M.histogram r "dur_seconds") 0.002;
  let prom = M.to_prometheus r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus text has " ^ needle) true
        (contains prom needle))
    [ "hits_total 1"; "Cache hits"; "dur_seconds_count 1"; "dur_seconds_bucket" ];
  let json = M.to_json r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json dump has " ^ needle) true
        (contains json needle))
    [ "\"hits_total\""; "\"dur_seconds\"" ];
  M.reset r;
  Alcotest.(check int) "reset zeroes counters" 0
    (M.value (M.counter r "hits_total"))

(* -- gauges ------------------------------------------------------------- *)

let test_gauge_semantics () =
  let r = M.create () in
  let g = M.gauge r "queue_depth" ~help:"Tasks in flight" in
  Alcotest.(check (float 0.)) "starts at zero" 0. (M.gauge_value g);
  M.set_gauge g 5.;
  M.add_gauge g 2.5;
  M.add_gauge g (-4.);
  Alcotest.(check (float 1e-9)) "moves both ways" 3.5 (M.gauge_value g);
  let g' = M.gauge r "queue_depth" in
  M.add_gauge g' 1.;
  Alcotest.(check (float 1e-9)) "same name, same gauge" 4.5 (M.gauge_value g);
  Alcotest.(check int) "registry lists it once" 1 (List.length (M.gauges r));
  M.reset r;
  Alcotest.(check (float 0.)) "reset zeroes gauges" 0. (M.gauge_value g)

let test_gauge_fn () =
  let r = M.create () in
  let level = ref 7. in
  M.gauge_fn r "water_level" ~help:"Sampled each read" (fun () -> !level);
  M.gauge_fn r "water_level" (fun () -> 999.);
  Alcotest.(check (list (pair string (float 1e-9))))
    "sampled at read time; first registration wins"
    [ ("water_level", 7.) ] (M.gauges r);
  level := 8.;
  Alcotest.(check (list (pair string (float 1e-9)))) "tracks the callback"
    [ ("water_level", 8.) ] (M.gauges r);
  Alcotest.(check bool) "exposed in prometheus text" true
    (contains (M.to_prometheus r) "water_level 8\n")

(* -- labelled families -------------------------------------------------- *)

let test_family_cells () =
  let r = M.create () in
  let f = M.family r "decisions_total" ~labels:[ "privilege"; "decision" ] in
  let a = M.labels f [ "read"; "allow" ] in
  let b = M.labels f [ "read"; "allow" ] in
  M.inc a;
  M.inc b;
  Alcotest.(check int) "same values, same cell" 2 (M.value a);
  M.inc (M.labels f [ "read"; "deny" ]);
  Alcotest.(check (list (pair (list string) int))) "cells sorted"
    [ ([ "read"; "allow" ], 2); ([ "read"; "deny" ], 1) ]
    (M.family_cells f);
  Alcotest.(check string) "cell name carries rendered labels"
    "decisions_total{privilege=\"read\",decision=\"allow\"}" (M.counter_name a);
  Alcotest.(check int) "family cells are not plain counters" 0
    (List.length (M.counters r));
  (match M.families r with
   | [ (n, pairs, v); _ ] ->
     Alcotest.(check string) "families reports the family name"
       "decisions_total" n;
     Alcotest.(check (list (pair string string))) "label pairs in family order"
       [ ("privilege", "read"); ("decision", "allow") ]
       pairs;
     Alcotest.(check int) "cell value" 2 v
   | l -> Alcotest.failf "expected 2 family cells, got %d" (List.length l));
  M.reset r;
  Alcotest.(check int) "reset zeroes family cells" 0 (M.value a)

let test_family_misuse () =
  let r = M.create () in
  Alcotest.check_raises "no label names rejected"
    (Invalid_argument "Obs.Metrics.family: no label names") (fun () ->
      ignore (M.family r "bare_total" ~labels:[]));
  let f = M.family r "shaped_total" ~labels:[ "a"; "b" ] in
  Alcotest.check_raises "label mismatch on re-register"
    (Invalid_argument
       "Obs.Metrics.family: shaped_total re-registered with different labels")
    (fun () -> ignore (M.family r "shaped_total" ~labels:[ "a" ]));
  Alcotest.check_raises "value arity mismatch"
    (Invalid_argument "Obs.Metrics.labels: shaped_total wants 2 label values")
    (fun () -> ignore (M.labels f [ "only-one" ]))

(* -- exposition format -------------------------------------------------- *)

let test_exposition_escaping () =
  let r = M.create () in
  ignore (M.counter r "esc_total" ~help:"line1\nline2 \\ done");
  let f = M.family r "fam_total" ~labels:[ "k" ] ~help:"family help" in
  M.inc (M.labels f [ "a\\b\"c\nd" ]);
  M.set_gauge (M.gauge r "depth" ~help:"How deep") 2.;
  M.observe (M.histogram r "lat_seconds" ~help:"Latency") 0.001;
  let prom = M.to_prometheus r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        ("exposition has " ^ String.escaped needle)
        true (contains prom needle))
    [
      "# HELP esc_total line1\\nline2 \\\\ done\n";
      "# TYPE esc_total counter\n";
      "# TYPE depth gauge\n";
      "depth 2\n";
      "# TYPE fam_total counter\n";
      "fam_total{k=\"a\\\\b\\\"c\\nd\"} 1\n";
      "# TYPE lat_seconds histogram\n";
      "lat_seconds_bucket{le=\"+Inf\"} 1\n";
    ]

(* Undo sample-line rendering: ["f{k=\"v\"} 3"] -> [("f", [k, v], 3.)],
   unescaping label values — the inverse of the exposition renderer. *)
let parse_sample line =
  let name_end =
    match String.index_opt line '{' with
    | Some i -> i
    | None -> String.rindex line ' '
  in
  let name = String.sub line 0 name_end in
  let labels, rest_start =
    if line.[name_end] <> '{' then ([], name_end)
    else begin
      let labels = ref [] in
      let i = ref (name_end + 1) in
      while line.[!i] <> '}' do
        let eq = String.index_from line !i '=' in
        let key = String.sub line !i (eq - !i) in
        assert (line.[eq + 1] = '"');
        let buf = Buffer.create 16 in
        let j = ref (eq + 2) in
        while line.[!j] <> '"' do
          (if line.[!j] = '\\' then begin
             (match line.[!j + 1] with
              | 'n' -> Buffer.add_char buf '\n'
              | c -> Buffer.add_char buf c);
             j := !j + 2
           end
           else begin
             Buffer.add_char buf line.[!j];
             incr j
           end)
        done;
        labels := (key, Buffer.contents buf) :: !labels;
        i := if line.[!j + 1] = ',' then !j + 2 else !j + 1
      done;
      (List.rev !labels, !i + 1)
    end
  in
  let value =
    float_of_string
      (String.trim
         (String.sub line rest_start (String.length line - rest_start)))
  in
  (name, labels, value)

let test_exposition_round_trip () =
  let r = M.create () in
  M.add (M.counter r "c_total" ~help:"plain") 3;
  M.set_gauge (M.gauge r "g_level") (-2.5);
  let f = M.family r "f_total" ~labels:[ "p"; "d" ] in
  M.add (M.labels f [ "wr\"ite"; "al\\low\n" ]) 4;
  M.inc (M.labels f [ "read"; "deny" ]);
  let samples =
    List.map parse_sample
      (List.filter
         (fun l -> l <> "" && l.[0] <> '#')
         (String.split_on_char '\n' (M.to_prometheus r)))
  in
  let find name labels =
    match
      List.find_opt (fun (n, ls, _) -> n = name && ls = labels) samples
    with
    | Some (_, _, v) -> v
    | None -> Alcotest.failf "sample %s not in own exposition" name
  in
  Alcotest.(check (float 0.)) "counter round-trips" 3. (find "c_total" []);
  Alcotest.(check (float 1e-9)) "gauge round-trips" (-2.5) (find "g_level" []);
  Alcotest.(check (float 0.)) "hostile label values round-trip" 4.
    (find "f_total" [ ("p", "wr\"ite"); ("d", "al\\low\n") ]);
  Alcotest.(check (float 0.)) "second cell independent" 1.
    (find "f_total" [ ("p", "read"); ("d", "deny") ]);
  List.iter
    (fun (name, pairs, v) ->
      Alcotest.(check (float 0.))
        (name ^ " cell agrees with the registry")
        (float_of_int v) (find name pairs))
    (M.families r);
  Alcotest.(check bool) "registry json dump is well-formed" true
    (json_well_formed (M.to_json r))

(* -- spans -------------------------------------------------------------- *)

let with_tracing f =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.clear ())
    f

(* A closed span tree is well-formed iff every child closed within its
   parent: elapsed set, children in execution order, child time bounded
   by the parent's. *)
let rec well_formed (s : Obs.Trace.span) =
  s.elapsed >= 0.
  && List.for_all
       (fun (c : Obs.Trace.span) ->
         c.start >= s.start && c.elapsed <= s.elapsed && well_formed c)
       s.children

let test_span_nesting () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "outer" (fun () ->
      Obs.Trace.annotate "k" "v";
      Obs.Trace.with_span "first" (fun () -> ignore (Sys.opaque_identity 1));
      Obs.Trace.with_span "second" (fun () ->
          Obs.Trace.with_span "grandchild" ignore));
  match Obs.Trace.roots () with
  | [ root ] ->
    Alcotest.(check string) "root name" "outer" root.Obs.Trace.name;
    Alcotest.(check (list string)) "children in execution order"
      [ "first"; "second" ]
      (List.map (fun (s : Obs.Trace.span) -> s.name) root.children);
    Alcotest.(check bool) "annotation attached" true
      (List.mem ("k", "v") root.meta);
    Alcotest.(check bool) "tree is well-formed" true (well_formed root);
    Alcotest.(check bool) "rendering shows the nesting" true
      (contains (Obs.Trace.to_string root) "grandchild")
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_span_exception_safety () =
  with_tracing @@ fun () ->
  (try Obs.Trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Obs.Trace.with_span "after" ignore;
  match Obs.Trace.roots () with
  | [ boom; after ] ->
    Alcotest.(check string) "raising span still closed" "boom"
      boom.Obs.Trace.name;
    Alcotest.(check bool) "raising span recorded its duration" true
      (boom.Obs.Trace.elapsed >= 0.);
    Alcotest.(check string) "stack unwound: next span is a root" "after"
      after.Obs.Trace.name
  | roots -> Alcotest.failf "expected 2 roots, got %d" (List.length roots)

let test_span_root_bounding () =
  with_tracing @@ fun () ->
  let extra = 10 in
  for i = 1 to Obs.Trace.max_roots + extra do
    Obs.Trace.with_span (Printf.sprintf "s%d" i) ignore
  done;
  let roots = Obs.Trace.roots () in
  Alcotest.(check int) "retains at most max_roots"
    Obs.Trace.max_roots (List.length roots);
  Alcotest.(check int) "drops are counted" extra (Obs.Trace.dropped ());
  Alcotest.(check string) "oldest retained root"
    (Printf.sprintf "s%d" (extra + 1))
    (List.hd roots).Obs.Trace.name

let test_span_disabled_is_transparent () =
  Obs.Trace.clear ();
  Alcotest.(check bool) "tracing is off by default" false (Obs.Trace.enabled ());
  Alcotest.(check int) "with_span is just the thunk" 7
    (Obs.Trace.with_span "ignored" (fun () -> 7));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.Trace.roots ()))

(* -- audit ring --------------------------------------------------------- *)

let test_audit_ring_bounding () =
  let log = Obs.Audit.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Audit.record log ~user:"u" ~action:"query"
      ~target:(string_of_int i)
      (if i mod 2 = 0 then Obs.Audit.Allowed else Obs.Audit.Denied)
  done;
  Alcotest.(check int) "length bounded by capacity" 4 (Obs.Audit.length log);
  Alcotest.(check int) "all events counted" 10 (Obs.Audit.seen log);
  Alcotest.(check int) "overflow counted" 6 (Obs.Audit.dropped log);
  Alcotest.(check (list string)) "newest events retained, oldest first"
    [ "6"; "7"; "8"; "9" ]
    (List.map (fun (e : Obs.Audit.event) -> e.target) (Obs.Audit.events log));
  Obs.Audit.set_capacity log 2;
  Alcotest.(check (list string)) "shrinking drops the oldest" [ "8"; "9" ]
    (List.map (fun (e : Obs.Audit.event) -> e.target) (Obs.Audit.events log));
  Obs.Audit.clear log;
  Alcotest.(check int) "clear empties the ring" 0 (Obs.Audit.length log)

let test_audit_sink () =
  let log = Obs.Audit.create ~capacity:8 () in
  let seen = ref [] in
  Obs.Audit.set_sink log
    (Some (fun (e : Obs.Audit.event) -> seen := e.action :: !seen));
  Obs.Audit.record log ~user:"u" ~action:"login" Obs.Audit.Allowed;
  Obs.Audit.record log ~user:"u" ~action:"query" Obs.Audit.Denied;
  Obs.Audit.set_sink log None;
  Obs.Audit.record log ~user:"u" ~action:"unseen" Obs.Audit.Allowed;
  Alcotest.(check (list string)) "sink offered each event in order"
    [ "login"; "query" ] (List.rev !seen)

(* -- chrome trace export ------------------------------------------------ *)

let test_chrome_export () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "update" (fun () ->
      Obs.Trace.annotate "user" "laporte";
      Obs.Trace.with_span "stage" ignore;
      Obs.Trace.with_span "journal" ignore);
  Obs.Trace.with_span "broadcast" ignore;
  let json = Obs.Trace.to_chrome_json () in
  Alcotest.(check bool) "chrome json is well-formed" true
    (json_well_formed json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("chrome json has " ^ needle) true
        (contains json needle))
    [
      "\"traceEvents\"";
      "\"ph\":\"X\"";
      "\"name\":\"stage\"";
      "\"user\":\"laporte\"";
      "\"displayTimeUnit\":\"ms\"";
      (* one tid per root tree: the two roots land on separate rows *)
      "\"tid\":1";
      "\"tid\":2";
    ];
  Alcotest.(check bool) "timestamps are rebased to the earliest root" true
    (contains json "\"ts\":0.000")

(* -- events ------------------------------------------------------------- *)

let with_events f =
  Obs.Events.set_enabled true;
  Obs.Events.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.set_enabled false;
      Obs.Events.clear ();
      Obs.Events.set_capacity Obs.Events.default_capacity;
      Obs.Events.set_sink None)
    f

let kind_names evs =
  List.map (fun (e : Obs.Events.event) -> Obs.Events.kind_name e.kind) evs

let test_events_disabled_is_transparent () =
  Alcotest.(check bool) "recording is off by default" false
    (Obs.Events.enabled ());
  Obs.Events.emit (Obs.Events.Custom { name = "noop"; detail = "" });
  Alcotest.(check int) "disabled emit records nothing" 0 (Obs.Events.length ())

let test_events_correlation () =
  with_events @@ fun () ->
  let t1 = Obs.Events.next_txn () in
  let t2 = Obs.Events.next_txn () in
  Alcotest.(check bool) "correlation ids are positive and distinct" true
    (t1 > 0 && t2 > t1);
  Alcotest.(check int) "no ambient id at rest" 0 (Obs.Events.current_txn ());
  Obs.Events.with_txn t1 (fun () ->
      Alcotest.(check int) "ambient id set" t1 (Obs.Events.current_txn ());
      Obs.Events.emit (Obs.Events.Txn_begin { user = "u"; ops = 1 });
      Obs.Events.with_txn t2 (fun () ->
          Obs.Events.emit (Obs.Events.Stage { index = 0; op = "rename" }));
      Alcotest.(check int) "nested scope restored" t1
        (Obs.Events.current_txn ());
      (* another domain's worker would pass the id explicitly *)
      Obs.Events.emit ~txn:t2 (Obs.Events.Fsync { seconds = 0.001 });
      Obs.Events.emit (Obs.Events.Commit { ops = 1; denied = 0 }));
  Alcotest.(check int) "scope restored on exit" 0 (Obs.Events.current_txn ());
  (try Obs.Events.with_txn t1 (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check int) "scope restored on raise" 0 (Obs.Events.current_txn ());
  Alcotest.(check (list string)) "by_txn reconstructs t1's story in order"
    [ "txn_begin"; "commit" ]
    (kind_names (Obs.Events.by_txn t1));
  Alcotest.(check (list string)) "ambient nesting and explicit ?txn both land"
    [ "stage"; "fsync" ]
    (kind_names (Obs.Events.by_txn t2));
  Alcotest.(check int) "four events total" 4 (Obs.Events.length ())

let test_events_capacity () =
  with_events @@ fun () ->
  Obs.Events.set_capacity 4;
  for i = 1 to 10 do
    Obs.Events.emit (Obs.Events.Replay { seq = i })
  done;
  Alcotest.(check int) "length bounded by capacity" 4 (Obs.Events.length ());
  Alcotest.(check int) "drops counted" 6 (Obs.Events.dropped ());
  Alcotest.(check (list int)) "newest retained, oldest first" [ 7; 8; 9; 10 ]
    (List.filter_map
       (fun (e : Obs.Events.event) ->
         match e.kind with Obs.Events.Replay { seq } -> Some seq | _ -> None)
       (Obs.Events.events ()));
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Obs.Events.set_capacity") (fun () ->
      Obs.Events.set_capacity 0);
  Obs.Events.clear ();
  Alcotest.(check int) "clear empties the ring" 0 (Obs.Events.length ())

let test_events_sink_and_json () =
  with_events @@ fun () ->
  let seen = ref [] in
  Obs.Events.set_sink
    (Some (fun (e : Obs.Events.event) ->
       seen := Obs.Events.kind_name e.kind :: !seen));
  let txn = Obs.Events.next_txn () in
  Obs.Events.with_txn txn (fun () ->
      Obs.Events.emit (Obs.Events.Journal_append { seq = 1; bytes = 120 });
      Obs.Events.emit (Obs.Events.Broadcast { sessions = 3 }));
  Obs.Events.set_sink None;
  Obs.Events.emit (Obs.Events.Snapshot { seq = 1 });
  Alcotest.(check (list string)) "sink offered each event in order"
    [ "journal_append"; "broadcast" ]
    (List.rev !seen);
  let jsonl_lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Obs.Events.to_jsonl ~txn ()))
  in
  Alcotest.(check int) "jsonl: one line per correlated event" 2
    (List.length jsonl_lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "each jsonl line is a well-formed object" true
        (json_well_formed line))
    jsonl_lines;
  Alcotest.(check bool) "filtered json dump is well-formed" true
    (json_well_formed (Obs.Events.to_json ~txn ()));
  Alcotest.(check bool) "full json dump is well-formed" true
    (json_well_formed (Obs.Events.to_json ()));
  Alcotest.(check bool) "filter excludes the uncorrelated event" false
    (contains (Obs.Events.to_json ~txn ()) "snapshot")

(* -- monotonic timestamps ----------------------------------------------- *)

(* Wall-clock time is display-only; mono orders events even across NTP
   steps.  Every ring entry must carry both. *)
let test_mono_timestamps () =
  with_events @@ fun () ->
  Obs.Events.emit (Obs.Events.Custom { name = "first"; detail = "" });
  Obs.Events.emit (Obs.Events.Custom { name = "second"; detail = "" });
  (match Obs.Events.events () with
  | [ a; b ] ->
    Alcotest.(check bool) "event mono stamps are positive" true
      (a.Obs.Events.mono > 0. && b.Obs.Events.mono > 0.);
    Alcotest.(check bool) "event mono stamps never run backwards" true
      (b.Obs.Events.mono >= a.Obs.Events.mono);
    Alcotest.(check bool) "event json carries the mono stamp" true
      (contains (Obs.Events.event_to_json a) "\"mono\":")
  | l -> Alcotest.failf "expected two events, got %d" (List.length l));
  Obs.Audit.set_enabled true;
  Obs.Audit.clear Obs.Audit.default;
  Fun.protect
    ~finally:(fun () ->
      Obs.Audit.set_enabled false;
      Obs.Audit.clear Obs.Audit.default)
  @@ fun () ->
  Obs.Audit.record Obs.Audit.default ~user:"u" ~action:"query"
    ~privilege:"read" ~target:"//x" ~rule:"r" Obs.Audit.Allowed;
  Obs.Audit.record Obs.Audit.default ~user:"u" ~action:"query"
    ~privilege:"read" ~target:"//y" ~rule:"r" Obs.Audit.Denied;
  match Obs.Audit.events Obs.Audit.default with
  | [ a; b ] ->
    Alcotest.(check bool) "audit mono stamps are positive and ordered" true
      (a.Obs.Audit.mono > 0. && b.Obs.Audit.mono >= a.Obs.Audit.mono)
  | l -> Alcotest.failf "expected two audit events, got %d" (List.length l)

(* -- rule telemetry ----------------------------------------------------- *)

let with_rulestats f =
  Obs.Rulestats.set_enabled true;
  Obs.Rulestats.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Rulestats.set_enabled false;
      Obs.Rulestats.clear ())
    f

let test_rulestats_registry () =
  Alcotest.(check bool) "recording is off by default" false
    (Obs.Rulestats.enabled ());
  with_rulestats @@ fun () ->
  let a = Obs.Rulestats.register ~key:1 ~privilege:"read" ~desc:"rule one" in
  let b = Obs.Rulestats.register ~key:2 ~privilege:"read" ~desc:"rule two" in
  Obs.Rulestats.add_matched a 5;
  Obs.Rulestats.add_decided a 3;
  Obs.Rulestats.add_matched b 4;
  Obs.Rulestats.add_matched a (-7) (* non-positive increments are no-ops *);
  let a' = Obs.Rulestats.register ~key:1 ~privilege:"read" ~desc:"rule one" in
  Obs.Rulestats.add_decided a' 1;
  (match Obs.Rulestats.reports () with
  | [ ra; rb ] ->
    Alcotest.(check int) "ascending priority" 1 ra.Obs.Rulestats.r_key;
    Alcotest.(check int) "matched accumulates" 5 ra.Obs.Rulestats.r_matched;
    Alcotest.(check int) "re-registration keeps the cell" 4
      ra.Obs.Rulestats.r_decided;
    Alcotest.(check int) "overridden = matched - decided" 1
      ra.Obs.Rulestats.r_overridden;
    Alcotest.(check int) "zero decisions reported" 0
      rb.Obs.Rulestats.r_decided
  | l -> Alcotest.failf "expected two reports, got %d" (List.length l));
  (match Obs.Rulestats.shadowed () with
  | [ rb ] ->
    Alcotest.(check int) "only the undecided rule is shadowed" 2
      rb.Obs.Rulestats.r_key
  | l -> Alcotest.failf "expected one shadowed rule, got %d" (List.length l));
  Obs.Rulestats.note_class ~profile:"1,2" ~keys:[ 1; 2 ];
  Obs.Rulestats.note_member ~profile:"1,2";
  Obs.Rulestats.note_member ~profile:"1,2";
  Obs.Rulestats.note_member ~profile:"unknown" (* no-op *);
  (match Obs.Rulestats.class_reports () with
  | [ c ] ->
    Alcotest.(check string) "class profile" "1,2" c.Obs.Rulestats.c_profile;
    Alcotest.(check (list int)) "class rule keys" [ 1; 2 ]
      c.Obs.Rulestats.c_keys;
    Alcotest.(check int) "members counted" 2 c.Obs.Rulestats.c_members
  | l -> Alcotest.failf "expected one class, got %d" (List.length l));
  Alcotest.(check bool) "json dump is well-formed" true
    (json_well_formed (Obs.Rulestats.to_json ()));
  Alcotest.(check bool) "table flags the shadowed rule" true
    (contains (Obs.Rulestats.to_string ()) "SHADOWED");
  Obs.Rulestats.clear ();
  Alcotest.(check int) "clear forgets rules" 0
    (List.length (Obs.Rulestats.reports ()))

(* A deliberately shadowed rule: priority 1 grants read on //leaf, but
   the more recent priority 2 grants read on //node(), so under axiom 14
   rule 1 matches nodes yet never decides any.  The live resolution must
   surface exactly that. *)
let test_rulestats_live_shadowing () =
  with_rulestats @@ fun () ->
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  let policy =
    Core.Policy.v subjects
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//diagnosis" ~subject:"u"
          ~priority:1;
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"u"
          ~priority:2;
      ]
  in
  let serve = Core.Serve.create policy (P.document ()) in
  Core.Serve.login serve ~user:"u";
  let reports = Obs.Rulestats.reports () in
  Alcotest.(check int) "both rules registered" 2 (List.length reports);
  (match reports with
  | [ r1; r2 ] ->
    Alcotest.(check bool) "shadowed rule still matched its nodes" true
      (r1.Obs.Rulestats.r_matched > 0);
    Alcotest.(check int) "shadowed rule decided nothing" 0
      r1.Obs.Rulestats.r_decided;
    Alcotest.(check bool) "winning rule decided every document node" true
      (r2.Obs.Rulestats.r_decided >= r2.Obs.Rulestats.r_matched
       && r2.Obs.Rulestats.r_decided > 0)
  | _ -> assert false);
  (match Obs.Rulestats.shadowed () with
  | [ r ] -> Alcotest.(check int) "rule 1 is the shadowed candidate" 1
               r.Obs.Rulestats.r_key
  | l -> Alcotest.failf "expected one shadowed rule, got %d" (List.length l));
  match Obs.Rulestats.class_reports () with
  | [ c ] ->
    Alcotest.(check int) "one session in the class" 1
      c.Obs.Rulestats.c_members;
    Alcotest.(check (list int)) "class lists both applicable rules" [ 1; 2 ]
      (List.sort compare c.Obs.Rulestats.c_keys)
  | l -> Alcotest.failf "expected one class, got %d" (List.length l)

(* -- query-plan log ----------------------------------------------------- *)

let with_planlog f =
  Obs.Planlog.set_enabled true;
  Obs.Planlog.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Planlog.set_enabled false;
      Obs.Planlog.clear ();
      Obs.Planlog.set_threshold Obs.Planlog.default_threshold;
      Obs.Planlog.set_capacity Obs.Planlog.default_capacity)
    f

let record_plan ?(seconds = 0.) ?(query = "//x") () =
  Obs.Planlog.record ~user:"u" ~query ~compiled:true ~anchors:[] ~states:2
    ~visited:5 ~pruned:3 ~answers:1 ~rules:[ "r" ] ~cls:"c" ~seconds

let test_planlog_rings () =
  with_planlog @@ fun () ->
  Obs.Planlog.set_threshold 0.005;
  let fast = record_plan ~seconds:0.001 ~query:"//fast" () in
  let slow = record_plan ~seconds:0.02 ~query:"//slow" () in
  Alcotest.(check int) "sequence numbers are assigned in order" 1 slow.seq;
  Alcotest.(check int) "both plans in the recent ring" 2
    (List.length (Obs.Planlog.recent ()));
  (match Obs.Planlog.slow () with
  | [ p ] -> Alcotest.(check string) "only the slow plan crosses the \
                                      threshold" "//slow" p.Obs.Planlog.query
  | l -> Alcotest.failf "expected one slow plan, got %d" (List.length l));
  Alcotest.(check bool) "mono stamp is populated" true (fast.mono > 0.);
  Alcotest.(check bool) "plan json is well-formed" true
    (json_well_formed (Obs.Planlog.plan_to_json fast));
  Alcotest.(check bool) "ring dumps are well-formed" true
    (json_well_formed (Obs.Planlog.recent_json ())
     && json_well_formed (Obs.Planlog.slow_json ()));
  Alcotest.(check bool) "json names the read path" true
    (contains (Obs.Planlog.plan_to_json fast) "\"path\":\"rewrite\"");
  Obs.Planlog.set_capacity 3;
  for i = 1 to 10 do
    ignore (record_plan ~query:(Printf.sprintf "//q%d" i) ())
  done;
  Alcotest.(check int) "recent ring bounded by capacity" 3
    (List.length (Obs.Planlog.recent ()));
  Alcotest.(check (list string)) "newest plans retained, oldest first"
    [ "//q8"; "//q9"; "//q10" ]
    (List.map (fun (p : Obs.Planlog.plan) -> p.Obs.Planlog.query)
       (Obs.Planlog.recent ()));
  Alcotest.(check int) "seen counts evicted plans too" 12
    (Obs.Planlog.seen ());
  Alcotest.check_raises "non-positive capacity rejected"
    (Invalid_argument "Obs.Planlog.set_capacity") (fun () ->
      Obs.Planlog.set_capacity 0);
  Obs.Planlog.clear ();
  Alcotest.(check int) "clear resets the sequence" 0 (Obs.Planlog.seen ())

(* Served queries must record plans for both read paths: the compiled
   rewrite product and the lazy-view fallback. *)
let test_planlog_live () =
  with_planlog @@ fun () ->
  Obs.Planlog.set_threshold 0. (* route everything to the slow ring *);
  let serve = Core.Serve.create P.policy (P.document ()) in
  Core.Serve.login serve ~user:P.laporte;
  ignore (Core.Serve.query serve ~user:P.laporte "//service");
  ignore
    (Core.Serve.query serve ~user:P.laporte "//*[name() = 'diagnosis']");
  match Obs.Planlog.recent () with
  | [ p1; p2 ] ->
    Alcotest.(check string) "first plan records the query" "//service"
      p1.Obs.Planlog.query;
    Alcotest.(check bool) "structural query takes the rewrite path" true
      p1.Obs.Planlog.compiled;
    Alcotest.(check bool) "rewrite path reports traversal work" true
      (p1.Obs.Planlog.visited > 0 && p1.Obs.Planlog.states > 0);
    Alcotest.(check int) "both services answered" 2 p1.Obs.Planlog.answers;
    Alcotest.(check bool) "deciding rules resolved for the answers" true
      (p1.Obs.Planlog.rules <> []);
    Alcotest.(check bool) "plan is tagged with the permission class" true
      (p1.Obs.Planlog.cls <> "");
    Alcotest.(check bool) "predicate query falls back" false
      p2.Obs.Planlog.compiled;
    Alcotest.(check int) "fallback found the diagnoses" 2
      p2.Obs.Planlog.answers;
    (* The snapshot-backed fallback never probes the memo; its work is
       the nodes the view source handed to the evaluator. *)
    Alcotest.(check bool) "fallback path reports traversal work" true
      (p2.Obs.Planlog.visited > 0);
    Alcotest.(check int) "threshold 0 routes both to the slow ring" 2
      (List.length (Obs.Planlog.slow ()))
  | l -> Alcotest.failf "expected two plans, got %d" (List.length l)

(* A served compiled query records its plan: anchored on the label index
   (with the labels it read) when every branch names a label, a scan of
   the snapshot for [//node()]; the JSON keeps the read path and adds the
   plan, and the text form prints it. *)
let test_planlog_plans () =
  with_planlog @@ fun () ->
  let serve = Core.Serve.create P.policy (P.document ()) in
  Core.Serve.login serve ~user:P.laporte;
  let anchored_total () =
    Option.value ~default:0
      (List.assoc_opt "rewrite_anchored_total"
         (Obs.Metrics.counters Obs.Metrics.default))
  in
  let anchored0 = anchored_total () in
  ignore (Core.Serve.query serve ~user:P.laporte "//service");
  ignore (Core.Serve.query serve ~user:P.laporte "//node()");
  ignore (Core.Serve.query serve ~user:P.laporte "//*[name() = 'diagnosis']");
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  match Obs.Planlog.recent () with
  | [ anchored; scan; fallback ] ->
    Alcotest.(check string) "//service is anchored" "anchored"
      (Obs.Planlog.plan_name anchored);
    Alcotest.(check (list string)) "on the service label" [ "service" ]
      anchored.Obs.Planlog.anchors;
    Alcotest.(check bool) "the anchored run reports its work" true
      (anchored.Obs.Planlog.visited > 0 && anchored.Obs.Planlog.states > 0);
    Alcotest.(check int) "both services answered" 2
      anchored.Obs.Planlog.answers;
    Alcotest.(check int) "one anchored read counted" (anchored0 + 1)
      (anchored_total ());
    Alcotest.(check string) "//node() scans" "scan"
      (Obs.Planlog.plan_name scan);
    Alcotest.(check bool) "the scan reports its work" true
      (scan.Obs.Planlog.visited > 0 && scan.Obs.Planlog.states > 0);
    Alcotest.(check string) "a predicate query falls back" "fallback"
      (Obs.Planlog.plan_name fallback);
    let json = Obs.Planlog.plan_to_json anchored in
    List.iter
      (fun sub ->
        Alcotest.(check bool) (Printf.sprintf "JSON carries %s" sub) true
          (contains json sub))
      [ {|"path":"rewrite"|}; {|"plan":"anchored"|};
        {|"anchors":["service"]|} ];
    Alcotest.(check bool) "scan JSON" true
      (contains (Obs.Planlog.plan_to_json scan) {|"plan":"scan","anchors":[]|});
    Alcotest.(check bool) "fallback JSON keeps its path" true
      (contains (Obs.Planlog.plan_to_json fallback)
         {|"path":"fallback","plan":"fallback"|});
    Alcotest.(check bool) "the text form prints the plan" true
      (contains (Obs.Planlog.plan_to_string anchored) "(anchored on service)"
       && contains (Obs.Planlog.plan_to_string scan) "(scan)")
  | l -> Alcotest.failf "expected three plans, got %d" (List.length l)

(* -- differential: instrumentation changes no answer -------------------- *)

(* One scripted multi-session scenario on the paper's example, rendered
   to a canonical transcript: views, query answers, per-privilege holds
   and update reports.  Run once with everything off and once with
   tracing + auditing on — the transcripts must be identical. *)
let scenario () =
  let buf = Buffer.create 4096 in
  let server = Core.Serve.create P.policy (P.document ()) in
  let users = [ P.beaufort; P.laporte; P.richard; P.robert ] in
  List.iter (fun user -> Core.Serve.login server ~user) users;
  let record_queries () =
    List.iter
      (fun user ->
        List.iter
          (fun q ->
            let ids = Core.Serve.query server ~user q in
            Buffer.add_string buf
              (Printf.sprintf "%s %s -> [%s]\n" user q
                 (String.concat " " (List.map Ordpath.to_string ids))))
          [ "//diagnosis"; "//node()"; "//RESTRICTED" ])
      users
  in
  record_queries ();
  List.iter
    (fun (user, op) ->
      let report = Core.Serve.update server ~user op in
      Buffer.add_string buf
        (Format.asprintf "%s: %a\n" user Core.Secure_update.pp_report report))
    [
      (P.laporte, Xupdate.Op.update "/patients/franck/diagnosis" "pharyngitis");
      (P.beaufort, Xupdate.Op.rename "//service" "department");
      (P.laporte, Xupdate.Op.remove "//diagnosis/node()");
    ];
  record_queries ();
  List.iter
    (fun user ->
      Buffer.add_string buf
        (Printf.sprintf "view %s: %s\n" user
           (Xmldoc.Xml_print.facts (Core.Serve.view server ~user)));
      let session = Core.Serve.session server ~user in
      Xmldoc.Document.fold
        (fun (n : Xmldoc.Node.t) () ->
          List.iter
            (fun priv ->
              if Core.Session.holds session priv n.id then
                Buffer.add_string buf
                  (Printf.sprintf "holds %s %s %s\n" user
                     (Core.Privilege.to_string priv)
                     (Ordpath.to_string n.id)))
            Core.Privilege.all)
        (Core.Serve.source server) ())
    users;
  Buffer.contents buf

let test_differential_instrumentation () =
  let plain = scenario () in
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  Obs.Audit.set_enabled true;
  Obs.Audit.clear Obs.Audit.default;
  Obs.Rulestats.set_enabled true;
  Obs.Rulestats.clear ();
  Obs.Planlog.set_enabled true;
  Obs.Planlog.clear ();
  let instrumented =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Audit.set_enabled false;
        Obs.Rulestats.set_enabled false;
        Obs.Planlog.set_enabled false;
        Obs.Trace.clear ();
        Obs.Audit.clear Obs.Audit.default;
        Obs.Rulestats.clear ();
        Obs.Planlog.clear ())
      scenario
  in
  Alcotest.(check bool) "scenario transcript is non-trivial" true
    (String.length plain > 1000);
  Alcotest.(check string)
    "views, answers, holds and reports identical with instrumentation on"
    plain instrumented

(* --- timeseries ---------------------------------------------------------- *)

module TS = Obs.Timeseries

let counter_of wv name =
  match List.assoc_opt name wv.TS.counters with Some n -> n | None -> 0

(* Window identity is floor(now / window): a stamp exactly on the edge
   belongs to the *next* window, with nothing lost on either side. *)
let test_ts_boundary () =
  let t = TS.create ~window:10. ~slots:8 () in
  TS.bump t ~now:0.0 "x";
  TS.bump t ~now:9.999999 "x";
  TS.bump t ~now:10.0 "x";
  TS.bump t ~now:10.000001 "x";
  (match TS.windows t with
   | [ w0; w1 ] ->
     Alcotest.(check int) "window 0" 0 w0.TS.index;
     Alcotest.(check int) "both sub-edge stamps in window 0" 2
       (counter_of w0 "x");
     Alcotest.(check int) "window 1" 1 w1.TS.index;
     Alcotest.(check int) "edge stamp opens window 1" 2 (counter_of w1 "x")
   | ws -> Alcotest.failf "expected 2 windows, got %d" (List.length ws));
  Alcotest.(check int) "one rotation at the edge" 1 (TS.rotations t);
  Alcotest.(check (option int)) "current window" (Some 1) (TS.current t)

(* A gap narrower than the ring materialises the skipped windows as
   empty ones; a gap of ring width or more clears it wholesale in
   O(slots), never O(gap). *)
let test_ts_gaps () =
  let t = TS.create ~window:10. ~slots:4 () in
  TS.bump t ~now:5. "x";
  TS.bump t ~now:35. "x";
  (match TS.windows t with
   | [ w0; w1; w2; w3 ] ->
     Alcotest.(check (list int)) "gap materialised as empty windows"
       [ 0; 1; 2; 3 ]
       [ w0.TS.index; w1.TS.index; w2.TS.index; w3.TS.index ];
     Alcotest.(check int) "gap windows are empty" 0 (counter_of w1 "x");
     Alcotest.(check int) "oldest window retained" 1 (counter_of w0 "x");
     Alcotest.(check int) "live window counted" 1 (counter_of w3 "x")
   | ws -> Alcotest.failf "expected 4 windows, got %d" (List.length ws));
  (* late but within reach: lands in its own past window *)
  TS.bump t ~now:15. "x";
  let w1 = List.find (fun w -> w.TS.index = 1) (TS.windows t) in
  Alcotest.(check int) "late in-reach stamp lands in its window" 1
    (counter_of w1 "x");
  Alcotest.(check int) "no late drop yet" 0 (TS.late_drops t);
  (* one more rotation evicts window 0; a stamp for it is now beyond
     reach: dropped and counted, never misattributed *)
  TS.bump t ~now:45. "x";
  TS.bump t ~now:5. "x";
  Alcotest.(check int) "out-of-reach stamp dropped" 1 (TS.late_drops t);
  (match TS.windows t with
   | [ w1; _; _; _ ] ->
     Alcotest.(check int) "window 0 evicted" 1 w1.TS.index
   | ws -> Alcotest.failf "expected 4 windows, got %d" (List.length ws));
  (* a gap of ring width or more: wholesale clear, single live window *)
  TS.bump t ~now:1000. "x";
  (match TS.windows t with
   | [ w ] ->
     Alcotest.(check int) "only the landing window survives" 100 w.TS.index
   | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws))

let test_ts_sketch_merge () =
  let t = TS.create ~window:10. ~slots:8 () in
  (* two windows of latency observations on one shared bucket ladder *)
  TS.observe t ~now:1. "q" 0.000001;
  TS.observe t ~now:2. "q" 0.000001;
  TS.observe t ~now:12. "q" 0.001;
  TS.observe t ~now:13. "q" 8.0;
  let sketches =
    List.filter_map
      (fun w -> List.assoc_opt "q" w.TS.sketches)
      (TS.windows t)
  in
  Alcotest.(check int) "two windows carry sketches" 2 (List.length sketches);
  let m = TS.merge sketches in
  Alcotest.(check int) "merge sums counts" 4 m.TS.count;
  Alcotest.(check bool) "merge sums durations" true
    (Float.abs (m.TS.sum -. 8.001002) < 1e-9);
  (* quantiles walk the merged cumulative buckets: the 2 fast samples
     pin p50 to the first bucket, the slow outlier owns p99 *)
  Alcotest.(check bool) "p50 in the 1us bucket" true
    (TS.quantile m 0.5 <= 0.000002);
  Alcotest.(check bool) "p99 reaches the outlier's bucket" true
    (TS.quantile m 0.99 >= 8.0);
  Alcotest.(check (float 1e-9)) "empty sketch quantile is 0" 0.
    (TS.quantile (TS.merge []) 0.9);
  (* the json surface is well-formed *)
  Alcotest.(check bool) "timeseries json well-formed" true
    (json_well_formed (TS.to_json t))

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick
            test_counter_monotonic;
          Alcotest.test_case "same name, same counter" `Quick
            test_counter_same_name;
          Alcotest.test_case "histogram consistency" `Quick
            test_histogram_consistency;
          Alcotest.test_case "prometheus and json exposition" `Quick
            test_exposition;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "callback gauges" `Quick test_gauge_fn;
          Alcotest.test_case "family cells" `Quick test_family_cells;
          Alcotest.test_case "family misuse" `Quick test_family_misuse;
          Alcotest.test_case "exposition escaping" `Quick
            test_exposition_escaping;
          Alcotest.test_case "exposition round-trip" `Quick
            test_exposition_round_trip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "root bounding" `Quick test_span_root_bounding;
          Alcotest.test_case "disabled is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "chrome trace export" `Quick test_chrome_export;
        ] );
      ( "events",
        [
          Alcotest.test_case "disabled is transparent" `Quick
            test_events_disabled_is_transparent;
          Alcotest.test_case "correlation ids" `Quick test_events_correlation;
          Alcotest.test_case "ring capacity" `Quick test_events_capacity;
          Alcotest.test_case "sink and json dumps" `Quick
            test_events_sink_and_json;
        ] );
      ( "audit",
        [
          Alcotest.test_case "ring bounding" `Quick test_audit_ring_bounding;
          Alcotest.test_case "sink" `Quick test_audit_sink;
        ] );
      ( "timestamps",
        [
          Alcotest.test_case "mono stamps on events and audit" `Quick
            test_mono_timestamps;
        ] );
      ( "rulestats",
        [
          Alcotest.test_case "registry semantics" `Quick
            test_rulestats_registry;
          Alcotest.test_case "live shadow detection" `Quick
            test_rulestats_live_shadowing;
        ] );
      ( "planlog",
        [
          Alcotest.test_case "rings and thresholds" `Quick test_planlog_rings;
          Alcotest.test_case "served queries record plans" `Quick
            test_planlog_live;
          Alcotest.test_case "anchored and scan plans" `Quick
            test_planlog_plans;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "rotation exactly at the window edge" `Quick
            test_ts_boundary;
          Alcotest.test_case "gap handling and late stamps" `Quick
            test_ts_gaps;
          Alcotest.test_case "quantile sketch merge" `Quick
            test_ts_sketch_merge;
        ] );
      ( "differential",
        [
          Alcotest.test_case "instrumentation changes no answer" `Quick
            test_differential_instrumentation;
        ] );
    ]
