(* Deterministic property suite for the security-analytics subsystem:
   the four Obs.Anomaly detectors, the gap-skip baseline equivalence,
   and the central acceptance property that feeding the same audit
   sequence through the live tap and through the offline segment
   replay ([xmlsecu analyze]'s path) yields identical alert
   timelines. *)

module Anomaly = Obs.Anomaly
module Audit = Obs.Audit
module Events = Obs.Events

let mk_temp_dir () =
  let base = Filename.temp_file "analytics" "" in
  Sys.remove base;
  Unix.mkdir base 0o700;
  base

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then (
      Array.iter (fun f -> go (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p)
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

(* Small windows and low thresholds so tests can drive the state
   machine with hand-picked mono stamps. *)
let cfg =
  {
    Anomaly.window = 1.0;
    baseline = 3;
    spike_factor = 2.;
    spike_min = 4;
    probe_targets = 3;
    probe_depth = 2;
    dormant_windows = 3;
    abort_min = 3;
    resolve_after = 2;
  }

let ev ?(user = "u") ?(action = "op") ?(privilege = "write") ?(target = "")
    ?(rule = "") ?(decision = Audit.Denied) mono =
  {
    Audit.seq = 0;
    time = 0.;
    mono;
    user;
    action;
    privilege;
    target;
    decision;
    rule;
    detail = "";
  }

let abort_ev mono =
  { Events.id = 1; txn = 0; time = 0.; mono; kind = Abort { reason = "t" } }

let commit_ev mono =
  { Events.id = 1; txn = 0; time = 0.; mono; kind = Commit { ops = 1; denied = 0 } }

let feed t es = List.iter (Anomaly.observe_audit t) es

let trans_strings t =
  List.map
    (fun tr ->
      Printf.sprintf "%d %s %s %s" tr.Anomaly.t_window tr.Anomaly.t_detector
        tr.Anomaly.t_subject
        (Anomaly.state_to_string tr.Anomaly.t_state))
    (Anomaly.transitions t)

let check_trans = Alcotest.(check (list string))

(* denial_spike: fires past floor and factor; a steady denier is
   absorbed into its own baseline and the alert resolves. *)
let test_denial_spike () =
  let t = Anomaly.create ~config:cfg () in
  (* window 0: 4 denials for mallory — cold start, empty baseline. *)
  feed t
    (List.map (fun m -> ev ~user:"mallory" m) [ 0.1; 0.2; 0.3; 0.4 ]);
  (* three denials for alice: below the floor, never fires. *)
  feed t (List.map (fun m -> ev ~user:"alice" m) [ 0.5; 0.6; 0.7 ]);
  Anomaly.finalize t;
  check_trans "spike fires and resolves"
    [ "0 denial_spike mallory firing"; "2 denial_spike mallory resolved" ]
    (trans_strings t);
  (* steady denier: 4 denials in every window.  Fires once at the cold
     start, then 4 <= 2.0 * avg(4) keeps it quiet and it resolves. *)
  let t = Anomaly.create ~config:cfg () in
  for w = 0 to 5 do
    feed t
      (List.map
         (fun i -> ev ~user:"steady" (Float.of_int w +. (0.1 *. Float.of_int i)))
         [ 1; 2; 3; 4 ])
  done;
  Anomaly.finalize t;
  check_trans "steady denier is its own baseline"
    [ "0 denial_spike steady firing"; "2 denial_spike steady resolved" ]
    (trans_strings t)

(* subtree_probe: distinct denied ordpath targets under one prefix;
   repeats of one target, allowed touches and non-ordpath targets do
   not count. *)
let test_subtree_probe () =
  let t = Anomaly.create ~config:cfg () in
  feed t
    [
      ev ~user:"mallory" ~target:"1.3.1.1" 0.1;
      ev ~user:"mallory" ~target:"1.3.3.1" 0.2;
      ev ~user:"mallory" ~target:"1.3.5.1" 0.3;
    ];
  Anomaly.finalize t;
  check_trans "three distinct targets under 1.3 fire"
    [
      "0 subtree_probe mallory@1.3 firing";
      "2 subtree_probe mallory@1.3 resolved";
    ]
    (trans_strings t);
  (* repeats of one target: 1 distinct < 3, quiet. *)
  let t = Anomaly.create ~config:cfg () in
  feed t
    (List.map (fun m -> ev ~user:"mallory" ~target:"1.3.1.1" m) [ 0.1; 0.2; 0.3 ]);
  Anomaly.finalize t;
  check_trans "same target repeated stays quiet" [] (trans_strings t);
  (* allowed events and query-string targets never probe. *)
  let t = Anomaly.create ~config:cfg () in
  feed t
    [
      ev ~user:"u" ~target:"1.3.1.1" ~decision:Audit.Allowed 0.1;
      ev ~user:"u" ~target:"1.3.3.1" ~decision:Audit.Allowed 0.2;
      ev ~user:"u" ~target:"1.3.5.1" ~decision:Audit.Allowed 0.3;
      ev ~user:"u" ~target:"//vault/a" 0.4;
      ev ~user:"u" ~target:"//vault/b" 0.5;
      ev ~user:"u" ~target:"//vault/c" 0.6;
    ];
  Anomaly.finalize t;
  check_trans "allowed and non-ordpath targets stay quiet" []
    (trans_strings t)

let test_ordpath_prefix () =
  let some = Alcotest.(check (option string)) in
  some "deep ordpath" (Some "1.3") (Anomaly.ordpath_prefix ~depth:2 "1.3.5.1");
  some "exactly depth" None (Anomaly.ordpath_prefix ~depth:2 "1.3");
  some "query string" None (Anomaly.ordpath_prefix ~depth:2 "//vault/*");
  some "empty" None (Anomaly.ordpath_prefix ~depth:2 "");
  some "negative components" (Some "1.-3")
    (Anomaly.ordpath_prefix ~depth:2 "1.-3.5")

(* dormant_rule: a rule deciding again after >= dormant_windows of
   silence fires; an every-window rule never does. *)
let test_dormant_rule () =
  let t = Anomaly.create ~config:cfg () in
  let rule = "grant read //a to staff #5" in
  Anomaly.observe_audit t
    (ev ~user:"u" ~decision:Audit.Allowed ~rule 0.5);
  (* keep the stream alive with a busy rule in every window. *)
  for w = 1 to 4 do
    Anomaly.observe_audit t
      (ev ~user:"u" ~decision:Audit.Allowed ~rule:"busy #1"
         (Float.of_int w +. 0.5))
  done;
  (* window 4: the dormant rule decides again after a 4-window gap. *)
  Anomaly.observe_audit t (ev ~user:"u" ~decision:Audit.Allowed ~rule 4.7);
  Anomaly.finalize t;
  check_trans "dormant rule fires once, busy rule never"
    [
      Printf.sprintf "4 dormant_rule %s firing" rule;
      Printf.sprintf "6 dormant_rule %s resolved" rule;
    ]
    (trans_strings t);
  (* the gap may also be an event-free skip: the close_through fast
     path must still see the reactivation. *)
  let t = Anomaly.create ~config:cfg () in
  Anomaly.observe_audit t (ev ~user:"u" ~decision:Audit.Allowed ~rule 0.5);
  Anomaly.observe_audit t (ev ~user:"u" ~decision:Audit.Allowed ~rule 10.5);
  Anomaly.finalize t;
  check_trans "reactivation across an empty gap"
    [
      Printf.sprintf "10 dormant_rule %s firing" rule;
      Printf.sprintf "12 dormant_rule %s resolved" rule;
    ]
    (trans_strings t)

(* abort_storm counts Abort events only. *)
let test_abort_storm () =
  let t = Anomaly.create ~config:cfg () in
  List.iter (fun m -> Anomaly.observe_event t (abort_ev m)) [ 0.1; 0.2; 0.3 ];
  Anomaly.finalize t;
  check_trans "three aborts fire"
    [ "0 abort_storm txn firing"; "2 abort_storm txn resolved" ]
    (trans_strings t);
  let t = Anomaly.create ~config:cfg () in
  List.iter
    (fun m -> Anomaly.observe_event t (commit_ev m))
    [ 0.1; 0.2; 0.3; 0.4; 0.5 ];
  Anomaly.finalize t;
  check_trans "commits never storm" [] (trans_strings t)

(* Alert lifecycle: resolve after quiet windows, re-fire bumps the
   episode counter. *)
let test_refire_episodes () =
  let t = Anomaly.create ~config:cfg () in
  let storm w =
    feed t
      (List.map
         (fun i ->
           ev ~user:"mallory"
             ~target:(Printf.sprintf "1.3.%d.1" i)
             (Float.of_int w +. (0.1 *. Float.of_int i)))
         [ 1; 2; 3 ])
  in
  storm 0;
  storm 5;
  Anomaly.finalize t;
  check_trans "fire, resolve, re-fire, resolve"
    [
      "0 subtree_probe mallory@1.3 firing";
      "2 subtree_probe mallory@1.3 resolved";
      "5 subtree_probe mallory@1.3 firing";
      "7 subtree_probe mallory@1.3 resolved";
    ]
    (trans_strings t);
  match Anomaly.alerts t with
  | [ a ] ->
      Alcotest.(check int) "two episodes" 2 a.Anomaly.episodes;
      Alcotest.(check int) "episode start" 5 a.Anomaly.first_window;
      Alcotest.(check bool) "resolved" true (a.Anomaly.a_state = Anomaly.Resolved)
  | l -> Alcotest.failf "expected one alert, got %d" (List.length l)

(* The cumulative report survives window turnover. *)
let test_report () =
  let t = Anomaly.create ~config:cfg () in
  feed t
    [
      ev ~user:"alice" ~decision:Audit.Allowed 0.1;
      ev ~user:"alice" ~decision:Audit.Allowed 3.1;
      ev ~user:"mallory" ~target:"1.3.1.1" 0.2;
      ev ~user:"mallory" ~target:"1.3.1.1" 5.2;
      ev ~user:"mallory" ~target:"1.3.3.1" 9.2;
    ];
  Anomaly.finalize t;
  let r = Anomaly.report t in
  (match r.Anomaly.users with
  | [ m; a ] ->
      Alcotest.(check string) "top denier" "mallory" m.Anomaly.ur_user;
      Alcotest.(check int) "mallory denied" 3 m.Anomaly.ur_denied;
      Alcotest.(check string) "alice second" "alice" a.Anomaly.ur_user;
      Alcotest.(check int) "alice allowed" 2 a.Anomaly.ur_allowed
  | l -> Alcotest.failf "expected two user rows, got %d" (List.length l));
  match r.Anomaly.subtrees with
  | [ s ] ->
      Alcotest.(check string) "prefix" "1.3" s.Anomaly.sr_prefix;
      Alcotest.(check int) "denials under prefix" 3 s.Anomaly.sr_denied;
      Alcotest.(check int) "distinct targets" 2 s.Anomaly.sr_targets;
      Alcotest.(check (list string)) "users" [ "mallory" ] s.Anomaly.sr_users
  | l -> Alcotest.failf "expected one subtree row, got %d" (List.length l)

(* Gap equivalence: skipping empty windows wholesale (age_baselines)
   must leave the same timeline as closing them one at a time under a
   heartbeat of neutral allowed events. *)
let gen_sparse_events =
  QCheck.Gen.(
    let user = oneofl [ "alice"; "bob"; "mallory" ] in
    let burst w =
      list_size (int_range 0 6)
        (map2
           (fun u i ->
             ev ~user:u
               ~target:(Printf.sprintf "1.5.%d.1" (1 + (i mod 2)))
               (Float.of_int w +. (0.009 *. Float.of_int (1 + i))))
           user (int_range 0 99))
    in
    (* a handful of bursts in strictly increasing, gappy windows *)
    let* gaps = list_size (int_range 1 5) (int_range 1 9) in
    let _, windows =
      List.fold_left (fun (w, acc) g -> (w + g, (w + g) :: acc)) (0, [ 0 ]) gaps
    in
    let windows = List.rev windows in
    let* bursts = flatten_l (List.map burst windows) in
    return (windows, List.concat bursts))

let prop_gap_equivalence =
  QCheck.Test.make ~name:"gap skip matches heartbeat closes" ~count:100
    (QCheck.make gen_sparse_events) (fun (windows, events) ->
      let sparse = Anomaly.create ~config:cfg () in
      feed sparse events;
      Anomaly.finalize sparse;
      let dense = Anomaly.create ~config:cfg () in
      let last = List.fold_left max 0 windows in
      (* interleave a heartbeat (allowed, no rule) into every window so
         each one closes individually. *)
      let heartbeat w = ev ~user:"hb" ~decision:Audit.Allowed (Float.of_int w) in
      let all =
        List.sort
          (fun a b -> Float.compare a.Audit.mono b.Audit.mono)
          (events @ List.init (last + 1) heartbeat)
      in
      feed dense all;
      Anomaly.finalize dense;
      trans_strings sparse = trans_strings dense)

(* Zero false positives: background traffic below every threshold
   (spike floor, distinct-probe floor, no rules, no aborts) never
   produces a transition; injecting one probing storm produces
   transitions only for the offender. *)
let gen_background =
  QCheck.Gen.(
    let user = oneofl [ "alice"; "bob"; "carol" ] in
    list_size (int_range 0 80)
      (let* u = user in
       let* w = int_range 0 9 in
       let* i = int_range 0 1 in
       let* denied = bool in
       let decision = if denied then Audit.Denied else Audit.Allowed in
       (* at most 2 distinct targets per (user, prefix) and window
          counts bounded: spike_min 4 can be crossed by volume, so
          thin denials per user-window below the floor. *)
       let mono = Float.of_int w +. 0.001 +. (0.0001 *. Float.of_int i) in
       return
         ( u,
           w,
           ev ~user:u ~decision
             ~target:(Printf.sprintf "%d.5.%d.1" (1 + Char.code u.[0] mod 3) (1 + i))
             mono )))

let cap_denials events =
  (* keep at most spike_min - 1 denials per (user, window) so the
     background can never legitimately spike *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (u, w, e) ->
      match e.Audit.decision with
      | Audit.Allowed -> true
      | Audit.Denied ->
          let k = (u, w) in
          let n = Option.value ~default:0 (Hashtbl.find_opt seen k) in
          if n >= cfg.Anomaly.spike_min - 1 then false
          else (
            Hashtbl.replace seen k (n + 1);
            true))
    events
  |> List.map (fun (_, _, e) -> e)
  |> List.sort (fun a b -> Float.compare a.Audit.mono b.Audit.mono)

let prop_no_false_positives =
  QCheck.Test.make ~name:"background-only traffic raises no alerts"
    ~count:100 (QCheck.make gen_background) (fun raw ->
      let events = cap_denials raw in
      let t = Anomaly.create ~config:cfg () in
      feed t events;
      Anomaly.finalize t;
      Anomaly.transitions t = [])

let prop_storm_fires_only_offender =
  QCheck.Test.make
    ~name:"seeded probing storm fires for the offender and only him"
    ~count:100 (QCheck.make gen_background) (fun raw ->
      let events = cap_denials raw in
      let storm =
        List.map
          (fun i ->
            ev ~user:"mallory"
              ~target:(Printf.sprintf "6.7.%d.1" i)
              (3.0 +. (0.001 *. Float.of_int i)))
          [ 1; 2; 3 ]
      in
      let all =
        List.sort
          (fun a b -> Float.compare a.Audit.mono b.Audit.mono)
          (storm @ events)
      in
      let t = Anomaly.create ~config:cfg () in
      feed t all;
      Anomaly.finalize t;
      let trs = Anomaly.transitions t in
      trs <> []
      && List.for_all
           (fun tr ->
             tr.Anomaly.t_detector = "subtree_probe"
             && tr.Anomaly.t_subject = "mallory@6.7")
           trs)

(* The acceptance property: one event sequence, recorded through the
   live tap (Audit.record -> journal sink + anomaly tap) and replayed
   offline from the scanned segments, yields an identical engine —
   timeline, alerts, report, open window. *)
let test_live_offline_equivalence () =
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = Anomaly.create ~config:cfg () in
  let log = Audit.create ~capacity:4096 () in
  (* small max_bytes forces rotation so the scan crosses segments *)
  let j = Store.Audit_log.open_dir ~max_bytes:2048 dir in
  Audit.set_sink log (Some (Store.Audit_log.sink j));
  Audit.set_tap log ~name:"anomaly" (Some (Anomaly.observe_audit live));
  let record u decision target rule =
    Audit.record log ~user:u ~action:"op" ~privilege:"write" ~target ~rule
      decision
  in
  (* mixed traffic: allowed background, a probing storm, a dormant
     rule reactivation.  Stamps are whatever Mono.now yields — both
     sides consume the same recorded values. *)
  for i = 1 to 40 do
    record "alice" Audit.Allowed (Printf.sprintf "1.%d" i) "grant #1"
  done;
  for i = 1 to 6 do
    record "mallory" Audit.Denied (Printf.sprintf "1.3.%d.1" i) "deny #9"
  done;
  for i = 1 to 30 do
    record "bob" Audit.Allowed (Printf.sprintf "2.%d" i) ""
  done;
  Store.Audit_log.close j;
  Audit.set_tap log ~name:"anomaly" None;
  Audit.set_sink log None;
  let scanned = Store.Audit_log.scan dir in
  Alcotest.(check int) "all events scanned" 76
    (List.length scanned.Store.Audit_log.events);
  Alcotest.(check bool) "rotated at least once" true
    (List.length scanned.Store.Audit_log.files > 1);
  let offline = Anomaly.replay ~config:cfg scanned.Store.Audit_log.events in
  Anomaly.finalize live;
  Anomaly.finalize offline;
  Alcotest.(check (list string))
    "identical timelines" (trans_strings live) (trans_strings offline);
  Alcotest.(check string)
    "identical engines (json)" (Anomaly.to_json live)
    (Anomaly.to_json offline);
  Alcotest.(check bool) "storm detected" true
    (List.exists
       (fun tr -> tr.Anomaly.t_detector = "subtree_probe")
       (Anomaly.transitions live))

(* replay on the in-memory ring (no disk round-trip) is also identical
   to a directly-fed engine — pure determinism of the state machine. *)
let prop_replay_identity =
  QCheck.Test.make ~name:"replay of any sequence matches direct feed"
    ~count:100 (QCheck.make gen_background) (fun raw ->
      let events = List.map (fun (_, _, e) -> e) raw in
      let events =
        List.sort (fun a b -> Float.compare a.Audit.mono b.Audit.mono) events
      in
      let a = Anomaly.create ~config:cfg () in
      feed a events;
      Anomaly.finalize a;
      let b = Anomaly.replay ~config:cfg events in
      Anomaly.finalize b;
      Anomaly.to_json a = Anomaly.to_json b)

(* The alert timeline is bounded at 8192 transitions: 9000 users each
   firing one denial spike in the same window overflow it, and it keeps
   the newest 8192, in order. *)
let test_timeline_bound () =
  let t = Anomaly.create ~config:{ cfg with spike_min = 1 } () in
  let user i = Printf.sprintf "u%05d" i in
  feed t (List.init 9000 (fun i -> ev ~user:(user i) 0.5));
  feed t [ ev ~decision:Audit.Allowed 1.5 ] (* closes window 0 *);
  let tl = Anomaly.transitions t in
  Alcotest.(check int) "the timeline holds its bound" 8192 (List.length tl);
  Alcotest.(check (list string)) "the newest transitions, in order"
    (List.init 8192 (fun i -> "0 denial_spike " ^ user (808 + i) ^ " firing"))
    (trans_strings t)

let () =
  Alcotest.run "analytics"
    [
      ( "detectors",
        [
          Alcotest.test_case "denial spike vs baseline" `Quick
            test_denial_spike;
          Alcotest.test_case "subtree probing" `Quick test_subtree_probe;
          Alcotest.test_case "ordpath prefix extraction" `Quick
            test_ordpath_prefix;
          Alcotest.test_case "dormant rule reactivation" `Quick
            test_dormant_rule;
          Alcotest.test_case "abort storm" `Quick test_abort_storm;
          Alcotest.test_case "resolve and re-fire episodes" `Quick
            test_refire_episodes;
          Alcotest.test_case "cumulative report" `Quick test_report;
          Alcotest.test_case "bounded alert timeline" `Quick
            test_timeline_bound;
        ] );
      ( "determinism",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_gap_equivalence;
            prop_no_false_positives;
            prop_storm_fires_only_offender;
            prop_replay_identity;
          ] );
      ( "live vs offline",
        [
          Alcotest.test_case "journal round-trip equivalence" `Quick
            test_live_offline_equivalence;
        ] );
    ]
