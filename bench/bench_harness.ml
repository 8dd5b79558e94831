(* What the reproduction bench's experiments share: the served replay on
   the staff hospital, the feature switches an "on" arm flips, and the
   two-arm estimator that prices one arm against the other. *)

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-bench" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* ---------------------------------------------------------------------- *)
(* The served replay                                                       *)
(* ---------------------------------------------------------------------- *)

(* The 1391-node hospital with an all-downward staff policy plus per-user
   rule tails (so the permission sets genuinely differ per user). *)
let staff_workload n_users =
  let config =
    { Workload.Gen_doc.patients = 120; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 17 }
  in
  let doc = Workload.Gen_doc.generate config in
  let users = List.init n_users (Printf.sprintf "w%d") in
  let subjects =
    Core.Subject.of_list
      ((Core.Subject.Role, "staff", [])
       :: List.map (fun u -> (Core.Subject.User, u, [ "staff" ])) users)
  in
  let staff_rules =
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
        ~priority:1;
      Core.Rule.deny Core.Privilege.Read ~path:"//diagnosis/node()"
        ~subject:"staff" ~priority:2;
      Core.Rule.accept Core.Privilege.Position ~path:"//diagnosis/node()"
        ~subject:"staff" ~priority:3;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"staff"
        ~priority:4;
    ]
  in
  let user_rules =
    List.concat
      (List.mapi
         (fun i u ->
           if i mod 2 = 0 then
             [ Core.Rule.deny Core.Privilege.Read ~path:"//note" ~subject:u
                 ~priority:(10 + i) ]
           else
             [ Core.Rule.deny Core.Privilege.Read ~path:"//visit/date"
                 ~subject:u ~priority:(10 + i) ])
         users)
  in
  (doc, Core.Policy.v subjects (staff_rules @ user_rules), users)

type served = {
  serve : Core.Serve.t;
  policy : Core.Policy.t;
  users : string list;
}

(* A fresh Serve on the staff hospital with its sessions logged in, and
   what closes and removes its journal (a fsync-off store in a temp
   dir). *)
let open_served ?(journal = false) ?pool ?(sessions = 8) () =
  let doc, policy, users = staff_workload sessions in
  let dir = if journal then Some (mk_temp_dir ()) else None in
  let store = Option.map (Store.open_dir ~fsync:false) dir in
  let close () =
    Option.iter Store.close store;
    Option.iter rm_rf dir
  in
  match
    Option.iter (fun s -> Store.init s doc) store;
    let serve =
      Core.Serve.create ?pool:(Option.map Core.Pool.create pool) ?persist:store
        policy doc
    in
    Core.Serve.login_many serve users;
    { serve; policy; users }
  with
  | s -> (s, close)
  | exception e ->
    close ();
    raise e

let with_served ?journal ?pool ?sessions f =
  let s, close = open_served ?journal ?pool ?sessions () in
  Fun.protect ~finally:close (fun () -> f s)

let commit s ops =
  match Core.Serve.commit_ops s.serve ~user:(List.hd s.users) ops with
  | Ok _ -> ()
  | Error e -> failwith (Core.Txn.error_to_string e)

(* Every op rewrites a distinct patient's service text, so the replay does
   real work under any setting. *)
let batches =
  List.init 12 (fun i ->
      List.init 4 (fun j ->
          let k = (i * 4) + j + 1 in
          Xupdate.Op.update
            (Printf.sprintf "/patients/*[%d]/service" k)
            (Printf.sprintf "svc%d" k)))

let churn_paths = [| "//note"; "//visit/date"; "//date"; "//visit/node()" |]

(* The replay, one step per batch, to be run in order: the batch as one
   atomic commit by the first session — with [churn], plus a deny-read
   rule on staff issued (even batches) or retracted (odd ones) — then
   each of the first two sessions running every query of [reads]. *)
let replay_steps ?(reads = []) ?(churn = false) s =
  let readers = [ List.nth s.users 0; List.nth s.users 1 ] in
  let issued = ref None in
  List.mapi
    (fun i ops () ->
      let churn_ops =
        match (churn, !issued) with
        | false, _ -> []
        | true, None ->
          let p = Core.Serve.fresh_priority s.serve in
          issued := Some p;
          [ Core.Op.Policy
              (Core.Op.Add_rule
                 (Core.Rule.deny Core.Privilege.Read
                    ~path:churn_paths.(i mod Array.length churn_paths)
                    ~subject:"staff" ~priority:p)) ]
        | true, Some prev ->
          issued := None;
          [ Core.Op.Policy (Core.Op.Retract_rule { priority = prev }) ]
      in
      commit s (Core.Op.docs ops @ churn_ops);
      List.iter
        (fun user ->
          List.iter (fun q -> ignore (Core.Serve.query s.serve ~user q)) reads)
        readers)
    batches

let replay ?churn s = List.iter (fun step -> step ()) (replay_steps ?churn s)

(* ---------------------------------------------------------------------- *)
(* Arms                                                                    *)
(* ---------------------------------------------------------------------- *)

(* One run of an arm, set up and ready: the estimator times its steps one
   by one, then [finish] cleans up. *)
type run = { steps : (unit -> unit) list; finish : unit -> unit }

(* An arm sets up a fresh run each time it is called. *)
type arm = unit -> run

let plain f : arm = fun () -> { steps = [ f ]; finish = ignore }

let served ?journal ?reads () : arm =
 fun () ->
  let s, close = open_served ?journal () in
  { steps = replay_steps ?reads s; finish = close }

type feature =
  | Trace
  | Audit
  | Events
  | Planlog
  | Rulestats
  | Timeseries
  | Audit_journal
  | Anomaly

let flags =
  [ ("Trace", Obs.Trace.enabled); ("Audit", Obs.Audit.enabled);
    ("Events", Obs.Events.enabled); ("Planlog", Obs.Planlog.enabled);
    ("Rulestats", Obs.Rulestats.enabled);
    ("Timeseries", Obs.Timeseries.enabled) ]

let probe_user = "bench-leak-probe"

(* A feature readied for one run: what switches it on and off around each
   step, and a leak test, run once everything is off and a probe decision
   has been recorded, which also releases what the run held.  Only the
   switches go down: the bounded rings keep their contents, so every
   "on" step meets them as a long-running server does, full. *)
type switch = {
  on : unit -> unit;
  off : unit -> unit;
  leaked : unit -> string option;
}

let ready feature =
  let flag set =
    { on = (fun () -> set true); off = (fun () -> set false);
      leaked = (fun () -> None) }
  in
  match feature with
  | Trace -> flag Obs.Trace.set_enabled
  | Audit -> flag Obs.Audit.set_enabled
  | Events -> flag Obs.Events.set_enabled
  | Planlog -> flag Obs.Planlog.set_enabled
  | Rulestats -> flag Obs.Rulestats.set_enabled
  | Timeseries -> flag Obs.Timeseries.set_enabled
  | Audit_journal ->
    (* The in-memory audit ring draining into a fresh durable journal. *)
    let dir = mk_temp_dir () in
    let log = Store.Audit_log.open_dir ~fsync:false dir in
    { on =
        (fun () ->
          Obs.Audit.set_sink Obs.Audit.default
            (Some (Store.Audit_log.sink log)));
      off = (fun () -> Obs.Audit.set_sink Obs.Audit.default None);
      leaked =
        (fun () ->
          Store.Audit_log.close log;
          let events = (Store.Audit_log.scan dir).events in
          rm_rf dir;
          if
            List.exists
              (fun (e : Obs.Audit.event) -> e.user = probe_user)
              events
          then Some "the audit sink"
          else None) }
  | Anomaly ->
    (* A fresh engine per run, so detector state never carries over. *)
    let engine = Obs.Anomaly.create () in
    { on = (fun () -> Obs.Anomaly.install ~t:engine ());
      off = Obs.Anomaly.uninstall;
      leaked =
        (fun () ->
          if
            List.exists
              (fun (r : Obs.Anomaly.user_row) -> r.ur_user = probe_user)
              (Obs.Anomaly.report engine).users
          then Some "the anomaly taps"
          else None) }

(* [arm] with [features] switched on around each of its steps and off
   between them, so the other arm's steps run without them.  A run that
   leaves anything on fails the experiment: no arm may bill its
   instrumentation to the other. *)
let on features (arm : arm) : arm =
 fun () ->
  let run = arm () in
  let switches = List.map ready features in
  let step f () =
    List.iter (fun s -> s.on ()) switches;
    Fun.protect f ~finally:(fun () -> List.iter (fun s -> s.off ()) switches)
  in
  let finish () =
    run.finish ();
    Obs.Audit.record Obs.Audit.default ~user:probe_user ~action:"probe"
      Obs.Audit.Allowed;
    match
      List.filter_map (fun (name, on) -> if on () then Some name else None) flags
      @ List.filter_map (fun s -> s.leaked ()) switches
    with
    | [] -> ()
    | leaked ->
      failwith (String.concat ", " leaked ^ " stayed on after the on arm")
  in
  { steps = List.map step run.steps; finish }

(* ---------------------------------------------------------------------- *)
(* The two-arm estimator                                                   *)
(* ---------------------------------------------------------------------- *)

type reading = {
  ratio : float;  (** median over the round pairs of B's time per run over A's *)
  a : float;  (** median seconds per run of arm A *)
  b : float;  (** median seconds per run of arm B *)
  a_words : float;  (** median words allocated per run of arm A *)
  b_words : float;  (** median words allocated per run of arm B *)
}

(* Process CPU time: only this process's work counts, not the scheduler's
   preemptions of it. *)
let cpu_clock () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Words this domain has allocated so far on the minor heap: every block
   but the few large enough to go straight to the major one.  Unlike
   time, the count repeats exactly from run to run of the same
   single-domain work, and no collection, of whosever garbage, enters
   it. *)
let allocated = Gc.minor_words

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

(* A sample is about [sample] seconds of runs of one arm, as many as that
   arm's last time per run gives. *)
let sample = 0.01

(* Round pairs continue until the samples add up to [budget] seconds, and
   number at least [min_pairs]. *)
let budget = 2.
let min_pairs = 6

(* A round sets up four samples, of arm A, B, B and A.  It then runs one
   [Gc.full_major] and times step i of every run, in that mirrored order,
   before any step i + 1: on a shared core one run of the same work can
   take 1.5x the next, and timing by step puts both arms under the same
   swings.  Rounds come in pairs, the second in B,A,A,B order, so
   whatever a round's first or last place costs (the first step after
   the collection runs slower) falls on both arms too, and each pair
   gives one ratio of B's time per run over A's.  The reading is the
   median of those ratios, so a disturbed pair does not move it.  The
   samples of a round share one heap, so part of one arm's garbage is
   collected on the other's clock; the words each step allocates are
   counted exactly, with no such spill. *)
let compare ?(clock = cpu_clock) ~(a : arm) ~(b : arm) () =
  let arms = [| a; b |] in
  let per_run = [| 0.; 0. |] and spent = ref 0. in
  (* Each sample's seconds and words per run; samples are (arm index,
     runs). *)
  let round samples =
    let times = Array.make (List.length samples) 0. in
    let words = Array.make (List.length samples) 0. in
    let cursors =
      List.concat
        (List.mapi
           (fun j (_, runs) -> List.map (fun r -> (j, ref r.steps)) runs)
           samples)
    in
    (* The set-ups' garbage is collected here, not on a timed step. *)
    Gc.full_major ();
    let rec steps () =
      if List.exists (fun (_, rest) -> !rest <> []) cursors then begin
        List.iter
          (fun (j, rest) ->
            match !rest with
            | [] -> ()
            | f :: tl ->
              let w0 = allocated () and c0 = clock () in
              f ();
              times.(j) <- times.(j) +. (clock () -. c0);
              words.(j) <- words.(j) +. (allocated () -. w0);
              rest := tl)
          cursors;
        steps ()
      end
    in
    steps ();
    List.iter (fun (_, runs) -> List.iter (fun r -> r.finish ()) runs) samples;
    List.mapi
      (fun j (arm, runs) ->
        let k = float (List.length runs) in
        spent := !spent +. times.(j);
        per_run.(arm) <- times.(j) /. k;
        (per_run.(arm), words.(j) /. k))
      samples
  in
  let runs arm k = (arm, List.init k (fun _ -> arms.(arm) ())) in
  let sized arm =
    runs arm
      (max 1 (int_of_float (Float.ceil (sample /. Float.max per_run.(arm) 1e-4))))
  in
  (* Warm-up: one run of each arm, which also sizes the first samples. *)
  ignore (round [ runs 0 1 ]);
  ignore (round [ runs 1 1 ]);
  spent := 0.;
  let ra = ref [] and rb = ref [] and ratios = ref [] in
  while List.length !ratios < min_pairs || !spent < budget do
    let abba = round [ sized 0; sized 1; sized 1; sized 0 ] in
    let baab = round [ sized 1; sized 0; sized 0; sized 1 ] in
    match (abba, baab) with
    | [ a1; b1; b2; a2 ], [ b3; a3; a4; b4 ] ->
      let sum = List.fold_left (fun acc (t, _) -> acc +. t) 0. in
      ra := a1 :: a2 :: a3 :: a4 :: !ra;
      rb := b1 :: b2 :: b3 :: b4 :: !rb;
      ratios := (sum [ b1; b2; b3; b4 ] /. sum [ a1; a2; a3; a4 ]) :: !ratios
    | _ -> assert false
  done;
  let med f xs = median (List.map f xs) in
  { ratio = median !ratios; a = med fst !ra; b = med fst !rb;
    a_words = med snd !ra; b_words = med snd !rb }
