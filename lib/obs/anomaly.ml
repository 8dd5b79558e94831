(* Streaming security-anomaly detection over the audit/event stream.

   Four detectors share one windowed state machine:

   - denial_spike: a user's denials in the closed window exceed both an
     absolute floor and a multiple of their own trailing-window baseline;
   - subtree_probe: one user collects many *distinct* denied ordpath
     targets under one ordpath prefix inside a window — the shape of a
     principal walking a hidden subtree (the covert-channel concern the
     paper raises for denied operations);
   - dormant_rule: a rule decides for the first time in N windows — a
     policy path nobody exercised suddenly carrying decisions;
   - abort_storm: transaction aborts in a window cross a floor.

   Determinism contract: windows are logical ([floor (mono / window)],
   the Timeseries discipline) and state only advances when an event
   arrives or [finalize] runs — never from wall clock, never from a
   reader.  Feeding the same event sequence therefore always produces
   the same alert timeline, which is what makes the live sink and the
   offline segment replay (`xmlsecu analyze`) one code path, and what
   the property suite in test/test_analytics.ml checks. *)

type config = {
  window : float;  (* seconds per logical window *)
  baseline : int;  (* trailing windows forming the denial baseline *)
  spike_factor : float;  (* fire when denials > factor * baseline avg *)
  spike_min : int;  (* ... and >= this absolute floor *)
  probe_targets : int;  (* distinct denied targets per prefix per window *)
  probe_depth : int;  (* ordpath components forming the subtree prefix *)
  dormant_windows : int;  (* quiet windows before a rule counts dormant *)
  abort_min : int;  (* aborts per window *)
  resolve_after : int;  (* quiet windows before a firing alert resolves *)
}

let default_config =
  {
    window = 10.;
    baseline = 6;
    spike_factor = 4.;
    spike_min = 8;
    probe_targets = 8;
    probe_depth = 2;
    dormant_windows = 6;
    abort_min = 8;
    resolve_after = 3;
  }

type state = Firing | Resolved

let state_to_string = function Firing -> "firing" | Resolved -> "resolved"

type transition = {
  t_window : int;
  t_detector : string;
  t_subject : string;
  t_state : state;
  t_detail : string;
}

type alert_view = {
  detector : string;
  subject : string;
  a_state : state;
  first_window : int;  (* start of the current episode *)
  last_window : int;  (* last window the condition held *)
  episodes : int;
  detail : string;
}

type alert = {
  al_detector : string;
  al_subject : string;
  mutable al_state : state;
  mutable al_first : int;
  mutable al_last : int;
  mutable al_episodes : int;
  mutable al_detail : string;
}

type user_tot = { mutable ut_allowed : int; mutable ut_denied : int }

type prefix_tot = {
  mutable pt_denied : int;
  pt_targets : (string, unit) Hashtbl.t;
  pt_users : (string, unit) Hashtbl.t;
}

let no_window = min_int
let max_transitions = 8192

type t = {
  lock : Mutex.t;
  config : config;
  (* open-window accumulators, cleared at each close *)
  mutable open_w : int;  (* [no_window] before the first event *)
  denials_w : (string, int ref) Hashtbl.t;  (* user -> denials *)
  probes_w : (string * string, (string, unit) Hashtbl.t) Hashtbl.t;
      (* (user, prefix) -> distinct denied targets *)
  rules_w : (string, unit) Hashtbl.t;  (* rules that decided *)
  mutable aborts_w : int;
  (* cross-window state *)
  denial_hist : (string, int list ref) Hashtbl.t;
      (* user -> denial counts of trailing closed windows, newest first *)
  rule_last : (string, int) Hashtbl.t;  (* rule -> last deciding window *)
  alerts_tbl : (string * string, alert) Hashtbl.t;
  trans : transition Ring.t;
      (* bounded only so a runaway stream cannot grow the timeline
         without limit *)
  (* cumulative report (never windowed, never cleared by closes) *)
  users_tot : (string, user_tot) Hashtbl.t;
  prefixes_tot : (string, prefix_tot) Hashtbl.t;
}

let create ?(config = default_config) () =
  if config.window <= 0. then invalid_arg "Obs.Anomaly.create: window <= 0";
  if config.baseline < 1 || config.resolve_after < 1 then
    invalid_arg "Obs.Anomaly.create: baseline/resolve_after < 1";
  {
    lock = Mutex.create ();
    config;
    open_w = no_window;
    denials_w = Hashtbl.create 16;
    probes_w = Hashtbl.create 16;
    rules_w = Hashtbl.create 16;
    aborts_w = 0;
    denial_hist = Hashtbl.create 16;
    rule_last = Hashtbl.create 16;
    alerts_tbl = Hashtbl.create 8;
    trans = Ring.create max_transitions;
    users_tot = Hashtbl.create 16;
    prefixes_tot = Hashtbl.create 16;
  }

let default = create ()
let config t = t.config

let g_firing =
  Metrics.gauge Metrics.default "anomaly_alerts_firing"
    ~help:"Security alerts currently in the firing state"

let f_alerts =
  Metrics.family Metrics.default "anomaly_alerts_total"
    ~labels:[ "detector" ]
    ~help:"Security alert firing transitions by detector"

(* A target counts for subtree probing only when it *is* an ordpath
   (dotted integers, as Ordpath.to_string renders decision targets) deep
   enough to sit strictly under a [depth]-component prefix.  Query
   strings and XPath summaries fall out here. *)
let ordpath_prefix ~depth target =
  if depth < 1 || target = "" || target = "/" then None
  else
    let comps = String.split_on_char '.' target in
    let numeric c =
      c <> ""
      && String.for_all (fun ch -> (ch >= '0' && ch <= '9') || ch = '-') c
    in
    if List.length comps <= depth || not (List.for_all numeric comps) then
      None
    else
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      Some (String.concat "." (take depth comps))

let window_of t mono = int_of_float (Float.floor (mono /. t.config.window))

(* --- alert engine (all called with the lock held) ---------------------- *)

let push_transition t tr =
  Ring.add t.trans tr;
  if tr.t_state = Firing then
    Metrics.inc (Metrics.labels f_alerts [ tr.t_detector ])

let firing_count t =
  Hashtbl.fold
    (fun _ a n -> if a.al_state = Firing then n + 1 else n)
    t.alerts_tbl 0

let any_firing t =
  Hashtbl.fold
    (fun _ a b -> b || a.al_state = Firing)
    t.alerts_tbl false

(* The detector condition held for (detector, subject) in window [w]. *)
let condition t w detector subject detail =
  match Hashtbl.find_opt t.alerts_tbl (detector, subject) with
  | Some a when a.al_state = Firing ->
    a.al_last <- w;
    a.al_detail <- detail
  | Some a ->
    a.al_state <- Firing;
    a.al_first <- w;
    a.al_last <- w;
    a.al_episodes <- a.al_episodes + 1;
    a.al_detail <- detail;
    push_transition t
      { t_window = w; t_detector = detector; t_subject = subject;
        t_state = Firing; t_detail = detail }
  | None ->
    Hashtbl.replace t.alerts_tbl (detector, subject)
      {
        al_detector = detector;
        al_subject = subject;
        al_state = Firing;
        al_first = w;
        al_last = w;
        al_episodes = 1;
        al_detail = detail;
      };
    push_transition t
      { t_window = w; t_detector = detector; t_subject = subject;
        t_state = Firing; t_detail = detail }

let all_zero l = List.for_all (fun x -> x = 0) l

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Ages every user's denial baseline by [k] empty windows.  Equivalent,
   by construction, to closing [k] event-free windows one at a time —
   the fast path [close_through] takes across long gaps must land on
   the same state as the slow path. *)
let age_baselines t k =
  if k >= t.config.baseline then Hashtbl.reset t.denial_hist
  else begin
    let zeros = List.init k (fun _ -> 0) in
    let stale = ref [] in
    Hashtbl.iter
      (fun user r ->
        r := take t.config.baseline (zeros @ !r);
        if all_zero !r then stale := user :: !stale)
      t.denial_hist;
    List.iter (Hashtbl.remove t.denial_hist) !stale
  end

let accums_empty t =
  Hashtbl.length t.denials_w = 0
  && Hashtbl.length t.probes_w = 0
  && Hashtbl.length t.rules_w = 0
  && t.aborts_w = 0

(* Close window [w]: run every detector over its accumulators, update
   alert state, age the baselines, clear the accumulators.  Conditions
   and resolutions are sorted before they touch the timeline so the
   transition order is a function of the event sequence alone — hash
   randomisation (OCAMLRUNPARAM=R) must not be able to reorder the
   timeline the live/offline equivalence compares. *)
let close_one t w =
  let cfg = t.config in
  let conds = ref [] in
  let cond detector subject detail =
    conds := (detector, subject, detail) :: !conds
  in
  (* denial-rate spike vs the user's own trailing baseline *)
  Hashtbl.iter
    (fun user cnt ->
      let hist =
        match Hashtbl.find_opt t.denial_hist user with
        | Some r -> !r
        | None -> []
      in
      let avg =
        match hist with
        | [] -> 0.
        | l ->
          Float.of_int (List.fold_left ( + ) 0 l)
          /. Float.of_int (List.length l)
      in
      if !cnt >= cfg.spike_min && Float.of_int !cnt > cfg.spike_factor *. avg
      then
        cond "denial_spike" user
          (Printf.sprintf "%d denials vs trailing avg %.1f" !cnt avg))
    t.denials_w;
  (* baseline update: users seen this window push their count, everyone
     else ages with a zero; all-zero histories are dropped *)
  let pushed = Hashtbl.create 16 in
  Hashtbl.iter
    (fun user cnt ->
      Hashtbl.replace pushed user ();
      match Hashtbl.find_opt t.denial_hist user with
      | Some r -> r := take cfg.baseline (!cnt :: !r)
      | None -> Hashtbl.replace t.denial_hist user (ref [ !cnt ]))
    t.denials_w;
  let stale = ref [] in
  Hashtbl.iter
    (fun user r ->
      if not (Hashtbl.mem pushed user) then begin
        r := take cfg.baseline (0 :: !r);
        if all_zero !r then stale := user :: !stale
      end)
    t.denial_hist;
  List.iter (Hashtbl.remove t.denial_hist) !stale;
  (* subtree probing: distinct denied targets under one prefix *)
  Hashtbl.iter
    (fun (user, prefix) targets ->
      let n = Hashtbl.length targets in
      if n >= cfg.probe_targets then
        cond "subtree_probe"
          (user ^ "@" ^ prefix)
          (Printf.sprintf "%d distinct denied targets under %s" n prefix))
    t.probes_w;
  (* dormant-rule activation *)
  Hashtbl.iter
    (fun rule () ->
      (match Hashtbl.find_opt t.rule_last rule with
       | Some last when w - last >= cfg.dormant_windows ->
         cond "dormant_rule" rule
           (Printf.sprintf "first decision in %d windows" (w - last))
       | _ -> ());
      Hashtbl.replace t.rule_last rule w)
    t.rules_w;
  (* abort storm *)
  if t.aborts_w >= cfg.abort_min then
    cond "abort_storm" "txn"
      (Printf.sprintf "%d aborts in one window" t.aborts_w);
  List.iter
    (fun (d, s, detail) -> condition t w d s detail)
    (List.sort compare !conds);
  (* resolution: a firing alert whose condition has been quiet for
     [resolve_after] closed windows resolves at this close *)
  let resolved = ref [] in
  Hashtbl.iter
    (fun _ a ->
      if a.al_state = Firing && w - a.al_last >= cfg.resolve_after then
        resolved := a :: !resolved)
    t.alerts_tbl;
  List.iter
    (fun a ->
      a.al_state <- Resolved;
      push_transition t
        { t_window = w; t_detector = a.al_detector; t_subject = a.al_subject;
          t_state = Resolved; t_detail = "" })
    (List.sort
       (fun a b ->
         match String.compare a.al_detector b.al_detector with
         | 0 -> String.compare a.al_subject b.al_subject
         | c -> c)
       !resolved);
  Hashtbl.reset t.denials_w;
  Hashtbl.reset t.probes_w;
  Hashtbl.reset t.rules_w;
  t.aborts_w <- 0;
  if t == default then
    Metrics.set_gauge g_firing (Float.of_int (firing_count t))

(* Close every window below [target].  Once the accumulators are empty
   and nothing is firing, the remaining empty windows cannot change any
   detector or alert — skip them in O(users), which is what makes a
   week-long gap in an audit segment cost nothing to replay. *)
let close_through t target =
  let continue = ref true in
  while !continue && t.open_w < target do
    if accums_empty t && not (any_firing t) then begin
      age_baselines t (target - t.open_w);
      t.open_w <- target
    end
    else begin
      close_one t t.open_w;
      t.open_w <- t.open_w + 1
    end;
    if t.open_w >= target then continue := false
  done

(* --- ingestion --------------------------------------------------------- *)

let advance_locked t w =
  if t.open_w = no_window then t.open_w <- w
  else if w > t.open_w then close_through t w
(* w < open_w: a late event (sink racing the window edge) folds into the
   open window — deterministic, since the fold depends only on event
   order *)

let observe_audit t (e : Audit.event) =
  Mutex.lock t.lock;
  advance_locked t (window_of t e.Audit.mono);
  (* cumulative per-user report *)
  let ut =
    match Hashtbl.find_opt t.users_tot e.Audit.user with
    | Some ut -> ut
    | None ->
      let ut = { ut_allowed = 0; ut_denied = 0 } in
      Hashtbl.replace t.users_tot e.Audit.user ut;
      ut
  in
  (match e.Audit.decision with
   | Audit.Allowed -> ut.ut_allowed <- ut.ut_allowed + 1
   | Audit.Denied ->
     ut.ut_denied <- ut.ut_denied + 1;
     (match Hashtbl.find_opt t.denials_w e.Audit.user with
      | Some r -> incr r
      | None -> Hashtbl.replace t.denials_w e.Audit.user (ref 1));
     (match ordpath_prefix ~depth:t.config.probe_depth e.Audit.target with
      | None -> ()
      | Some prefix ->
        let targets =
          match Hashtbl.find_opt t.probes_w (e.Audit.user, prefix) with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 16 in
            Hashtbl.replace t.probes_w (e.Audit.user, prefix) tbl;
            tbl
        in
        Hashtbl.replace targets e.Audit.target ();
        let pt =
          match Hashtbl.find_opt t.prefixes_tot prefix with
          | Some pt -> pt
          | None ->
            let pt =
              {
                pt_denied = 0;
                pt_targets = Hashtbl.create 16;
                pt_users = Hashtbl.create 4;
              }
            in
            Hashtbl.replace t.prefixes_tot prefix pt;
            pt
        in
        pt.pt_denied <- pt.pt_denied + 1;
        Hashtbl.replace pt.pt_targets e.Audit.target ();
        Hashtbl.replace pt.pt_users e.Audit.user ()));
  if e.Audit.rule <> "" then Hashtbl.replace t.rules_w e.Audit.rule ();
  Mutex.unlock t.lock

let observe_event t (ev : Events.event) =
  match ev.Events.kind with
  | Events.Abort _ ->
    Mutex.lock t.lock;
    advance_locked t (window_of t ev.Events.mono);
    t.aborts_w <- t.aborts_w + 1;
    Mutex.unlock t.lock
  | _ -> ()

let finalize t =
  Mutex.lock t.lock;
  if t.open_w <> no_window then
    close_through t (t.open_w + t.config.resolve_after + 1);
  Mutex.unlock t.lock

let replay ?config events =
  let t = create ?config () in
  List.iter (observe_audit t) events;
  t

(* --- live wiring -------------------------------------------------------- *)

let tap_name = "anomaly"

let install ?(t = default) () =
  Audit.set_tap Audit.default ~name:tap_name
    (Some (fun e -> observe_audit t e));
  Events.set_tap ~name:tap_name (Some (fun e -> observe_event t e))

let uninstall () =
  Audit.set_tap Audit.default ~name:tap_name None;
  Events.set_tap ~name:tap_name None

(* --- reading ------------------------------------------------------------ *)

let view_of_alert a =
  {
    detector = a.al_detector;
    subject = a.al_subject;
    a_state = a.al_state;
    first_window = a.al_first;
    last_window = a.al_last;
    episodes = a.al_episodes;
    detail = a.al_detail;
  }

let alerts t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun _ a acc -> view_of_alert a :: acc) t.alerts_tbl [] in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match String.compare a.detector b.detector with
      | 0 -> String.compare a.subject b.subject
      | c -> c)
    l

let transitions t = Ring.to_list t.trans

let open_window t =
  Mutex.lock t.lock;
  let w = t.open_w in
  Mutex.unlock t.lock;
  if w = no_window then None else Some w

type user_row = { ur_user : string; ur_allowed : int; ur_denied : int }

type subtree_row = {
  sr_prefix : string;
  sr_denied : int;
  sr_targets : int;
  sr_users : string list;
}

type report = { users : user_row list; subtrees : subtree_row list }

let report t =
  Mutex.lock t.lock;
  let users =
    Hashtbl.fold
      (fun user ut acc ->
        { ur_user = user; ur_allowed = ut.ut_allowed; ur_denied = ut.ut_denied }
        :: acc)
      t.users_tot []
  in
  let subtrees =
    Hashtbl.fold
      (fun prefix pt acc ->
        {
          sr_prefix = prefix;
          sr_denied = pt.pt_denied;
          sr_targets = Hashtbl.length pt.pt_targets;
          sr_users =
            List.sort String.compare
              (Hashtbl.fold (fun u () l -> u :: l) pt.pt_users []);
        }
        :: acc)
      t.prefixes_tot []
  in
  Mutex.unlock t.lock;
  {
    users =
      List.sort
        (fun a b ->
          match compare b.ur_denied a.ur_denied with
          | 0 -> String.compare a.ur_user b.ur_user
          | c -> c)
        users;
    subtrees =
      List.sort
        (fun a b ->
          match compare b.sr_denied a.sr_denied with
          | 0 -> String.compare a.sr_prefix b.sr_prefix
          | c -> c)
        subtrees;
  }

(* --- rendering ----------------------------------------------------------- *)

let alert_json a =
  Printf.sprintf
    "{\"detector\":%s,\"subject\":%s,\"state\":%s,\"first_window\":%d,\
     \"last_window\":%d,\"episodes\":%d,\"detail\":%s}"
    (Metrics.json_string a.detector)
    (Metrics.json_string a.subject)
    (Metrics.json_string (state_to_string a.a_state))
    a.first_window a.last_window a.episodes
    (Metrics.json_string a.detail)

let transition_json tr =
  Printf.sprintf
    "{\"window\":%d,\"detector\":%s,\"subject\":%s,\"state\":%s,\"detail\":%s}"
    tr.t_window
    (Metrics.json_string tr.t_detector)
    (Metrics.json_string tr.t_subject)
    (Metrics.json_string (state_to_string tr.t_state))
    (Metrics.json_string tr.t_detail)

let config_json c =
  Printf.sprintf
    "{\"window\":%g,\"baseline\":%d,\"spike_factor\":%g,\"spike_min\":%d,\
     \"probe_targets\":%d,\"probe_depth\":%d,\"dormant_windows\":%d,\
     \"abort_min\":%d,\"resolve_after\":%d}"
    c.window c.baseline c.spike_factor c.spike_min c.probe_targets
    c.probe_depth c.dormant_windows c.abort_min c.resolve_after

let report_json r =
  let user_row u =
    Printf.sprintf "{\"user\":%s,\"allowed\":%d,\"denied\":%d}"
      (Metrics.json_string u.ur_user)
      u.ur_allowed u.ur_denied
  in
  let subtree_row s =
    Printf.sprintf
      "{\"prefix\":%s,\"denied\":%d,\"distinct_targets\":%d,\"users\":[%s]}"
      (Metrics.json_string s.sr_prefix)
      s.sr_denied s.sr_targets
      (String.concat "," (List.map Metrics.json_string s.sr_users))
  in
  Printf.sprintf "{\"users\":[%s],\"subtrees\":[%s]}"
    (String.concat "," (List.map user_row r.users))
    (String.concat "," (List.map subtree_row r.subtrees))

let to_json t =
  let open_w =
    match open_window t with None -> "null" | Some w -> string_of_int w
  in
  Printf.sprintf
    "{\"config\":%s,\"open_window\":%s,\"alerts\":[%s],\"transitions\":[%s],\
     \"report\":%s}"
    (config_json t.config) open_w
    (String.concat "," (List.map alert_json (alerts t)))
    (String.concat "," (List.map transition_json (transitions t)))
    (report_json (report t))

let summary t =
  let b = Buffer.create 1024 in
  let al = alerts t in
  Buffer.add_string b "-- alerts --\n";
  if al = [] then Buffer.add_string b "(none)\n"
  else
    List.iter
      (fun a ->
        Buffer.add_string b
          (Printf.sprintf "%-9s %-14s %-30s windows %d..%d x%d %s\n"
             (state_to_string a.a_state)
             a.detector a.subject a.first_window a.last_window a.episodes
             a.detail))
      al;
  Buffer.add_string b "-- timeline --\n";
  List.iter
    (fun tr ->
      Buffer.add_string b
        (Printf.sprintf "window %-10d %-9s %-14s %s %s\n" tr.t_window
           (state_to_string tr.t_state)
           tr.t_detector tr.t_subject tr.t_detail))
    (transitions t);
  let r = report t in
  Buffer.add_string b "-- users --\n";
  List.iter
    (fun u ->
      Buffer.add_string b
        (Printf.sprintf "%-12s allowed %-6d denied %d\n" u.ur_user u.ur_allowed
           u.ur_denied))
    r.users;
  Buffer.add_string b "-- denied subtrees --\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%-12s denied %-6d distinct targets %-6d users %s\n"
           s.sr_prefix s.sr_denied s.sr_targets
           (String.concat "," s.sr_users)))
    r.subtrees;
  Buffer.contents b
