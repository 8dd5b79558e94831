(* A bounded ring of typed events, each stamped with a per-transaction
   correlation id.  The id is allocated once per transaction (by
   Serve.commit, or by Txn.commit when running standalone) and carried
   ambiently in domain-local storage, so the stages of the pipeline —
   staging, denial, journal append, fsync, snapshot, broadcast — emit
   without threading an id argument through every signature.  Pool
   workers run on other domains and therefore pass [?txn] explicitly. *)

type kind =
  | Txn_begin of { user : string; ops : int }
  | Stage of { index : int; op : string }
  | Denial of { index : int; op : string; denied : int }
  | Validation_failure of { violations : int }
  | Journal_append of { seq : int; bytes : int }
  | Fsync of { seconds : float }
  | Snapshot of { seq : int }
  | Commit of { ops : int; denied : int }
  | Abort of { reason : string }
  | Broadcast of { sessions : int }
  | Rebase of { user : string; mode : string }
  | Replay of { seq : int }
  | Policy_stage of { index : int; op : string }
  | Policy_denial of { index : int; op : string; reason : string }
  | Rekey of { classes : int; splits : int; merges : int }
  | Custom of { name : string; detail : string }

type event = { id : int; txn : int; time : float; mono : float; kind : kind }

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let default_capacity = 4096

(* Event ids are the ring's sequence numbers, 1-based. *)
let ring : event Ring.t = Ring.create default_capacity

let txn_counter = Atomic.make 0
let next_txn () = 1 + Atomic.fetch_and_add txn_counter 1

(* 0 = no transaction in flight on this domain. *)
let current_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let current_txn () = !(Domain.DLS.get current_key)

let with_txn txn f =
  let cell = Domain.DLS.get current_key in
  let saved = !cell in
  cell := txn;
  Fun.protect ~finally:(fun () -> cell := saved) f

let set_capacity n =
  if n <= 0 then invalid_arg "Obs.Events.set_capacity";
  Ring.set_capacity ring n

let set_sink s = Ring.set_sink ring s
let set_tap ~name tap = Ring.set_tap ring ~name tap

let emit ?txn kind =
  if Atomic.get enabled_flag then begin
    let txn = match txn with Some t -> t | None -> current_txn () in
    (* Wall time is kept for display; ordering and intervals come from
       the monotonic clock, immune to NTP steps. *)
    let time = Unix.gettimeofday () and mono = Mono.now () in
    ignore (Ring.push ring (fun seq -> { id = seq + 1; txn; time; mono; kind }));
    if Timeseries.enabled () then
      match kind with
      | Commit _ -> Timeseries.bump Timeseries.default ~now:mono "txn_commit"
      | Abort _ -> Timeseries.bump Timeseries.default ~now:mono "txn_abort"
      | _ -> ()
  end

let events () = Ring.to_list ring
let by_txn txn = List.filter (fun e -> e.txn = txn) (events ())
let length () = Ring.length ring
let dropped () = Ring.dropped ring
let clear () = Ring.clear ring

let kind_name = function
  | Txn_begin _ -> "txn_begin"
  | Stage _ -> "stage"
  | Denial _ -> "denial"
  | Validation_failure _ -> "validation_failure"
  | Journal_append _ -> "journal_append"
  | Fsync _ -> "fsync"
  | Snapshot _ -> "snapshot"
  | Commit _ -> "commit"
  | Abort _ -> "abort"
  | Broadcast _ -> "broadcast"
  | Rebase _ -> "rebase"
  | Replay _ -> "replay"
  | Policy_stage _ -> "policy_stage"
  | Policy_denial _ -> "policy_denial"
  | Rekey _ -> "rekey"
  | Custom { name; _ } -> name

let kind_fields = function
  | Txn_begin { user; ops } ->
    [ ("user", Metrics.json_string user); ("ops", string_of_int ops) ]
  | Stage { index; op } ->
    [ ("index", string_of_int index); ("op", Metrics.json_string op) ]
  | Denial { index; op; denied } ->
    [ ("index", string_of_int index);
      ("op", Metrics.json_string op);
      ("denied", string_of_int denied) ]
  | Validation_failure { violations } ->
    [ ("violations", string_of_int violations) ]
  | Journal_append { seq; bytes } ->
    [ ("seq", string_of_int seq); ("bytes", string_of_int bytes) ]
  | Fsync { seconds } -> [ ("seconds", Printf.sprintf "%.9f" seconds) ]
  | Snapshot { seq } -> [ ("seq", string_of_int seq) ]
  | Commit { ops; denied } ->
    [ ("ops", string_of_int ops); ("denied", string_of_int denied) ]
  | Abort { reason } -> [ ("reason", Metrics.json_string reason) ]
  | Broadcast { sessions } -> [ ("sessions", string_of_int sessions) ]
  | Rebase { user; mode } ->
    [ ("user", Metrics.json_string user); ("mode", Metrics.json_string mode) ]
  | Replay { seq } -> [ ("seq", string_of_int seq) ]
  | Policy_stage { index; op } ->
    [ ("index", string_of_int index); ("op", Metrics.json_string op) ]
  | Policy_denial { index; op; reason } ->
    [ ("index", string_of_int index);
      ("op", Metrics.json_string op);
      ("reason", Metrics.json_string reason) ]
  | Rekey { classes; splits; merges } ->
    [ ("classes", string_of_int classes);
      ("splits", string_of_int splits);
      ("merges", string_of_int merges) ]
  | Custom { detail; _ } -> [ ("detail", Metrics.json_string detail) ]

let event_to_json e =
  let fields =
    [ ("id", string_of_int e.id);
      ("txn", string_of_int e.txn);
      ("time", Printf.sprintf "%.6f" e.time);
      ("mono", Printf.sprintf "%.9f" e.mono);
      ("kind", Metrics.json_string (kind_name e.kind)) ]
    @ kind_fields e.kind
  in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Metrics.json_string k ^ ":" ^ v) fields)
  ^ "}"

let to_jsonl ?txn () =
  let evs = match txn with None -> events () | Some t -> by_txn t in
  String.concat "" (List.map (fun e -> event_to_json e ^ "\n") evs)

let to_json ?txn () =
  let evs = match txn with None -> events () | Some t -> by_txn t in
  "[" ^ String.concat "," (List.map event_to_json evs) ^ "]"

let jsonl_sink oc e =
  output_string oc (event_to_json e);
  output_char oc '\n'
