(* xmlsecu — a command-line secure XML database in the spirit of the
   paper's Prolog prototype: load a document and a policy, log a user in,
   inspect the view, query it, run secure XUpdate operations, and ask why
   a node is (in)visible. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load_doc path = Xmldoc.Xml_parse.of_string (read_file path)

(* Structured one-line errors with distinct exit codes, so scripts (and
   the CI harness) can tell a bad XPath from a bad policy from a corrupt
   store without scraping messages.  1 stays the generic I/O code;
   cmdliner reserves 123-125. *)
let code_io = 1
let code_xml = 2
let code_policy = 3
let code_user = 4
let code_xpath = 5
let code_xupdate = 6
let code_schema = 7
let code_store = 8
let code_txn = 9

let err code category fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "xmlsecu: %s error: %s\n" category s;
      code)
    fmt

let handle_errors f =
  try f () with
  | Sys_error msg -> err code_io "io" "%s" msg
  | Xmldoc.Xml_parse.Error _ as e ->
    err code_xml "xml" "%s"
      (Option.value ~default:"XML parse error"
         (Xmldoc.Xml_parse.error_to_string e))
  | Core.Policy_lang.Error { line; message } ->
    err code_policy "policy" "line %d: %s" line message
  | Core.Session.Unknown_user u -> err code_user "session" "unknown user %s" u
  | Xpath.Parser.Error msg | Xpath.Eval.Error msg ->
    err code_xpath "xpath" "%s" msg
  | Xupdate.Xupdate_xml.Error msg -> err code_xupdate "xupdate" "%s" msg
  | Xmldoc.Schema.Parse_error msg -> err code_schema "schema" "DTD: %s" msg
  | Store.Error msg -> err code_store "store" "%s" msg
  | Store.Audit_log.Error msg -> err code_store "store" "audit journal: %s" msg
  | Core.Txn.Aborted e ->
    err code_txn "txn" "%s" (Core.Txn.error_to_string e)

(* [f session flat]: one frozen snapshot of the document serves the login
   and the commands that read on it. *)
let with_session doc_path policy_path user f =
  handle_errors (fun () ->
      let doc = load_doc doc_path in
      let policy = Core.Policy_lang.parse (read_file policy_path) in
      let flat = Xmldoc.Flat.of_document doc in
      let session = Core.Session.login ~flat policy doc ~user in
      f session flat;
      0)

(* --- common arguments --------------------------------------------------- *)

let doc_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "d"; "doc" ] ~docv:"FILE" ~doc:"XML document to protect.")

let policy_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy file (see xmlsecu check).")

let user_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "u"; "user" ] ~docv:"NAME" ~doc:"Session user (the \\$USER variable).")

(* --- view ---------------------------------------------------------------- *)

type render = Tree | Xml | Facts

let render_arg =
  Arg.(
    value
    & vflag Tree
        [
          (Tree, info [ "tree" ] ~doc:"Figure-style tree rendering (default).");
          (Xml, info [ "xml" ] ~doc:"XML serialization.");
          (Facts, info [ "facts" ] ~doc:"The paper's node(n, v) fact-set notation.");
        ])

let render_doc render doc =
  match render with
  | Tree -> print_string (Xmldoc.Xml_print.tree_view doc)
  | Xml -> print_endline (Xmldoc.Xml_print.to_string ~indent:true doc)
  | Facts -> print_endline (Xmldoc.Xml_print.facts doc)

let view_cmd =
  let run doc policy user render =
    with_session doc policy user (fun session _ ->
        render_doc render (Core.Session.view session))
  in
  Cmd.v
    (Cmd.info "view" ~doc:"Derive and print the view the user is permitted to see.")
    Term.(const run $ doc_arg $ policy_arg $ user_arg $ render_arg)

(* --- query ---------------------------------------------------------------- *)

let query_cmd =
  let query_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"XPATH" ~doc:"XPath expression, evaluated on the view.")
  in
  let source_flag =
    Arg.(
      value & flag
      & info [ "source" ]
          ~doc:"Evaluate on the source instead (security-officer mode).")
  in
  let rewrite_flag =
    Arg.(
      value & flag
      & info [ "rewrite" ]
          ~doc:
            "Evaluate through the rewrite-based read path: the query runs \
             directly on the shared source in product with the user's \
             visibility (no view materialisation); queries outside the \
             downward fragment fall back to the lazy-view evaluator. \
             Answers are identical to the default view evaluation.")
  in
  let run doc policy user q on_source rewrite =
    with_session doc policy user (fun session flat ->
        let ids =
          if on_source then Core.Session.query_source session q
          else if rewrite then begin
            (* The served read path, on the login's snapshot. *)
            let lv = Core.Lazy_view.of_session flat session in
            let plan = Core.Rewrite.plan_str q in
            Printf.eprintf "rewrite: %s path%s\n%!"
              (if Core.Rewrite.compiled plan then "compiled" else "fallback")
              (match Core.Rewrite.anchor plan flat with
               | Some a ->
                 Printf.sprintf " (anchored on %s)"
                   (String.concat ", " (Xpath.Compile.anchor_names a))
               | None when Core.Rewrite.compiled plan -> " (scan)"
               | None -> "");
            Core.Rewrite.select
              ~vars:(Core.Session.user_vars session)
              plan lv
          end
          else Core.Session.query session q
        in
        let d =
          if on_source then Core.Session.source session
          else Core.Session.view session
        in
        List.iter
          (fun id ->
            Printf.printf "%-12s %s\n" (Ordpath.to_string id)
              (Xmldoc.Xml_print.subtree_to_string d id))
          ids;
        Printf.printf "%d node(s)\n" (List.length ids))
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath query on the user's view.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ query_arg $ source_flag
      $ rewrite_flag)

(* --- update ---------------------------------------------------------------- *)

let persist_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "persist" ] ~docv:"DIR"
        ~doc:"Durable store directory (write-ahead journal + snapshots).  A \
              fresh directory is initialised from --doc; an existing one is \
              recovered first, and --doc is only used as the initial state.")

let snapshot_every_arg =
  Arg.(
    value & opt int 0
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"With --persist: also write a snapshot automatically every N \
              committed transactions (0 = never).")

let fsync_flag =
  Arg.(
    value & flag
    & info [ "fsync" ]
        ~doc:"With --persist: fsync(2) the journal after every transaction.")

(* Open (or initialise) a durable store and return it with the state the
   server must start from: a fresh directory adopts the --doc document
   and the --policy file; an existing one is recovered through the
   secure replay — document AND policy, since journals may carry policy
   ops — and --doc / --policy only seed the replay. *)
let open_store ~policy ~doc_path ~fsync ~snapshot_every dir =
  let store = Store.open_dir ~fsync ~snapshot_every dir in
  if Store.is_fresh store then begin
    let doc = load_doc doc_path in
    Store.init store doc;
    (store, doc, policy)
  end
  else begin
    let r = Core.Txn.recover policy dir in
    (store, r.Core.Txn.doc, r.Core.Txn.policy)
  end

let write_output output xml =
  match output with
  | None -> print_endline xml
  | Some path ->
    let oc = open_out path in
    output_string oc xml;
    close_out oc;
    Printf.printf "wrote %s\n" path

(* --- live monitoring ------------------------------------------------------ *)

let monitor_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "monitor-port" ] ~docv:"PORT"
        ~doc:"Serve /metrics, /healthz, /tracez, /auditz and /eventz on \
              this loopback port while the command runs (0 picks an \
              ephemeral port; the chosen one is printed to stderr).")

(* Health probes for /healthz: journal directory writability, snapshot
   lag against --snapshot-every, and pool responsiveness (an actual
   no-op batch, not just a size report). *)
let monitor_probes ~store ~pool () =
  let store_probes =
    match store with
    | None -> []
    | Some store ->
      let every = Store.snapshot_every store in
      let lag = Store.snapshot_lag store in
      let ok = every = 0 || lag < 2 * every in
      let age =
        match Store.seconds_since_snapshot () with
        | Some s -> Printf.sprintf "%.1fs since last snapshot" s
        | None -> "no snapshot this run"
      in
      [
        Monitor.writable_dir_probe (Store.dir store);
        Monitor.probe ~name:"snapshot_age" ~ok
          ~detail:
            (if every = 0 then "automatic snapshots off"
             else Printf.sprintf "lag %d txn(s) of every %d; %s" lag every age);
      ]
  in
  let pool_probes =
    match pool with
    | None -> []
    | Some pool -> (
      match Core.Pool.run pool [ (fun _ -> ()) ] with
      | () ->
        [
          Monitor.probe ~name:"pool" ~ok:true
            ~detail:
              (Printf.sprintf "responsive (size %d)" (Core.Pool.size pool));
        ]
      | exception e ->
        [
          Monitor.probe ~name:"pool" ~ok:false
            ~detail:(Printexc.to_string e);
        ])
  in
  store_probes @ pool_probes

let with_monitor ?store ?pool monitor_port f =
  match monitor_port with
  | None -> f ()
  | Some port ->
    (* A live scrape without the event log, rule telemetry and plan log
       is half blind; monitoring opt-in turns them on (counters and
       gauges are always on), plus the windowed time-series and the
       anomaly detectors behind /timeseriez and /alertz. *)
    Obs.Events.set_enabled true;
    Obs.Rulestats.set_enabled true;
    Obs.Planlog.set_enabled true;
    Obs.Timeseries.set_enabled true;
    Obs.Anomaly.install ();
    let m =
      Monitor.start ~port ~probes:(fun () -> monitor_probes ~store ~pool ()) ()
    in
    Printf.eprintf "xmlsecu: monitoring on http://127.0.0.1:%d\n%!"
      (Monitor.port m);
    Fun.protect
      ~finally:(fun () ->
        Monitor.stop m;
        Obs.Anomaly.uninstall ())
      f

(* --- durable audit journal ------------------------------------------------ *)

let audit_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-dir" ] ~docv:"DIR"
        ~doc:"Persist every audit event to a durable, size-rotated audit \
              journal in this directory (framed records, crash-recoverable \
              longest-valid-prefix reads; see xmlsecu audit-read).  Implies \
              audit recording.")

let audit_max_bytes_arg =
  Arg.(
    value
    & opt int Store.Audit_log.default_max_bytes
    & info [ "audit-max-bytes" ] ~docv:"BYTES"
        ~doc:"With --audit-dir: rotate to a fresh segment once the current \
              one would exceed this size.")

(* Enables audit recording and streams every event through the durable
   sink for the duration of [f]; the sink is detached before the journal
   closes so a late event from another thread cannot hit a closed fd. *)
let with_audit_journal ?(fsync = false) ~max_bytes audit_dir f =
  match audit_dir with
  | None -> f ()
  | Some dir ->
    let log = Store.Audit_log.open_dir ~fsync ~max_bytes dir in
    Obs.Audit.set_sink Obs.Audit.default (Some (Store.Audit_log.sink log));
    Obs.Audit.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.Audit.set_sink Obs.Audit.default None;
        Store.Audit_log.close log)
      f

let update_cmd =
  let xupdate_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"XUPDATE"
          ~doc:"An <xupdate:modifications> document to apply.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the updated database here (default: stdout).")
  in
  let atomic_flag =
    Arg.(
      value & flag
      & info [ "atomic" ]
          ~doc:"All-or-nothing: any denied target aborts and rolls back the \
                whole batch (default: the paper's §4.4.2 per-target tolerant \
                semantics).")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Commit the batch N times, as N transactions (a write storm; \
                per-op reports are only printed when N = 1).")
  in
  let run doc policy_path user xupdate_file output atomic repeat persist
      snapshot_every fsync monitor_port audit_dir audit_max_bytes =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy_path) in
        let ops = Xupdate.Xupdate_xml.ops_of_string (read_file xupdate_file) in
        let on_denial = if atomic then `Abort else `Tolerate in
        let store, source, policy =
          match persist with
          | None -> (None, load_doc doc, policy)
          | Some dir ->
            let store, source, policy =
              open_store ~policy ~doc_path:doc ~fsync ~snapshot_every dir
            in
            (Some store, source, policy)
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Store.close store)
          (fun () ->
            let serve = Core.Serve.create ?persist:store policy source in
            with_monitor ?store ~pool:(Core.Serve.pool serve) monitor_port
            @@ fun () ->
            with_audit_journal ~fsync ~max_bytes:audit_max_bytes audit_dir
            @@ fun () ->
            (* Login after the telemetry switches are on, so the
               login-time conflict resolution is itself counted. *)
            Core.Serve.login serve ~user;
            let code = ref 0 in
            (try
               for _ = 1 to repeat do
                 match Core.Serve.commit ~on_denial serve ~user ops with
                 | Ok { Core.Serve.reports; _ } ->
                   if repeat = 1 then
                     List.iter
                       (fun r ->
                         Format.printf "%a@.@." Core.Secure_update.pp_report r)
                       reports
                 | Error e ->
                   Printf.eprintf "xmlsecu: txn error: %s\n"
                     (Core.Txn.error_to_string e);
                   code := code_txn;
                   raise Exit
               done
             with Exit -> ());
            if !code = 0 then
              write_output output
                (Xmldoc.Xml_print.to_string ~indent:true
                   (Core.Serve.source serve));
            !code))
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:"Apply XUpdate operations through the transactional secure write \
             path, optionally journalled to a durable store.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ xupdate_arg $ output_arg
      $ atomic_flag $ repeat_arg $ persist_arg $ snapshot_every_arg
      $ fsync_flag $ monitor_port_arg $ audit_dir_arg $ audit_max_bytes_arg)

(* --- snapshot / recover ----------------------------------------------------- *)

let store_dir_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"DIR" ~doc:"Durable store directory (see update --persist).")

let snapshot_cmd =
  let run policy_path dir =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy_path) in
        let r = Core.Txn.recover policy dir in
        let store = Store.open_dir dir in
        Fun.protect
          ~finally:(fun () -> Store.close store)
          (fun () -> Store.snapshot store r.Core.Txn.doc);
        Printf.printf "snapshot written at seq %d (%d txn(s) replayed)\n"
          r.Core.Txn.seq r.Core.Txn.replayed;
        0)
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Recover the store's current state and write a snapshot, so the \
             next recovery replays only the journal tail.")
    Term.(const run $ policy_arg $ store_dir_arg)

let recover_cmd =
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the recovered database here (default: stdout).")
  in
  let policy_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy-out" ] ~docv:"FILE"
          ~doc:"Write the recovered policy (the --policy file with every \
                journalled policy op replayed in commit order) here, in \
                the textual policy language.")
  in
  let run policy_path dir render output policy_out =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy_path) in
        let r = Core.Txn.recover policy dir in
        Printf.printf
          "recovered seq %d (snapshot %d, %d txn(s) replayed, %d torn byte(s) \
           dropped, %d rule(s) in force)\n"
          r.Core.Txn.seq r.Core.Txn.snapshot_seq r.Core.Txn.replayed
          r.Core.Txn.torn_bytes
          (List.length (Core.Policy.rules r.Core.Txn.policy));
        (match policy_out with
         | None -> ()
         | Some path ->
           let oc = open_out path in
           output_string oc (Core.Policy_lang.to_string r.Core.Txn.policy);
           close_out oc;
           Printf.printf "wrote %s\n" path);
        (match output with
         | None -> render_doc render r.Core.Txn.doc
         | Some _ ->
           write_output output
             (Xmldoc.Xml_print.to_string ~indent:true r.Core.Txn.doc));
        0)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild the database from a durable store: latest valid \
             snapshot plus secure replay of the journal tail (a torn final \
             record is dropped).  Journalled policy ops are replayed too \
             (--policy-out dumps the resulting policy).  Read-only; prints \
             the recovered sequence number.")
    Term.(
      const run $ policy_arg $ store_dir_arg $ render_arg $ output_arg
      $ policy_out_arg)

(* --- policy (transactional policy administration) -------------------------- *)

let policy_cmd =
  let rule_args =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:"Issue this rule (textual policy language, e.g. \"grant read \
                on //patients to nurse\"; repeatable).  The administration \
                timestamp is allocated fresh by the server unless the rule \
                carries an explicit priority.")
  in
  let retract_args =
    Arg.(
      value & opt_all int []
      & info [ "retract" ] ~docv:"N"
          ~doc:"Retract the rule issued at timestamp N (repeatable).")
  in
  let isa_args =
    Arg.(
      value & opt_all string []
      & info [ "isa" ] ~docv:"SUB:SUPER"
          ~doc:"Add an isa edge to the subject hierarchy (repeatable).")
  in
  let remove_isa_args =
    Arg.(
      value & opt_all string []
      & info [ "remove-isa" ] ~docv:"SUB:SUPER"
          ~doc:"Remove an isa edge (repeatable; denied if absent).")
  in
  let xupdate_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "xupdate" ] ~docv:"XUPDATE"
          ~doc:"Also stage this <xupdate:modifications> document in the SAME \
                transaction, after the policy ops — a mixed batch whose \
                document ops select and check under the new rules.")
  in
  let atomic_flag =
    Arg.(
      value & flag
      & info [ "atomic" ]
          ~doc:"All-or-nothing: any denied op (policy or document) aborts \
                and rolls back the whole batch (default: tolerant — denied \
                ops are skipped and reported).")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Commit the batch N times, as N transactions (a policy-churn \
                storm): each round re-issues the --rule specs at fresh \
                timestamps and retracts the previous round's; --isa ops run \
                only in the first round.")
  in
  let policy_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy-out" ] ~docv:"FILE"
          ~doc:"Write the final policy here, in the textual policy language.")
  in
  let split_edge s =
    match String.index_opt s ':' with
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None ->
      raise
        (Core.Policy_lang.Error
           { line = 1; message = Printf.sprintf "expected SUB:SUPER, got %s" s })
  in
  let run doc policy_path user rules retracts isas remove_isas xupdate_file
      atomic repeat persist snapshot_every fsync policy_out monitor_port =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy_path) in
        let doc_ops =
          match xupdate_file with
          | None -> []
          | Some path -> Xupdate.Xupdate_xml.ops_of_string (read_file path)
        in
        let on_denial = if atomic then `Abort else `Tolerate in
        let store, source, policy =
          match persist with
          | None -> (None, load_doc doc, policy)
          | Some dir ->
            let store, source, policy =
              open_store ~policy ~doc_path:doc ~fsync ~snapshot_every dir
            in
            (Some store, source, policy)
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Store.close store)
          (fun () ->
            let serve = Core.Serve.create ?persist:store policy source in
            with_monitor ?store ~pool:(Core.Serve.pool serve) monitor_port
            @@ fun () ->
            Core.Serve.login serve ~user;
            (* One churn round: --rule specs at fresh timestamps, retracts
               of [previous] (the caller's --retract list in round 1, the
               previous round's timestamps after), isa edits only once. *)
            let round ~first ~previous =
              let issued = ref [] in
              let adds =
                List.map
                  (fun spec ->
                    let priority = Core.Serve.fresh_priority serve in
                    let r = Core.Policy_lang.parse_rule ~priority spec in
                    issued := r.Core.Rule.priority :: !issued;
                    Core.Op.Policy (Core.Op.Add_rule r))
                  rules
              in
              let retracts =
                List.map
                  (fun priority ->
                    Core.Op.Policy (Core.Op.Retract_rule { priority }))
                  previous
              in
              let edges =
                if not first then []
                else
                  List.map
                    (fun s ->
                      let sub, super = split_edge s in
                      Core.Op.Policy (Core.Op.Add_isa { sub; super }))
                    isas
                  @ List.map
                      (fun s ->
                        let sub, super = split_edge s in
                        Core.Op.Policy (Core.Op.Remove_isa { sub; super }))
                      remove_isas
              in
              ( retracts @ adds @ edges @ List.map Core.Op.doc doc_ops,
                List.rev !issued )
            in
            let code = ref 0 in
            let denials = ref 0 in
            let previous = ref retracts in
            (try
               for i = 1 to repeat do
                 let ops, issued = round ~first:(i = 1) ~previous:!previous in
                 previous := issued;
                 match Core.Serve.commit_ops ~on_denial serve ~user ops with
                 | Ok { Core.Serve.policy_denials; _ } ->
                   denials := !denials + List.length policy_denials;
                   if repeat = 1 then
                     List.iter
                       (fun (d : Core.Txn.policy_denial) ->
                         Printf.printf "denied op %d (%s): %s\n" d.index
                           (Core.Op.policy_kind d.op) d.reason)
                       policy_denials
                 | Error e ->
                   Printf.eprintf "xmlsecu: txn error: %s\n"
                     (Core.Txn.error_to_string e);
                   code := code_txn;
                   raise Exit
               done
             with Exit -> ());
            if !code = 0 then begin
              let final = Core.Serve.policy serve in
              Printf.printf
                "%d txn(s) committed, %d policy denial(s) tolerated, %d \
                 rule(s) in force, %d class(es)\n"
                repeat !denials
                (List.length (Core.Policy.rules final))
                (Core.Serve.classes serve);
              match policy_out with
              | None -> ()
              | Some path ->
                let oc = open_out path in
                output_string oc (Core.Policy_lang.to_string final);
                close_out oc;
                Printf.printf "wrote %s\n" path
            end;
            !code))
  in
  Cmd.v
    (Cmd.info "policy"
       ~doc:"Administer the policy transactionally: issue and retract rules \
             and edit the subject hierarchy as ops in the same batched, \
             journalled, broadcast write pipeline as XUpdate (mix document \
             ops in with --xupdate).  Timestamps are allocated fresh and \
             never reused; permission-equivalence classes split or merge as \
             rule applicability changes.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ rule_args $ retract_args
      $ isa_args $ remove_isa_args $ xupdate_arg $ atomic_flag $ repeat_arg
      $ persist_arg $ snapshot_every_arg $ fsync_flag $ policy_out_arg
      $ monitor_port_arg)

(* --- explain ---------------------------------------------------------------- *)

let explain_cmd =
  let node_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"XPATH"
          ~doc:"Path selecting the source nodes to explain.")
  in
  let plan_flag =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:"Explain the query instead of its nodes: serve XPATH through \
                the secure read path and print the recorded execution plan \
                — rewrite vs fallback, a scan of the snapshot vs a run \
                anchored on the label index (and its labels), automaton \
                product states, nodes visited and pruned, answer count, \
                deciding rules, permission class and latency.")
  in
  let run doc policy user path plan_mode json =
    if not plan_mode then
      with_session doc policy user (fun session _ ->
          let ids = Core.Session.query_source session path in
          if ids = [] then print_endline "no node selected"
          else
            List.iter
              (fun id -> print_string (Core.Explain.describe session id))
              ids)
    else
      handle_errors (fun () ->
          let doc = load_doc doc in
          let policy = Core.Policy_lang.parse (read_file policy) in
          Obs.Planlog.set_enabled true;
          let serve = Core.Serve.create policy doc in
          Core.Serve.login serve ~user;
          ignore (Core.Serve.query serve ~user path);
          (match List.rev (Obs.Planlog.recent ()) with
           | plan :: _ ->
             if json then print_endline (Obs.Planlog.plan_to_json plan)
             else print_string (Obs.Planlog.plan_to_string plan)
           | [] -> print_endline "no plan recorded");
          0)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Explain why nodes are visible, RESTRICTED or hidden for the \
             user — or, with --plan, how a query executed.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ node_arg $ plan_flag
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the plan as JSON."))

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let policy_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"POLICY" ~doc:"Policy file to validate.")
  in
  let run path =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file path) in
        let subjects = Core.Policy.subjects policy in
        Printf.printf "%d subjects (%d roles, %d users), %d rules\n"
          (List.length (Core.Subject.subjects subjects))
          (List.length (Core.Subject.roles subjects))
          (List.length (Core.Subject.users subjects))
          (List.length (Core.Policy.rules policy));
        List.iter
          (fun r -> Format.printf "  %a@." Core.Rule.pp r)
          (Core.Policy.rules policy);
        0)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and validate a policy file.")
    Term.(const run $ policy_pos)

(* --- compare ---------------------------------------------------------------- *)

let compare_cmd =
  let run doc policy user =
    with_session doc policy user (fun session _ ->
        let comparison = Baselines.Metrics.compare_models session in
        print_endline Baselines.Metrics.header;
        Format.printf "%a@." Baselines.Metrics.pp comparison)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare this model's view with the deny-subtree and \
             structure-preserving baselines (availability / leakage).")
    Term.(const run $ doc_arg $ policy_arg $ user_arg)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let run doc_path policy_path =
    handle_errors (fun () ->
        let doc = load_doc doc_path in
        let policy = Core.Policy_lang.parse (read_file policy_path) in
        match Core.Policy_lint.analyse policy doc with
        | [] ->
          print_endline "policy is clean";
          0
        | findings ->
          List.iter
            (fun f -> print_endline (Core.Policy_lint.to_string f))
            findings;
          Printf.printf "%d finding(s)\n" (List.length findings);
          1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Analyse a policy against a document: dead rules, grants made \
             unreachable by view pruning, idle subjects.")
    Term.(const run $ doc_arg $ policy_arg)

(* --- validate ------------------------------------------------------------- *)

let validate_cmd =
  let doc_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"XML" ~doc:"Document to validate.")
  in
  let dtd_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "dtd" ] ~docv:"FILE" ~doc:"Document type (DTD subset).")
  in
  let root_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "root" ] ~docv:"NAME" ~doc:"Expected root element name.")
  in
  let run doc_path dtd_path root =
    handle_errors (fun () ->
        let doc = load_doc doc_path in
        let schema = Xmldoc.Schema.of_string (read_file dtd_path) in
        match Xmldoc.Schema.validate ?root schema doc with
        | [] ->
          print_endline "valid";
          0
        | violations ->
          List.iter print_endline violations;
          Printf.printf "%d violation(s)\n" (List.length violations);
          1)
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate a document against a DTD subset.")
    Term.(const run $ doc_pos $ dtd_arg $ root_arg)

(* --- stylesheet ------------------------------------------------------------ *)

let stylesheet_cmd =
  let policy_arg2 =
    Arg.(
      required
      & opt (some file) None
      & info [ "p"; "policy" ] ~docv:"FILE" ~doc:"Policy file.")
  in
  let apply_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "apply" ] ~docv:"XML"
          ~doc:"Also apply the stylesheet to this document and print the result.")
  in
  let run policy user apply_to =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy) in
        print_string (Core.Xslt_enforcer.stylesheet_source policy ~user);
        (match apply_to with
         | None -> ()
         | Some path ->
           let doc = load_doc path in
           let out = Core.Xslt_enforcer.enforce policy doc ~user in
           print_endline "<!-- stylesheet applied: -->";
           print_endline (Xmldoc.Xml_print.to_string ~indent:true out));
        0)
  in
  Cmd.v
    (Cmd.info "stylesheet"
       ~doc:"Compile the policy into the XSLT security processor for a user \
             (the §5 enforcement path) and optionally apply it.")
    Term.(const run $ policy_arg2 $ user_arg $ apply_arg)

(* --- stats ---------------------------------------------------------------- *)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let stats_cmd =
  let query_args =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"XPATH"
          ~doc:"XPath queries to serve (each evaluated on the user's lazy \
                view) before reporting.")
  in
  let update_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "update" ] ~docv:"XUPDATE"
          ~doc:"Also apply this <xupdate:modifications> document through \
                the secure write path.")
  in
  let spans_flag =
    Arg.(
      value & flag
      & info [ "spans" ] ~doc:"Include the request span trees in the output.")
  in
  let pool_arg =
    Arg.(
      value & opt int 1
      & info [ "pool" ] ~docv:"N"
          ~doc:"Worker-domain pool size for broadcast fan-out and batch \
                logins (1 = sequential).")
  in
  let logins_arg =
    Arg.(
      value & opt_all string []
      & info [ "login" ] ~docv:"USER"
          ~doc:"Log this additional user in (repeatable); their sessions \
                are rebased on every update broadcast.")
  in
  let run doc policy user queries update_file json spans pool logins persist
      monitor_port =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy) in
        let store, source, policy =
          match persist with
          | None -> (None, load_doc doc, policy)
          | Some dir ->
            let store, source, policy =
              open_store ~policy ~doc_path:doc ~fsync:false ~snapshot_every:0
                dir
            in
            (Some store, source, policy)
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Store.close store)
          (fun () ->
            Obs.Trace.set_enabled true;
            let serve =
              Core.Serve.create ~pool:(Core.Pool.create pool) ?persist:store
                policy source
            in
            with_monitor ?store ~pool:(Core.Serve.pool serve) monitor_port
            @@ fun () ->
            Core.Serve.login serve ~user;
            Core.Serve.login_many serve logins;
            List.iter
              (fun q ->
                let ids = Core.Serve.query serve ~user q in
                if not json then
                  Printf.printf "query %-40s %d node(s)\n" q (List.length ids))
              queries;
            (match update_file with
             | None -> ()
             | Some path ->
               let ops = Xupdate.Xupdate_xml.ops_of_string (read_file path) in
               ignore (Core.Serve.update_all serve ~user ops));
            Obs.Trace.set_enabled false;
            if json then begin
              if spans then
                Printf.printf "{\"metrics\":%s,\"spans\":%s}\n"
                  (Obs.Metrics.to_json Obs.Metrics.default)
                  (Obs.Trace.roots_to_json ())
              else print_endline (Obs.Metrics.to_json Obs.Metrics.default)
            end
            else begin
              if spans then begin
                print_endline "-- spans --";
                List.iter
                  (fun s -> print_string (Obs.Trace.to_string s))
                  (Obs.Trace.roots ());
                print_endline "-- metrics --"
              end;
              print_string (Obs.Metrics.to_prometheus Obs.Metrics.default)
            end;
            0))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Serve queries/updates with tracing on and report the metrics \
             registry (Prometheus text or JSON) and request spans.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ query_args $ update_arg
      $ json_flag $ spans_flag $ pool_arg $ logins_arg $ persist_arg
      $ monitor_port_arg)

(* --- monitor -------------------------------------------------------------- *)

let monitor_cmd =
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Port to serve on (default 0 = ephemeral; the chosen port \
                is printed).")
  in
  let duration_arg =
    Arg.(
      value & opt float 0.
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Exit after this many seconds (0 = run until killed).")
  in
  let pool_arg =
    Arg.(
      value & opt int 1
      & info [ "pool" ] ~docv:"N"
          ~doc:"Worker-domain pool size for broadcast fan-out (1 = \
                sequential).")
  in
  let logins_arg =
    Arg.(
      value & opt_all string []
      & info [ "login" ] ~docv:"USER"
          ~doc:"Log this additional user in (repeatable).")
  in
  let run doc policy user port duration pool logins persist snapshot_every
      fsync audit_dir audit_max_bytes =
    handle_errors (fun () ->
        let policy = Core.Policy_lang.parse (read_file policy) in
        let store, source, policy =
          match persist with
          | None -> (None, load_doc doc, policy)
          | Some dir ->
            let store, source, policy =
              open_store ~policy ~doc_path:doc ~fsync ~snapshot_every dir
            in
            (Some store, source, policy)
        in
        Fun.protect
          ~finally:(fun () -> Option.iter Store.close store)
          (fun () ->
            let serve =
              Core.Serve.create ~pool:(Core.Pool.create pool) ?persist:store
                policy source
            in
            (* The monitor process is all about visibility: turn every
               observability layer on — before any login, so the
               login-time conflict resolutions are counted too. *)
            Obs.Trace.set_enabled true;
            Obs.Audit.set_enabled true;
            Obs.Events.set_enabled true;
            Obs.Rulestats.set_enabled true;
            Obs.Planlog.set_enabled true;
            Obs.Timeseries.set_enabled true;
            Obs.Anomaly.install ();
            with_audit_journal ~fsync ~max_bytes:audit_max_bytes audit_dir
            @@ fun () ->
            Core.Serve.login serve ~user;
            Core.Serve.login_many serve logins;
            let m =
              Monitor.start ~port
                ~probes:(fun () ->
                  monitor_probes ~store ~pool:(Some (Core.Serve.pool serve)) ())
                ()
            in
            Printf.printf
              "xmlsecu: serving http://127.0.0.1:%d{/metrics,/healthz,/tracez,/auditz,/eventz,/rulez,/slowz,/explainz,/alertz,/timeseriez}\n%!"
              (Monitor.port m);
            Fun.protect
              ~finally:(fun () -> Monitor.stop m)
              (fun () ->
                if duration > 0. then Unix.sleepf duration
                else
                  while true do
                    Unix.sleepf 3600.
                  done);
            0))
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Run a logged-in server and serve the live monitoring surface \
             (/metrics, /healthz, /tracez, /auditz, /eventz, /rulez, \
             /slowz, /explainz, /alertz, /timeseriez) over HTTP until \
             killed.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ port_arg $ duration_arg
      $ pool_arg $ logins_arg $ persist_arg $ snapshot_every_arg $ fsync_flag
      $ audit_dir_arg $ audit_max_bytes_arg)

(* --- trace ---------------------------------------------------------------- *)

let trace_cmd =
  let query_args =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"XPATH"
          ~doc:"XPath queries to serve (each evaluated on the user's lazy \
                view) while tracing.")
  in
  let update_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "update" ] ~docv:"XUPDATE"
          ~doc:"Also apply this <xupdate:modifications> document through \
                the secure write path while tracing.")
  in
  let chrome_flag =
    Arg.(
      value & flag
      & info [ "chrome" ]
          ~doc:"Emit Chrome trace-event JSON (load it in chrome://tracing \
                or Perfetto) instead of indented span trees.")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace here (default: stdout).")
  in
  let run doc policy user queries update_file chrome json output =
    handle_errors (fun () ->
        let doc = load_doc doc in
        let policy = Core.Policy_lang.parse (read_file policy) in
        Obs.Trace.set_enabled true;
        let serve = Core.Serve.create policy doc in
        Core.Serve.login serve ~user;
        List.iter (fun q -> ignore (Core.Serve.query serve ~user q)) queries;
        (match update_file with
         | None -> ()
         | Some path ->
           let ops = Xupdate.Xupdate_xml.ops_of_string (read_file path) in
           ignore (Core.Serve.update_all serve ~user ops));
        Obs.Trace.set_enabled false;
        let rendered =
          if chrome then Obs.Trace.to_chrome_json ()
          else if json then Obs.Trace.roots_to_json ()
          else
            String.concat ""
              (List.map Obs.Trace.to_string (Obs.Trace.roots ()))
        in
        (match output with
         | None -> print_string rendered
         | Some path ->
           let oc = open_out path in
           output_string oc rendered;
           close_out oc;
           Printf.printf "wrote %s\n" path);
        0)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Serve queries/updates with span tracing on and export the span \
             trees (text, JSON, or Chrome trace-event format).")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ query_args $ update_arg
      $ chrome_flag $ json_flag $ output_arg)

(* --- audit ---------------------------------------------------------------- *)

let audit_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Replay this repl script (see xmlsecu repl) with the audit \
                log enabled; without it only the login is audited.")
  in
  let capacity_arg =
    Arg.(
      value
      & opt int 1024
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Audit ring capacity (oldest events are dropped past it).")
  in
  let run doc policy user script capacity json =
    handle_errors (fun () ->
        let doc = load_doc doc in
        let policy = Core.Policy_lang.parse (read_file policy) in
        Obs.Audit.set_capacity Obs.Audit.default capacity;
        Obs.Audit.set_enabled true;
        let session = Core.Session.login policy doc ~user in
        (match script with
         | None -> ()
         | Some path ->
           let ic = open_in path in
           let session = Repl.run session ic ~prompt:false in
           close_in ic;
           ignore session);
        Obs.Audit.set_enabled false;
        if json then print_endline (Obs.Audit.to_json Obs.Audit.default)
        else begin
          print_endline "-- audit trail --";
          List.iter
            (fun e -> print_endline (Obs.Audit.event_to_string e))
            (Obs.Audit.events Obs.Audit.default);
          let d = Obs.Audit.dropped Obs.Audit.default in
          Printf.printf "%d event(s)%s\n"
            (Obs.Audit.length Obs.Audit.default)
            (if d > 0 then Printf.sprintf " (%d older dropped)" d else "")
        end;
        0)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Replay a scripted session with the security audit log enabled \
             and print every access decision with its deciding rule.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ script_arg $ capacity_arg
      $ json_flag)

(* --- alerts / analyze ------------------------------------------------------ *)

(* The detector knobs shared by the live (alerts) and offline (analyze)
   halves — same config record, same engine, same report. *)
let window_arg =
  Arg.(
    value
    & opt float Obs.Anomaly.default_config.Obs.Anomaly.window
    & info [ "window" ] ~docv:"SECONDS"
        ~doc:"Logical detector window: events are bucketed by \
              floor(mono / window), so the alert timeline is a pure \
              function of the event stamps.")

let probe_targets_arg =
  Arg.(
    value
    & opt int Obs.Anomaly.default_config.Obs.Anomaly.probe_targets
    & info [ "probe-targets" ] ~docv:"N"
        ~doc:"Distinct denied targets under one ordpath prefix, within \
              one window, before the subtree-probing alert fires.")

let probe_depth_arg =
  Arg.(
    value
    & opt int Obs.Anomaly.default_config.Obs.Anomaly.probe_depth
    & info [ "probe-depth" ] ~docv:"N"
        ~doc:"Ordpath components forming the probed-subtree prefix.")

let anomaly_config window probe_targets probe_depth =
  {
    Obs.Anomaly.default_config with
    Obs.Anomaly.window;
    probe_targets;
    probe_depth;
  }

let print_anomaly engine json =
  Obs.Anomaly.finalize engine;
  if json then print_endline (Obs.Anomaly.to_json engine)
  else print_string (Obs.Anomaly.summary engine)

let alerts_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Replay this repl script (see xmlsecu repl) with the \
                detectors live; without it only the login is analysed.")
  in
  let run doc policy user script window probe_targets probe_depth json
      audit_dir audit_max_bytes =
    handle_errors (fun () ->
        let doc = load_doc doc in
        let policy = Core.Policy_lang.parse (read_file policy) in
        let engine =
          Obs.Anomaly.create
            ~config:(anomaly_config window probe_targets probe_depth)
            ()
        in
        Obs.Audit.set_enabled true;
        Obs.Events.set_enabled true;
        Obs.Anomaly.install ~t:engine ();
        Fun.protect
          ~finally:(fun () -> Obs.Anomaly.uninstall ())
          (fun () ->
            with_audit_journal ~max_bytes:audit_max_bytes audit_dir
            @@ fun () ->
            let session = Core.Session.login policy doc ~user in
            match script with
            | None -> ()
            | Some path ->
              let ic = open_in path in
              let session = Repl.run session ic ~prompt:false in
              close_in ic;
              ignore session);
        Obs.Audit.set_enabled false;
        Obs.Events.set_enabled false;
        print_anomaly engine json;
        0)
  in
  Cmd.v
    (Cmd.info "alerts"
       ~doc:"Replay a scripted session with the security-anomaly \
             detectors live (denial spikes, subtree probing, dormant \
             rules, abort storms) and print the alert timeline and \
             per-user/per-subtree report.  With --audit-dir the same \
             events also land in a durable journal, so xmlsecu analyze \
             reproduces the identical timeline offline.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ script_arg $ window_arg
      $ probe_targets_arg $ probe_depth_arg $ json_flag $ audit_dir_arg
      $ audit_max_bytes_arg)

let analyze_cmd =
  let dir_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Audit journal directory (see --audit-dir).")
  in
  let run dir window probe_targets probe_depth json =
    handle_errors (fun () ->
        let scan = Store.Audit_log.scan dir in
        let engine =
          Obs.Anomaly.replay
            ~config:(anomaly_config window probe_targets probe_depth)
            scan.Store.Audit_log.events
        in
        print_anomaly engine json;
        0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Replay rotated audit-journal segments through the same \
             anomaly detectors the live monitor runs: deterministic \
             windows from the recorded monotonic stamps, so the offline \
             alert timeline matches what /alertz showed live.")
    Term.(
      const run $ dir_pos $ window_arg $ probe_targets_arg $ probe_depth_arg
      $ json_flag)

(* --- coverage ------------------------------------------------------------- *)

let coverage_cmd =
  let query_args =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"XPATH"
          ~doc:"XPath queries to serve (each evaluated on the user's lazy \
                view) before reporting.")
  in
  let update_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "update" ] ~docv:"XUPDATE"
          ~doc:"Also apply this <xupdate:modifications> document through \
                the secure write path (its delta re-resolution is counted \
                too).")
  in
  let logins_arg =
    Arg.(
      value & opt_all string []
      & info [ "login" ] ~docv:"USER"
          ~doc:"Log this additional user in (repeatable); their applicable \
                rules join the coverage report.")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero when any rule decided zero nodes (a \
                runtime-shadowed candidate) OR the static analyser found \
                a dead rule, unreachable grant or idle subject — the \
                CI-gate mode, one flag covering both analyses.")
  in
  let run doc policy user queries update_file logins strict json =
    handle_errors (fun () ->
        let doc = load_doc doc in
        let policy = Core.Policy_lang.parse (read_file policy) in
        (* Before the first login: conflict resolution at login time is
           exactly what the telemetry must observe. *)
        Obs.Rulestats.set_enabled true;
        let serve = Core.Serve.create policy doc in
        Core.Serve.login serve ~user;
        Core.Serve.login_many serve logins;
        List.iter (fun q -> ignore (Core.Serve.query serve ~user q)) queries;
        (match update_file with
         | None -> ()
         | Some path ->
           let ops = Xupdate.Xupdate_xml.ops_of_string (read_file path) in
           ignore (Core.Serve.update_all serve ~user ops));
        if json then print_endline (Obs.Rulestats.to_json ())
        else print_string (Obs.Rulestats.to_string ());
        let shadowed = Obs.Rulestats.shadowed () in
        (* The static findings sit next to the runtime-shadowed report:
           the two analyses catch different halves of the same mistake
           (a rule that cannot decide vs one that did not), and the
           --strict gate covers both through one exit path. *)
        let static =
          Core.Policy_lint.analyse (Core.Serve.policy serve)
            (Core.Serve.source serve)
        in
        if not json then begin
          List.iter
            (fun f ->
              Printf.printf "statically shadowed: %s\n"
                (Core.Policy_lint.to_string f))
            static;
          Printf.printf
            "%d rule(s), %d runtime-shadowed candidate(s), %d static \
             finding(s)\n"
            (List.length (Obs.Rulestats.reports ()))
            (List.length shadowed) (List.length static)
        end;
        if strict && (shadowed <> [] || static <> []) then 1 else 0)
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Report per-rule decision coverage: how many nodes each \
             applicable rule matched and actually decided under \
             most-recent-wins resolution, with xmlsecu lint's static \
             findings alongside.  --strict gates on both: runtime-shadowed \
             candidates and static dead rules / unreachable grants / idle \
             subjects.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ query_args $ update_arg
      $ logins_arg $ strict_flag $ json_flag)

(* --- slow ----------------------------------------------------------------- *)

let slow_cmd =
  let query_args =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"XPATH"
          ~doc:"XPath queries to serve while the plan log records.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt float (Obs.Planlog.default_threshold *. 1000.)
      & info [ "threshold-ms" ] ~docv:"MS"
          ~doc:"Slow-query latency threshold in milliseconds; plans at or \
                above it land in the slow ring.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Serve each query N times (warm caches surface the steady \
                state).")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Print every recorded plan, not just the slow ones.")
  in
  let run doc policy user queries threshold_ms repeat all json =
    handle_errors (fun () ->
        let doc = load_doc doc in
        let policy = Core.Policy_lang.parse (read_file policy) in
        Obs.Planlog.set_enabled true;
        Obs.Planlog.set_threshold (threshold_ms /. 1000.);
        let serve = Core.Serve.create policy doc in
        Core.Serve.login serve ~user;
        for _ = 1 to max 1 repeat do
          List.iter (fun q -> ignore (Core.Serve.query serve ~user q)) queries
        done;
        let plans = if all then Obs.Planlog.recent () else Obs.Planlog.slow () in
        if json then
          print_endline
            (if all then Obs.Planlog.recent_json () else Obs.Planlog.slow_json ())
        else begin
          List.iter (fun p -> print_string (Obs.Planlog.plan_to_string p)) plans;
          Printf.printf "%d of %d plan(s)%s\n" (List.length plans)
            (Obs.Planlog.seen ())
            (if all then ""
             else
               Printf.sprintf " at or above %.3fms" (Obs.Planlog.threshold () *. 1000.))
        end;
        0)
  in
  Cmd.v
    (Cmd.info "slow"
       ~doc:"Serve queries with the plan log on and print the slow-query \
             log: every plan whose latency met the threshold, with its \
             read path, traversal counters and deciding rules.")
    Term.(
      const run $ doc_arg $ policy_arg $ user_arg $ query_args $ threshold_arg
      $ repeat_arg $ all_flag $ json_flag)

(* --- audit-read ------------------------------------------------------------ *)

let audit_read_cmd =
  let dir_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Audit journal directory (see --audit-dir).")
  in
  let user_filter =
    Arg.(
      value
      & opt (some string) None
      & info [ "user" ] ~docv:"NAME" ~doc:"Only events for this user.")
  in
  let since_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "since" ] ~docv:"EPOCH"
          ~doc:"Only events recorded at or after this wall-clock time \
                (seconds since the epoch, as the time field prints).")
  in
  let until_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"EPOCH"
          ~doc:"Only events recorded at or before this wall-clock time.")
  in
  let target_prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "target-prefix" ] ~docv:"PREFIX"
          ~doc:"Only events whose target sits under this prefix.  A \
                dotted-integer prefix matches on ordpath component \
                boundaries (1.3 matches 1.3 and 1.3.5, not 1.30); \
                anything else is a plain string prefix.")
  in
  (* Ordpath prefixes respect component boundaries so 1.3 cannot match
     1.30; non-ordpath prefixes (XPath targets, query strings) fall back
     to plain string-prefix matching. *)
  let target_matches ~prefix target =
    let is_ordpath s =
      s <> ""
      && List.for_all
           (fun c ->
             c <> ""
             && String.for_all
                  (fun ch -> (ch >= '0' && ch <= '9') || ch = '-')
                  c)
           (String.split_on_char '.' s)
    in
    if is_ordpath prefix then
      String.equal target prefix
      || String.starts_with ~prefix:(prefix ^ ".") target
    else String.starts_with ~prefix target
  in
  let run dir user since until target_prefix json =
    handle_errors (fun () ->
        let scan = Store.Audit_log.scan dir in
        let keep (e : Obs.Audit.event) =
          (match user with None -> true | Some u -> String.equal e.user u)
          && (match since with None -> true | Some s -> e.time >= s)
          && (match until with None -> true | Some s -> e.time <= s)
          && (match target_prefix with
              | None -> true
              | Some p -> target_matches ~prefix:p e.target)
        in
        let scan =
          {
            scan with
            Store.Audit_log.events =
              List.filter keep scan.Store.Audit_log.events;
          }
        in
        if json then begin
          Printf.printf "{\"events\":[%s],\"files\":[%s],\"valid_bytes\":%d,\"torn_bytes\":%d}\n"
            (String.concat ","
               (List.map Obs.Audit.event_to_json scan.Store.Audit_log.events))
            (String.concat ","
               (List.map Obs.Metrics.json_string scan.Store.Audit_log.files))
            scan.Store.Audit_log.valid_bytes scan.Store.Audit_log.torn_bytes
        end
        else begin
          List.iter
            (fun e -> print_endline (Obs.Audit.event_to_string e))
            scan.Store.Audit_log.events;
          Printf.printf
            "%d event(s) from %d segment(s), %d valid byte(s), %d torn \
             byte(s) dropped\n"
            (List.length scan.Store.Audit_log.events)
            (List.length scan.Store.Audit_log.files)
            scan.Store.Audit_log.valid_bytes scan.Store.Audit_log.torn_bytes
        end;
        0)
  in
  Cmd.v
    (Cmd.info "audit-read"
       ~doc:"Read a durable audit journal back: the longest valid prefix of \
             every segment (a torn final record after a crash is dropped), \
             oldest first, optionally filtered by user, time range and \
             target prefix.")
    Term.(
      const run $ dir_pos $ user_filter $ since_arg $ until_arg
      $ target_prefix_arg $ json_flag)

(* --- repl ---------------------------------------------------------------- *)

let repl_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Read commands from this file instead of stdin (no prompt).")
  in
  let run doc policy user script =
    with_session doc policy user (fun session _ ->
        let session =
          match script with
          | None -> Repl.run session stdin ~prompt:true
          | Some path ->
            let ic = open_in path in
            let session = Repl.run session ic ~prompt:false in
            close_in ic;
            session
        in
        ignore session)
  in
  Cmd.v
    (Cmd.info "repl"
       ~doc:"Interactive session shell: view, query and update as a user.")
    Term.(const run $ doc_arg $ policy_arg $ user_arg $ script_arg)

(* --- demo ---------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    let module P = Core.Paper_example in
    print_endline "Source database (figure 2):";
    print_string (Xmldoc.Xml_print.tree_view (P.document ()));
    List.iter
      (fun (label, user) ->
        Printf.printf "\nView for %s:\n" label;
        print_string (Xmldoc.Xml_print.tree_view (Core.Session.view (P.login user))))
      [
        ("secretary beaufort", P.beaufort);
        ("patient robert", P.robert);
        ("epidemiologist richard", P.richard);
        ("doctor laporte", P.laporte);
      ];
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the paper's running example (no files needed).")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "xmlsecu" ~version:"1.0.0"
       ~doc:"A secure XML database implementing Gabillon's formal access \
             control model (VLDB SDM 2005).")
    [
      view_cmd; query_cmd; update_cmd; policy_cmd; explain_cmd; check_cmd;
      compare_cmd; stylesheet_cmd; validate_cmd; lint_cmd; repl_cmd; demo_cmd;
      stats_cmd; audit_cmd; snapshot_cmd; recover_cmd; monitor_cmd; trace_cmd;
      coverage_cmd; slow_cmd; audit_read_cmd; alerts_cmd; analyze_cmd;
    ]

let () = exit (Cmd.eval' main)
