(* The transactional write engine: a batch of operations — document
   mutations (XUpdate) and policy mutations (Core.Op) in one commit
   order — staged op-by-op on the submitting user's session (each op
   sees the effects of the previous one: a document op staged after a
   rule change selects and checks against the new policy), validated
   end-to-end, and committed atomically.  All staging happens on
   persistent values, so rollback is free: abort simply drops the
   staged session, and because staging is registry-silent
   (Secure_update.stage + quiet rebases + quiet policy rebases), the
   only observable trace of an aborted batch is the txn_aborts_total
   counter. *)

type policy_denial = { index : int; op : Op.policy_op; reason : string }

type committed = {
  session : Session.t;
  reports : Secure_update.report list;
  policy_denials : policy_denial list;
  applied : Op.t list;
  delta : Delta.t;
  policy_delta : Delta.t;
  policy : Policy.t;
  policy_changed : bool;
}

type error =
  | Denied of {
      index : int;
      op : Xupdate.Op.t;
      denials : Secure_update.denial list;
    }
  | Policy_denied of { index : int; op : Op.policy_op; reason : string }
  | Invalid of {
      reports : Secure_update.report list;
      violations : string list;
    }
  | Failed of { index : int; op : Xupdate.Op.t; exn : exn }

exception Aborted of error

let m_commits =
  Obs.Metrics.counter Obs.Metrics.default "txn_commits_total"
    ~help:"Transactions committed (all ops staged, validation passed)"

let m_aborts =
  Obs.Metrics.counter Obs.Metrics.default "txn_aborts_total"
    ~help:"Transactions rolled back (denial, validation failure or exception)"

let m_txn_ops =
  Obs.Metrics.counter Obs.Metrics.default "txn_ops_total"
    ~help:"XUpdate operations inside committed transactions"

let m_policy_denials =
  Obs.Metrics.counter Obs.Metrics.default "txn_policy_denials_total"
    ~help:"Policy operations denied inside transactions (aborting or tolerated)"

let h_commit =
  Obs.Metrics.histogram Obs.Metrics.default "txn_commit_seconds"
    ~help:"Latency of committed transactions (staging + validation + flush)"

(* Outcome family: commit / abort / tolerated_denial (a `Tolerate commit
   that downgraded at least one denied target, §4.4.2).  The abort cell
   is the one labelled instrument an aborted transaction is allowed to
   move — it is the family view of txn_aborts_total. *)
let f_outcomes =
  Obs.Metrics.family Obs.Metrics.default "txn_outcomes_total"
    ~labels:[ "outcome" ]
    ~help:"Transaction outcomes by kind"

let cell_commit = Obs.Metrics.labels f_outcomes [ "commit" ]
let cell_abort = Obs.Metrics.labels f_outcomes [ "abort" ]
let cell_tolerated = Obs.Metrics.labels f_outcomes [ "tolerated_denial" ]

let f_ops_by_kind =
  Obs.Metrics.family Obs.Metrics.default "xupdate_ops_total"
    ~labels:[ "kind" ]
    ~help:"Committed XUpdate operations by operation kind"

let f_policy_ops =
  Obs.Metrics.family Obs.Metrics.default "policy_ops_total"
    ~labels:[ "kind" ]
    ~help:"Committed policy operations by kind \
           (add_rule/retract_rule/add_isa/remove_isa)"

let merged_delta reports =
  List.fold_left
    (fun acc (r : Secure_update.report) -> Delta.union acc r.delta)
    Delta.empty reports

let pp_error fmt = function
  | Denied { index; op; denials } ->
    Format.fprintf fmt
      "op %d (%s) denied on %d node(s); transaction rolled back" index
      (Xupdate.Op.name op) (List.length denials)
  | Policy_denied { index; op; reason } ->
    Format.fprintf fmt "op %d (%s) denied, transaction rolled back: %s" index
      (Op.policy_kind op) reason
  | Invalid { violations; _ } ->
    Format.fprintf fmt "validation failed, transaction rolled back: %s"
      (String.concat "; " violations)
  | Failed { index; op; exn } ->
    Format.fprintf fmt "op %d (%s) failed, transaction rolled back: %s" index
      (Xupdate.Op.name op) (Printexc.to_string exn)

let error_to_string e = Format.asprintf "%a" pp_error e

(* Authority over policy administration (see Admin): when the caller
   threads an administration state, every staged policy op is checked
   against it — the owner may do anything, a delegate may issue rules
   within its delegated (privilege, node set) authority and retract its
   own rules, and nobody else may touch the subject hierarchy.  Without
   [?admin] the transaction trusts its caller (the historical behaviour,
   and what recovery replay uses: journaled batches hold only ops that
   passed the live check). *)
let check_authority admin doc ~issuer pop =
  match admin with
  | None -> None
  | Some adm ->
    if String.equal issuer (Admin.owner adm) then None
    else (
      match (pop : Op.policy_op) with
      | Op.Add_rule r ->
        let nodes =
          Xpath.Eval.select
            (Xpath.Eval.env ~vars:[ ("USER", Xpath.Value.Str issuer) ] doc)
            r.Rule.path
        in
        if Admin.authority adm doc ~issuer r.Rule.privilege nodes then None
        else
          Some
            (Printf.sprintf "%s has no authority to issue %s rules here"
               issuer
               (Privilege.to_string r.Rule.privilege))
      | Op.Retract_rule { priority } -> (
        match Admin.issuer_of adm ~priority with
        | Some orig when String.equal orig issuer -> None
        | _ ->
          Some (Printf.sprintf "%s may not retract rule %d" issuer priority))
      | Op.Add_isa _ | Op.Remove_isa _ ->
        Some
          (Printf.sprintf "%s may not administer the subject hierarchy" issuer))

(* One policy op against the session's current policy.  Failures come
   back as denial reasons, not exceptions: under `Tolerate they are
   recorded and skipped, under `Abort they roll the batch back. *)
let apply_policy_op policy pop =
  match (pop : Op.policy_op) with
  | Op.Add_rule r -> (
    match Policy.add_rule policy r with
    | p -> Ok p
    | exception Subject.Unknown_subject s ->
      Error (Printf.sprintf "unknown subject %s" s)
    | exception Invalid_argument m -> Error m)
  | Op.Retract_rule { priority } -> (
    match Policy.rule_with_priority policy ~priority with
    | Some _ -> Ok (Policy.revoke policy ~priority)
    | None -> Error (Printf.sprintf "no rule with timestamp %d" priority))
  | Op.Add_isa { sub; super } -> (
    match Policy.add_isa policy ~sub ~super with
    | p -> Ok p
    | exception Subject.Unknown_subject s ->
      Error (Printf.sprintf "unknown subject %s" s)
    | exception Subject.Cycle _ ->
      Error (Printf.sprintf "isa edge %s -> %s would create a cycle" sub super))
  | Op.Remove_isa { sub; super } ->
    if Subject.has_isa_edge (Policy.subjects policy) ~sub ~super then
      Ok (Policy.remove_isa policy ~sub ~super)
    else Error (Printf.sprintf "no isa edge %s -> %s" sub super)

(* The structural check, scoped to the batch's delta when it can be.
   [Invariants.check_scoped] equals the full check whenever the batch's
   input passed it, so the last document the check accepted is kept and
   recognised by physical identity: [Document.t] is persistent, so the
   same value is the same content.  A batch staged on any other document
   (the first commit after start, recovery's first replayed batch, a
   caller's hand-built store) gets the full check.  A batch that left the
   document physically unchanged — policy ops only — checks nothing. *)
let last_valid : Xmldoc.Document.t option Atomic.t = Atomic.make None

let structural_check ~input ~delta staged =
  let known_valid =
    match Atomic.get last_valid with Some d -> d == input | None -> false
  in
  let violations =
    if known_valid && staged == input then []
    else
      match (known_valid, Delta.roots delta) with
      | true, Some roots -> Xmldoc.Invariants.check_scoped staged ~roots
      | _ -> Xmldoc.Invariants.check staged
  in
  if violations = [] then Atomic.set last_valid (Some staged);
  violations

let commit_ops ?(on_denial = `Abort) ?validate ?admin ?view session ops =
  Obs.Trace.with_span "txn.commit" @@ fun () ->
  Obs.Trace.annotate "user" (Session.user session);
  Obs.Trace.annotate "ops" (string_of_int (List.length ops));
  (* Correlation id: reuse the ambient one when a caller (Serve.commit)
     already opened a transaction scope, otherwise start our own so a
     standalone commit's events still correlate. *)
  let txn =
    match Obs.Events.current_txn () with
    | 0 -> Obs.Events.next_txn ()
    | id -> id
  in
  Obs.Events.with_txn txn @@ fun () ->
  Obs.Trace.annotate "txn" (string_of_int txn);
  Obs.Events.emit
    (Obs.Events.Txn_begin
       { user = Session.user session; ops = List.length ops });
  let t0 = Obs.Mono.now () in
  let issuer = Session.user session in
  let input = Session.source session in
  let input_perm = Session.perm session in
  let input_policy = Session.policy session in
  (* The lazy view describes the staged session until an op changes its
     document or its decisions; from then on the ops read the staged
     document's view off the node map.  While only document ops of a
     downward session have run, the staged document and decisions differ
     from the lazy view's only inside the merged delta [staged], and the
     map-backed view takes its wide child lists from the lazy view's
     snapshot and oracle.  The snapshot describes the staged document
     until a document op replaces it. *)
  let view_of session ~staged =
    let doc = Session.source session and perm = Session.perm session in
    match (view, staged) with
    | Some lv, _ when doc == input && perm == input_perm -> Lazy_view.source lv
    | Some lv, Delta.Local roots
      when Session.policy session == input_policy
           && Session.policy_local session ->
      View.source ~prior:(Lazy_view.flat_visibility lv, roots) doc perm
    | Some _, (Delta.Local _ | Delta.All) | None, _ -> View.source doc perm
  in
  let flat_of session =
    match view with
    | Some lv when Session.source session == input -> Some (Lazy_view.flat lv)
    | Some _ | None -> None
  in
  let defer = Queue.create () in
  let abort err =
    Obs.Trace.annotate "outcome" "aborted";
    Obs.Metrics.inc m_aborts;
    Obs.Metrics.inc cell_abort;
    Obs.Events.emit (Obs.Events.Abort { reason = error_to_string err });
    Error err
  in
  (* Staging accumulator: reports, applied ops and policy denials are
     rev-lists in op order; [pdelta] unions the spans the writer's own
     decisions were re-resolved over (what its lazy view must widen to,
     on top of the document delta). *)
  let rec stage_all i session reports applied denials pdelta = function
    | [] ->
      Ok (session, List.rev reports, List.rev applied, List.rev denials, pdelta)
    | Op.Doc op :: rest -> (
      match
        Secure_update.stage ~defer
          ~view:(view_of session ~staged:(merged_delta reports))
          session op
      with
      | exception exn -> Error (Failed { index = i; op; exn })
      | session', report ->
        Obs.Events.emit
          (Obs.Events.Stage { index = i; op = Xupdate.Op.name op });
        if on_denial = `Abort && report.Secure_update.denied <> [] then begin
          Obs.Events.emit
            (Obs.Events.Denial
               {
                 index = i;
                 op = Xupdate.Op.name op;
                 denied = List.length report.Secure_update.denied;
               });
          Error
            (Denied { index = i; op; denials = report.Secure_update.denied })
        end
        else
          stage_all (i + 1) session' (report :: reports)
            (Op.Doc op :: applied) denials pdelta rest)
    | Op.Policy pop :: rest -> (
      let deny reason =
        Obs.Events.emit
          (Obs.Events.Policy_denial
             { index = i; op = Op.policy_kind pop; reason });
        if on_denial = `Abort then
          Error (Policy_denied { index = i; op = pop; reason })
        else begin
          Obs.Metrics.inc m_policy_denials;
          stage_all (i + 1) session reports applied
            ({ index = i; op = pop; reason } :: denials)
            pdelta rest
        end
      in
      match check_authority admin (Session.source session) ~issuer pop with
      | Some reason -> deny reason
      | None -> (
        match apply_policy_op (Session.policy session) pop with
        | Error reason -> deny reason
        | Ok policy' ->
          let session', d =
            Obs.Trace.with_span "txn.stage_policy" (fun () ->
                Session.apply_policy ~quiet:true ?flat:(flat_of session)
                  session policy')
          in
          Obs.Events.emit
            (Obs.Events.Policy_stage { index = i; op = Op.policy_kind pop });
          stage_all (i + 1) session' reports
            (Op.Policy pop :: applied)
            denials (Delta.union pdelta d) rest))
  in
  match stage_all 0 session [] [] [] Delta.empty ops with
  | Error err -> abort err
  | Ok (session', reports, applied, policy_denials, policy_delta) -> (
    let delta = merged_delta reports in
    match
      Obs.Trace.with_span "txn.validate" (fun () ->
          let staged = Session.source session' in
          match validate with
          | Some validate -> validate staged
          | None -> structural_check ~input ~delta staged)
    with
    | exception exn ->
      abort (Invalid { reports; violations = [ Printexc.to_string exn ] })
    | _ :: _ as violations ->
      Obs.Events.emit
        (Obs.Events.Validation_failure { violations = List.length violations });
      abort (Invalid { reports; violations })
    | [] ->
      (* Commit point: the staged observations become real. *)
      Queue.iter (fun event -> event ()) defer;
      Secure_update.record_committed reports;
      let policy_ops =
        List.filter_map
          (function Op.Policy p -> Some p | Op.Doc _ -> None)
          applied
      in
      Obs.Metrics.inc m_commits;
      Obs.Metrics.add m_txn_ops (List.length reports);
      let denied =
        List.fold_left
          (fun acc (r : Secure_update.report) ->
            acc + List.length r.denied)
          0 reports
        + List.length policy_denials
      in
      Obs.Metrics.inc (if denied > 0 then cell_tolerated else cell_commit);
      List.iter
        (fun (r : Secure_update.report) ->
          Obs.Metrics.inc
            (Obs.Metrics.labels f_ops_by_kind
               [ Xupdate.Op.name r.Secure_update.op ]))
        reports;
      List.iter
        (fun pop ->
          Obs.Metrics.inc
            (Obs.Metrics.labels f_policy_ops [ Op.policy_kind pop ]);
          (* A retracted rule must leave the coverage registry — see
             Obs.Rulestats.retire. *)
          match pop with
          | Op.Retract_rule { priority } ->
            if Obs.Rulestats.enabled () then Obs.Rulestats.retire ~key:priority
          | _ -> ())
        policy_ops;
      Obs.Metrics.observe h_commit (Obs.Mono.now () -. t0);
      Obs.Events.emit
        (Obs.Events.Commit { ops = List.length applied; denied });
      Obs.Trace.annotate "outcome" "committed";
      let policy = Session.policy session' in
      Ok
        {
          session = session';
          reports;
          policy_denials;
          applied;
          delta;
          policy_delta;
          policy;
          policy_changed = policy_ops <> [];
        })

let commit ?on_denial ?validate session ops =
  commit_ops ?on_denial ?validate session (Op.docs ops)

let commit_exn ?on_denial ?validate session ops =
  match commit ?on_denial ?validate session ops with
  | Ok c -> c
  | Error err -> raise (Aborted err)

(* Crash recovery: Store.recover parameterised with the secure replay.
   A journal record holds the submitting user and the ops as committed
   (document ops as submitted, policy ops as applied); re-running them
   through the same commit path over the same evolving policy is
   deterministic — ordpath allocation depends only on the document,
   target selection only on the user's view, and policy resolution only
   on the recorded timestamps — so the recovered store AND the recovered
   policy equal the pre-crash state at the last commit boundary.
   Sessions are cached across records, rebased with each commit's
   document delta and re-keyed onto each commit's policy, mirroring what
   Serve does live.  No [?admin] is threaded: the live commit already
   enforced authority, and journaled batches hold only ops that passed
   it. *)

type recovered = {
  doc : Xmldoc.Document.t;
  policy : Policy.t;
  seq : int;
  snapshot_seq : int;
  replayed : int;
  torn_bytes : int;
}

let recover policy dir =
  Obs.Trace.with_span "txn.recover" @@ fun () ->
  let sessions : (string, Session.t) Hashtbl.t = Hashtbl.create 8 in
  let current = ref policy in
  (* The last replayed document a login froze, with its snapshot: a
     policy-only batch leaves the document physically unchanged, so the
     next first-seen user's login reuses the snapshot. *)
  let frozen = ref None in
  let snapshot_of doc =
    match !frozen with
    | Some (d, fl) when d == doc -> Some fl
    | Some _ | None -> None
  in
  let replay doc ~user ~mode jops =
    let ops = List.map Op.of_journal jops in
    let session =
      match Hashtbl.find_opt sessions user with
      | Some s -> s
      | None ->
        let flat =
          match snapshot_of doc with
          | Some fl -> fl
          | None ->
            let fl = Xmldoc.Flat.of_document doc in
            frozen := Some (doc, fl);
            fl
        in
        Session.login ~flat !current doc ~user
    in
    let on_denial =
      match mode with `Atomic -> `Abort | `Tolerant -> `Tolerate
    in
    let view =
      Option.map
        (fun fl -> Lazy_view.create fl (Session.perm session))
        (snapshot_of (Session.source session))
    in
    match commit_ops ~on_denial ?view session ops with
    | Error err ->
      raise
        (Store.Error
           (Printf.sprintf "replay aborted for user %s: %s" user
              (error_to_string err)))
    | Ok c ->
      let doc' = Session.source c.session in
      current := c.policy;
      let others =
        Hashtbl.fold
          (fun u s acc -> if String.equal u user then acc else (u, s) :: acc)
          sessions []
      in
      Hashtbl.replace sessions user c.session;
      List.iter
        (fun (u, s) ->
          let s = Session.apply_delta s doc' c.delta in
          let s =
            if c.policy_changed then fst (Session.apply_policy s c.policy)
            else s
          in
          Hashtbl.replace sessions u s)
        others;
      doc'
  in
  let r = Store.recover ~replay dir in
  {
    doc = r.Store.doc;
    policy = !current;
    seq = r.Store.seq;
    snapshot_seq = r.Store.snapshot_seq;
    replayed = r.Store.replayed;
    torn_bytes = r.Store.torn_bytes;
  }
