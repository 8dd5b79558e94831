module D = Xmldoc.Document
module Op = Xupdate.Op

type denial = {
  target : Ordpath.t;
  node : Ordpath.t;
  privilege : Privilege.t;
  reason : string;
}

type report = {
  op : Op.t;
  targets : Ordpath.t list;
  relabelled : Ordpath.t list;
  removed : Ordpath.t list;
  inserted : Ordpath.t list;
  denied : denial list;
  skipped : (Ordpath.t * string) list;
  delta : Delta.t;
}

type state = {
  doc : D.t;
  relabelled : Ordpath.t list;
  removed : Ordpath.t list;
  inserted : Ordpath.t list;
  denied : denial list;
  skipped : (Ordpath.t * string) list;
}

let m_ops =
  Obs.Metrics.counter Obs.Metrics.default "secure_update_ops_total"
    ~help:"Secure XUpdate operations applied (axioms 18-25)"

let m_denials =
  Obs.Metrics.counter Obs.Metrics.default "secure_update_denials_total"
    ~help:"Per-node privilege denials during secure updates"

let m_skips =
  Obs.Metrics.counter Obs.Metrics.default "secure_update_skips_total"
    ~help:"Targets skipped (downgraded) during secure updates"

let h_apply =
  Obs.Metrics.histogram Obs.Metrics.default "secure_update_seconds"
    ~help:"Secure update latency incl. incremental permission maintenance"

let f_decisions =
  Obs.Metrics.family Obs.Metrics.default "decisions_total"
    ~labels:[ "privilege"; "decision" ]
    ~help:"Per-node privilege check outcomes (axioms 18-25)"

(* The deciding rule behind a privilege check, rendered the way Explain
   reports it — what the audit trail shows next to each decision. *)
let rule_string session privilege id =
  match Perm.deciding_rule (Session.perm session) privilege id with
  | Some r -> Format.asprintf "%a" Rule.pp r
  | None -> "no applicable rule (closed world)"

(* Every privilege check of axioms 18-25 goes through here so the audit
   log sees each access decision with its deciding rule.  The event is
   handed to [emit] rather than recorded directly: a live [apply] runs it
   immediately, a staged op (see {!Txn}) queues it so an aborted
   transaction leaves the audit ring untouched.  The event strings are
   built eagerly, at decision time, so the deciding rule reflects the
   permissions the check actually consulted. *)
let audited_holds ~emit session ~action privilege id =
  let ok = Session.holds session privilege id in
  (* The labelled cell is resolved at decision time but incremented
     through [emit], like the audit event: an aborted transaction must
     not move decisions_total either. *)
  let cell =
    Obs.Metrics.labels f_decisions
      [ Privilege.to_string privilege; (if ok then "allow" else "deny") ]
  in
  emit (fun () -> Obs.Metrics.inc cell);
  if Obs.Audit.enabled () then begin
    let user = Session.user session in
    let privilege_s = Privilege.to_string privilege in
    let target = Ordpath.to_string id in
    let rule = rule_string session privilege id in
    let decision = if ok then Obs.Audit.Allowed else Obs.Audit.Denied in
    emit (fun () ->
        Obs.Audit.record Obs.Audit.default ~user ~action
          ~privilege:privilege_s ~target ~rule decision)
  end;
  ok

let deny st ~target ~node privilege reason =
  { st with denied = { target; node; privilege; reason } :: st.denied }

let skip ~emit ?session ?(action = "") st target reason =
  (match session with
   | Some session when Obs.Audit.enabled () ->
     let user = Session.user session in
     let target_s = Ordpath.to_string target in
     emit (fun () ->
         Obs.Audit.record Obs.Audit.default ~user ~action ~target:target_s
           ~detail:("skipped: " ^ reason) Obs.Audit.Denied)
   | _ -> ());
  { st with skipped = (target, reason) :: st.skipped }

let can_hold_children doc id =
  match D.kind doc id with
  | Some (Xmldoc.Node.Element | Xmldoc.Node.Document) -> true
  | _ -> false

(* Rename a single node: requires update, and the view label must be the
   original one (read privilege) — a RESTRICTED node cannot be renamed. *)
let rename_node ~emit session st ~action ~target id new_label =
  if not (audited_holds ~emit session ~action Privilege.Update id) then
    deny st ~target ~node:id Privilege.Update "update privilege required"
  else if not (audited_holds ~emit session ~action Privilege.Read id) then
    deny st ~target ~node:id Privilege.Read
      "the node is shown RESTRICTED and cannot be relabelled"
  else
    match D.kind st.doc id with
    | Some Xmldoc.Node.Document | None ->
      skip ~emit ~session ~action st target
        "the document node cannot be relabelled"
    | Some _ ->
      {
        st with
        doc = D.relabel st.doc id new_label;
        relabelled = id :: st.relabelled;
      }

(* The fresh numbers come from the source database (axioms 22-24 use
   create_number on db), so they never collide with invisible siblings.
   Dynamic content (value-of) is instantiated against the session's VIEW
   with the target as context: computed content can only embed data the
   user is permitted to see. *)
let instantiate_on_view ~view session ~target content =
  Xupdate.Content.instantiate
    ~vars:(Session.user_vars session)
    view ~context:target content

let insert_tree ~emit ~view session st ~action ~target content where =
  let source_doc = st.doc in
  match where with
  | `Append ->
    if not (audited_holds ~emit session ~action Privilege.Insert target) then
      deny st ~target ~node:target Privilege.Insert
        "insert privilege required on the addressed node"
    else if not (can_hold_children source_doc target) then
      skip ~emit ~session ~action st target "only element nodes accept children"
    else
      let tree = instantiate_on_view ~view session ~target content in
      let doc, id = D.append_tree source_doc ~parent:target tree in
      { st with doc; inserted = id :: st.inserted }
  | `Before | `After ->
    let before = where = `Before in
    (match Ordpath.parent target with
     | None ->
       skip ~emit ~session ~action st target
         "the document node has no siblings"
     | Some parent ->
       if not (audited_holds ~emit session ~action Privilege.Insert parent) then
         deny st ~target ~node:parent Privilege.Insert
           "insert privilege required on the parent of the addressed node"
       else
         let siblings =
           List.map (fun (n : Xmldoc.Node.t) -> n.id)
             (D.children source_doc parent)
         in
         let rec bounds prev = function
           | [] -> None
           | s :: rest when Ordpath.equal s target ->
             if before then Some (prev, Some s)
             else
               Some
                 (Some s, (match rest with [] -> None | next :: _ -> Some next))
           | s :: rest -> bounds (Some s) rest
         in
         (match bounds None siblings with
          | None ->
            skip ~emit ~session ~action st target "target no longer present"
          | Some (left, right) ->
            let tree = instantiate_on_view ~view session ~target content in
            let doc, id = D.add_subtree source_doc ~parent ~left ~right tree in
            { st with doc; inserted = id :: st.inserted }))

(* The shared op-application core: selects targets on the view, folds the
   per-axiom logic over them and builds the report — with {e no} registry
   side effects.  Audit events flow through [emit]; the counters are the
   caller's business ([apply] records them immediately,
   {!record_committed} at a transaction's commit point).  [view] is the
   session's view as a virtual source: every read of the op — target
   selection, value-of content, an update's view-children — goes through
   it, and none touches the source database. *)
let run ~emit ~view session op =
  let action = Op.name op in
  Obs.Trace.annotate "op" action;
  Obs.Trace.annotate "user" (Session.user session);
  let targets =
    (* Target selection happens on the view (axioms 18-25). *)
    Obs.Trace.with_span "xpath.eval_targets" (fun () ->
        Xpath.Eval.select
          (Xpath.Eval.env_of_source ~vars:(Session.user_vars session) view)
          (Op.path op))
  in
  let st =
    {
      doc = Session.source session;
      relabelled = [];
      removed = [];
      inserted = [];
      denied = [];
      skipped = [];
    }
  in
  let st =
    Obs.Trace.with_span "xupdate.apply" @@ fun () ->
    match op with
    | Op.Rename { new_label; _ } ->
      List.fold_left
        (fun st target ->
          rename_node ~emit session st ~action ~target target new_label)
        st targets
    | Op.Update { new_label; _ } ->
      (* Axioms 20-21: relabel the view-children of each addressed node;
         each child needs both update and read. *)
      List.fold_left
        (fun st target ->
          match view.Xpath.Source.children target with
          | [] ->
            skip ~emit ~session ~action st target
              "the addressed node has no visible children"
          | kids ->
            List.fold_left
              (fun st (kid : Xmldoc.Node.t) ->
                rename_node ~emit session st ~action ~target kid.id new_label)
              st kids)
        st targets
    | Op.Append { content; _ } ->
      List.fold_left
        (fun st target ->
          insert_tree ~emit ~view session st ~action ~target content `Append)
        st targets
    | Op.Insert_before { content; _ } ->
      List.fold_left
        (fun st target ->
          insert_tree ~emit ~view session st ~action ~target content `Before)
        st targets
    | Op.Insert_after { content; _ } ->
      List.fold_left
        (fun st target ->
          insert_tree ~emit ~view session st ~action ~target content `After)
        st targets
    | Op.Remove _ ->
      List.fold_left
        (fun st target ->
          if not (D.mem st.doc target) then
            (* Inside a subtree removed by an earlier target. *)
            st
          else if Ordpath.equal target Ordpath.document then
            skip ~emit ~session ~action st target
              "the document node cannot be removed"
          else if
            not (audited_holds ~emit session ~action Privilege.Delete target)
          then
            deny st ~target ~node:target Privilege.Delete
              "delete privilege required on the addressed node"
          else
            {
              st with
              doc = D.remove_subtree st.doc target;
              removed = target :: st.removed;
            })
        st targets
  in
  let delta = Delta.of_roots (st.relabelled @ st.removed @ st.inserted) in
  let report =
    {
      op;
      targets;
      relabelled = List.rev st.relabelled;
      removed = List.rev st.removed;
      inserted = List.rev st.inserted;
      denied = List.rev st.denied;
      skipped = List.rev st.skipped;
      delta;
    }
  in
  if Obs.Audit.enabled () then begin
    let user = Session.user session in
    let target = Xpath.Ast.to_string (Op.path op) in
    let detail =
      Printf.sprintf
        "%d target(s): %d relabelled, %d removed, %d inserted, %d denied, \
         %d skipped"
        (List.length report.targets)
        (List.length report.relabelled)
        (List.length report.removed)
        (List.length report.inserted)
        (List.length report.denied)
        (List.length report.skipped)
    in
    let decision =
      if report.denied = [] then Obs.Audit.Allowed else Obs.Audit.Denied
    in
    emit (fun () ->
        Obs.Audit.record Obs.Audit.default ~user ~action ~target ~detail
          decision)
  end;
  (st.doc, report)

let record_committed reports =
  List.iter
    (fun (r : report) ->
      Obs.Metrics.inc m_ops;
      Obs.Metrics.add m_denials (List.length r.denied);
      Obs.Metrics.add m_skips (List.length r.skipped))
    reports

let apply session op =
  Obs.Metrics.time h_apply @@ fun () ->
  Obs.Trace.with_span "secure_update.apply" @@ fun () ->
  let view = View.source (Session.source session) (Session.perm session) in
  let doc, report = run ~emit:(fun event -> event ()) ~view session op in
  record_committed [ report ];
  (Session.apply_delta session doc report.delta, report)

let stage ~defer ~view session op =
  Obs.Trace.with_span "secure_update.stage" @@ fun () ->
  let doc, report = run ~emit:(fun event -> Queue.add event defer) ~view session op in
  (Session.apply_delta ~quiet:true session doc report.delta, report)

let apply_all session ops =
  let session, reports =
    List.fold_left
      (fun (session, reports) op ->
        let session, report = apply session op in
        (session, report :: reports))
      (session, []) ops
  in
  (session, List.rev reports)

let fully_applied (r : report) = r.denied = [] && r.skipped = []

let pp_report fmt r =
  let ids ids = String.concat ", " (List.map Ordpath.to_string ids) in
  Format.fprintf fmt "@[<v>%a@,targets: [%s]@,relabelled: [%s]@,removed: [%s]@,inserted: [%s]@]"
    Op.pp r.op (ids r.targets) (ids r.relabelled) (ids r.removed)
    (ids r.inserted);
  List.iter
    (fun d ->
      Format.fprintf fmt "@,denied %a on %s (target %s): %s" Privilege.pp
        d.privilege (Ordpath.to_string d.node) (Ordpath.to_string d.target)
        d.reason)
    r.denied;
  List.iter
    (fun (id, reason) ->
      Format.fprintf fmt "@,skipped %s: %s" (Ordpath.to_string id) reason)
    r.skipped
