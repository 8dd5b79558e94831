(* Differential property tests for the incremental-maintenance engine:

   (a) query filtering (Lazy_view) answers every query exactly as the
       view axioms 15-17 derive on the node map (Test_support.View_oracle)
       does;
   (b) after an XUpdate operation, the incrementally maintained state
       (Session.apply_delta / Perm.update / Lazy_view.rebase)
       is indistinguishable from a from-scratch re-derivation, and the
       rebased visibility oracle from a rebuild.

   (c) the three view sources -- the map-backed View.source that
       staging reads after a batch's first document op, the snapshot's
       Lazy_view, and the View_oracle derivation -- answer every query
       alike, and a batch's second document op selects on the staged
       document exactly what the oracle view of that document holds.

   Every case is generated from a seeded PRNG (lib/workload); a failure
   prints the minimal repro: the seed, the document facts, the policy and
   the operation.  XMLSECU_DIFFERENTIAL_SEED overrides the base seed so
   CI can sweep extra seeds without recompiling. *)

open Xmldoc
module D = Document
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed =
  match Sys.getenv_opt "XMLSECU_DIFFERENTIAL_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> 20250806)
  | None -> 20250806

let cases = 240

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Downward rule paths: sessions built from these take the genuinely
   incremental path (Delta.Local); the default Gen_policy pool also
   contains predicates, exercising the Delta.All fallback. *)
let local_rule_paths =
  [
    "//node()"; "/patients"; "/patients/node()"; "//service"; "//diagnosis";
    "//diagnosis/node()"; "//visit"; "//visit/node()"; "//date"; "//note";
    "//service/node()"; "//text()"; "/patients/*";
  ]

let target_paths =
  [
    "/patients"; "/patients/*"; "//service"; "//diagnosis"; "//visit";
    "//note"; "//date"; "//diagnosis/text()"; "//service/text()";
    "/patients/*[1]"; "/patients/*[last()]"; "//visit[@n = 1]";
  ]

let new_labels = [ "department"; "cured"; "zeta"; "checked" ]

let fragments =
  [
    Tree.element "extra" [ Tree.text "note" ];
    Tree.text "addendum";
    Tree.element "audit"
      [ Tree.attr "by" "harness"; Tree.element "stamp" [ Tree.text "t0" ] ];
  ]

let random_op rng =
  let rng, path = Prng.pick rng target_paths in
  let rng, kind = Prng.int rng 6 in
  match kind with
  | 0 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.rename path l)
  | 1 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.update path l)
  | 2 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.append path tree)
  | 3 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_before path tree)
  | 4 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_after path tree)
  | _ -> (rng, Op.remove path)

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  let config =
    {
      Workload.Gen_doc.patients = patients + 2;
      visits_per_patient = visits;
      diagnosed_fraction = 0.7;
      seed;
    }
  in
  let doc = Workload.Gen_doc.generate config in
  let rng, use_local = Prng.bool rng 0.5 in
  let rng, rules = Prng.int rng 8 in
  let policy_config =
    { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
  in
  let policy =
    if use_local then
      Workload.Gen_policy.random ~paths:local_rule_paths policy_config
    else Workload.Gen_policy.random policy_config
  in
  let rng, op = random_op rng in
  (rng, doc, policy, op)

let repro ~seed ~doc ~policy ~op what =
  Printf.sprintf
    "%s\n--- repro (seed %d) ---\nfacts: %s\npolicy:\n%s\nop: %s"
    what seed
    (Xml_print.facts doc)
    (Format.asprintf "%a" Core.Policy.pp policy)
    (Format.asprintf "%a" Op.pp op)

(* ------------------------------------------------------------------ *)
(* (a) Lazy_view.select ≡ querying the view derived on the node map    *)
(* ------------------------------------------------------------------ *)

let check_lazy_agreement ~seed ~doc ~policy ~op ~flat session =
  let lv = Core.Lazy_view.of_session flat session in
  let vars = Core.Session.user_vars session in
  let view = Test_support.View_oracle.derive doc (Core.Session.perm session) in
  List.iter
    (fun q ->
      let via_lazy =
        List.map Ordpath.to_string (Core.Lazy_view.select_str ~vars lv q)
      in
      let via_view =
        List.map Ordpath.to_string (Xpath.Eval.select_str ~vars view q)
      in
      if via_lazy <> via_view then
        failwith
          (repro ~seed ~doc ~policy ~op
             (Printf.sprintf
                "lazy view disagrees with the derived view on %s:\n  lazy [%s]\n  view [%s]"
                q
                (String.concat "; " via_lazy)
                (String.concat "; " via_view))))
    (Workload.Gen_query.random ~seed ~count:4)

(* ------------------------------------------------------------------ *)
(* (b) incremental maintenance ≡ from-scratch re-derivation            *)
(* ------------------------------------------------------------------ *)

let all_ids before after =
  let ids doc = List.map (fun (n : Node.t) -> n.id) (D.nodes doc) in
  List.sort_uniq Ordpath.compare (ids before @ ids after)

let check_incremental_update ~seed ~doc ~policy ~op ~flat session =
  (* A primed lazy view: stale oracle bytes surviving a bad patch would be
     caught below. *)
  let lv = Core.Lazy_view.of_session flat session in
  ignore (Core.Lazy_view.select_str lv "//node()");
  let session', report = Core.Secure_update.apply session op in
  let source' = Core.Session.source session' in
  let flat' = Flat.of_document source' in
  let fresh = Core.Session.refresh ~flat:flat' session source' in
  let fresh_view =
    Test_support.View_oracle.derive source' (Core.Session.perm fresh)
  in
  (* Views: derived from the incrementally maintained permissions vs
     from scratch on the node map. *)
  if not (D.equal (Core.Session.view session') fresh_view) then
    failwith
      (repro ~seed ~doc ~policy ~op
         (Printf.sprintf
            "incremental view <> fresh view\n  incremental: %s\n  fresh: %s"
            (Xml_print.facts (Core.Session.view session'))
            (Xml_print.facts fresh_view)));
  (* Permissions: every privilege on every (old or new) node. *)
  let ids = all_ids doc source' in
  List.iter
    (fun privilege ->
      List.iter
        (fun id ->
          let inc = Core.Session.holds session' privilege id in
          let scr = Core.Session.holds fresh privilege id in
          if inc <> scr then
            failwith
              (repro ~seed ~doc ~policy ~op
                 (Printf.sprintf "Perm.update disagrees on %s for %s"
                    (Ordpath.to_string id)
                    (Format.asprintf "%a" Core.Privilege.pp privilege))))
        ids)
    Core.Privilege.all;
  (* Lazy view rebased with the report's delta: labels and visibility on
     every node must match the fresh materialisation. *)
  let lazy_delta =
    if Core.Session.policy_local session' then report.Core.Secure_update.delta
    else Core.Delta.all
  in
  let lv' =
    Core.Lazy_view.rebase lv flat' (Core.Session.perm session') lazy_delta
  in
  (match Core.Lazy_view.oracle lv' with
   | Some patched
     when not
            (Bytes.equal patched
               (Core.Perm.flat_visibility (Core.Session.perm session') flat'))
     ->
     failwith
       (repro ~seed ~doc ~policy ~op "patched oracle <> rebuilt oracle")
   | Some _ | None -> ());
  List.iter
    (fun id ->
      let expect = D.label fresh_view id in
      let got = Core.Lazy_view.label lv' id in
      if got <> expect then
        failwith
          (repro ~seed ~doc ~policy ~op
             (Printf.sprintf
                "rebased lazy view disagrees at %s: lazy %s, fresh %s (delta %s)"
                (Ordpath.to_string id)
                (Option.value ~default:"-" got)
                (Option.value ~default:"-" expect)
                (Format.asprintf "%a" Core.Delta.pp
                   report.Core.Secure_update.delta))))
    ids

let run_checks ~seed ~doc ~policy ~op =
  let flat = Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user:"u" in
  check_lazy_agreement ~seed ~doc ~policy ~op ~flat session;
  check_incremental_update ~seed ~doc ~policy ~op ~flat session;
  session

(* ------------------------------------------------------------------ *)
(* (c) the view sources a write reads ≡ the oracle view                *)
(* ------------------------------------------------------------------ *)

(* Write target paths (positional, as a client that browsed to a node
   sends them), reverse axes, string() predicates and the RESTRICTED
   label, beside the generated read mix. *)
let view_queries seed =
  Workload.Gen_query.random ~seed ~count:4
  @ [ "/patients/*[3]/*[1]"; "/patients/*[1]/*[2]"; "/patients/*[2]/service";
      "/patients/*[4]/service/text()"; "/patients/*[last()]";
      "/patients/*[1]/*[last()]"; "//visit[last()]/note"; "//RESTRICTED";
      "//RESTRICTED/.."; "//visit/ancestor::*"; "//date/parent::node()";
      "//note/preceding-sibling::*"; "//diagnosis/following-sibling::*[1]";
      "//service/following::date"; "//visit/preceding::service";
      "//note/ancestor-or-self::node()"; "//service[string() = 'surgery']";
      "/patients/*[string(service) = 'cardiology']/diagnosis";
      "//*[starts-with(string(), 'f')]"; "//visit/@n"; "//node()" ]

let eval_on ~vars src q =
  match Xpath.Eval.select (Xpath.Eval.env_of_source ~vars src) (Xpath.Parser.parse_path q) with
  | ids -> Ok (List.map Ordpath.to_string ids)
  | exception Xpath.Eval.Error m -> Error m

let check_view_sources ~seed ~doc ~policy ~op ~flat session =
  let perm = Core.Session.perm session in
  let vars = Core.Session.user_vars session in
  let oracle =
    Xpath.Source.of_document (Test_support.View_oracle.derive doc perm)
  in
  let sources =
    [ ("View.source", Core.View.source doc perm);
      ("Lazy_view.source", Core.Lazy_view.source (Core.Lazy_view.create flat perm)) ]
  in
  List.iter
    (fun q ->
      let expect = eval_on ~vars oracle q in
      List.iter
        (fun (name, src) ->
          let got = eval_on ~vars src q in
          if got <> expect then
            let show = function
              | Ok ids -> "[" ^ String.concat "; " ids ^ "]"
              | Error m -> "error " ^ m
            in
            failwith
              (repro ~seed ~doc ~policy ~op
                 (Printf.sprintf "%s disagrees with the oracle view on %s:\n  %s %s\n  oracle %s"
                    q name name (show got) (show expect))))
        sources)
    (view_queries seed)

(* A two-op batch staged as Serve stages it: the first op on the lazy
   view of the published snapshot, the second on the map-backed view of
   the staged document.  Each op's targets must be what its path selects
   on the oracle view of the document it was staged on -- on the second
   op that is the staged document, which has no snapshot: the §2.2
   covert channel, for a batch's later ops. *)
let check_batch_targets ~seed ~doc ~policy ~op ~op2 ~flat session =
  let lv = Core.Lazy_view.of_session flat session in
  let vars = Core.Session.user_vars session in
  let oracle_targets s (o : Op.t) =
    Xpath.Eval.select
      (Xpath.Eval.env ~vars
         (Test_support.View_oracle.derive (Core.Session.source s)
            (Core.Session.perm s)))
      (Op.path o)
  in
  match
    Core.Txn.commit_ops ~on_denial:`Tolerate ~view:lv session
      [ Core.Op.Doc op; Core.Op.Doc op2 ]
  with
  | Error _ -> false
  | Ok { reports = [ r1; r2 ]; _ } ->
    let staged, _ = Core.Secure_update.apply session op in
    List.iter
      (fun (which, (r : Core.Secure_update.report), expect) ->
        if not (List.equal Ordpath.equal r.targets expect) then
          failwith
            (repro ~seed ~doc ~policy ~op
               (Printf.sprintf
                  "the batch's %s op (%s) selected [%s], the oracle view [%s]"
                  which
                  (Format.asprintf "%a" Op.pp r.op)
                  (String.concat "; " (List.map Ordpath.to_string r.targets))
                  (String.concat "; " (List.map Ordpath.to_string expect)))))
      [ ("first", r1, oracle_targets session op);
        ("second", r2, oracle_targets staged op2) ];
    r2.targets <> [] && not (Core.Delta.is_empty r1.delta)
  | Ok _ -> failwith "a two-op batch committed without two reports"

(* The generated policies grant u little, so most ops would select
   nothing or be denied and leave the staged document as it was.  Here u
   reads everything the generated rules do not deny (a read grant below
   every generated rule, which keep their hidden and RESTRICTED nodes)
   and may write anywhere its view lets it select. *)
let with_write_grants policy =
  List.fold_left
    (fun p privilege ->
      Core.Policy.add_rule p
        (Core.Rule.accept privilege ~path:"//node()" ~subject:"u"
           ~priority:(Core.Policy.next_priority p)))
    (Core.Policy.add_rule policy
       (Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"u"
          ~priority:0))
    Core.Privilege.[ Insert; Update; Delete ]

let run_source_checks ~seed ~doc ~policy ~op ~op2 =
  let policy = with_write_grants policy in
  let flat = Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user:"u" in
  check_view_sources ~seed ~doc ~policy ~op ~flat session;
  check_batch_targets ~seed ~doc ~policy ~op ~op2 ~flat session

let test_view_sources () =
  let staged = ref 0 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let rng, doc, policy, op = random_case seed in
    let _, op2 = random_op rng in
    match run_source_checks ~seed ~doc ~policy ~op ~op2 with
    | second_selected -> if second_selected then incr staged
    | exception e ->
      let still_fails doc policy =
        match run_source_checks ~seed ~doc ~policy ~op ~op2 with
        | _ -> false
        | exception _ -> true
      in
      let doc' =
        Test_support.Shrink.document ~fails:(fun d -> still_fails d policy) doc
      in
      let policy' = Test_support.Shrink.policy ~fails:(still_fails doc') policy in
      let msg = match e with Failure m -> m | e -> Printexc.to_string e in
      let text =
        Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy'
          ~op:(Format.asprintf "%a; %a" Op.pp op Op.pp op2)
          msg
      in
      Test_support.Shrink.save ~name:"differential-sources" ~seed text;
      Alcotest.fail text
  done;
  (* The second op must often select on a document the first op changed,
     or the staged source was hardly exercised. *)
  Alcotest.(check bool)
    (Printf.sprintf "at least 40 second ops selected on a changed document (%d)"
       !staged)
    true (!staged >= 40)

let test_differential () =
  let locals = ref 0 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let _, doc, policy, op = random_case seed in
    match run_checks ~seed ~doc ~policy ~op with
    | session -> if Core.Session.policy_local session then incr locals
    | exception e ->
      (* Shrink to a minimal failing triple before reporting: document
         subtrees first, then policy rules (the op stays as generated —
         its path usually is the point of the failure). *)
      let still_fails doc policy =
        match run_checks ~seed ~doc ~policy ~op with
        | _ -> false
        | exception _ -> true
      in
      let doc' =
        Test_support.Shrink.document
          ~fails:(fun d -> still_fails d policy)
          doc
      in
      let policy' =
        Test_support.Shrink.policy ~fails:(still_fails doc') policy
      in
      let msg = match e with Failure m -> m | e -> Printexc.to_string e in
      let text =
        Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy'
          ~op:(Format.asprintf "%a" Op.pp op)
          msg
      in
      Test_support.Shrink.save ~name:"differential" ~seed text;
      Alcotest.fail text
  done;
  (* The generator must exercise both the genuinely incremental path and
     the Delta.All fallback, or the test proves less than it claims. *)
  Alcotest.(check bool)
    (Printf.sprintf "both paths exercised (%d/%d local)" !locals cases)
    true
    (!locals > cases / 5 && !locals < 4 * cases / 5)

(* ------------------------------------------------------------------ *)
(* Invalidation boundaries (oracle patches)                            *)
(* ------------------------------------------------------------------ *)

(* A bespoke database and a fully downward policy for user [u]:
   - everything readable,
   - //b invisible (read denied, no position),
   - //e's text shown RESTRICTED (position only),
   - write privileges everywhere, so denials come from read/position. *)
let boundary_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "b" [ Tree.element "c" [ Tree.text "two" ] ];
         Tree.element "d" [ Tree.text "three" ];
         Tree.element "e" [ Tree.text "secret" ];
       ])

let boundary_policy () =
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  Core.Policy.v subjects
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"u"
        ~priority:1;
      Core.Rule.deny Core.Privilege.Read ~path:"//b" ~subject:"u" ~priority:2;
      Core.Rule.deny Core.Privilege.Read ~path:"//e/node()" ~subject:"u"
        ~priority:3;
      Core.Rule.accept Core.Privilege.Position ~path:"//e/node()" ~subject:"u"
        ~priority:4;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"u"
        ~priority:5;
      Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:"u"
        ~priority:6;
      Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:"u"
        ~priority:7;
    ]

let find_by_label doc label =
  match
    List.find_opt (fun (n : Node.t) -> String.equal n.label label) (D.nodes doc)
  with
  | Some n -> n.id
  | None -> Alcotest.failf "no node labelled %s" label

(* Prime the oracle over the whole snapshot, apply [op], rebase with the
   report's delta onto the new snapshot (the primed one when the source
   did not change, as Serve publishes it) and return (document, primed
   snapshot and oracle, rebased lazy view, new session, report). *)
let primed_update op =
  let doc = boundary_doc () in
  let policy = boundary_policy () in
  let flat = Flat.of_document doc in
  let session = Core.Session.login ~flat policy doc ~user:"u" in
  Alcotest.(check bool) "boundary policy is downward" true
    (Core.Session.policy_local session);
  let lv = Core.Lazy_view.of_session flat session in
  let _, primed = Core.Lazy_view.flat_visibility lv in
  let session', report = Core.Secure_update.apply session op in
  let source' = Core.Session.source session' in
  let flat' = if source' == doc then flat else Flat.of_document source' in
  let lv' =
    Core.Lazy_view.rebase lv flat'
      (Core.Session.perm session')
      report.Core.Secure_update.delta
  in
  (doc, (flat, primed), lv', session', report)

(* The rebase patched the primed oracle: the result equals a rebuild on
   the new snapshot, every row outside the delta kept its byte, and an
   empty delta onto the same snapshot kept the primed bytes themselves. *)
let assert_patched (flat, primed) lv session report =
  let delta = report.Core.Secure_update.delta in
  let flat' = Core.Lazy_view.flat lv in
  match Core.Lazy_view.oracle lv with
  | None -> Alcotest.fail "the rebase dropped the oracle"
  | Some patched ->
    Alcotest.(check bool) "patched oracle = rebuild" true
      (Bytes.equal patched
         (Core.Perm.flat_visibility (Core.Session.perm session) flat'));
    for i = 0 to Flat.size flat' - 1 do
      let id = Flat.id flat' i in
      if not (Core.Delta.affects delta id) then
        match Flat.find_ix flat id with
        | Some j ->
          Alcotest.(check char)
            (Printf.sprintf "byte of %s outside the delta" (Ordpath.to_string id))
            (Bytes.get primed j) (Bytes.get patched i)
        | None ->
          Alcotest.failf "%s is outside the delta but new" (Ordpath.to_string id)
    done;
    if Core.Delta.is_empty delta && flat' == flat then
      Alcotest.(check bool) "empty delta: the primed oracle kept" true
        (patched == primed)

let test_boundary_document_root () =
  let _, primed, lv, session', report = primed_update (Op.remove "/") in
  Alcotest.(check bool) "no-op delta" true
    (Core.Delta.is_empty report.Core.Secure_update.delta);
  Alcotest.(check (list (pair string string))) "skipped, not applied"
    [ ("/", "the document node cannot be removed") ]
    (List.map
       (fun (id, r) -> (Ordpath.to_string id, r))
       report.Core.Secure_update.skipped);
  assert_patched primed lv session' report

let test_boundary_invisible_target () =
  (* //b is invisible, so the path selects nothing on the view: nothing
     happens, and nothing is evicted. *)
  let doc, primed, lv, session', report = primed_update (Op.rename "//b" "leak") in
  Alcotest.(check (list string)) "no targets on the view" []
    (List.map Ordpath.to_string report.Core.Secure_update.targets);
  Alcotest.(check bool) "no-op delta" true
    (Core.Delta.is_empty report.Core.Secure_update.delta);
  Alcotest.(check (option string)) "b untouched in the source" (Some "b")
    (D.label (Core.Session.source session') (find_by_label doc "b"));
  assert_patched primed lv session' report

let test_boundary_restricted_target () =
  (* //e/node() is shown RESTRICTED (position only): rename requires read
     and is denied; the cache survives untouched. *)
  let _, primed, lv, session', report =
    primed_update (Op.rename "//e/node()" "leak")
  in
  Alcotest.(check int) "one target on the view" 1
    (List.length report.Core.Secure_update.targets);
  Alcotest.(check int) "denied" 1 (List.length report.Core.Secure_update.denied);
  Alcotest.(check bool) "no-op delta" true
    (Core.Delta.is_empty report.Core.Secure_update.delta);
  assert_patched primed lv session' report

let test_boundary_adjacent_node () =
  (* Renaming //d evicts exactly d's subtree (d and its text child); the
     siblings a, b, e and their descendants stay cached. *)
  let doc, primed, lv, session', report = primed_update (Op.rename "//d" "dd") in
  let d = find_by_label doc "d" in
  let three = find_by_label doc "three" in
  Alcotest.(check (list string)) "delta = subtree at d"
    [ Ordpath.to_string d ]
    (match Core.Delta.roots report.Core.Secure_update.delta with
     | Some roots -> List.map Ordpath.to_string roots
     | None -> [ "ALL" ]);
  (* Unaffected neighbours keep their bytes, while the affected subtree
     was recomputed. *)
  assert_patched primed lv session' report;
  Alcotest.(check bool) "renamed node visible again" true
    (Core.Lazy_view.visible lv d);
  Alcotest.(check bool) "its text visible again" true
    (Core.Lazy_view.visible lv three);
  Alcotest.(check (option string)) "and carries the new label" (Some "dd")
    (Core.Lazy_view.label lv d);
  Alcotest.(check (option string)) "view agrees" (Some "dd")
    (D.label (Core.Session.view session') d)

(* ------------------------------------------------------------------ *)
(* The multi-session Serve layer                                       *)
(* ------------------------------------------------------------------ *)

module P = Core.Paper_example

let serve_paper () =
  let serve = Core.Serve.create P.policy (P.document ()) in
  List.iter
    (fun user -> Core.Serve.login serve ~user)
    [ P.beaufort; P.laporte; P.richard; P.robert ];
  serve

(* Every served view, and every served answer, equals the view a fresh
   login's permissions derive on the node map. *)
let assert_views_fresh serve =
  let source = Core.Serve.source serve in
  List.iter
    (fun user ->
      let fresh = Core.Session.login (Core.Serve.policy serve) source ~user in
      let view =
        Test_support.View_oracle.derive source (Core.Session.perm fresh)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s's served view = fresh derived view" user)
        true
        (D.equal (Core.Serve.view serve ~user) view);
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s via lazy" user q)
            (List.map Ordpath.to_string
               (Xpath.Eval.select_str ~vars:(Core.Session.user_vars fresh)
                  view q))
            (List.map Ordpath.to_string (Core.Serve.query serve ~user q)))
        [ "//node()"; "//diagnosis/node()"; "//RESTRICTED" ])
    (Core.Serve.users serve)

let counter name =
  try List.assoc name (Obs.Metrics.counters Obs.Metrics.default)
  with Not_found -> 0

let read_all serve =
  List.iter
    (fun user -> ignore (Core.Serve.query serve ~user "//node()"))
    (Core.Serve.users serve)

let test_serve_broadcast () =
  let serve = serve_paper () in
  (* Warm every session's lazy cache. *)
  List.iter
    (fun user -> ignore (Core.Serve.query serve ~user "//node()"))
    (Core.Serve.users serve);
  (* The doctor cures franck: one text node relabelled. *)
  let report =
    Core.Serve.update serve ~user:P.laporte
      (Op.update "/patients/franck/diagnosis" "cured")
  in
  Alcotest.(check bool) "update fully applied" true
    (Core.Secure_update.fully_applied report);
  Alcotest.(check int) "one write recorded" 1 (Core.Serve.writes serve);
  Test_support.Snapshot_check.check_served "after the cure" serve;
  assert_views_fresh serve;
  (* The secretary now removes robert's record entirely. *)
  let report =
    Core.Serve.update serve ~user:P.beaufort (Op.rename "/patients/robert" "r2")
  in
  Alcotest.(check bool) "rename applied" true
    (Core.Secure_update.fully_applied report);
  Test_support.Snapshot_check.check_served "after the rename" serve;
  assert_views_fresh serve;
  (* Writes were visible across sessions. *)
  Alcotest.(check int) "doctor sees the secretary's rename" 1
    (List.length (Core.Serve.query serve ~user:P.laporte "/patients/r2"));
  Alcotest.(check int) "doctor sees his own cure" 1
    (List.length
       (Core.Serve.query serve ~user:P.laporte "//diagnosis[node() = 'cured']"))

let test_serve_denied_write_keeps_caches () =
  let serve = serve_paper () in
  read_all serve;
  let staff = [ P.beaufort; P.laporte; P.richard ] in
  let oracle user = Core.Lazy_view.oracle (Core.Serve.lazy_view serve ~user) in
  let before = List.map oracle staff in
  (* Robert may not rename his own diagnosis: denied, no delta. *)
  let report =
    Core.Serve.update serve ~user:P.robert
      (Op.rename "/patients/robert/diagnosis" "cured")
  in
  Alcotest.(check bool) "denied" true
    (report.Core.Secure_update.denied <> []);
  (* Staff classes are downward-local and the delta was empty: each
     still holds the very oracle it built.  (Patients carry a $USER rule,
     so their class drops its oracle on any commit.) *)
  List.iter2
    (fun user before ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: the same oracle after a denied write" user)
        true
        (match (before, oracle user) with
         | Some b, Some a -> a == b
         | _ -> false))
    staff before

let test_serve_random_traffic () =
  (* 8 sessions, a stream of random single-op writes from rotating
     writers; after every write each session's maintained view must equal
     a fresh derivation. *)
  let config =
    { Workload.Gen_doc.patients = 12; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 97 }
  in
  let doc = Workload.Gen_doc.generate config in
  let policy = Workload.Gen_policy.hospital config in
  let serve = Core.Serve.create policy doc in
  let users =
    Workload.Gen_policy.hospital_staff
    @ [ "franck"; "robert"; "albert"; "gaston"; "henri" ]
  in
  List.iter (fun user -> Core.Serve.login serve ~user) users;
  List.iter (fun user -> ignore (Core.Serve.query serve ~user "//node()")) users;
  let writers = [ P.laporte; P.beaufort; P.laporte; P.richard; P.laporte ] in
  let ops =
    [
      Op.update "//diagnosis[text()][1]" "cured";
      Op.insert_after "/patients/*[1]" (Tree.element "aaron" [
        Tree.element "service" [ Tree.text "surgery" ];
        Tree.element "diagnosis" [] ]);
      Op.append "//diagnosis[not(node())][1]" (Tree.text "flu");
      Op.rename "/patients/*[2]" "anonymous";
      Op.remove "//diagnosis/node()";
    ]
  in
  List.iter2
    (fun user op ->
      ignore (Core.Serve.update serve ~user op);
      Test_support.Snapshot_check.check_served "random traffic" serve;
      assert_views_fresh serve)
    writers ops

(* Every class that holds a visibility oracle across a commit gets it
   patched along the commit's delta, and the patch must equal a rebuild
   on the new snapshot (Snapshot_check.check_served compares them byte
   for byte).  Each step reads in every class first, so every class
   holds an oracle the commit has to carry: relabels, inserts, removals,
   a multi-root batch, read- and position-rule policy commits that
   re-key the classes, and a document-level rename of the root element.
   The patients carry a $USER rule with a predicate, so their class is
   not policy-local: a document commit must drop its oracle, which the
   next read rebuilds. *)
let test_serve_oracle_patches () =
  let config =
    { Workload.Gen_doc.patients = 12; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 31 }
  in
  let doc = Workload.Gen_doc.generate config in
  let subjects =
    Core.Subject.of_list
      [ (Core.Subject.Role, "staff", []);
        (Core.Subject.Role, "secretary", [ "staff" ]);
        (Core.Subject.Role, "doctor", [ "staff" ]);
        (Core.Subject.Role, "editor", []);
        (Core.Subject.Role, "patient", []);
        (Core.Subject.User, P.beaufort, [ "secretary" ]);
        (Core.Subject.User, P.laporte, [ "doctor" ]);
        (Core.Subject.User, "ed", [ "editor" ]);
        (Core.Subject.User, "franck", [ "patient" ]);
        (Core.Subject.User, "robert", [ "patient" ]) ]
  in
  let policy =
    let open Core.Privilege in
    let rule d p path subject priority =
      Core.Rule.v d p ~path ~subject ~priority
    in
    Core.Policy.v subjects
      [ rule Core.Rule.Accept Read "//node()" "staff" 1;
        rule Core.Rule.Accept Read "//@*" "staff" 2;
        rule Core.Rule.Deny Read "//diagnosis/node()" "secretary" 3;
        rule Core.Rule.Accept Position "//diagnosis/node()" "secretary" 4;
        rule Core.Rule.Accept Read "/patients" "patient" 5;
        rule Core.Rule.Accept Read
          "/patients/*[name() = $USER]/descendant-or-self::node()" "patient" 6;
        rule Core.Rule.Accept Read "//node()" "editor" 7;
        rule Core.Rule.Accept Insert "//node()" "editor" 8;
        rule Core.Rule.Accept Update "//node()" "editor" 9;
        rule Core.Rule.Accept Delete "//node()" "editor" 10 ]
  in
  let serve = Core.Serve.create policy doc in
  Core.Serve.login_many serve
    [ P.beaufort; P.laporte; "ed"; "franck"; "robert" ];
  Alcotest.(check bool) "the patients' class is not policy-local" false
    (Core.Session.policy_local (Core.Serve.session serve ~user:"robert"));
  (* Reads in every class, commits, then checks that oracles were
     patched (or not), that the [dropped] users hold none, and that every
     held oracle equals a rebuild — before and after the next reads. *)
  let step ?(dropped = []) name ops ~patched =
    read_all serve;
    let before = counter "lazy_view_oracle_patched_total" in
    (match Core.Serve.commit_ops serve ~user:"ed" ops with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "%s: %s" name (Core.Txn.error_to_string e));
    let patches = counter "lazy_view_oracle_patched_total" - before in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d oracle patch(es), %s" name patches
         (if patched then "some expected" else "none expected"))
      patched (patches > 0);
    List.iter
      (fun user ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s's oracle dropped" name user)
          true
          (Option.is_none
             (Core.Lazy_view.oracle (Core.Serve.lazy_view serve ~user))))
      dropped;
    Test_support.Snapshot_check.check_served name serve;
    assert_views_fresh serve;
    Test_support.Snapshot_check.check_served (name ^ ", after reads") serve
  in
  let docs = List.map (fun op -> Core.Op.Doc op) in
  let patients = [ "franck"; "robert" ] in
  step "relabel" ~dropped:patients
    (docs [ Op.update "//diagnosis[text()][1]" "cured" ])
    ~patched:true;
  step "insert" ~dropped:patients
    (docs
       [ Op.insert_after "/patients/*[2]"
           (Tree.element "aaron"
              [ Tree.element "service" [ Tree.text "surgery" ];
                Tree.element "diagnosis" [ Tree.text "flu" ] ]) ])
    ~patched:true;
  step "remove" ~dropped:patients
    (docs [ Op.remove "/patients/*[4]/visit[1]" ])
    ~patched:true;
  step "multi-root batch" ~dropped:patients
    (docs
       [ Op.update "/patients/*[1]/service" "oncology";
         Op.remove "/patients/*[5]/visit[2]";
         Op.append "/patients/*[7]" (Tree.element "note" [ Tree.text "new" ]);
         Op.update "/patients/*[last()]/diagnosis" "sinusitis" ])
    ~patched:true;
  let add d p path subject =
    Core.Op.Policy
      (Core.Op.Add_rule
         (Core.Rule.v d p ~path ~subject
            ~priority:(Core.Serve.fresh_priority serve)))
  in
  step "read-rule policy commit"
    [ add Core.Rule.Deny Core.Privilege.Read "//aaron/service" "secretary" ]
    ~patched:true;
  step "position-rule policy commit"
    [ add Core.Rule.Accept Core.Privilege.Position "//aaron/service"
        "secretary" ]
    ~patched:true;
  step "read-rule policy commit over most rows"
    [ add Core.Rule.Deny Core.Privilege.Read "/patients/*" "secretary" ]
    ~patched:true;
  step "document-level rename of the root element" ~dropped:patients
    (docs [ Op.rename "/patients" "patients" ])
    ~patched:true

(* The fanout_1k shape in small: nine one-user classes, each hiding one
   patient's visits with a downward deny of its own, beside a patient
   whose $USER rule makes the class non-local (widened on every document
   commit).  Multi-op batches come from writers in different classes,
   with a mixed and a policy-only commit between document commits.  One
   server fans out sequentially and one on four domains; after every
   commit each server's decision stores must equal a fresh compute
   (Snapshot_check.check_served), and the two servers must hold the
   same stores. *)
let test_serve_fanout_classes () =
  let config =
    { Workload.Gen_doc.patients = 12; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 53 }
  in
  let doc = Workload.Gen_doc.generate config in
  let patients = Array.of_list (Workload.Gen_doc.patient_names config) in
  let staff = List.init 9 (Printf.sprintf "w%d") in
  let patient = patients.(0) in
  let policy =
    let open Core.Privilege in
    let rule d p path subject priority =
      Core.Rule.v d p ~path ~subject ~priority
    in
    Core.Policy.v
      (Core.Subject.of_list
         ((Core.Subject.Role, "staff", [])
          :: (Core.Subject.Role, "patient", [])
          :: (Core.Subject.User, patient, [ "patient" ])
          :: List.map (fun u -> (Core.Subject.User, u, [ "staff" ])) staff))
      ([ rule Core.Rule.Accept Read "//node()" "staff" 1;
         rule Core.Rule.Deny Read "//diagnosis/node()" "staff" 2;
         rule Core.Rule.Accept Position "//diagnosis/node()" "staff" 3;
         rule Core.Rule.Accept Update "//node()" "staff" 4;
         rule Core.Rule.Accept Insert "//node()" "staff" 5;
         rule Core.Rule.Accept Delete "//visit" "staff" 6;
         rule Core.Rule.Accept Read "/patients" "patient" 7;
         rule Core.Rule.Accept Read
           "/patients/*[name() = $USER]/descendant-or-self::node()" "patient"
           8 ]
       @ List.mapi
           (fun i u ->
             rule Core.Rule.Deny Read
               (Printf.sprintf "//%s/visit" patients.(i + 1))
               u (10 + i))
           staff)
  in
  let users = patient :: staff in
  let serve pool =
    let serve = Core.Serve.create ~pool policy doc in
    Core.Serve.login_many serve users;
    serve
  in
  let seq = serve (Core.Pool.create 1) and par = serve (Core.Pool.create 4) in
  Alcotest.(check int) "one class per user" (List.length users)
    (Core.Serve.classes seq);
  let docs = List.map (fun op -> Core.Op.Doc op) in
  let batches serve =
    let deny path subject =
      Core.Op.Policy
        (Core.Op.Add_rule
           (Core.Rule.deny Core.Privilege.Read ~path ~subject
              ~priority:(Core.Serve.fresh_priority serve)))
    in
    [ ( "w0",
        docs
          [ Op.update "/patients/*[1]/service" "oncology";
            Op.update "/patients/*[2]/service" "surgery";
            Op.append "/patients/*[3]" (Tree.element "note" [ Tree.text "x" ]);
            Op.update "/patients/*[4]/service" "radiology" ] );
      ( "w4",
        docs
          [ Op.remove "/patients/*[5]/visit[1]";
            Op.insert_after "/patients/*[2]"
              (Tree.element "aaron"
                 [ Tree.element "service" [ Tree.text "surgery" ];
                   Tree.element "visit" [ Tree.text "new" ] ]);
            Op.update "/patients/*[10]/service" "cardiology" ] );
      ( "w7",
        [ Core.Op.Doc
            (Op.append "/patients/*[11]/visit[1]"
               (Tree.element "note" [ Tree.text "late" ]));
          deny "//aaron/service" "w2";
          deny "//visit/note" "staff";
          Core.Op.Doc (Op.update "/patients/*[12]/service" "oncology") ] );
      ("w1", [ deny "//note" "w3" ]);
      ( "w2",
        docs
          [ Op.update "/patients/*[6]/service" "neurology";
            Op.rename "/patients/*[7]" "anonymous";
            Op.remove "/patients/*[8]/visit[2]" ] );
      ( "w8",
        docs
          [ Op.append "/patients/*[1]/visit[1]"
              (Tree.element "note" [ Tree.text "follow-up" ]);
            Op.update "/patients/*[9]/service" "pediatrics" ] ) ]
  in
  let store serve user =
    let perm = Core.Session.perm (Core.Serve.session serve ~user) in
    List.map
      (fun privilege ->
        List.map
          (fun (id, (r : Core.Rule.t)) -> (Ordpath.to_string id, r.priority))
          (Core.Perm.decisions perm privilege))
      Core.Privilege.all
  in
  List.iter2
    (fun (writer, ops_seq) (_, ops_par) ->
      let commit serve ops =
        read_all serve;
        match Core.Serve.commit_ops serve ~user:writer ops with
        | Ok _ -> ()
        | Error e ->
          Alcotest.failf "%s's batch: %s" writer (Core.Txn.error_to_string e)
      in
      commit seq ops_seq;
      commit par ops_par;
      let what = Printf.sprintf "after %s's batch" writer in
      Test_support.Snapshot_check.check_served (what ^ ", pool 1") seq;
      Test_support.Snapshot_check.check_served (what ^ ", pool 4") par;
      List.iter
        (fun user ->
          Alcotest.(check (list (list (pair string int))))
            (Printf.sprintf "%s: %s's stores, pool 1 = pool 4" what user)
            (store seq user) (store par user))
        users)
    (batches seq) (batches par)

let () =
  Alcotest.run "differential"
    [
      ( "property",
        [
          Alcotest.test_case
            (Printf.sprintf "%d seeded cases, both equivalences" cases)
            `Quick test_differential;
          Alcotest.test_case
            (Printf.sprintf "%d seeded cases, view sources and staged targets"
               cases)
            `Quick test_view_sources;
        ] );
      ( "invalidation-boundaries",
        [
          Alcotest.test_case "document root" `Quick test_boundary_document_root;
          Alcotest.test_case "invisible target" `Quick
            test_boundary_invisible_target;
          Alcotest.test_case "RESTRICTED target" `Quick
            test_boundary_restricted_target;
          Alcotest.test_case "adjacent node" `Quick test_boundary_adjacent_node;
        ] );
      ( "serve",
        [
          Alcotest.test_case "writes broadcast deltas" `Quick
            test_serve_broadcast;
          Alcotest.test_case "denied writes keep caches" `Quick
            test_serve_denied_write_keeps_caches;
          Alcotest.test_case "random traffic, 8 sessions" `Quick
            test_serve_random_traffic;
          Alcotest.test_case "oracle patches equal rebuilds" `Quick
            test_serve_oracle_patches;
          Alcotest.test_case "one-user classes, pool 1 = pool 4" `Quick
            test_serve_fanout_classes;
        ] );
    ]
