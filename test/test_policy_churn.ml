(* Policy churn, end to end:

   (a) incremental re-resolution — [Perm.update_policy] after a random
       rule/isa mutation equals a from-scratch [Perm.compute], stepwise
       across a whole churn sequence (the incremental store is carried
       forward, so drift would compound and be caught);
   (b) transactional churn — a tolerant [Txn.commit_ops] of a mixed
       document + policy batch leaves the writer's session equal to a
       fresh login on the resulting (document, policy), and the applied
       policy ops replay to exactly [committed.policy];
   (c) class rekey — splits and merges of the permission-equivalence
       classes under [Serve.commit_ops] keep every logged user's view
       and query answers equal to a fresh session's;
   (d) mixed-journal recovery — for {e every} byte-prefix of a journal
       interleaving document and policy records, [Txn.recover]
       reproduces the document, the policy and every user's visibility
       at the last commit boundary inside the prefix. *)

open Xmldoc
module D = Document
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed = 20260808

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

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

let random_doc_op rng =
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

(* The random policies of Workload.Gen_policy carry subjects r1 <- r2 <-
   u; these are the isa edges churn may add or remove (others would
   cycle or already exist, which the tolerant paths also exercise). *)
let isa_candidates =
  [ ("u", "r1"); ("u", "r2"); ("r2", "r1"); ("r1", "u"); ("r2", "u") ]

let rule_paths = Workload.Gen_policy.path_pool

(* One random policy op against the current policy.  Priorities for
   added rules come from [next] so they stay unique across a sequence
   even when earlier rules were retracted (the live system's
   [Serve.fresh_priority] discipline). *)
let random_policy_op rng policy ~next =
  let rng, kind = Prng.int rng 4 in
  let add rng =
    let rng, deny = Prng.bool rng 0.4 in
    let rng, path = Prng.pick rng rule_paths in
    let rng, privilege = Prng.pick rng Core.Privilege.all in
    let rng, subject = Prng.pick rng [ "r1"; "r2"; "u" ] in
    let rule =
      Core.Rule.v
        (if deny then Core.Rule.Deny else Core.Rule.Accept)
        privilege ~path ~subject ~priority:!next
    in
    incr next;
    (rng, Core.Op.Add_rule rule)
  in
  match kind with
  | 0 | 1 -> add rng
  | 2 -> (
    match Core.Policy.rules policy with
    | [] -> add rng
    | rules ->
      let rng, r = Prng.pick rng rules in
      (rng, Core.Op.Retract_rule { priority = r.Core.Rule.priority }))
  | _ ->
    let subjects = Core.Policy.subjects policy in
    let present, absent =
      List.partition
        (fun (sub, super) -> Core.Subject.has_isa_edge subjects ~sub ~super)
        isa_candidates
    in
    let rng, remove = Prng.bool rng 0.5 in
    if remove && present <> [] then
      let rng, (sub, super) = Prng.pick rng present in
      (rng, Core.Op.Remove_isa { sub; super })
    else if absent <> [] then
      let rng, (sub, super) = Prng.pick rng absent in
      (rng, Core.Op.Add_isa { sub; super })
    else add rng

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 4 in
  let doc =
    Workload.Gen_doc.generate
      {
        Workload.Gen_doc.patients = patients + 2;
        visits_per_patient = 2;
        diagnosed_fraction = 0.7;
        seed;
      }
  in
  let rng, rules = Prng.int rng 7 in
  let policy =
    Workload.Gen_policy.random
      { Workload.Gen_policy.rules = rules + 3; deny_fraction = 0.3; seed }
  in
  (rng, doc, policy)

let render_facts perm doc =
  String.concat "\n"
    (List.map
       (fun (p, n) ->
         Core.Privilege.to_string p ^ " " ^ Ordpath.to_string n)
       (Core.Perm.facts perm doc))

let pp_pop = Format.asprintf "%a" Core.Op.pp_policy

(* ------------------------------------------------------------------ *)
(* (a) Perm.update_policy ≡ Perm.compute, stepwise                     *)
(* ------------------------------------------------------------------ *)

(* Replays [steps] policy mutations from [policy] on [doc], carrying two
   incremental stores forward — one re-resolved on the node map (the
   staging path) and one on a snapshot — and returns the first divergence
   from a from-scratch [compute] (or None).  Pure in (doc, policy), so
   shrinking can re-run it. *)
let churn_divergence ~seed ~steps doc policy =
  let rng = Prng.create (seed * 7 + 1) in
  let next = ref (Core.Policy.next_priority policy) in
  let flat = Flat.of_document doc in
  let rec go rng i policy (perm, flat_perm) =
    if i = steps then None
    else
      let rng, pop = random_policy_op rng policy ~next in
      let policy' =
        try
          Some
            (match pop with
             | Core.Op.Add_rule r -> Core.Policy.add_rule policy r
             | Core.Op.Retract_rule { priority } ->
               Core.Policy.revoke policy ~priority
             | Core.Op.Add_isa { sub; super } ->
               Core.Policy.add_isa policy ~sub ~super
             | Core.Op.Remove_isa { sub; super } ->
               Core.Policy.remove_isa policy ~sub ~super)
        with Core.Subject.Cycle _ | Core.Subject.Unknown_subject _ -> None
      in
      match policy' with
      | None -> go rng (i + 1) policy (perm, flat_perm)
      | Some policy' ->
        let perm', _delta =
          Core.Perm.update_policy perm ~old_policy:policy policy' doc
        in
        let flat_perm', _delta =
          Core.Perm.update_policy ~flat flat_perm ~old_policy:policy policy'
            doc
        in
        let want = render_facts (Core.Perm.compute policy' flat ~user:"u") doc in
        let diverges (where, perm) =
          let got = render_facts perm doc in
          if got = want then None
          else
            Some
              (Printf.sprintf
                 "step %d (%s): incremental facts diverge (%s)\ngot:\n%s\n\
                  want:\n%s"
                 i (pp_pop pop) where got want)
        in
        match
          List.find_map diverges
            [ ("node map", perm'); ("snapshot", flat_perm') ]
        with
        | Some _ as divergence -> divergence
        | None -> go rng (i + 1) policy' (perm', flat_perm')
  in
  let perm = Core.Perm.compute policy flat ~user:"u" in
  go rng 0 policy (perm, perm)

let test_update_policy_equivalence () =
  let cases = 120 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let _, doc, policy = random_case seed in
    let steps = 4 in
    match churn_divergence ~seed ~steps doc policy with
    | None -> ()
    | Some what ->
      let fails (d, p) =
        churn_divergence ~seed ~steps d p <> None
      in
      let doc' =
        Test_support.Shrink.document ~fails:(fun d -> fails (d, policy)) doc
      in
      let policy' =
        Test_support.Shrink.policy ~fails:(fun p -> fails (doc', p)) policy
      in
      let msg =
        Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy' what
      in
      Test_support.Shrink.save ~name:"policy-churn" ~seed msg;
      Alcotest.fail msg
  done

(* Axiom 14 resolves each privilege from that privilege's rules alone:
   retracting a deny-update rule re-matches the update rules over the
   nodes it decided and no read or position rule — with Rulestats on, no
   read or position rule gains a matched count — while the result still
   equals a from-scratch compute.  On the node map and on a snapshot. *)
let test_retraction_scope () =
  let doc =
    Workload.Gen_doc.generate
      { Workload.Gen_doc.default with patients = 6; seed = 12 }
  in
  let subjects = Core.Subject.of_list [ (Core.Subject.User, "u", []) ] in
  let open Core.Privilege in
  let rule d p path priority = Core.Rule.v d p ~path ~subject:"u" ~priority in
  let policy =
    Core.Policy.v subjects
      [ rule Core.Rule.Accept Read "//node()" 1;
        rule Core.Rule.Deny Read "//diagnosis/node()" 2;
        rule Core.Rule.Accept Position "//diagnosis/node()" 3;
        rule Core.Rule.Accept Update "//node()" 4;
        rule Core.Rule.Deny Update "//diagnosis" 5 ]
  in
  let retracted = Core.Policy.revoke policy ~priority:5 in
  let flat = Flat.of_document doc in
  let matched () =
    List.map
      (fun (r : Obs.Rulestats.report) -> (r.r_key, r.r_matched))
      (Obs.Rulestats.reports ())
  in
  Obs.Rulestats.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Rulestats.set_enabled false;
      Obs.Rulestats.clear ())
  @@ fun () ->
  List.iter
    (fun (where, flat_opt) ->
      Obs.Rulestats.clear ();
      let perm = Core.Perm.compute policy flat ~user:"u" in
      let before = matched () in
      let perm', delta =
        Core.Perm.update_policy ?flat:flat_opt perm ~old_policy:policy
          retracted doc
      in
      let after = matched () in
      Alcotest.(check bool)
        (where ^ ": the retraction re-resolved something") false
        (Core.Delta.is_empty delta);
      List.iter
        (fun key ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: rule %d's matched count is unchanged" where key)
            (List.assoc_opt key before) (List.assoc_opt key after))
        [ 1; 2; 3 ];
      Alcotest.(check bool)
        (where ^ ": the update grant was re-matched") true
        (List.assoc 4 after > List.assoc 4 before);
      Alcotest.(check string) (where ^ ": equals a from-scratch compute")
        (render_facts (Core.Perm.compute retracted flat ~user:"u") doc)
        (render_facts perm' doc))
    [ ("node map", None); ("snapshot", Some flat) ]

(* ------------------------------------------------------------------ *)
(* (b) mixed batches through Txn.commit_ops                            *)
(* ------------------------------------------------------------------ *)

let random_mixed_batch rng policy ~next =
  let rng, n = Prng.int rng 5 in
  let rec go rng n acc =
    if n = 0 then (rng, List.rev acc)
    else
      let rng, pol = Prng.bool rng 0.5 in
      if pol then
        let rng, pop = random_policy_op rng policy ~next in
        go rng (n - 1) (Core.Op.Policy pop :: acc)
      else
        let rng, op = random_doc_op rng in
        go rng (n - 1) (Core.Op.Doc op :: acc)
  in
  go rng (n + 2) []

let replay_applied policy applied =
  List.fold_left
    (fun policy op ->
      match op with
      | Core.Op.Doc _ -> policy
      | Core.Op.Policy (Core.Op.Add_rule r) -> Core.Policy.add_rule policy r
      | Core.Op.Policy (Core.Op.Retract_rule { priority }) ->
        Core.Policy.revoke policy ~priority
      | Core.Op.Policy (Core.Op.Add_isa { sub; super }) ->
        Core.Policy.add_isa policy ~sub ~super
      | Core.Op.Policy (Core.Op.Remove_isa { sub; super }) ->
        Core.Policy.remove_isa policy ~sub ~super)
    policy applied

let policy_str = Core.Policy_lang.to_string

let test_txn_mixed_equivalence () =
  let cases = 100 in
  for case = 0 to cases - 1 do
    let seed = base_seed + 10_000 + case in
    let rng, doc, policy = random_case seed in
    let next = ref (Core.Policy.next_priority policy) in
    let _, ops = random_mixed_batch rng policy ~next in
    let fail what =
      Alcotest.fail
        (Printf.sprintf "%s\n--- repro (seed %d) ---\npolicy:\n%sops: %s" what
           seed (policy_str policy)
           (String.concat "; "
              (List.map (Format.asprintf "%a" Core.Op.pp) ops)))
    in
    let session = Core.Session.login policy doc ~user:"u" in
    match Core.Txn.commit_ops ~on_denial:`Tolerate session ops with
    | Error e ->
      fail
        (Printf.sprintf "tolerant mixed commit aborted: %s"
           (Core.Txn.error_to_string e))
    | Ok c ->
      (* The applied policy ops replay (without any session machinery)
         to exactly the committed policy — what recovery relies on. *)
      let replayed = replay_applied policy c.Core.Txn.applied in
      if policy_str replayed <> policy_str c.Core.Txn.policy then
        fail "replayed applied ops <> committed policy";
      let changed = List.exists Core.Op.is_policy c.Core.Txn.applied in
      if c.Core.Txn.policy_changed <> changed then
        fail "policy_changed flag disagrees with the applied batch";
      (* The staged session (incremental re-resolution all the way) is
         indistinguishable from a fresh login on the final state. *)
      let s = c.Core.Txn.session in
      let fresh =
        Core.Session.login c.Core.Txn.policy (Core.Session.source s) ~user:"u"
      in
      if not (D.equal (Core.Session.view s) (Core.Session.view fresh)) then
        fail "staged view <> fresh-login view";
      let got = render_facts (Core.Session.perm s) (Core.Session.source s) in
      let want =
        render_facts (Core.Session.perm fresh) (Core.Session.source fresh)
      in
      if got <> want then
        fail
          (Printf.sprintf "staged perm facts <> fresh-login facts\ngot:\n%s\nwant:\n%s"
             got want)
  done

(* ------------------------------------------------------------------ *)
(* (c) Serve rekey: splits and merges keep every view correct          *)
(* ------------------------------------------------------------------ *)

let counter name =
  try List.assoc name (Obs.Metrics.counters Obs.Metrics.default)
  with Not_found -> 0

let rekey_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "d" [ Tree.text "three" ];
         Tree.element "note" [ Tree.text "confidential" ];
       ])

let rekey_policy () =
  let subjects =
    Core.Subject.of_list
      [
        (Core.Subject.Role, "staff", []);
        (Core.Subject.User, "a", [ "staff" ]);
        (Core.Subject.User, "b", [ "staff" ]);
        (Core.Subject.User, "c", [ "staff" ]);
      ]
  in
  Core.Policy.v subjects
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
        ~priority:1;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"staff"
        ~priority:2;
      Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:"staff"
        ~priority:3;
      Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:"staff"
        ~priority:4;
    ]

(* A read in every class, so that every class holds a visibility oracle
   the next commit must patch (or drop) and [check_served] compares. *)
let read_all serve =
  List.iter
    (fun user -> ignore (Core.Serve.query serve ~user "//node()"))
    (Core.Serve.users serve)

let check_serve_views serve users =
  let policy = Core.Serve.policy serve in
  let source = Core.Serve.source serve in
  List.iter
    (fun user ->
      let fresh = Core.Session.login policy source ~user in
      if
        not
          (D.equal (Core.Serve.view serve ~user) (Core.Session.view fresh))
      then Alcotest.failf "rekeyed view for %s diverges" user;
      let got = Core.Serve.query serve ~user "//node()" in
      let want = Core.Session.query fresh "//node()" in
      if
        List.length got <> List.length want
        || not (List.for_all2 Ordpath.equal got want)
      then Alcotest.failf "rekeyed query answers for %s diverge" user)
    users;
  Test_support.Snapshot_check.check_served "rekeyed serve" serve

let test_serve_split_merge () =
  let serve = Core.Serve.create (rekey_policy ()) (rekey_doc ()) in
  Core.Serve.login_many serve [ "a"; "b"; "c" ];
  Alcotest.(check int) "one class initially" 1 (Core.Serve.classes serve);
  let splits0 = counter "serve_class_splits_total" in
  let merges0 = counter "serve_class_merges_total" in
  read_all serve;
  (* A rule naming user b splits b out of the shared class. *)
  let p = Core.Serve.fresh_priority serve in
  (match
     Core.Serve.commit_ops serve ~user:"a"
       [
         Core.Op.Policy
           (Core.Op.Add_rule
              (Core.Rule.deny Core.Privilege.Read ~path:"//note" ~subject:"b"
                 ~priority:p));
       ]
   with
   | Ok c ->
     Alcotest.(check bool) "policy changed" true c.Core.Serve.policy_changed
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  Alcotest.(check int) "b split into its own class" 2
    (Core.Serve.classes serve);
  Alcotest.(check int) "one split counted" (splits0 + 1)
    (counter "serve_class_splits_total");
  check_serve_views serve [ "a"; "b"; "c" ];
  (* Retracting it (alongside a document op in the same batch) merges b
     back; the rekey must cover both the policy and the document step. *)
  (match
     Core.Serve.commit_ops serve ~user:"a"
       [
         Core.Op.Doc (Op.update "//d" "cured");
         Core.Op.Policy (Core.Op.Retract_rule { priority = p });
       ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  Alcotest.(check int) "classes merged back" 1 (Core.Serve.classes serve);
  Alcotest.(check int) "one merge counted" (merges0 + 1)
    (counter "serve_class_merges_total");
  check_serve_views serve [ "a"; "b"; "c" ];
  (* The document op really landed (through the rekey path, not the
     document-only broadcast). *)
  Alcotest.(check bool) "document op applied" true
    (Core.Session.query
       (Core.Session.login (Core.Serve.policy serve)
          (Core.Serve.source serve) ~user:"a")
       "//d[text() = 'cured']"
     <> [])

(* A view depends on read and position decisions only (axioms 15-17).
   A policy commit that moves only update, insert or delete rules must
   keep every class's snapshot visibility bytes physically ([==]); a
   read-rule commit rebuilds them for the class it touches and keeps the
   others; a document commit rebuilds them everywhere.  Throughout,
   every class's view and answers equal a fresh login's. *)
let test_visibility_survival () =
  let config =
    { Workload.Gen_doc.patients = 6; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 7 }
  in
  let doc = Workload.Gen_doc.generate config in
  let subjects =
    Core.Subject.of_list
      [ (Core.Subject.Role, "staff", []);
        (Core.Subject.Role, "secretary", [ "staff" ]);
        (Core.Subject.Role, "doctor", [ "staff" ]);
        (Core.Subject.User, "sec", [ "secretary" ]);
        (Core.Subject.User, "doc", [ "doctor" ]);
        (Core.Subject.User, "ed", [ "staff" ]) ]
  in
  let open Core.Privilege in
  let rule d p path subject priority =
    Core.Rule.v d p ~path ~subject ~priority
  in
  let policy =
    Core.Policy.v subjects
      [ rule Core.Rule.Accept Read "//node()" "staff" 1;
        rule Core.Rule.Deny Read "//diagnosis/node()" "secretary" 2;
        rule Core.Rule.Accept Position "//diagnosis/node()" "secretary" 3;
        rule Core.Rule.Accept Update "//node()" "staff" 4;
        rule Core.Rule.Accept Insert "//node()" "doctor" 5;
        rule Core.Rule.Accept Delete "//note" "doctor" 6 ]
  in
  let users = [ "sec"; "doc"; "ed" ] in
  let serve = Core.Serve.create policy doc in
  Core.Serve.login_many serve users;
  Alcotest.(check int) "three classes" 3 (Core.Serve.classes serve);
  let state user =
    snd (Core.Lazy_view.flat_visibility (Core.Serve.lazy_view serve ~user))
  in
  let check_fresh stage =
    List.iter
      (fun user ->
        let fresh =
          Core.Session.login (Core.Serve.policy serve)
            (Core.Serve.source serve) ~user
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: view of %s = fresh login" stage user)
          true
          (D.equal (Core.Serve.view serve ~user) (Core.Session.view fresh));
        List.iter
          (fun q ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: %s for %s = fresh login" stage q user)
              (List.map Ordpath.to_string (Core.Session.query fresh q))
              (List.map Ordpath.to_string (Core.Serve.query serve ~user q)))
          [ "//node()"; "//visit[diagnosis]"; "//RESTRICTED"; "//visit[1]" ])
      users
  in
  let commit ops =
    read_all serve;
    match Core.Serve.commit_ops serve ~user:"ed" ops with
    | Ok _ -> Test_support.Snapshot_check.check_served "visibility commit" serve
    | Error e -> Alcotest.fail (Core.Txn.error_to_string e)
  in
  let add d p path subject =
    Core.Op.Policy
      (Core.Op.Add_rule
         (rule d p path subject (Core.Serve.fresh_priority serve)))
  in
  let expect stage ~kept before =
    List.iter2
      (fun user bytes ->
        let bytes' = state user in
        let keep = List.mem user kept in
        Alcotest.(check bool)
          (Printf.sprintf "%s: visibility bytes of %s %s" stage user
             (if keep then "kept" else "rebuilt"))
          keep (bytes' == bytes))
      users before
  in
  let before = List.map state users in
  (* Write rules only, one per class and one for all of them. *)
  commit [ add Core.Rule.Deny Update "//service" "secretary" ];
  commit
    [ add Core.Rule.Deny Insert "//visit" "doctor";
      add Core.Rule.Deny Delete "//note" "staff" ];
  expect "write-rule commits" ~kept:users before;
  let service =
    List.hd (Core.Session.query_source (Core.Serve.session serve ~user:"sec")
               "//service")
  in
  Alcotest.(check bool) "the write rules were still resolved" false
    (Core.Session.holds (Core.Serve.session serve ~user:"sec") Update service);
  check_fresh "write-rule commits";
  let before = List.map state users in
  commit [ add Core.Rule.Deny Read "//note" "secretary" ];
  expect "read-rule commit" ~kept:[ "doc"; "ed" ] before;
  check_fresh "read-rule commit";
  let before = List.map state users in
  commit [ add Core.Rule.Accept Position "//note" "secretary" ];
  expect "position-rule commit" ~kept:[ "doc"; "ed" ] before;
  check_fresh "position-rule commit";
  let before = List.map state users in
  commit [ Core.Op.Doc (Op.update "//service" "cardiology") ];
  expect "document commit" ~kept:[] before;
  check_fresh "document commit"

(* ------------------------------------------------------------------ *)
(* (d) every-byte-prefix recovery of a mixed journal                   *)
(* ------------------------------------------------------------------ *)

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-churn" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

module P = Core.Paper_example

(* A deterministic mixed script: document-only, policy-only and mixed
   batches, every one committing.  Policy ops take fresh timestamps from
   the serve clock, so the script is built per store instance. *)
let mixed_script serve =
  let p1 = Core.Serve.fresh_priority serve in
  let p2 = Core.Serve.fresh_priority serve in
  [
    ( P.laporte,
      [ Core.Op.Doc (Op.update "/patients/franck/diagnosis" "pharyngitis") ] );
    ( P.laporte,
      [
        Core.Op.Policy
          (Core.Op.Add_rule
             (Core.Rule.deny Core.Privilege.Read ~path:"//service/node()"
                ~subject:"secretary" ~priority:p1));
      ] );
    ( P.beaufort,
      [
        Core.Op.Doc (Op.rename "/patients/robert" "r2");
        Core.Op.Policy
          (Core.Op.Add_isa { sub = P.richard; super = "doctor" });
        Core.Op.Doc
          (Op.append "/patients"
             (Tree.element "zoe"
                [ Tree.element "service" [ Tree.text "surgery" ] ]));
      ] );
    ( P.laporte,
      [
        Core.Op.Policy (Core.Op.Retract_rule { priority = p1 });
        Core.Op.Doc (Op.update "/patients/franck/diagnosis" "cured");
        Core.Op.Policy
          (Core.Op.Add_rule
             (Core.Rule.accept Core.Privilege.Read ~path:"//note"
                ~subject:"patient" ~priority:p2));
      ] );
    ( P.beaufort,
      [ Core.Op.Policy (Core.Op.Remove_isa { sub = P.richard; super = "doctor" }) ]
    );
  ]

let visibility_users = [ P.laporte; P.beaufort; P.richard; P.robert ]

(* Byte-for-byte visibility: the serialised view of every user under the
   recovered (document, policy) equals the reference one. *)
let check_visibility ~p recovered_doc recovered_policy ref_doc ref_policy =
  List.iter
    (fun user ->
      let render policy doc =
        Xml_print.to_string
          (Core.Session.view (Core.Session.login policy doc ~user))
      in
      let got = render recovered_policy recovered_doc in
      let want = render ref_policy ref_doc in
      if got <> want then
        Alcotest.failf "prefix %d: visibility for %s diverges\ngot:  %s\nwant: %s"
          p user got want)
    visibility_users

let build_mixed_store dir =
  let store = Store.open_dir dir in
  let doc0 = P.document () in
  Store.init store doc0;
  let journal = Filename.concat dir "journal.log" in
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  Core.Serve.login_many serve visibility_users;
  let script = mixed_script serve in
  let boundaries = ref [ (file_size journal, 0, doc0, P.policy) ] in
  List.iteri
    (fun i (user, ops) ->
      read_all serve;
      match Core.Serve.commit_ops serve ~user ops with
      | Ok _ ->
        Test_support.Snapshot_check.check_served
          (Printf.sprintf "mixed script step %d" i) serve;
        boundaries :=
          ( file_size journal,
            i + 1,
            Core.Serve.source serve,
            Core.Serve.policy serve )
          :: !boundaries
      | Error e ->
        Alcotest.failf "mixed script step %d aborted: %s" i
          (Core.Txn.error_to_string e))
    script;
  Store.close store;
  (script, List.rev !boundaries, slurp journal)

let truncated_copy src bytes p =
  let dir = mk_temp_dir () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".snap" then
        spit (Filename.concat dir f) (slurp (Filename.concat src f)))
    (Sys.readdir src);
  spit (Filename.concat dir "journal.log") (String.sub bytes 0 p);
  dir

let test_mixed_recovery_every_prefix () =
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let script, boundaries, bytes = build_mixed_store src in
  Alcotest.(check int) "script fully journalled"
    (List.length script + 1)
    (List.length boundaries);
  (* Historical batches stay on the v1 frame; only batches carrying
     policy ops pay the versioned tag. *)
  let v2_expected =
    List.length
      (List.filter (fun (_, ops) -> List.exists Core.Op.is_policy ops) script)
  in
  let count_sub s sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "only mixed batches use the v2 frame" v2_expected
    (count_sub bytes "ver=\"2\"");
  let base = match boundaries with (b, _, _, _) :: _ -> b | [] -> 0 in
  for p = base to String.length bytes do
    let off, seq, doc, policy =
      List.fold_left
        (fun acc (off, seq, doc, pol) ->
          if off <= p then (off, seq, doc, pol) else acc)
        (List.hd boundaries) boundaries
    in
    let dir = truncated_copy src bytes p in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let r = Core.Txn.recover P.policy dir in
    if r.Core.Txn.seq <> seq then
      Alcotest.failf "prefix %d: recovered seq %d, expected %d" p
        r.Core.Txn.seq seq;
    if r.Core.Txn.torn_bytes <> p - off then
      Alcotest.failf "prefix %d: torn %d, expected %d" p r.Core.Txn.torn_bytes
        (p - off);
    if not (D.equal r.Core.Txn.doc doc) then
      Alcotest.failf "prefix %d: recovered document diverges" p;
    if policy_str r.Core.Txn.policy <> policy_str policy then
      Alcotest.failf "prefix %d: recovered policy diverges\ngot:\n%swant:\n%s"
        p
        (policy_str r.Core.Txn.policy)
        (policy_str policy);
    if p = off then
      check_visibility ~p r.Core.Txn.doc r.Core.Txn.policy doc policy
  done;
  (* Full journal: final state, nothing torn. *)
  let r = Core.Txn.recover P.policy src in
  let _, seq, final_doc, final_policy =
    List.nth boundaries (List.length boundaries - 1)
  in
  Alcotest.(check int) "final seq" seq r.Core.Txn.seq;
  Alcotest.(check int) "nothing torn" 0 r.Core.Txn.torn_bytes;
  Alcotest.(check bool) "final document" true (D.equal r.Core.Txn.doc final_doc);
  Alcotest.(check string) "final policy" (policy_str final_policy)
    (policy_str r.Core.Txn.policy);
  check_visibility ~p:(String.length bytes) r.Core.Txn.doc r.Core.Txn.policy
    final_doc final_policy

(* Five writers, each first seen by the replay at a different record:
   two policy-only batches by different users on one document version
   (their logins share the replay's snapshot), mixed batches with the
   policy op before and after a document op, a writer logged in only
   after the document gained the node its op targets, and a writer
   whose class a replayed isa edit changed.  Recovery must land on the
   live server's document and policy. *)
let test_recovery_first_seen_users () =
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let store = Store.open_dir dir in
  let doc0 = P.document () in
  Store.init store doc0;
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  let p1 = Core.Serve.fresh_priority serve in
  let p2 = Core.Serve.fresh_priority serve in
  let add rule = Core.Op.Policy (Core.Op.Add_rule rule) in
  let script =
    [ ( P.richard,
        [ add
            (Core.Rule.deny Core.Privilege.Read ~path:"//service/node()"
               ~subject:"secretary" ~priority:p1) ] );
      ( P.robert,
        [ Core.Op.Policy
            (Core.Op.Add_isa { sub = P.richard; super = "doctor" }) ] );
      ( P.beaufort,
        [ Core.Op.Doc
            (Op.append "/patients"
               (Tree.element "zoe"
                  [ Tree.element "service" [ Tree.text "surgery" ];
                    Tree.element "diagnosis" [] ]));
          add
            (Core.Rule.accept Core.Privilege.Read ~path:"//note"
               ~subject:"patient" ~priority:p2) ] );
      ( P.laporte,
        [ Core.Op.Policy (Core.Op.Retract_rule { priority = p1 });
          Core.Op.Doc (Op.append "/patients/zoe/diagnosis" (Tree.text "flu")) ]
      );
      ( P.richard,
        [ Core.Op.Doc (Op.update "/patients/franck/diagnosis" "cured") ] ) ]
  in
  List.iteri
    (fun i (user, ops) ->
      match Core.Serve.commit_ops serve ~user ops with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "step %d by %s aborted: %s" i user
          (Core.Txn.error_to_string e))
    script;
  Store.close store;
  let r = Core.Txn.recover P.policy dir in
  Alcotest.(check int) "every batch replayed" (List.length script)
    r.Core.Txn.replayed;
  Alcotest.(check bool) "the live server's document" true
    (D.equal r.Core.Txn.doc (Core.Serve.source serve));
  Alcotest.(check string) "the live server's policy"
    (policy_str (Core.Serve.policy serve))
    (policy_str r.Core.Txn.policy);
  Alcotest.(check int) "zoe's diagnosis was written" 1
    (List.length
       (Xpath.Eval.select_str r.Core.Txn.doc "/patients/zoe/diagnosis/text()"))

let () =
  Alcotest.run "policy_churn"
    [
      ( "incremental",
        [
          Alcotest.test_case
            "120 seeded churn sequences: update_policy ≡ compute" `Quick
            test_update_policy_equivalence;
          Alcotest.test_case "a retraction re-matches only its privilege"
            `Quick test_retraction_scope;
        ] );
      ( "transactional",
        [
          Alcotest.test_case
            "100 seeded mixed batches ≡ fresh login on the result" `Quick
            test_txn_mixed_equivalence;
        ] );
      ( "rekey",
        [
          Alcotest.test_case "split and merge keep views and queries exact"
            `Quick test_serve_split_merge;
          Alcotest.test_case "visibility survives write-rule commits only"
            `Quick test_visibility_survival;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "every byte-prefix of a mixed journal" `Quick
            test_mixed_recovery_every_prefix;
          Alcotest.test_case "five first-seen writers" `Quick
            test_recovery_first_seen_users;
        ] );
    ]
